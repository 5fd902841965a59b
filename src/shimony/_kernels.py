"""Exact enumeration kernels over Alice's 2**n deterministic assignments.

Assignments are indexed so that bit n-1-i holds Alice setting i (clear bit is
-1); numeric index order is then lexicographic order with -1 < +1.

Two exact reductions keep the scan cheap without changing any result:

* Sign symmetry. A and -A score the same, and of each pair the smaller index
  has setting 0 = -1, so the smallest maximizer lies below 2**(n-1). Only that
  half is scanned.
* Meet in the middle (Horowitz & Sahni, J. ACM 21, 1974). The other n-1
  settings split into a high prefix and the last `lo` settings. A table over
  each half holds its contribution (integer column sums for LHV, resultants of
  the rows of m @ bob for steering), so an assignment costs one add and a
  reduction over n (or 3) entries instead of an n x n product.

LHV sums stay exact integers. The steering norms are float64, and the witness
is the smallest index within STEERING_TIE_TOL of the maximum; callers
recompute the reported value from that witness's integer column sums.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Absolute tolerance for "same norm" when picking the lexicographically
# smallest steering witness among float ties.
STEERING_TIE_TOL = 1e-12

# Assignments scored per block; bounds the working set of one block.
_BLOCK_ASSIGNMENTS = 1 << 14

_INT32_MAX = np.iinfo(np.int32).max


def backend_name() -> str:
    return "numpy"


# Read-only, so callers may share it; under the 24-setting enumeration cap
# k <= 12, which keeps the cache below 1 MB.
@lru_cache(maxsize=None)
def _signs(k: int) -> np.ndarray:
    """(k, 2**k) signs: column t holds bit k-1-i of t as row i (clear bit is -1)."""
    bits = (np.arange(1 << k, dtype=np.int64) >> np.arange(k - 1, -1, -1)[:, None]) & 1
    signs = 2 * bits - 1
    signs.setflags(write=False)
    return signs


def _halves(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Tables over the scanned half, setting 0 fixed to -1: (cols, 2**hi) and (cols, 2**lo).

    The high table sums -rows[0] and the signed middle rows; the low table the
    signed last lo = ceil((n-1)/2) rows. An assignment's index within the half
    is (h << lo) | l, and its sum is high[:, h] + low[:, l].
    """
    n = rows.shape[0]
    lo = n // 2
    high = rows[1 : n - lo].T @ _signs(n - 1 - lo) - rows[0][:, None]
    low = rows[n - lo :].T @ _signs(lo)
    return high, low, lo


def lhv_max(m: np.ndarray) -> tuple[int, int]:
    """Max over assignments of sum_j |column sum|, with the smallest index."""
    m = np.asarray(m, dtype=np.int64)
    n = m.shape[0]
    # Every table entry and score is bounded by n * max_i sum_j |m_ij|.
    dtype = np.int32 if n * int(np.abs(m).sum(axis=1).max()) <= _INT32_MAX else np.int64
    high, low, lo = _halves(m)
    high, low = high.astype(dtype), low.astype(dtype)
    step = max(1, _BLOCK_ASSIGNMENTS >> lo)
    buf = np.empty((n, min(step, high.shape[1]), low.shape[1]), dtype=dtype)
    best = -1
    best_index = 0
    for start in range(0, high.shape[1], step):
        block = buf[:, : min(step, high.shape[1] - start)]
        np.add(high[:, start : start + block.shape[1], None], low[:, None, :], out=block)
        np.abs(block, out=block)
        values = block.sum(axis=0, dtype=dtype).ravel()
        k = int(np.argmax(values))  # first max within the block
        if values[k] > best:
            best = int(values[k])
            best_index = (start << lo) + k
    return best, best_index


def steering_max(
    m: np.ndarray, bob: np.ndarray, tie_tol: float = STEERING_TIE_TOL
) -> tuple[float, int]:
    """Max over assignments of ||sum_j c_j b_j||, smallest index within tie_tol."""
    w = np.asarray(m, dtype=np.float64) @ np.asarray(bob, dtype=np.float64)
    high, low, lo = _halves(w)
    step = max(1, _BLOCK_ASSIGNMENTS >> lo)
    starts = range(0, high.shape[1], step)

    def block_norms(start: int) -> np.ndarray:
        r = high[:, start : start + step, None] + low[:, None, :]
        r *= r
        return np.sqrt(r.sum(axis=0)).ravel()

    # Pass 1 records each block's maximum; pass 2 rescans only the first
    # block that reaches the tie threshold, which holds the smallest index.
    block_best = [float(block_norms(start).max()) for start in starts]
    threshold = max(block_best) - tie_tol
    for start, value in zip(starts, block_best):
        if value >= threshold:
            norms = block_norms(start)
            k = int(np.nonzero(norms >= threshold)[0][0])
            return float(norms[k]), (start << lo) + k
    raise AssertionError("maximum vanished between passes")
