"""Exact LHV enumeration kernel over Alice's 2**n deterministic assignments.

Assignments are indexed so that bit n-1-i holds Alice setting i (clear bit is
-1); numeric index order is then lexicographic order with -1 < +1. The scan
keeps the smallest maximizing index and returns its assignment, read from the
sign tables it was scored with.

Three exact reductions keep the scan cheap without changing any result:

* Sign symmetry. A and -A score the same, and of each pair the smaller index
  has setting 0 = -1, so the smallest maximizer lies below 2**(n-1). Only that
  half is scanned.
* Meet in the middle (Horowitz & Sahni, J. ACM 21, 1974). The other n-1
  settings split into a high prefix and the last `lo` settings. A table over
  each half holds its integer column sums, so an assignment costs one add and
  a reduction over n entries instead of an n x n product.
* Fewer bytes and fewer columns per assignment. Every table entry and score
  is bounded by n * max_i sum_j |m_ij|, so the scan runs in int16 when that
  bound fits (every AS_n under the 24-setting cap), else in int64. A column
  with no entry in the low rows scores |high[j, h]| whatever the low half is
  (and one with no entry in the high rows |low[j, l]|): such columns are
  summed once into one nonnegative row per table, and only the mixed columns
  and that row enter each block.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Assignments scored per block; bounds the working set of one block.
_BLOCK_ASSIGNMENTS = 1 << 14

_INT16_MAX = np.iinfo(np.int16).max


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


def _fold_one_half_columns(
    m: np.ndarray, high: np.ndarray, low: np.ndarray, lo: int
) -> tuple[np.ndarray, np.ndarray]:
    """The tables with the columns that have entries in one half only folded into one row.

    Such a column scores |high[j, h]| (or |low[j, l]|) whatever the other half
    is. The folded high row sums those |high[j, h]| and the folded low row
    those |low[j, l]|; both are nonnegative, so |high + low| on them is their
    sum and no score changes.
    """
    in_high = m[: m.shape[0] - lo].any(axis=0)
    in_low = m[m.shape[0] - lo :].any(axis=0)
    mixed = in_high & in_low
    if mixed.all():
        return high, low
    folded_high = np.abs(high[~in_low]).sum(axis=0)
    folded_low = np.abs(low[~in_high]).sum(axis=0)
    return np.vstack([high[mixed], folded_high]), np.vstack([low[mixed], folded_low])


def lhv_max(m: np.ndarray) -> tuple[int, np.ndarray]:
    """Max over assignments of sum_j |column sum|, with the smallest maximizing assignment."""
    m = np.asarray(m, dtype=np.int64)
    n = m.shape[0]
    # Every table entry and score is bounded by n * max_i sum_j |m_ij|; the
    # scan runs in int16 when that holds it, else in int64.
    bound = n * int(np.abs(m).sum(axis=1).max())
    dtype = np.int16 if bound <= _INT16_MAX else np.int64
    high, low, lo = _halves(m)
    high, low = _fold_one_half_columns(m, high, low, lo)
    high, low = high.astype(dtype), low.astype(dtype)
    step = max(1, _BLOCK_ASSIGNMENTS >> lo)
    buf = np.empty((high.shape[0], min(step, high.shape[1]), low.shape[1]), dtype=dtype)
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
    h, l = divmod(best_index, 1 << lo)
    return best, np.concatenate(([-1], _signs(n - 1 - lo)[:, h], _signs(lo)[:, l]))
