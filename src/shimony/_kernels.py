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
* One high index per class of equal sums on the low-row columns, those with
  an entry in the low rows. A column with no entry in the low rows adds
  |high[j, h]| to every score of high index h, whatever the low half is, so
  it belongs to h's high-only score fh. A column with no entry in the high
  rows has high[j, h] = 0 and scores |low[j, l]| in the block. High rows
  (settings 1..n-lo-1) that are equal on the low-row columns add the same
  vector there, and one that is zero there adds nothing, so the low-row sums
  of h depend only on how many rows of each group of equal nonzero rows are
  +1 in h. Every high row is zero on a column with no entry in the high
  rows, so these groups are those of equal rows on the mixed columns, which
  have entries in both halves. Against any low index l, two indices of one
  class then score the same but for fh: the one with the smaller fh loses,
  and on a tie the larger index is not the smallest. So only the first h
  with the largest fh of its class can be the smallest maximizer. Those
  representatives are scanned in ascending order with the same blocks, the
  first maximum within a block and a strict > across blocks, so the value
  and the witness are those of the full scan. Every high row of AS_n is all
  ones on its mixed columns, which leaves n/2 of its 2**(n/2-1) high
  indices; a matrix whose high rows are distinct and nonzero there keeps all
  of them.

Every table entry and score is bounded by n * max_i sum_j |m_ij|, so the scan
runs in int16, two bytes per entry, when that bound fits (every AS_n under the
24-setting cap), else in int64.
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


def _representatives(rows: np.ndarray, high_only: np.ndarray) -> np.ndarray:
    """Ascending high indices, the first with the largest high_only score of each class.

    rows are the high rows (settings 1..n-lo-1) on the low-row columns. Two
    high indices share a class when every group of equal nonzero rows has as
    many +1 rows in both; their sums on those columns are then equal.
    """
    k = rows.shape[0]
    # Each group counts its +1 rows in its own digit, base k + 1; zero rows
    # count in none.
    digits: dict[tuple[int, ...], int] = {}
    weights = [
        (k + 1) ** digits.setdefault(row, len(digits)) if any(row) else 0
        for row in map(tuple, rows.tolist())
    ]
    classes = np.array(weights, dtype=np.int64) @ ((_signs(k) + 1) >> 1)
    order = np.lexsort((-high_only, classes))  # stable: ascending h on ties
    first = np.ones(order.size, dtype=bool)
    first[1:] = classes[order[1:]] != classes[order[:-1]]
    return np.sort(order[first])


def lhv_max(m: np.ndarray) -> tuple[int, np.ndarray]:
    """Max over assignments of sum_j |column sum|, with the smallest maximizing assignment."""
    m = np.asarray(m, dtype=np.int64)
    n = m.shape[0]
    # Every table entry and score is bounded by n * max_i sum_j |m_ij|; the
    # scan runs in int16 when that holds it, else in int64.
    bound = n * int(np.abs(m).sum(axis=1).max())
    dtype = np.int16 if bound <= _INT16_MAX else np.int64
    high, low, lo = _halves(m)
    # The columns with an entry in the low rows; on the others low[j] = 0 and
    # the score of high index h takes |high[j, h]| whatever the low half is.
    in_low = m[n - lo :].any(axis=0)
    scanned = _representatives(m[1 : n - lo, in_low], np.abs(high[~in_low]).sum(axis=0))
    high, low = high[:, scanned].astype(dtype), low.astype(dtype)
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
    i, l = divmod(best_index, 1 << lo)
    h = scanned[i]
    return best, np.concatenate(([-1], _signs(n - 1 - lo)[:, h], _signs(lo)[:, l]))
