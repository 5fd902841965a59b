"""Abner-Shimony (AS) coefficient matrices and exact local bounds.

AS_N is the N-setting bipartite correlation Bell functional, defined for even
N. Over 1-indexed setting pairs (i, j) its coefficients follow a three-zone
rule:

    m[i][j] = 1               if i + j <= N + 1
    m[i][j] = -(min(i, j)-1)  if i + j == N + 2
    m[i][j] = 0               if i + j >  N + 2

so the matrix is symmetric with an all-ones first row and column and an
anti-diagonal band of growing negative weights. The local hidden variable
(LHV) bound is the exact integer (N/2)(N/2+1). It is flat: when Bob answers
each setting with the sign of its column sum, every one of Alice's 2**N
assignments scores exactly (N/2)(N/2+1). Proof, with N = 2M, S_0 = 0 and
S_k = A_1 + ... + A_k: column N+1-k sums to S_k - t_k A_{k+1} with
t_k = min(k, N-k), so Alice's score is sum_{k=1..N} |S_k - t_k A_{k+1}|.

* First half, k <= M. Here |S_k| <= k = t_k, so each term is
  k - A_{k+1} S_k, and S_{k+1}**2 = S_k**2 + 2 A_{k+1} S_k + 1 telescopes
  the sum to (M+1)**2/2 - S_{M+1}**2/2.
* Second half, k > M. Let j = N - k and G(j, S) be the sum of the terms
  from k on, given S_k = S (S and j have the same parity). By induction on j,
  G(j, S) = (j+1)|S| when |S| >= j and (j(j+2) + S**2)/2 when |S| <= j,
  whatever the later outcomes. G(0, S) = |S|; and the step
  G(j, S) = |S - jA| + G(j-1, S+A) holds for both A = +-1 by two cases of
  algebra, since the parity rules out |S| = j - 1.
* Total. With j = M - 1 and S = S_{M+1}, the halves add to M(M+1) both for
  |S| <= M - 1 and for |S| = M + 1.

The tests check the step and the total in exact integers for j, M <= 300,
and the flat score itself by enumeration for N <= 12 and by a dynamic
program over the walk for every even N <= 100 and N = 200, 300, 1000. So
`lhv_bound` takes AS_N's bound from the closed form at any order, and scans
2**(n-1) assignments only for other matrices; `lhv_bound_bruteforce` keeps
the scan for any matrix as the independent check.

Everything in this module is integer arithmetic; bounds are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

# The LHV enumeration scans 2**(n-1) deterministic assignments (one of each
# A, -A pair); refuse anything beyond this many settings rather than hang.
MAX_ENUMERATION_SETTINGS = 24

# The steering bound sweeps n great circles with one sort each; refuse
# anything beyond this many settings. One call on AS_300 with a random Bob
# set takes about 20-35 ms on a 2-vCPU x86 host.
MAX_STEERING_SETTINGS = 300


class ResourceLimitError(RuntimeError):
    """Computation refused: the order n is beyond the cap for this bound."""


def require_enumerable(n: int) -> None:
    """Refuse an enumeration over 2**n assignments beyond the settings cap."""
    if n > MAX_ENUMERATION_SETTINGS:
        raise ResourceLimitError(
            f"enumeration over 2**{n} assignments exceeds the cap of "
            f"{MAX_ENUMERATION_SETTINGS} settings"
        )


def require_steering_size(n: int) -> None:
    """Refuse a steering bound beyond the polynomial settings cap."""
    if n > MAX_STEERING_SETTINGS:
        raise ResourceLimitError(
            f"steering bound over {n} settings exceeds the cap of "
            f"{MAX_STEERING_SETTINGS} settings"
        )


def require_even_settings(n: int) -> int:
    """Validate a setting count (even integer >= 2) and return it as int."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"number of settings must be an integer, got {n!r}")
    if n < 2 or n % 2 != 0:
        raise ValueError(f"number of settings must be an even integer >= 2, got {n}")
    return int(n)


def build_as_matrix(n: int) -> np.ndarray:
    """Return the N x N AS coefficient matrix as a read-only int64 array."""
    n = require_even_settings(n)
    i = np.arange(1, n + 1, dtype=np.int64)[:, None]
    j = np.arange(1, n + 1, dtype=np.int64)[None, :]
    m = np.where(i + j <= n + 1, 1, 0)
    m = np.where(i + j == n + 2, -(np.minimum(i, j) - 1), m).astype(np.int64)
    m.setflags(write=False)
    return m


def as_coefficient_matrix(m) -> np.ndarray:
    """Coerce to a square int64 coefficient matrix, rejecting non-integers."""
    arr = np.asarray(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(
            f"coefficient matrix must be square and non-empty, got shape {arr.shape}"
        )
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"coefficient matrix entries must be real numbers, got dtype {arr.dtype}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficient matrix entries must be finite integers")
        rounded = np.rint(arr)
        if np.any(arr != rounded):
            raise ValueError("coefficient matrix entries must be integers")
        arr = rounded
    # Every column sum and score is at most n * max_i sum_j |m_ij|; keep it
    # well inside int64 so the integer arithmetic cannot wrap.
    if arr.shape[0] * np.abs(arr.astype(np.float64)).sum(axis=1).max() >= 2.0**62:
        raise ValueError("coefficient matrix entries are too large for exact int64 sums")
    return np.ascontiguousarray(arr, dtype=np.int64)


def as_assignment(values, n: int | None = None) -> np.ndarray:
    """Coerce to a 1-D vector of +-1 settings outcomes."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"assignment must be one-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"assignment length {arr.shape[0]} does not match n={n}")
    if not np.all(np.isin(arr, (-1, 1))):
        raise ValueError("assignment entries must be +1 or -1")
    return arr.astype(np.int64)


def lhv_bound_closed_form(n: int) -> int:
    """Exact LHV maximum of AS_N: (N/2)(N/2 + 1)."""
    n = require_even_settings(n)
    return (n // 2) * (n // 2 + 1)


def assignment_from_index(index: int, n: int) -> np.ndarray:
    """Decode an enumeration index into a +-1 assignment.

    Bit n-1-i of the index holds setting i, with a clear bit meaning -1, so
    numeric order on indices equals lexicographic order on assignments under
    -1 < +1.
    """
    bits = (int(index) >> np.arange(n - 1, -1, -1, dtype=np.int64)) & 1
    return (2 * bits - 1).astype(np.int64)


@dataclass(frozen=True, eq=False)
class LhvBoundResult:
    """Exact LHV maximum together with a deterministic attaining pair."""

    value: int
    alice_witness: np.ndarray
    bob_witness: np.ndarray


def classical_value(m, alice, bob) -> int:
    """Evaluate sum_ij m[i][j] * alice[i] * bob[j] exactly."""
    m = as_coefficient_matrix(m)
    a = as_assignment(alice, m.shape[0])
    b = as_assignment(bob, m.shape[0])
    return int(a @ m @ b)


def lhv_bound_bruteforce(m) -> LhvBoundResult:
    """Maximize the functional over deterministic +-1 assignments.

    Bob is eliminated analytically (his optimal outcome on setting j is the
    sign of the j-th column sum), so only Alice's 2**n assignments are
    enumerated. Ties resolve to the lexicographically smallest Alice witness
    (-1 < +1); Bob's witness takes -1 on zero column sums for the same reason.
    """
    m = as_coefficient_matrix(m)
    n = m.shape[0]
    require_enumerable(n)
    value, index = _kernels.lhv_max(m)
    return _with_bob_response(m, value, assignment_from_index(index, n))


def lhv_bound(m) -> LhvBoundResult:
    """Exact LHV maximum: the closed form for AS_n, the scan for any other matrix.

    A matrix equal to AS_n (n even, in any integer-valued dtype) gets
    (N/2)(N/2+1) with the all -1 Alice witness. Every assignment scores that
    against Bob's best response (proved by induction on the walk of partial
    sums S_k in the module docstring), so the all -1 one is the smallest
    maximizer, the scan's own witness at every n up to its cap, and no order
    cap applies. Every other matrix goes to lhv_bound_bruteforce and its
    cap. Row 0 of AS_n is all ones, so most other matrices are told apart
    without building AS_n.
    """
    m = as_coefficient_matrix(m)
    n = m.shape[0]
    if n % 2 == 0 and np.all(m[0] == 1) and np.array_equal(m, build_as_matrix(n)):
        return _with_bob_response(m, lhv_bound_closed_form(n), np.full(n, -1, dtype=np.int64))
    return lhv_bound_bruteforce(m)


def _with_bob_response(m: np.ndarray, value: int, alice: np.ndarray) -> LhvBoundResult:
    """Pair Alice's witness with Bob's best response: the sign of each column sum, -1 on zero."""
    bob = np.where(alice @ m > 0, 1, -1).astype(np.int64)
    return LhvBoundResult(value=int(value), alice_witness=alice, bob_witness=bob)
