"""Bloch-vector measurements and singlet correlations.

Measurement directions are unit vectors on the Bloch sphere; the singlet
gives the joint spin correlation E(a, b) = -(a . b). The module also
evaluates AS Bell functionals on direction sets and provides the closed-form
quantum maximum. The library evaluates the singlet only: a Werner state of
visibility V scales every value by V, so V enters only as the thresholds'
quotients V = C / max.

The maximum (N+1) sqrt(N(N+2)) / 3 holds for unit vectors u_i, v_j in any
dimension, hence for every quantum state (Tsirelson, Lett. Math. Phys. 4,
1980), by a dual point in closed form. Let N = 2M, T_k = k(k+1)/2, and let
t hold T_M in its first M+1 entries, then T_{M-1}, ..., T_1. Then

    AS_N diag(t)^-1 AS_N^T = (2/T_M) diag(t).

Proof: row N+1-k of AS_N is k ones, then -s_k with s_k = min(k, N-k). With
P_k = sum_{j<=k} 1/t_j, two rows with runs k < k' have product
P_k - s_k/t_{k+1}, and row N+1-k has square P_k + s_k**2/t_{k+1}. For
k <= M, P_k = k/T_M = s_k/t_{k+1}. For k = N - l with 0 < l < M,
1/T_i = 2/i - 2/(i+1) telescopes P_k = (M+1)/T_M + sum_{l<i<M} 1/T_i to
2/(l+1) = s_k/t_{k+1}. So every product vanishes, and row N+1-k has square
(s_k + 1) P_k = 2 T_min(k,M) / T_M = 2 t_{N+1-k} / T_M (row 1, k = N, has
s_N = 0 and P_N = 1 + 1/T_1 = 2).

With y = sqrt(2/T_M) t, AS_N symmetric and the identity, the Schur
complement of [[diag(y), -AS_N], [-AS_N, diag(y)]] is exactly 0, so that
matrix is positive semidefinite, and its trace against the Gram matrix of
the u_i and v_j gives sum_ij m_ij u_i . v_j <= sum_i y_i. The sum is the
closed form, since sum_{k<M} T_k = (M-1)M(M+1)/6. With w = AS_N @ bob, the
gap sum_i y_i - sum_i u_i . w_i is half of sum_i y_i |u_i - w_i/y_i|**2, so
a Bob set reaches the maximum exactly when ||w_i|| = y_i for every row i.
The tests check the identity in exact integers for every even N <= 100 and
N = 300, the sum for every even N <= 300, and the row condition on the
catalog sets.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from .matrices import as_coefficient_matrix, require_even_settings

# Inputs within this distance of unit norm are renormalized; worse is an error.
UNIT_ACCEPT_TOL = 1e-9

# Canonical direction reported for degenerate (zero-resultant) cases.
DEGENERATE_DIRECTION = np.array([0.0, 0.0, 1.0])
# Resultants below this norm give no preferred direction; DEGENERATE_DIRECTION
# is used instead.
ZERO_RESULTANT_TOL = 1e-12


def as_bloch_vector(direction) -> np.ndarray:
    """Validate and renormalize a single Bloch direction."""
    return as_measurement_set([direction], 1, "direction")[0]


def as_measurement_set(directions, n: int | None = None, name: str = "direction {i}") -> np.ndarray:
    """Validate an (n, 3) stack of real unit directions, renormalizing rows.

    Every direction set the package accepts passes through here. A norm more
    than UNIT_ACCEPT_TOL from 1 raises ValueError, and so does a NaN or
    infinite component, or one so large that the norm overflows: the test is
    phrased so that a NaN deviation fails it. `name` labels the offending
    row, with `{i}` for its index.
    """
    arr = np.asarray(directions)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"measurement set must hold real numbers, got dtype {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"measurement set must have shape (n, 3), got {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"measurement set has {arr.shape[0]} directions, expected {n}")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(arr, axis=-1, keepdims=True)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_ACCEPT_TOL))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{name.format(i=i)} must be unit length within {UNIT_ACCEPT_TOL}, "
            f"got norm {norms.flat[i]}"
        )
    return arr / norms


def correlation(a, b) -> float:
    """Joint +-1-outcome singlet correlation -(a . b) for spin measurements."""
    a = as_bloch_vector(a)
    b = as_bloch_vector(b)
    return -float(a @ b)


def bell_quantum_value(m, alice, bob) -> float:
    """Evaluate sum_ij m[i][j] E(a_i, b_j) on the singlet."""
    m = as_coefficient_matrix(m)
    n = m.shape[0]
    a = as_measurement_set(alice, n)
    b = as_measurement_set(bob, n)
    return -float(np.sum(m * (a @ b.T)))


def max_quantum_closed_form(n: int) -> float:
    """Maximal singlet value of AS_N: (N+1) sqrt(N(N+2)) / 3."""
    n = require_even_settings(n)
    return (n + 1) * sqrt(n * (n + 2)) / 3.0
