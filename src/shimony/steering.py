"""EPR-steering bounds for AS functionals and Werner visibility thresholds.

With Bob's directions fixed, the best local-hidden-state model value is

    C_LHS = max over A in {-1,+1}^n of || sum_j c_j b_j ||,
    c_j = sum_i m[i][j] A_i,

because Bob's optimal single qubit state for a fixed Alice assignment is the
unit vector along the resultant sum_j c_j b_j. The Werner visibility
thresholds follow by dividing the classical bounds by the quantum maximum:
above V_LHV the state violates the Bell inequality, above V_LHS its steering
counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, pi, sqrt

import numpy as np

from . import _kernels
from .matrices import (
    as_coefficient_matrix,
    assignment_from_index,
    lhv_bound_bruteforce,
    require_enumerable,
    require_even_settings,
)
from .quantum import DEGENERATE_DIRECTION, ZERO_RESULTANT_TOL, as_measurement_set

ORACLE_GRID_SIZE = 4096

# Reference values for the catalog bounds, kept for reporting. The 10-setting
# figure is a tabulated decimal that does not match the value computed from
# the tabulated directions (27.2321, which matches the tabulated visibility
# threshold 0.6779); it is the exact bound of the other maximizing
# (theta0, theta1) = (-2.9224, -2.3630) pair. Both are surfaced side by side.
LHS_BOUND_REFERENCES = {
    2: ("2", 2.0),
    4: ("2*sqrt(23/3)", 2 * sqrt(23 / 3)),
    6: ("sqrt(358/3)", sqrt(358 / 3)),
    8: ("sqrt(2*(10444 + sqrt(20305))/65)", sqrt(2 * (10444 + sqrt(20305)) / 65)),
    10: ("27.0955 (tabulated decimal, inconsistent with the directions)", 27.0955),
}

VISIBILITY_LHS_REFERENCES = {
    2: ("1/sqrt(2)", 1 / sqrt(2)),
    4: ("sqrt(23)/(5*sqrt(2))", sqrt(23) / (5 * sqrt(2))),
    6: ("sqrt(179)/(14*sqrt(2))", sqrt(179) / (14 * sqrt(2))),
    8: ("0.6726 (tabulated decimal)", 0.6726),
    10: ("0.6779 (tabulated decimal)", 0.6779),
}


def visibility_lhv_closed_form(n: int) -> float:
    """LHV visibility threshold 3 sqrt(N(N+2)) / (4(N+1))."""
    n = require_even_settings(n)
    return 3 * sqrt(n * (n + 2)) / (4 * (n + 1))


@dataclass(frozen=True)
class SteeringBoundResult:
    """LHS maximum with its witness assignment and Bob's optimal state."""

    value: float
    alice_witness: np.ndarray
    bob_state_direction: np.ndarray
    column_sums: np.ndarray


def steering_lhs_bound(m, bob) -> SteeringBoundResult:
    """Enumerate Alice assignments for the LHS bound over fixed Bob directions.

    Ties resolve to the lexicographically smallest witness (within 1e-12 on
    the norm, -1 < +1). The value is recomputed from the witness's integer
    column sums, so it does not depend on how the kernel sums the resultants.
    """
    m = as_coefficient_matrix(m)
    n = m.shape[0]
    bob = as_measurement_set(bob, n)
    require_enumerable(n)
    _value, index = _kernels.steering_max(m, bob)
    alice = assignment_from_index(index, n)
    column_sums = alice @ m
    resultant = column_sums.astype(np.float64) @ bob
    norm = float(np.linalg.norm(resultant))
    if norm < ZERO_RESULTANT_TOL:
        direction = DEGENERATE_DIRECTION.copy()
    else:
        direction = resultant / norm
    return SteeringBoundResult(
        value=norm,
        alice_witness=alice,
        bob_state_direction=direction,
        column_sums=column_sums,
    )


def _fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic quasi-uniform grid of unit vectors."""
    k = np.arange(count)
    z = 1.0 - 2.0 * (k + 0.5) / count
    radius = np.sqrt(1.0 - z * z)
    angle = pi * (3.0 - sqrt(5.0)) * k
    return np.stack([radius * np.cos(angle), radius * np.sin(angle), z], axis=1)


def steering_lhs_bound_oracle(m, bob, grid_size: int = ORACLE_GRID_SIZE) -> float:
    """Independent LHS bound from the other order of the two maxima.

    With w = m @ bob, swapping the maximum over assignments with the one over
    Bloch states gives

        C_LHS = max_A max_{|v|=1} sum_i A_i (w_i . v) = max_{|v|=1} sum_i |w_i . v|,

    the support function of the zonotope sum_i [-w_i, w_i]. No assignment is
    enumerated and no resultant is formed, so this shares nothing with the
    enumeration kernel; its cost is O(grid_size * n) with no 2**n factor.

    The payoff is scored on a Fibonacci grid of N = grid_size Bloch states
    whose covering radius is below rho = sqrt(4 pi / N): the largest
    circumcap of its convex hull's facets measures 0.7696-0.7712 rho for
    every N from 16 to 4096 and for N up to 262144. The grid point nearest
    the maximizer v* therefore scores at least C_LHS cos(rho), so every grid
    point that scores at least best * cos(rho) is kept. Each is then polished
    in its tangent plane over 7 x 7 patches, starting at step rho/2 and
    halving the step for 48 rounds.
    """
    m = as_coefficient_matrix(m)
    n = m.shape[0]
    bob = as_measurement_set(bob, n)
    require_enumerable(n)
    if grid_size < 16:
        raise ValueError(f"grid_size must be >= 16, got {grid_size}")
    mf = m.astype(np.float64)

    def payoff(states):
        return np.abs((states @ bob.T) @ mf.T).sum(axis=-1)

    rho = sqrt(4 * pi / grid_size)
    grid = _fibonacci_sphere(grid_size)
    scores = payoff(grid)
    best = scores.max()
    if best == 0:  # best >= C_LHS cos(rho) > 0 unless every w_i vanishes
        return 0.0
    points = grid[scores >= best * cos(rho)]

    du, dv = np.mgrid[-3:4, -3:4].reshape(2, -1, 1, 1)  # 7 x 7 patch offsets
    step = rho / 2
    for _ in range(48):
        axis = np.eye(3)[np.argmin(np.abs(points), axis=1)]
        e1 = np.cross(points, axis)
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 = np.cross(points, e1)
        patch = points + step * (du * e1 + dv * e2)
        patch /= np.linalg.norm(patch, axis=2, keepdims=True)
        points = patch[payoff(patch).argmax(axis=0), np.arange(len(points))]
        step /= 2
    return float(payoff(points).max())


@dataclass(frozen=True)
class ThresholdPair:
    """Werner visibility thresholds: Bell violation above v_lhv, steering above v_lhs."""

    v_lhv: float
    v_lhs: float


def werner_thresholds(m, bob, quantum_max: float) -> ThresholdPair:
    """Visibility thresholds from the enumerated bounds and a quantum maximum."""
    if not quantum_max > 0:
        raise ValueError(f"quantum maximum must be positive, got {quantum_max}")
    lhv = lhv_bound_bruteforce(m)
    lhs = steering_lhs_bound(m, bob)
    return ThresholdPair(v_lhv=lhv.value / quantum_max, v_lhs=lhs.value / quantum_max)
