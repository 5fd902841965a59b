"""EPR-steering bounds for AS functionals and Werner visibility thresholds.

With Bob's directions fixed, the best local-hidden-state model value is

    C_LHS = max over A in {-1,+1}^n of || sum_j c_j b_j ||,
    c_j = sum_i m[i][j] A_i,

because Bob's optimal single qubit state for a fixed Alice assignment is the
unit vector along the resultant sum_j c_j b_j. With w = m @ bob the resultant
is sum_i A_i w_i, a vertex of the zonotope sum_i [-w_i, w_i] at the maximum,
and that zonotope has only O(n**2) vertices (Edelsbrunner, O'Rourke & Seidel,
SIAM J. Comput. 15, 1986; Ferrez, Fukuda & Liebling, EJOR 166, 2005). A sweep
of the great circle normal to each w_i finds them with one sort per circle,
so the bound is exact in O(n**2 log n) time, with no 2**n scan. The Werner
visibility thresholds follow by dividing the classical bounds by the quantum
maximum: above V_LHV the state violates the Bell inequality, above V_LHS its
steering counterpart. A Bob set below the maximum steers only above
C_LHS / Q(b), with Q(b) = sum_i ||(m @ bob)_i|| (Cavalcanti, Jones, Wiseman &
Reid, PRA 80, 2009).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .matrices import (
    as_coefficient_matrix,
    lhv_bound,
    require_even_settings,
    require_steering_size,
)
from .quantum import DEGENERATE_DIRECTION, ZERO_RESULTANT_TOL, as_measurement_set

# The triangle-generator products the oracle scores at once, the relative margin
# over its best lower end within which a triangle is dropped, and a split
# triangle's children among (a, b, c, ab, bc, ca).
_ORACLE_BLOCK_PRODUCTS = 2**18
_ORACLE_PRUNE_TOL = 1e-12
_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])
# Face k of the octahedron has corners s_kj e_j, with s_kj = -1 where bit j of k is set.
_OCTAHEDRON = np.eye(3) * (1 - 2 * (np.arange(8)[:, None, None] >> np.arange(3)[:, None] & 1))

# Absolute tolerance for "same norm" when picking the lexicographically
# smallest steering witness among float ties.
STEERING_TIE_TOL = 1e-12

# Relative shortfall of Q(b) below the quantum maximum past which V_LHS divides
# by Q(b); the catalog sets fall short by at most 2.8e-10.
QUANTUM_VALUE_GUARD = 1e-9

# Sine of the angle below which two generators count as parallel and are merged.
_DEGENERATE_SINE = 1e-10

_EPS = np.finfo(np.float64).eps

# The signs of gen_i at the two ends of an edge, broadcast over (end, i, coordinate).
_PLUS_MINUS = np.array([1.0, -1.0]).reshape(2, 1, 1)

def visibility_lhv_closed_form(n: int) -> float:
    """LHV visibility threshold 3 sqrt(N(N+2)) / (4(N+1))."""
    n = require_even_settings(n)
    return 3 * sqrt(n * (n + 2)) / (4 * (n + 1))


@dataclass(frozen=True, eq=False)
class SteeringBoundResult:
    """LHS maximum with its witness assignment and Bob's optimal state.

    quantum_value is Q(b) = sum_i ||(m @ bob)_i||, the best singlet value with
    Bob's directions fixed (Alice's best response), so value <= quantum_value.
    """

    value: float
    alice_witness: np.ndarray
    bob_state_direction: np.ndarray
    column_sums: np.ndarray
    quantum_value: float


def _merge_parallel(d: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Group labels and orientations (+1 or -1) of parallel and antiparallel unit rows.

    Each group is labelled in order of its first row and oriented along it.
    Returns None when no two rows are parallel.
    """
    # |cos| > 0.999 is a safe prefilter: parallel rows reach 1 - 1e-16.
    near = np.abs(d @ d.T) > 0.999
    if np.count_nonzero(near) == len(d):
        # The common case: leaving it to the parallel test below, which also
        # returns None, makes a steering call 1.3-1.4x as long.
        return None
    i, j = np.nonzero(np.triu(near, 1))
    cross = np.cross(d[i], d[j])
    parallel = np.einsum("pr,pr->p", cross, cross) <= _DEGENERATE_SINE**2
    if not parallel.any():
        return None
    leader = np.arange(len(d))
    np.minimum.at(leader, j[parallel], i[parallel])
    while np.any(leader[leader] != leader):
        leader = leader[leader]
    orientation = np.where(np.einsum("ij,ij->i", d, d[leader]) < 0, -1.0, 1.0)
    return np.unique(leader, return_inverse=True)[1], orientation


def _floor(top: float, margin: float) -> float:
    """(sqrt(top) - margin)**2 for a squared norm top, never above top.

    The cap keeps top itself at the floor when margin is below the rounding
    of sqrt(top), as it is for norms past about 1e4.
    """
    floor = sqrt(top) - margin
    return min(top, floor * abs(floor))


def _sweep_candidates(gen: np.ndarray, d: np.ndarray, window: float) -> np.ndarray:
    """Sign patterns over gen of every zonotope vertex within window of the largest norm.

    gen holds pairwise non-parallel generators and d their unit rows. Every
    vertex of the zonotope sum_k [-gen_k, gen_k] ends an edge parallel to some
    gen_i, and the directions v whose maximal face is such an edge lie on the
    great circle d_i . v = 0. Along half of that circle each other generator
    k changes sign once, where v is normal to d_k, so sorting those crossings
    and summing -2 s_k gen_k over them gives the resultant r of the other
    generators on every arc; the arc's two vertices are r +- gen_i. The
    other half circle gives the mirrors -A. Coincident crossings (coplanar
    generators) give arcs of zero length, whose patterns are still
    assignments. Some patterns may lie below the window; none within it is
    missed. Every vertex ends at least 2 edges parallel to distinct merged
    generators, so at least 2 circles find it: one dropped loses only rounding.
    """
    g = len(gen)
    # Any basis (e1_i, e2_i) of the plane normal to d_i parametrizes circle
    # i, so any one orders its crossings. This orthonormal one is that of
    # Duff et al. (JCGT 6, 2017), with e2_i times sign(z), and needs no cross
    # product: e1_i = (1, 0, 0) - x u_i and e2_i = (0, 1, 0) - y u_i, where
    # u_i = (x, y, z) / (1 + |z|) with its last entry set to sign(z).
    x, y, z = d.T
    u = d / (1.0 + np.abs(z))[:, None]
    u[:, 2] = np.copysign(1.0, z)
    proj = u @ d.T
    # d_k . (cos t e1_i + sin t e2_i) falls through 0 at t = phi, so it is
    # positive before its crossing at theta = phi mod pi when theta == phi.
    phi = np.arctan2(x - x[:, None] * proj, y[:, None] * proj - y)
    theta = np.mod(phi, pi)
    steps = np.where(theta == phi, -2.0, 2.0)  # -2 s_k: the step as k is crossed
    steps.flat[:: g + 1] = 0.0  # gen_i is the edge itself
    order = theta.argsort(axis=1)
    rows = np.arange(g)[:, None]
    # r_0 + states[i, t] is the resultant r of the generators other than i
    # after the first t + 1 crossings; states[i, -1] = -2 r_0, since every
    # such generator has then flipped, so the last arc is the first's mirror.
    states = np.add.accumulate((steps[:, :, None] * gen)[rows, order], axis=1)
    ends = states + ((gen * _PLUS_MINUS)[:, :, None] - 0.5 * states[:, -1:])
    lengths = np.einsum("...r,...r->...", ends, ends)
    end, i, t = (lengths >= _floor(lengths.max(), window)).nonzero()
    # Only the ends within the window get their patterns: generator k is
    # flipped from s_k once its crossing's rank on circle i is at most t.
    rank = np.empty_like(order)
    rank[rows, order] = rows.T
    patterns = steps[i] * ((rank[i] <= t[:, None]) - 0.5)
    patterns[np.arange(len(i)), i] = _PLUS_MINUS.ravel()[end]
    return patterns


def _lhs_witness(w: np.ndarray) -> np.ndarray:
    """Alice's smallest assignment within STEERING_TIE_TOL of max_A ||A @ w||.

    Zero rows take -1 and drop out first; the other rows are solved alone.
    The maximum is a vertex of the zonotope sum_i [-w_i, w_i], so only its
    O(n**2) vertices are scored, as the great-circle sweep finds them
    (`_sweep_candidates`). Every row, however short, goes through the sweep,
    after parallel and antiparallel rows are merged, each oriented along
    its group's first row.

    Every candidate is then scored again as a @ w, so ties are decided on
    resultants summed in one way whatever the sweep's order of summation.
    Of the candidates within the tolerance of the largest norm, and their
    mirrors -A, each flips its +1 rows to -1 in index order while the norm
    stays within the tolerance. The smallest result in lexicographic order
    (-1 < +1) is the witness.
    """
    squares = np.einsum("ij,ij->i", w, w)
    zero = squares == 0
    if zero.any():
        a = -np.ones(len(w), dtype=np.int64)
        if not zero.all():
            a[~zero] = _lhs_witness(w[~zero])
        return a
    norms = np.sqrt(squares)
    gen, d = w, w / norms[:, None]
    merged = _merge_parallel(d)
    if merged is not None:
        group, orientation = merged
        gen = np.zeros((group.max() + 1, 3))
        np.add.at(gen, group, orientation[:, None] * w)
        d = gen / np.linalg.norm(gen, axis=1, keepdims=True)
    # In norm, the sweep's sums round by at most about 4 n eps sum_i ||w_i||
    # and a @ w below by n eps sum_i ||w_i||; twice both is added, so
    # rounding loses no candidate within the window.
    a = _sweep_candidates(gen, d, STEERING_TIE_TOL + 10 * len(w) * _EPS * norms.sum())
    if merged is not None:
        a = a[:, group] * orientation
    r = a @ w
    lengths = np.einsum("ij,ij->i", r, r)
    floor = _floor(lengths.max(), STEERING_TIE_TOL)
    tied = lengths >= floor
    a, r, lengths = a[tied], r[tied], lengths[tied]
    # Flipping row k of a, or of its mirror -a, leaves ||r - 2 a_k w_k||**2.
    flips = lengths[:, None] + 4 * squares - 4 * a * (r @ w.T) >= floor
    starts = np.concatenate((a, -a))
    flips = np.concatenate((flips, flips)) & (starts > 0)
    r = np.concatenate((r, -r))
    for k in np.flatnonzero(flips.any(axis=0)):
        trial = r - 2 * w[k]
        ok = flips[:, k] & (np.einsum("ij,ij->i", trial, trial) >= floor)
        starts[ok, k] = -1.0
        r[ok] = trial[ok]
    return starts[np.lexsort(starts.T[::-1])[0]].astype(np.int64)


def _generators(m, bob) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validated m and bob, the generators w = m @ bob and the row norms of w."""
    m = as_coefficient_matrix(m)
    bob = as_measurement_set(bob, len(m))
    require_steering_size(len(m))
    w = m.astype(np.float64) @ bob
    return m, bob, w, np.linalg.norm(w, axis=1)


def steering_lhs_bound(m, bob) -> SteeringBoundResult:
    """Exact LHS bound over fixed Bob directions, from the zonotope's vertices.

    Ties resolve to the lexicographically smallest witness (within
    STEERING_TIE_TOL on the norm, -1 < +1). The value is recomputed from the
    witness's integer column sums, so it does not depend on how the
    candidates' resultants were summed.
    """
    m, bob, w, norms = _generators(m, bob)
    alice = _lhs_witness(w)
    column_sums = alice @ m
    resultant = column_sums.astype(np.float64) @ bob
    norm = float(np.linalg.norm(resultant))
    direction = DEGENERATE_DIRECTION.copy() if norm < ZERO_RESULTANT_TOL else resultant / norm
    return SteeringBoundResult(
        value=norm,
        alice_witness=alice,
        bob_state_direction=direction,
        column_sums=column_sums,
        quantum_value=float(norms.sum()),
    )


def steering_lhs_bound_oracle(m, bob) -> float:
    """Independent LHS bound from the other order of the two maxima.

    With w = m @ bob, swapping the maxima over assignments and Bloch states
    gives C_LHS = max_{|v|=1} sum_i |w_i . v|, the zonotope's support
    function. A branch and bound over spherical triangles, as Hartley & Kahl
    (IJCV 82, 2009) search rotation space, maximizes it with nothing of the
    sweep's search. It starts from the octahedron's 8 faces, which cover the
    sphere; each triangle is bounded on its circumscribed cap (centre c,
    radius r): below by ||sign(w . c) @ w||, the norm of an assignment;
    above by |x| cos(max(0, angle(x, c) - r)) for the signed sum x of the
    generators whose great circle misses the cap, plus |w_i| sin(min(pi/2,
    asin|d_i . c| + r)) for each unit row d_i whose circle crosses it.
    Triangles whose upper end is at most 1 + 1e-12 times the best lower end
    are dropped and the rest split four ways. A cap that no circle crosses
    has equal ends, so the search ends within 1e-12 of C_LHS, relative.
    """
    _, _, w, lengths = _generators(m, bob)
    # The rows kept are those _lhs_witness does not set to -1: a norm and a sum of
    # squares are both 0 exactly when every component's square rounds to 0.
    w, lengths = w[lengths > 0], lengths[lengths > 0]
    block = _ORACLE_BLOCK_PRODUCTS // max(1, len(w))
    triangles, best = _OCTAHEDRON, 0.0
    while len(triangles):
        a, b, c = triangles.transpose(1, 0, 2)
        centres = np.cross(b - a, c - a)  # turned outward and normalized below
        centres *= np.copysign(1 / np.linalg.norm(centres, axis=1), (centres * a).sum(1))[:, None]
        radii = 2 * np.arcsin(np.linalg.norm(triangles - centres[:, None], axis=2).max(1) / 2)
        upper = np.empty(len(triangles))
        for s in range(0, len(triangles), block):
            centre, radius = centres[s : s + block], radii[s : s + block]
            dots = centre @ w.T / lengths
            sides = np.sign(dots)
            best = max(best, float(np.linalg.norm(sides @ w, axis=1).max()))
            offsets = np.arcsin(np.minimum(np.abs(dots), 1.0))  # angles from c to the circles
            crossing = offsets <= radius[:, None]
            x = np.where(crossing, 0.0, sides) @ w
            angle = np.arctan2(np.linalg.norm(np.cross(x, centre), axis=1), (x * centre).sum(1))
            reach = np.where(crossing, np.sin(np.minimum(pi / 2, offsets + radius[:, None])), 0.0)
            fixed = np.linalg.norm(x, axis=1) * np.cos(np.maximum(0.0, angle - radius))
            upper[s : s + block] = fixed + reach @ lengths
        kept = triangles[upper > best * (1 + _ORACLE_PRUNE_TOL)]
        mids = kept + np.roll(kept, -1, axis=1)  # ab, bc, ca
        mids /= np.linalg.norm(mids, axis=2, keepdims=True)
        triangles = np.concatenate((kept, mids), axis=1)[:, _CHILDREN].reshape(-1, 3, 3)
    return best


@dataclass(frozen=True, eq=False)
class ThresholdPair:
    """Werner visibility thresholds of one order and Bob set, with their bounds.

    c_lhv is matrices.lhv_bound's value: the closed form for AS_n, the scan
    for any other matrix. v_lhv = c_lhv / quantum_max and v_lhs = lhs.value /
    quantum_max. When Q(b) (lhs.quantum_value) falls short of quantum_max
    (below_quantum_max), the Bob set steers only above v_lhs_fixed_bob =
    lhs.value / Q(b); otherwise v_lhs_fixed_bob is v_lhs.
    """

    v_lhv: float
    v_lhs: float
    c_lhv: int
    lhs: SteeringBoundResult
    quantum_max: float
    below_quantum_max: bool
    v_lhs_fixed_bob: float


def werner_thresholds(m, bob, quantum_max: float) -> ThresholdPair:
    """Visibility thresholds from the exact bounds and a quantum maximum.

    C_LHV comes from matrices.lhv_bound: AS_n takes its closed form at any
    order, and only another matrix meets the scan's 24-setting cap; the
    steering bound caps n at MAX_STEERING_SETTINGS. Both thresholds divide by
    quantum_max, the caller's choice; for a Bob set whose Q(b) is below it by
    more than QUANTUM_VALUE_GUARD, v_lhs_fixed_bob divides by Q(b).
    """
    if not quantum_max > 0:
        raise ValueError(f"quantum maximum must be positive, got {quantum_max}")
    return _threshold_pair(lhv_bound(m).value, steering_lhs_bound(m, bob), quantum_max)


def _threshold_pair(c_lhv: int, lhs: SteeringBoundResult, quantum_max: float) -> ThresholdPair:
    """werner_thresholds' arithmetic on bounds already computed, for a positive quantum_max."""
    if lhs.quantum_value == 0:
        raise ValueError("Q(b) is 0: every row of m @ bob is zero, so no threshold divides by it")
    v_lhs = lhs.value / quantum_max
    below = lhs.quantum_value < quantum_max * (1 - QUANTUM_VALUE_GUARD)
    fixed = lhs.value / lhs.quantum_value if below else v_lhs
    return ThresholdPair(c_lhv / quantum_max, v_lhs, c_lhv, lhs, quantum_max, below, fixed)
