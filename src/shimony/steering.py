"""EPR-steering bounds for AS functionals and Werner visibility thresholds.

With Bob's directions fixed, the best local-hidden-state model value is

    C_LHS = max over A in {-1,+1}^n of || sum_j c_j b_j ||,
    c_j = sum_i m[i][j] A_i,

because Bob's optimal single qubit state for a fixed Alice assignment is the
unit vector along the resultant sum_j c_j b_j. With w = m @ bob the resultant
is sum_i A_i w_i, a vertex of the zonotope sum_i [-w_i, w_i] at the maximum,
and that zonotope has only O(n**2) vertices (Edelsbrunner, O'Rourke & Seidel,
SIAM J. Comput. 15, 1986; Ferrez, Fukuda & Liebling, EJOR 166, 2005), so the
bound is exact in polynomial time, with no 2**n scan. The Werner visibility
thresholds follow by dividing the classical bounds by the quantum maximum:
above V_LHV the state violates the Bell inequality, above V_LHS its steering
counterpart. A Bob set below the maximum steers only above C_LHS / Q(b), with
Q(b) = sum_i ||(m @ bob)_i|| (Cavalcanti, Jones, Wiseman & Reid, PRA 80, 2009).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, pi, sqrt

import numpy as np

from .matrices import (
    as_coefficient_matrix,
    lhv_bound_bruteforce,
    require_even_settings,
    require_steering_size,
)
from .quantum import DEGENERATE_DIRECTION, ZERO_RESULTANT_TOL, as_measurement_set

ORACLE_GRID_SIZE = 4096

# Absolute tolerance for "same norm" when picking the lexicographically
# smallest steering witness among float ties.
STEERING_TIE_TOL = 1e-12

# Relative shortfall of Q(b) below the quantum maximum past which V_LHS divides
# by Q(b); the catalog sets fall short by at most 2.8e-10.
QUANTUM_VALUE_GUARD = 1e-9

# Sine of the angle below which two generators count as parallel, or a
# generator as lying in the plane of a pair of generators.
_DEGENERATE_SINE = 1e-10

# Entries per (i, j, k) block array of the vertex search, float64 (2 MB).
_BLOCK_ENTRIES = 1 << 18

# (d @ _SKEW).reshape(3, 3) is the matrix of x -> d x x.
_SKEW = np.array(
    [
        [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    ],
    dtype=np.float64,
).reshape(3, 9)

# The signs of sigma and of s_i over a pair's four candidates.
_SIGNS = np.array([1.0, -1.0])

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


@dataclass(frozen=True)
class PaperFigures:
    """The tabulated C_LHS and V_LHS of one catalog order, with their labels."""

    c_lhs_label: str | None
    c_lhs: float | None
    v_lhs_label: str | None
    v_lhs: float | None
    v_lhs_from_c_lhs: float | None  # the tabulated C_LHS over the quantum maximum
    notes: tuple[str, ...] = ()


def paper_figures(n: int, c_lhs: float, quantum_max: float) -> PaperFigures:
    """The figures tabulated for catalog order n; at n = 10 a note sets c_lhs against both."""
    (c_label, c_ref), (v_label, v_ref) = LHS_BOUND_REFERENCES[n], VISIBILITY_LHS_REFERENCES[n]
    notes = ()
    if n == 10:
        notes = (
            f"computed bound {c_lhs:.6f} disagrees with the tabulated reference "
            f"{c_ref:.4f}; the computed quotient {c_lhs / quantum_max:.6f} matches "
            f"the tabulated visibility threshold {v_ref:.4f}, while the reference "
            f"bound would imply {c_ref / quantum_max:.6f}; the two tabulated figures "
            f"are mutually inconsistent and both are reported",
        )
    return PaperFigures(c_label, c_ref, v_label, v_ref, c_ref / quantum_max, notes)


def visibility_lhv_closed_form(n: int) -> float:
    """LHV visibility threshold 3 sqrt(N(N+2)) / (4(N+1))."""
    n = require_even_settings(n)
    return 3 * sqrt(n * (n + 2)) / (4 * (n + 1))


@dataclass(frozen=True)
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


@lru_cache(maxsize=16)
def _masks(g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (g, g) masks: i == j, i != j, and j < i."""
    eye = np.eye(g, dtype=bool)
    masks = (eye, ~eye, np.tri(g, k=-1, dtype=bool))
    for mask in masks:
        mask.setflags(write=False)
    return masks


def _floor(top: float, margin: float) -> float:
    """(sqrt(top) - margin)**2 for a squared norm top, never above top.

    The cap keeps top itself at the floor when margin is below the rounding
    of sqrt(top), as it is for norms past about 1e4.
    """
    floor = sqrt(top) - margin
    return min(top, floor * abs(floor))


def _vertex_candidates(
    gen: np.ndarray, d: np.ndarray, window: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The zonotope's vertices within window of the largest norm.

    Returns their sign patterns over gen, their resultants and their squared
    norms. gen holds pairwise non-parallel generators and d their unit rows.
    Every vertex of the zonotope sum_k [-gen_k, gen_k] lies on a face with
    normal u = d_i x d_j for an ordered pair i != j. The generators off the
    face's plane take sign(d_k . u). The in-plane ones span a zonogon with
    two edges parallel to gen_i: along the in-plane direction v = u x d_i
    (or -v) every other in-plane generator takes sign(d_k . v), and gen_i
    takes either sign. So
    each pair gives four vertices (the four (s_i, s_j) in general position),
    and the pairs of a plane holding m >= 3 generators give all 2m vertices
    of its face. The pair (j, i) gives the opposite face -u. Every in-plane j
    gives the same four vertices, so only the pair with the smallest such j
    is kept. Pairs are taken in blocks of first indices so that each
    (i, j, k) array stays within _BLOCK_ENTRIES entries.
    """
    g = len(gen)
    if g == 1:
        return np.ones((1, 1)), gen.copy(), np.einsum("ij,ij->i", gen, gen)
    eye, other, lower = _masks(g)
    skew = (d @ _SKEW).reshape(g, 3, 3)
    rows = max(1, _BLOCK_ENTRIES // (g * g))
    found = []
    best = 0.0
    for a in range(0, g, rows):
        block = slice(a, a + rows)
        normals = (skew[block] @ d.T).transpose(0, 2, 1)  # [i, j] = u = d_i x d_j
        triple = normals @ d.T  # [i, j, k] = d_k . u
        sizes = np.einsum("ijr,ijr->ij", normals, normals)
        in_plane = triple * triple <= _DEGENERATE_SINE**2 * sizes[..., None]
        in_plane |= eye
        in_plane |= eye[block, None]
        # [i, j, k] = d_k . v = (d_i x d_j) . (d_i x d_k), which is |u|**2 > 0
        # at k = j however close d_i and d_j are
        across = normals @ normals.transpose(0, 2, 1)
        off = np.sign(triple) * ~in_plane
        edge = np.sign(across) * (in_plane & other[block, None])
        faces = np.empty((2,) + off.shape)  # [sigma, i, j] = off + sigma edge
        np.add(off, edge, out=faces[0])
        np.subtract(off, edge, out=faces[1])
        # [sigma, s_i, i, j] = faces @ gen + s_i gen_i
        sums = (faces @ gen)[:, None] + _SIGNS[:, None, None, None] * gen[block, None]
        # A pair counts if i != j and no in-plane k other than i precedes j.
        repeated = np.any(in_plane & other[block, None] & lower, axis=2)
        lengths = np.einsum("abijr,abijr->abij", sums, sums) * (other[block] & ~repeated)
        best = max(best, lengths.max())
        pick = np.nonzero(lengths >= _floor(best, window))
        sigma, s_i, i, j = pick
        patterns = faces[sigma, i, j]
        patterns[np.arange(len(i)), a + i] = _SIGNS[s_i]
        found.append((patterns, sums[pick], lengths[pick]))
    if len(found) == 1:
        return found[0]
    patterns, sums, lengths = (np.concatenate(parts) for parts in zip(*found))
    keep = lengths >= _floor(best, window)
    return patterns[keep], sums[keep], lengths[keep]


def _lhs_witness(w: np.ndarray) -> np.ndarray:
    """Alice's smallest assignment within STEERING_TIE_TOL of max_A ||A @ w||.

    The maximum is a vertex of the zonotope sum_i [-w_i, w_i], so only its
    O(n**2) vertices are scored (`_vertex_candidates`), after three
    reductions:

    * rows whose flip moves any norm by at most the tolerance (zero rows
      among them) are left out, and then take the sign of w_i . r, where r
      is the candidate's resultant (-1 on 0);
    * parallel and antiparallel rows are merged, each oriented along its
      group's first row;
    * when one direction remains (all rows collinear) it is the one vertex.

    Of the candidates within the tolerance of the largest norm, and their
    mirrors -A, each flips its +1 rows to -1 in index order while the norm
    stays within the tolerance. The smallest result in lexicographic order
    (-1 < +1) is the witness.
    """
    squares = np.einsum("ij,ij->i", w, w)
    norms = np.sqrt(squares)
    live = norms > STEERING_TIE_TOL / 2
    everything = live.all()
    direct = False  # whether the candidates' own sums are final
    if everything or live.any():
        gen = w if everything else w[live]
        d = gen / norms[live, None]
        merged = _merge_parallel(d)
        direct = everything and merged is None
        if direct:
            a, r, lengths = _vertex_candidates(gen, d, STEERING_TIE_TOL)
        else:
            if merged is not None:
                group, orientation = merged
                gen = np.zeros((group.max() + 1, 3))
                np.add.at(gen, group, orientation[:, None] * w[live])
                d = gen / np.linalg.norm(gen, axis=1, keepdims=True)
            # Signing the left-out rows moves each candidate's norm by at
            # most the sum of their lengths, so two candidates' order can
            # change by twice that.
            window = STEERING_TIE_TOL + 2 * norms[~live].sum()
            patterns = _vertex_candidates(gen, d, window)[0]
            if merged is not None:
                patterns = patterns[:, group] * orientation
            a = -np.ones((len(patterns), len(w)))
            a[:, live] = patterns
    else:
        a = -np.ones((1, len(w)))
    if not direct:
        a[:, ~live] = np.where(a @ w @ w[~live].T > 0, 1.0, -1.0)
        r = a @ w
        lengths = np.einsum("ij,ij->i", r, r)
    floor = _floor(lengths.max(), STEERING_TIE_TOL)
    if not direct:
        tied = lengths >= floor
        a, r, lengths = a[tied], r[tied], lengths[tied]
    # Flipping row k of a, or of its mirror -a, leaves ||r - 2 a_k w_k||**2.
    flips = lengths[:, None] + 4 * squares - 4 * a * (r @ w.T) >= floor
    starts = np.concatenate((a, -a))
    if not everything:
        starts[:, squares == 0] = -1.0
        flips &= squares > 0
    flips = np.concatenate((flips, flips)) & (starts > 0)
    if flips.sum(axis=1).max() <= 1:  # no start has two such rows to choose between
        starts[flips] = -1.0
    else:
        r = np.concatenate((r, -r))
        for k in np.flatnonzero(flips.any(axis=0)):
            trial = r - 2 * w[k]
            ok = flips[:, k] & (np.einsum("ij,ij->i", trial, trial) >= floor)
            starts[ok, k] = -1.0
            r[ok] = trial[ok]
    return starts[np.lexsort(starts.T[::-1])[0]].astype(np.int64)


def steering_lhs_bound(m, bob) -> SteeringBoundResult:
    """Exact LHS bound over fixed Bob directions, from the zonotope's vertices.

    Ties resolve to the lexicographically smallest witness (within
    STEERING_TIE_TOL on the norm, -1 < +1). The value is recomputed from the
    witness's integer column sums, so it does not depend on how the
    candidates' resultants were summed.
    """
    m = as_coefficient_matrix(m)
    n = m.shape[0]
    bob = as_measurement_set(bob, n)
    require_steering_size(n)
    w = m.astype(np.float64) @ bob
    alice = _lhs_witness(w)
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
        quantum_value=float(np.linalg.norm(w, axis=1).sum()),
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

    the support function of the zonotope sum_i [-w_i, w_i]. No assignment,
    vertex or resultant is formed, so this shares nothing with the vertex
    search of `steering_lhs_bound`; its cost is O(grid_size * n).

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
    require_steering_size(n)
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
    """Werner visibility thresholds of one order and Bob set, with their bounds.

    v_lhv = c_lhv / quantum_max and v_lhs = lhs.value / quantum_max. When Q(b)
    (lhs.quantum_value) falls short of quantum_max (below_quantum_max), the
    Bob set steers only above v_lhs_fixed_bob = lhs.value / Q(b); otherwise
    v_lhs_fixed_bob is v_lhs.
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

    Both divide by quantum_max, the caller's choice; for a Bob set whose Q(b)
    is below it by more than QUANTUM_VALUE_GUARD, v_lhs_fixed_bob divides by Q(b).
    """
    if not quantum_max > 0:
        raise ValueError(f"quantum maximum must be positive, got {quantum_max}")
    lhv = lhv_bound_bruteforce(m)
    lhs = steering_lhs_bound(m, bob)
    v_lhs = lhs.value / quantum_max
    below = lhs.quantum_value < quantum_max * (1 - QUANTUM_VALUE_GUARD)
    fixed = lhs.value / lhs.quantum_value if below else v_lhs
    return ThresholdPair(lhv.value / quantum_max, v_lhs, lhv.value, lhs, quantum_max, below, fixed)
