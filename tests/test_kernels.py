"""The LHV kernel and the steering bound's great-circle sweep against brute-force references.

Two references: an itertools.product brute force, and `helpers.steering_max`,
the 2**n meet-in-the-middle steering kernel that the library once used, kept
as the reference for n <= 20 with its own sign tables.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DIRECTION_ROW,
    chained_matrix,
    direction_rows,
    random_unit_rows,
    scaled_to_unit,
    square_rows,
    steering_max,
)
from shimony import _kernels, steering
from shimony.catalog import catalog_directions
from shimony.matrices import build_as_matrix


def all_assignments(n):
    # itertools.product varies the last setting fastest, with -1 first: row t
    # is the assignment with enumeration index t.
    return np.array(list(itertools.product((-1, 1), repeat=n)), dtype=np.int64)


def reference_lhv(m):
    assignments = all_assignments(len(m))
    values = np.abs(assignments @ m).sum(axis=1)
    index = int(np.argmax(values))
    return int(values[index]), assignments[index]


def reference_steering(m, bob, tie_tol=steering.STEERING_TIE_TOL):
    norms = np.linalg.norm((all_assignments(len(m)) @ m).astype(np.float64) @ bob, axis=1)
    index = int(np.nonzero(norms >= norms.max() - tie_tol)[0][0])
    return float(norms[index]), index


def core_tie_tol(w, tie_tol=steering.STEERING_TIE_TOL) -> float:
    """tie_tol in w's units, narrower where w's largest entry is below 1.

    The core applies tie_tol to w scaled up by a power of two until that entry is at least 1.
    """
    return math.ldexp(tie_tol, min(0, math.frexp(np.abs(w).max())[1] - 1))


def vertex_max(w) -> tuple[float, int]:
    """The core's value and witness on the generators w, the witness as its enumeration index."""
    value, alice, _, _ = steering.zonotope_bound(w)
    assert alice.dtype == np.int64 and np.all(np.abs(alice) == 1)
    return value, int("".join("1" if a > 0 else "0" for a in alice), 2)


def random_int_matrix(rng, n):
    """Integer matrix with a planted zero row and a planted duplicate row."""
    m = rng.integers(-4, 5, size=(n, n))
    m[rng.integers(n)] = 0
    if n > 1:
        i, j = rng.choice(n, size=2, replace=False)
        m[i] = m[j]
    return m


def bob_set(rng, n, kind):
    bob = random_unit_rows(rng, n)
    if kind == "coplanar":
        bob[:, 2] = 0.0
        bob /= np.linalg.norm(bob, axis=1, keepdims=True)
    elif kind == "repeated":
        bob[:] = bob[0]
    elif kind == "antipodal":
        bob[1::2] = -bob[: n // 2]
    return bob


def assert_lhv_result(result, expected):
    (value, alice), (expected_value, expected_alice) = result, expected
    assert value == expected_value
    assert alice.dtype == np.int64 and np.array_equal(alice, expected_alice)


def assert_lhv_matches(m):
    result = _kernels.lhv_max(m)
    assert_lhv_result(result, reference_lhv(m))
    assert result[1][0] == -1


def assert_steering_matches(
    m, bob, tie_tol=steering.STEERING_TIE_TOL, brute_force=True, block=1 << 14
):
    w = np.asarray(m) @ np.asarray(bob, dtype=np.float64)
    tie_tol = core_tie_tol(w, tie_tol)
    value, index = vertex_max(w)
    kernel_value, kernel_index = steering_max(w, tie_tol, block=block)
    assert index == kernel_index
    assert value == pytest.approx(kernel_value, abs=1e-9)
    if brute_force:
        ref_value, ref_index = reference_steering(m, bob, tie_tol)
        assert index == ref_index
        assert value == pytest.approx(ref_value, abs=1e-9)
    assert index < 1 << (len(m) - 1)


@pytest.mark.parametrize("seed", range(60))
def test_core_matches_the_2n_maximum_on_gaussian_generators_of_mixed_scale(seed):
    # Real generators that are no m @ bob: Gaussian rows, each scaled by 2**k
    # with k spread over 24 octaves around a common 2**-80 .. 2**40, so that
    # more than half the sets have every entry below 1 and are prescaled.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 17))
    w = rng.standard_normal((n, 3)) * np.exp2(rng.integers(-12, 13, (n, 1)) + rng.integers(-80, 41))
    value, index = vertex_max(w)
    kernel_value, kernel_index = steering_max(w, core_tie_tol(w))
    assert index == kernel_index
    assert value == pytest.approx(kernel_value, rel=4 * n * np.finfo(np.float64).eps, abs=0)


@pytest.mark.parametrize("n", range(2, 18, 2))
def test_lhv_matches_reference_on_as(n):
    assert_lhv_matches(build_as_matrix(n))


@pytest.mark.parametrize("n", range(3, 17))
def test_lhv_matches_reference_on_chained_matrices(n):
    # Every high row but the last is zero on the two mixed columns, so the
    # scan keeps two high indices; the chained functional's bound is 2n - 2.
    m = chained_matrix(n)
    assert_lhv_matches(m)
    assert _kernels.lhv_max(m)[0] == 2 * n - 2
    assert len(scanned_high_indices(m)) == 2


def scanned_high_indices(m):
    """The high indices lhv_max scores on m, in the order it scores them."""
    seen = []

    def spy(*args):
        seen.append(representatives(*args))
        return seen[-1]

    representatives = _kernels._representatives
    with mock.patch.object(_kernels, "_representatives", spy):
        _kernels.lhv_max(m)
    (scanned,) = seen
    return scanned


@pytest.mark.parametrize("n", range(4, 26, 2))
def test_as_scan_keeps_one_high_index_per_count_of_plus_rows(n):
    # The n/2 - 1 high rows of AS_n are all ones on the mixed columns: one
    # class per count of +1 rows among them.
    scanned = scanned_high_indices(build_as_matrix(n))
    assert len(scanned) == n // 2
    assert np.all(np.diff(scanned) > 0)


@pytest.mark.parametrize("n", [8, 16, 19])
def test_dense_scan_keeps_every_high_index(n):
    # Distinct nonzero high rows give every class one index.
    m = np.random.default_rng(n).integers(-2, 3, size=(n, n))
    assert np.array_equal(scanned_high_indices(m), np.arange(1 << (n - 1 - n // 2)))


def planted_group_matrix(rng, n, scale):
    """High rows equal on the mixed columns in groups, with other high-only parts.

    About a third of the columns have no entry in the low rows. Each planted
    high row copies a group leader's mixed part and draws its high-only part
    from {-1, 0, 1}, or copies the leader's or zeroes it, so the high-only
    score ties often; some high rows are zero on the mixed columns.
    """
    lo = n // 2
    m = rng.integers(-2, 3, size=(n, n))
    high_only = rng.random(n) < 0.35
    m[n - lo :, high_only] = 0
    high_rows = np.arange(1, n - lo)
    leaders = rng.choice(high_rows, size=min(2, len(high_rows)), replace=False)
    for r in high_rows:
        kind = rng.integers(5)
        leader = leaders[rng.integers(len(leaders))]
        if kind < 3:
            m[r, ~high_only] = m[leader, ~high_only]
        if kind == 0:
            m[r, high_only] = rng.integers(-1, 2, size=high_only.sum())
        elif kind == 1:
            m[r, high_only] = m[leader, high_only]
        elif kind == 2:
            m[r, high_only] = 0
        elif kind == 3:
            m[r, ~high_only] = 0
    return scale * m


def zero_low_half_columns_matrix(rng, n, scale):
    """Entries in [-2, 2] whose low rows are zero on about half the columns."""
    m = rng.integers(-2, 3, size=(n, n))
    m[n - n // 2 :, rng.random(n) < 0.5] = 0
    return scale * m


@pytest.mark.parametrize("block", [_kernels._BLOCK_ASSIGNMENTS, 1, 4])
@pytest.mark.parametrize("scale", [1, 20000], ids=["int16", "int64"])
def test_lhv_matches_reference_on_planted_groups(monkeypatch, block, scale):
    monkeypatch.setattr(_kernels, "_BLOCK_ASSIGNMENTS", block)
    draws = {
        planted_group_matrix: np.random.default_rng(block + scale),
        zero_low_half_columns_matrix: np.random.default_rng([block, scale]),
    }
    for draw, rng in draws.items():
        for n in range(3, 15):
            for _ in range(6 if n <= 10 else 2):
                m = draw(rng, n, scale)
                bound = n * int(np.abs(m).sum(axis=1).max())
                assert (bound > np.iinfo(np.int16).max) == (scale > 1) or not m.any()
                assert_lhv_matches(m)


@pytest.mark.parametrize("n", range(1, 13))
def test_lhv_matches_reference_on_random_matrices(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        assert_lhv_matches(random_int_matrix(rng, n))


def test_lhv_multi_block_as_and_dense():
    # At the default block size n = 16 and 17 span several blocks; AS_16 has
    # seven columns with no entry in its low rows.
    assert_lhv_matches(build_as_matrix(16))
    assert_lhv_matches(np.random.default_rng(17).integers(-9, 10, size=(17, 17)))


@pytest.mark.parametrize(
    "plant",
    [
        "zero column",
        "zero low rows",
        "zero high rows",
        "all zero",
        "upper triangular",
        "lower triangular",
    ],
)
def test_lhv_multi_block_with_one_half_columns(plant):
    rng = np.random.default_rng(len(plant))
    n = 16
    lo = n // 2
    m = rng.integers(-4, 5, size=(n, n))
    cols = rng.choice(n, size=5, replace=False)
    if plant == "zero column":
        m[:, cols[0]] = 0
    elif plant == "zero low rows":
        m[n - lo :, cols] = 0
    elif plant == "zero high rows":
        m[: n - lo, cols] = 0
    elif plant == "upper triangular":
        m = np.triu(m)
    elif plant == "lower triangular":
        m = np.tril(m)
    else:
        m[:] = 0
    assert_lhv_matches(m)


def python_int_lhv(m):
    """Max over assignments of sum_j |column sum| in Python integers, smallest assignment."""
    rows = [[int(x) for x in row] for row in np.asarray(m)]
    assignments = list(itertools.product((-1, 1), repeat=len(rows)))
    scores = [
        sum(abs(sum(a * row[j] for a, row in zip(signs, rows))) for j in range(len(rows[0])))
        for signs in assignments
    ]
    best = max(scores)
    return best, assignments[scores.index(best)]


# Each input's score bound n * max_i sum_j |m_ij| sits at an integer type's
# limit or one past it, and its maximum reaches that bound.
INT32_MAX = int(np.iinfo(np.int32).max)
DTYPE_BOUNDARY_INPUTS = {
    "int16 max, n=1": [[32767]],
    "int16 max, n=7": [[4681 * (-1) ** i] + [0] * 6 for i in range(7)],
    "int16 max + 1, n=1": [[32768]],
    "int16 max + 1, n=2": [[16384, 0], [-16384, 0]],
    "int32 max, n=1": [[INT32_MAX]],
    "int32 max + 1, n=1": [[INT32_MAX + 1]],
    "int32 max + 1, n=2": [[1 << 29, 1 << 29], [1 << 29, 1 << 29]],
}


@pytest.mark.parametrize("rows", DTYPE_BOUNDARY_INPUTS.values(), ids=DTYPE_BOUNDARY_INPUTS)
def test_lhv_at_the_integer_type_boundaries(rows):
    m = np.array(rows, dtype=np.int64)
    expected = python_int_lhv(rows)
    assert expected[0] == len(rows) * int(np.abs(m).sum(axis=1).max())
    assert_lhv_result(_kernels.lhv_max(m), expected)


def test_lhv_wide_entries_take_the_int64_path():
    # Column sums reach 2**34 here, past int32.
    m = np.full((4, 4), 1 << 30, dtype=np.int64)
    m[0, 1] = -(1 << 30)
    assert_lhv_matches(m)
    assert _kernels.lhv_max(m)[0] > np.iinfo(np.int32).max


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_steering_matches_reference_on_catalog(n):
    assert_steering_matches(build_as_matrix(n), catalog_directions(n).bob_directions)


@pytest.mark.parametrize("kind", ["random", "coplanar", "repeated", "antipodal"])
@pytest.mark.parametrize("n", range(1, 13))
def test_steering_matches_reference(n, kind):
    rng = np.random.default_rng(1000 * n + len(kind))
    matrices = [random_int_matrix(rng, n)]
    if n % 2 == 0:
        matrices.append(build_as_matrix(n))
    for m in matrices:
        assert_steering_matches(m, bob_set(rng, n, kind))


@pytest.mark.parametrize("tie_tol", [0.5, 2.0])
def test_steering_returns_smallest_index_within_tie_tol(monkeypatch, tie_tol):
    # A wide tolerance makes many near-maximal assignments count as ties,
    # so the witness is rarely the exact argmax.
    monkeypatch.setattr(steering, "STEERING_TIE_TOL", tie_tol)
    rng = np.random.default_rng(17)
    for n in (3, 6, 9, 12):
        assert_steering_matches(random_int_matrix(rng, n), bob_set(rng, n, "random"), tie_tol)


@pytest.mark.parametrize("block", [1, 4, 64])
def test_results_do_not_depend_on_block_size(monkeypatch, block):
    monkeypatch.setattr(_kernels, "_BLOCK_ASSIGNMENTS", block)
    rng = np.random.default_rng(block)
    for n in (1, 2, 5, 8, 11):
        m = random_int_matrix(rng, n)
        assert_lhv_matches(m)
        for kind in ("random", "repeated", "antipodal"):
            assert_steering_matches(m, bob_set(rng, n, kind), block=block)
    for n in (2, 6, 10, 12):
        assert_lhv_matches(build_as_matrix(n))


@st.composite
def kernel_inputs(draw):
    n = draw(st.integers(1, 8))
    m = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)))
    m = m.reshape(n, n)
    # Zeroed columns and half-blocks give columns with entries in one half
    # of the rows only, or in neither.
    lo = n // 2
    for _ in range(draw(st.integers(0, 2))):
        rows = draw(st.sampled_from([slice(None), slice(0, n - lo), slice(n - lo, n)]))
        m[rows, draw(st.integers(0, n - 1))] = 0
    # High rows (1..n-lo-1) that copy one high row on the mixed columns share
    # the scan's classes of equal mixed-column sums.
    if n - lo > 2:
        mixed = m[: n - lo].any(axis=0) & m[n - lo :].any(axis=0)
        high_row = st.integers(1, n - lo - 1)
        source = draw(high_row)
        for target in draw(st.lists(high_row, max_size=n - lo - 1)):
            m[target, mixed] = m[source, mixed]
    # Small integer directions give exact ties, repeats, antipodes and
    # coplanar sets often.
    raw = draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * 3).filter(any), min_size=n, max_size=n
        )
    )
    bob = np.array(raw, dtype=np.float64)
    return m, bob / np.linalg.norm(bob, axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(kernel_inputs(), st.sampled_from([_kernels._BLOCK_ASSIGNMENTS, 1, 4]))
def test_kernels_match_reference_property(inputs, block):
    m, bob = inputs
    # Small blocks make the scan span several blocks.
    with mock.patch.object(_kernels, "_BLOCK_ASSIGNMENTS", block):
        assert_lhv_matches(m)
    assert_steering_matches(m, bob)


def test_lhv_tie_break_prefers_smallest_index():
    # Every assignment of [[0,1],[1,0]] scores 2; the all -1 assignment
    # must win. With n = 1 both assignments tie as well.
    assert_lhv_result(_kernels.lhv_max(np.array([[0, 1], [1, 0]])), (2, [-1, -1]))
    assert_lhv_result(_kernels.lhv_max(np.array([[3]])), (3, [-1]))
    assert_lhv_result(_kernels.lhv_max(np.zeros((1, 1), dtype=np.int64)), (0, [-1]))


def test_steering_tie_break_prefers_smallest_index():
    m = build_as_matrix(2)
    bob = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    value, index = vertex_max(m @ bob)
    assert index == 0
    assert value == pytest.approx(2.0, abs=1e-12)
    assert vertex_max([[0.0, -2.0, 0.0]]) == (2.0, 0)
    assert vertex_max(np.zeros((1, 3))) == (0.0, 0)


def test_backend_name_consistent_with_dispatch():
    # numpy is the only backend the kernels dispatch to.
    assert _kernels.backend_name() == "numpy"


@st.composite
def degenerate_inputs(draw):
    """Steering inputs with n up to 20 and every degeneracy the sweep merges, drops or meets.

    Rows of m may be zero, repeated, negated or doubled (parallel and
    antiparallel rows of w); zero rows of w drop out before the sweep. Rows
    e_j - e_k over Bob directions 1e-14 or 1e-13 apart give rows of w of
    about that norm, which are swept like any other. Bob's set is random,
    coplanar, collinear (+-b), repeated (one direction), clustered within
    1e-7 to 1e-11 of one direction (nearly parallel rows that are not
    merged) or drawn from small integer vectors, which makes exact ties and
    coplanar triples common. Every number is drawn through Hypothesis, each
    row's numbers together, so a failure shrinks row by row, and the arrays
    are returned as lists, whose repr is exact, so the printed example
    replays.
    """
    m, directions, integers, signs = square_rows(
        draw, DIRECTION_ROW, st.tuples(*[st.integers(-2, 2)] * 3), st.sampled_from([-1.0, 1.0])
    )
    n = len(m)
    row = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(row), draw(row)
        m[i] = draw(st.sampled_from([0, 1, -1, 2])) * m[j]
    kinds = ["random", "coplanar", "collinear", "repeated", "clustered", "integer"]
    kind = draw(st.sampled_from(kinds))
    if kind == "integer":
        bob = np.array(integers, dtype=np.float64)
        bob[~bob.any(axis=1)] = [0.0, 0.0, 1.0]
    else:
        bob = np.array(directions)
        if kind == "coplanar":
            bob[:, 2] = 0.0
        bob = scaled_to_unit(bob)
        if kind == "collinear":
            bob = np.array(signs)[:, None] * bob[0]
        elif kind == "repeated":
            bob[:] = bob[0]
        elif kind == "clustered":
            bob = bob[0] + draw(st.sampled_from([1e-7, 1e-9, 1e-11])) * bob
    bob = scaled_to_unit(bob)
    eye = np.eye(n, dtype=np.int64)
    for i in range(draw(st.integers(0, min(2, n // 2)))):
        gap = draw(st.sampled_from([1e-14, 1e-13]))
        bob[2 * i + 1] = bob[2 * i] + gap * scaled_to_unit(draw(direction_rows(1)))[0]
        m[draw(row)] = eye[2 * i] - eye[2 * i + 1]
    return m.tolist(), bob.tolist()


def test_nearly_antiparallel_rows_keep_both_signs():
    # The rows of w = m @ bob are about 2b and -4b, 3e-8 rad from antiparallel:
    # not merged, so each is the other's only crossing on its great circle.
    # That crossing's angle comes from dot products of size 3e-8 and may be
    # off by rounding, but one crossing splits a circle into two arcs whatever
    # its angle, and their four ends keep both signs of both rows.
    m = np.array([[1, 1], [-3, -1]])
    bob = np.array([[-0.13493955, -0.79757853, 0.5879284], [-0.13493958, -0.79757853, 0.5879284]])
    bob /= np.linalg.norm(bob, axis=1, keepdims=True)
    assert_steering_matches(m, bob)
    assert vertex_max(m @ bob)[0] == pytest.approx(6.0, rel=1e-12)


def test_parallel_chains_merge_into_one_group():
    # Rows 0-1 and 1-2 are 0.8e-10 rad apart, under the merge threshold, but
    # rows 0-2 are 1.6e-10 rad apart, over it: row 2's leader is row 1, whose
    # leader is row 0, and the three form one group only through the chain.
    angles = np.array([0.0, 0.8e-10, 1.6e-10])
    bob = np.zeros((4, 3))
    bob[:3, 0], bob[:3, 1] = np.cos(angles), np.sin(angles)
    bob[3] = [0.3, -0.4, np.sqrt(0.75)]
    group, _ = steering._merge_parallel(bob)
    assert np.array_equal(group, [0, 0, 0, 1])
    assert_steering_matches(np.eye(4, dtype=np.int64), bob)


@settings(max_examples=150, deadline=None)
@given(degenerate_inputs())
def test_sweep_matches_kernel_on_degenerate_inputs(inputs):
    m, bob = map(np.array, inputs)
    assert_steering_matches(m, bob, brute_force=len(m) <= 12)
