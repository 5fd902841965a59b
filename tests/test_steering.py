"""Steering LHS bounds, the independent oracle, and visibility thresholds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    DIRECTION_ROW,
    bracketed,
    direction_rows,
    exact_lhs,
    random_rotation,
    random_unit_rows,
    regular_polygon_set,
    scaled_to_unit,
    square_rows,
    steering_max,
    underflow_bob_set,
    visibility_lhv_closed_form,
)
from shimony.catalog import SUPPORTED_SETTINGS, catalog_directions
from shimony.matrices import (
    MAX_STEERING_SETTINGS,
    ResourceLimitError,
    build_as_matrix,
    lhv_bound_bruteforce,
    lhv_bound_closed_form,
)
from shimony.quantum import as_measurement_set, bell_quantum_value, max_quantum_closed_form
from shimony.seesaw import alice_best_response, random_measurement_set
from shimony.steering import (
    QUANTUM_VALUE_GUARD,
    STEERING_TIE_TOL,
    OracleBracket,
    steering_lhs_bound,
    steering_lhs_bound_oracle,
    werner_thresholds,
    zonotope_bound,
    zonotope_bracket,
)

SURDS = {
    4: 2 * math.sqrt(23 / 3),
    6: math.sqrt(358 / 3),
    8: math.sqrt(2 * (10444 + math.sqrt(20305)) / 65),
}


def test_as2_canonical_pair_exact():
    result = steering_lhs_bound(build_as_matrix(2), [[0, 0, 1], [1, 0, 0]])
    assert result.value == 2.0
    assert np.array_equal(result.alice_witness, [-1, -1])
    assert np.array_equal(result.column_sums, [-2, 0])
    assert np.allclose(result.bob_state_direction, [0, 0, -1], atol=1e-15)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_catalog_bounds_match_surds(n):
    result = steering_lhs_bound(build_as_matrix(n), catalog_directions(n).bob_directions)
    assert result.value == pytest.approx(SURDS[n], abs=1e-9)
    assert result.value == pytest.approx(catalog_directions(n).c_lhs_reference[1], abs=1e-9)


def test_n10_bound_regression():
    # Frozen from the enumeration and confirmed by the independent oracle.
    # This value matches the tabulated threshold 0.6779; the tabulated
    # decimal 27.0955 is the exact bound of the other maximizing
    # (theta0, theta1) = (-2.9224, -2.3630) pair (see test_acceptance.py).
    result = steering_lhs_bound(build_as_matrix(10), catalog_directions(10).bob_directions)
    assert result.value == pytest.approx(27.232058090823607, abs=1e-9)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_oracle_agrees_with_fast_path_on_catalog(n):
    m = build_as_matrix(n)
    bob = catalog_directions(n).bob_directions
    sweep, oracle = steering_lhs_bound(m, bob), steering_lhs_bound_oracle(m, bob)
    assert oracle.lower == pytest.approx(sweep.value, abs=1e-6)
    assert bracketed(oracle, sweep)
    # The search ends within 1e-12 of C_LHS, relative: its upper end says so.
    assert oracle.upper <= oracle.lower * (1 + 1e-12)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_oracle_agrees_on_random_directions(n):
    m = build_as_matrix(n)
    for seed in range(3):
        bob = random_measurement_set(n, seed=seed, restart_index=99)
        sweep, oracle = steering_lhs_bound(m, bob), steering_lhs_bound_oracle(m, bob)
        assert oracle.lower == pytest.approx(sweep.value, abs=1e-6)
        assert bracketed(oracle, sweep)


@pytest.mark.parametrize("n", [8, 10])
def test_oracle_agrees_at_non_power_of_two_grids(n):
    # The search starts from the octahedron's 8 faces and splits only the
    # triangles that survive pruning, so its rounds need not hold a power of
    # four triangles.
    m = build_as_matrix(n)
    bob = catalog_directions(n).bob_directions
    sweep, oracle = steering_lhs_bound(m, bob), steering_lhs_bound_oracle(m, bob)
    assert oracle.lower == pytest.approx(sweep.value, rel=1e-12)
    assert bracketed(oracle, sweep)


def test_oracle_grid_block_memory_is_bounded():
    m = build_as_matrix(12)
    bob = random_unit_rows(np.random.default_rng(12), 12)
    steering_lhs_bound_oracle(m, bob)
    tracemalloc.start()
    try:
        steering_lhs_bound_oracle(m, bob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_oracle_search_memory_is_bounded():
    # Regular polygons tie many vertices, so many triangles survive each
    # round: without its block loop the search peaks at about 67 MB here.
    n = 200
    angles = 2 * np.pi * np.arange(n) / n
    bob = np.stack([np.cos(angles), np.sin(angles), np.zeros(n)], axis=1)
    sweep = steering_lhs_bound(np.eye(n), bob)
    tracemalloc.start()
    try:
        oracle = steering_lhs_bound_oracle(np.eye(n), bob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert oracle.lower == pytest.approx(sweep.value, rel=1e-12, abs=0)
    assert bracketed(oracle, sweep)


def test_witness_reproduces_value():
    for n in (4, 6, 8, 10):
        m = build_as_matrix(n)
        bob = catalog_directions(n).bob_directions
        result = steering_lhs_bound(m, bob)
        assert np.array_equal(result.column_sums, result.alice_witness @ m)
        resultant = result.column_sums.astype(float) @ bob
        assert np.linalg.norm(resultant) == pytest.approx(result.value, abs=1e-12)
        assert np.linalg.norm(result.bob_state_direction) == pytest.approx(1.0, abs=1e-12)
        # Lexicographic tie-break: the global sign flip pairs every witness
        # with its mirror, so the chosen one leads with -1.
        assert result.alice_witness[0] == -1


def test_bound_ordering_against_lhv():
    for n in (2, 4, 6, 8, 10):
        m = build_as_matrix(n)
        lhv = lhv_bound_bruteforce(m).value
        lhs = steering_lhs_bound(m, catalog_directions(n).bob_directions).value
        assert lhs <= lhv + 1e-9
        if n > 2:
            assert lhs < lhv  # strict for the catalog sets


def test_bound_ordering_random_directions():
    m = build_as_matrix(6)
    lhv = lhv_bound_bruteforce(m).value
    rng = np.random.default_rng(17)
    for _ in range(100):
        bob = random_unit_rows(rng, 6)
        assert steering_lhs_bound(m, bob).value <= lhv + 1e-9


def test_rotation_invariance():
    rng = np.random.default_rng(23)
    for n in (4, 6):
        m = build_as_matrix(n)
        bob = catalog_directions(n).bob_directions
        base = steering_lhs_bound(m, bob).value
        for _ in range(5):
            rotated = steering_lhs_bound(m, bob @ random_rotation(rng).T).value
            assert abs(rotated - base) <= 1e-10


def test_zero_matrix_degenerate_state():
    result = steering_lhs_bound(np.zeros((2, 2), dtype=int), [[0, 0, 1], [1, 0, 0]])
    assert result.value == 0.0
    assert np.array_equal(result.bob_state_direction, [0, 0, 1])


def test_tie_within_tolerance_reaches_the_smallest_witness_by_flips():
    # Bob directions 0 and 1 lie 1e-14 apart, so row 0 of w = m @ bob is
    # (-1e-14, 0, 0), antiparallel to row 1. The sweep meets only the
    # vertices where the merged rows 0 and 1 take opposite signs; the
    # smallest of them is (-1, +1, -1). Flipping row 1 to -1 costs 2e-14
    # in norm, inside STEERING_TIE_TOL, so only the flip loop reaches the
    # smaller witness (-1, -1, -1).
    m = [[1, -1, 0], [0, 0, 1], [1, 0, 0]]
    bob = [[0.0, 0.0, 1.0], [1e-14, 0.0, 1.0], [1.0, 0.0, 0.0]]
    result = steering_lhs_bound(m, bob)
    assert result.alice_witness.tolist() == [-1, -1, -1]
    assert result.column_sums.tolist() == [-2, 1, -1]
    assert result.value == pytest.approx(math.sqrt(2), abs=1e-12)


def test_near_tie_within_tolerance_is_found_by_the_sweep_window():
    # Rows of w = m @ bob: (-1, 0, 0), (0, -2, -1 - 1e-12), (1, 0, 2) and
    # (2, 0, -1). With Bob direction 1 untilted, A = (-1, +1, -1, +1) and
    # B = (-1, -1, +1, +1) both reach squared norm 24, and every other
    # vertex at most 20. The tilt puts A 4e-13 above B, inside
    # STEERING_TIE_TOL, so the smaller B is the witness. The flip loop only
    # turns +1 rows to -1, and B has a +1 where A has -1 (row 2) and where
    # -A has -1 (row 3): only a sweep window as wide as the tolerance finds B.
    m = np.zeros((4, 4), dtype=int)
    m[:, :3] = [[-1, 0, 0], [0, -2, -1], [1, 0, 2], [2, 0, -1]]
    bob = [[1.0, 0.0, 0.0], [0.0, 1.0, 5e-13], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
    w = m @ np.array(bob)
    gap = np.linalg.norm([-1, 1, -1, 1] @ w) - np.linalg.norm([-1, -1, 1, 1] @ w)
    assert 0 < gap < STEERING_TIE_TOL
    result = steering_lhs_bound(m, bob)
    assert result.alice_witness.tolist() == [-1, -1, 1, 1]
    assert result.column_sums.tolist() == [4, 2, 2, 0]
    assert result.value == pytest.approx(math.sqrt(24), abs=1e-12)


def test_maximum_found_only_as_the_short_end_of_its_arcs():
    # Bob's axes make w = m @ bob six integer rows. The maximal vertex, with
    # squared norm 134 at (-1, +1, +1, +1, +1, +1) and its mirror alone, is on
    # the sweep's circles 0, 2, 4 and 5, each time as the r - gen_i end of an
    # arc whose r + gen_i end has squared norm 74 to 110. A sweep that ranked
    # both ends by the r + gen_i end would miss it and report sqrt(126).
    m = np.zeros((6, 6), dtype=int)
    m[:, :3] = [[-1, 3, -1], [0, -3, 2], [1, 0, 2], [0, 0, 2], [-2, 2, 3], [-2, 1, 1]]
    bob = np.concatenate((np.eye(3), np.tile([0.0, 0.0, 1.0], (3, 1))))
    result = steering_lhs_bound(m, bob)
    assert result.alice_witness.tolist() == [-1, 1, 1, 1, 1, 1]
    assert result.column_sums.tolist() == [-2, -3, 11, 0, 0, 0]
    assert result.value == math.sqrt(134)


def test_witness_reads_the_row_norms_of_the_generator_set():
    # On 4 of the 6 rows of w = m @ bob, sqrt of the einsum of squares and
    # np.linalg.norm differ in the last bit: Bob set 347 has the most such
    # rows of seeds 0..999 at n = 4, 6, 8. The witness's window and flip test
    # read the norms that Q(b) sums, and the result is the 2**n kernel's.
    m = build_as_matrix(6)
    bob = random_measurement_set(6, 347)
    w = m @ bob
    norms = np.linalg.norm(w, axis=1)
    assert np.count_nonzero(np.sqrt(np.einsum("ij,ij->i", w, w)) != norms) >= 3
    result = steering_lhs_bound(m, bob)
    value, index = steering_max(w)
    assert result.alice_witness.tolist() == [1 if c == "1" else -1 for c in f"{index:06b}"]
    assert result.value == pytest.approx(value, rel=1e-15, abs=0)
    assert result.quantum_value == norms.sum()
    best = bell_quantum_value(m, alice_best_response(m, bob), bob)
    assert result.quantum_value == pytest.approx(best, rel=1e-12, abs=0)


def test_thresholds_n2_and_n4():
    m2 = build_as_matrix(2)
    pair = werner_thresholds(m2, catalog_directions(2).bob_directions, max_quantum_closed_form(2))
    assert pair.v_lhv == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert pair.v_lhs == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    m4 = build_as_matrix(4)
    pair = werner_thresholds(m4, catalog_directions(4).bob_directions, max_quantum_closed_form(4))
    assert pair.v_lhv == pytest.approx(3 * math.sqrt(6) / 10, abs=1e-12)
    assert pair.v_lhs == pytest.approx(math.sqrt(23) / (5 * math.sqrt(2)), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(2, 14, 2)), st.integers(0, 2**32 - 1))
@example(2, 31333)
def test_threshold_of_random_bob_sets_divides_by_their_quantum_value(n, seed):
    # With Bob's directions fixed the best singlet value is
    # Q(b) = sum_i ||(m b)_i||, reached by Alice's best response; a set below
    # the maximum by more than the guard steers only above C_LHS / Q(b), and
    # one within it (n = 2, seed 31333: 2.3e-10 below) keeps v_lhs.
    # werner_thresholds' own v_lhs keeps the caller's denominator.
    m = build_as_matrix(n)
    bob = random_measurement_set(n, seed)
    quantum_max = max_quantum_closed_form(n)
    pair = werner_thresholds(m, bob, quantum_max)
    c_lhs, q_b = pair.lhs.value, pair.lhs.quantum_value
    assert pair.below_quantum_max == (q_b < quantum_max * (1 - QUANTUM_VALUE_GUARD))
    if pair.below_quantum_max:
        assert pair.v_lhs_fixed_bob * q_b == pytest.approx(c_lhs, rel=1e-12, abs=0)
    else:
        assert pair.v_lhs_fixed_bob == pair.v_lhs
    assert pair.v_lhs == c_lhs / quantum_max
    assert c_lhs <= q_b * (1 + 1e-12)
    assert q_b <= quantum_max * (1 + 1e-12)
    best = bell_quantum_value(m, alice_best_response(m, bob), bob)
    assert q_b == pytest.approx(best, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", range(2, 14, 2))
def test_visibility_lhv_closed_form_is_the_quotient(n):
    quotient = lhv_bound_closed_form(n) / max_quantum_closed_form(n)
    assert visibility_lhv_closed_form(n) == pytest.approx(quotient, abs=1e-12)


@pytest.mark.parametrize("n", [26, MAX_STEERING_SETTINGS])
def test_thresholds_beyond_the_enumeration_cap(n):
    # C_LHV of AS_n comes from the closed form, so the thresholds reach the
    # steering cap; v_lhv is the closed-form quotient to the last bits.
    bob = random_unit_rows(np.random.default_rng(n), n)
    pair = werner_thresholds(build_as_matrix(n), bob, max_quantum_closed_form(n))
    assert pair.c_lhv == lhv_bound_closed_form(n)
    assert pair.v_lhv == pytest.approx(visibility_lhv_closed_form(n), rel=1e-15, abs=0)


def test_threshold_validation():
    m = build_as_matrix(2)
    bob = catalog_directions(2).bob_directions
    with pytest.raises(ValueError, match="positive"):
        werner_thresholds(m, bob, 0.0)
    with pytest.raises(ValueError, match="positive"):
        werner_thresholds(m, bob, -2.0)


@pytest.mark.parametrize("m", [[[1, 1], [1, 1]], [[0, 0], [0, 0]]])
def test_thresholds_refuse_a_zero_quantum_value(m):
    # Every row of m @ bob is zero, so Q(b) = 0 and no threshold divides by it.
    with pytest.raises(ValueError, match=r"Q\(b\) is 0"):
        werner_thresholds(m, [[0, 0, 1], [0, 0, -1]], 2.0)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        steering_lhs_bound(build_as_matrix(4), catalog_directions(6).bob_directions)


def test_resource_cap():
    # The great-circle sweep is polynomial, so the steering cap is 300
    # settings (tens of milliseconds a call), not the 24 of the LHV enumeration.
    assert MAX_STEERING_SETTINGS == 300
    n = MAX_STEERING_SETTINGS + 2
    bob = random_measurement_set(n, seed=0)
    message = "steering bound over 302 settings exceeds the cap of 300 settings"
    with pytest.raises(ResourceLimitError, match=message):
        steering_lhs_bound(build_as_matrix(n), bob)
    with pytest.raises(ResourceLimitError, match=message):
        steering_lhs_bound_oracle(build_as_matrix(n), bob)


@pytest.mark.parametrize(
    "w, error",
    [
        ([[0.0, np.nan, 1.0]], ValueError),
        ([[np.inf, 0.0, 0.0]], ValueError),
        ([[1.0, 0.0, 0.0], [0.0, -np.inf, 0.0]], ValueError),
        ([[2.0**500, 0.0, 0.0]], ValueError),
        ([[1.0, 0.0]], ValueError),
        ([1.0, 0.0, 0.0], ValueError),
        (np.zeros((0, 3)), ValueError),
        (np.zeros((2, 3, 1)), ValueError),
        ([["1", "0", "0"]], ValueError),
        (np.ones((MAX_STEERING_SETTINGS + 1, 3)), ResourceLimitError),
    ],
    ids=["nan", "inf", "-inf", "2**500", "two columns", "one row flat", "no rows", "3-d",
         "strings", "over the cap"],
)
def test_the_core_refuses_bad_generators(w, error):
    for core in (zonotope_bound, zonotope_bracket):
        with pytest.raises(error, match="generators w|cap of 300"):
            core(w)


def _split_corpus():
    """Seeded (m, bob): AS_n or random integer m, over five kinds of Bob set.

    Random, coplanar, repeated, {-1, 0, 1}-lattice, and zero-row sets, where
    a quarter of m's rows are 0 and AS_n's last row of w, b_1 - b_2, is
    (0, 1e-300, 0), whose squares round to 0.
    """
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = 2 * int(rng.integers(1, 16))
        m = build_as_matrix(n).copy() if seed % 2 else rng.integers(-3, 4, size=(n, n))
        kind = ["random", "coplanar", "repeated", "lattice", "zero-row"][seed // 2 % 5]
        bob = random_unit_rows(rng, n)
        if kind == "coplanar":
            bob[:, 2] = 0.0
        elif kind == "repeated":
            bob[:] = bob[0]
        elif kind == "lattice":
            bob = rng.integers(-1, 2, size=(n, 3)).astype(np.float64)
            bob[~bob.any(axis=1)] = [0.0, 0.0, 1.0]
        elif kind == "zero-row":
            bob = underflow_bob_set(rng, n)
            m[rng.choice(n, n // 4, replace=False)] = 0
        yield pytest.param(m, scaled_to_unit(bob), id=f"{seed}-{kind}-n{n}")


@pytest.mark.parametrize("m, bob", _split_corpus())
def test_the_m_bob_entries_are_the_core_on_m_at_bob(m, bob):
    # Bit for bit: the entries only validate m and bob, which renormalizes
    # bob's rows, and add column_sums.
    result = steering_lhs_bound(m, bob)
    w = m.astype(np.float64) @ as_measurement_set(bob)
    value, alice, direction, quantum_value = zonotope_bound(w)
    assert result.value == value and result.quantum_value == quantum_value
    assert result.alice_witness.dtype == alice.dtype == np.int64
    assert np.array_equal(result.alice_witness, alice)
    assert result.bob_state_direction.tobytes() == direction.tobytes()
    assert steering_lhs_bound_oracle(m, bob) == zonotope_bracket(w)


def _scale_corpus():
    """The catalog's Bob sets under AS_n, and random ones under AS_n and random integer m."""
    for n in SUPPORTED_SETTINGS:
        bob = catalog_directions(n).bob_directions
        yield pytest.param(build_as_matrix(n), bob, id=f"catalog-{n}")
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = 2 * int(rng.integers(1, 11))
        m = build_as_matrix(n) if seed % 2 else rng.integers(-3, 4, size=(n, n))
        yield pytest.param(m, random_unit_rows(rng, n), id=f"random-{seed}-n{n}")


@pytest.mark.parametrize("m, bob", _scale_corpus())
def test_the_core_scales_exactly_by_a_power_of_two(m, bob):
    # w * 2**-200 has every entry below 1, so the core scales it back up by a
    # power of two; every figure comes out scaled by exactly 2**-200.
    w = m @ bob
    value, alice, direction, quantum_value = zonotope_bound(w)
    small = zonotope_bound(np.ldexp(w, -200))
    assert np.array_equal(small[1], alice)
    assert small[0] == math.ldexp(value, -200) and small[3] == math.ldexp(quantum_value, -200)
    assert np.array_equal(small[2], direction)
    bracket = zonotope_bracket(w)
    assert zonotope_bracket(np.ldexp(w, -200)) == OracleBracket(
        math.ldexp(bracket.lower, -200), math.ldexp(bracket.upper, -200)
    )


@pytest.mark.parametrize(
    "m, bob, witness",
    [
        # Every assignment's norm is below STEERING_TIE_TOL until w is prescaled.
        ([[-3, 3], [1, -1]], [[1.0, 0.0, 0.0], [1.0, 0.0, 1e-13]], [-1, 1]),
        # The squares of w's entries are subnormal until w is prescaled.
        (
            [[-1, 0, -1, 2], [0] * 4, [0] * 4, [0] * 4],
            [[1.0, 0.0, 3.70331939899465e-161]] + [[1.0, 0.0, 0.0]] * 3,
            [-1, -1, -1, -1],
        ),
    ],
    ids=["below-the-tie-window", "subnormal-squares"],
)
def test_generators_below_1_give_the_exact_bound(m, bob, witness):
    exact, quantum_value = map(float, exact_lhs(m, bob))
    result = steering_lhs_bound(m, bob)
    assert result.alice_witness.tolist() == witness
    assert (result.value, result.quantum_value) == (exact, quantum_value)
    assert steering_lhs_bound_oracle(m, bob) == OracleBracket(exact, exact)


def test_memory_at_the_cap_is_bounded():
    n = MAX_STEERING_SETTINGS
    m = build_as_matrix(n)
    bob = random_unit_rows(np.random.default_rng(n), n)
    tracemalloc.start()
    try:
        result = steering_lhs_bound(m, bob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert result.value <= lhv_bound_closed_form(n)
    oracle = steering_lhs_bound_oracle(m, bob)
    assert oracle.lower == pytest.approx(result.value, rel=1e-12)
    assert bracketed(oracle, result)


@pytest.mark.parametrize("n", [4, MAX_STEERING_SETTINGS])
def test_one_bob_direction_closed_form(n):
    # With every Bob direction equal, all rows of m @ bob are collinear and
    # C_LHS = sum_i |sum_j m_ij|. At n = 300 the norm is about 2e4, past the
    # point where the 1e-12 tie tolerance is below float resolution.
    m = build_as_matrix(n)
    bob = np.tile(random_unit_rows(np.random.default_rng(n), 1), (n, 1))
    result = steering_lhs_bound(m, bob)
    assert result.value == pytest.approx(np.abs(m.sum(axis=1)).sum(), rel=1e-14)
    assert result.alice_witness[0] == -1


@pytest.mark.parametrize("scale", [10**3, 10**6])
def test_large_norms_give_a_maximal_witness(scale):
    # Norms of 1e4 to 1e8: ties are decided at float resolution, and the
    # witness must still reach the maximum over all assignments.
    rng = np.random.default_rng(scale)
    for n in (3, 6, 9):
        m = scale * rng.integers(-3, 4, size=(n, n))
        bob = random_unit_rows(rng, n)
        signs = np.array(np.meshgrid(*[[-1, 1]] * n, indexing="ij")).reshape(n, -1).T
        best = np.linalg.norm((signs @ m).astype(np.float64) @ bob, axis=1).max()
        result = steering_lhs_bound(m, bob)
        assert result.value == pytest.approx(best, rel=1e-14)
        assert result.alice_witness[0] == -1


@pytest.mark.parametrize("k", [2, 3])
def test_linear_steering_inequality_closed_form(k):
    # m = identity is the linear steering inequality (Cavalcanti, Jones,
    # Wiseman & Reid, PRA 80, 032112 (2009)): with k orthogonal Bob
    # directions C_LHS = sqrt(k), and the quantum value k gives V_LHS = 1/sqrt(k).
    # k = 2 puts every generator in one plane; k = 3 is in general position.
    rng = np.random.default_rng(k)
    for bob in (np.eye(3)[:k], np.eye(3)[:k] @ random_rotation(rng).T):
        result = steering_lhs_bound(np.eye(k), bob)
        assert result.value == pytest.approx(math.sqrt(k), rel=1e-15)
        assert np.array_equal(result.alice_witness, -np.ones(k))
        pair = werner_thresholds(np.eye(k), bob, float(k))
        assert pair.v_lhs == pytest.approx(1 / math.sqrt(k), rel=1e-15)
        assert pair.v_lhv == 1.0
        oracle = steering_lhs_bound_oracle(np.eye(k), bob)
        assert oracle.lower == pytest.approx(result.value, rel=1e-12)
        assert bracketed(oracle, result)


def degenerate_bob_sets(rng, n):
    """Coplanar, three-direction, small-integer and zero-plus-tiny Bob sets of n unit rows.

    The first three put many generators of m @ bob in common planes (or on
    common lines), so that several crossings of one great circle coincide
    and the sweep meets arcs of zero length. The last is random with
    direction 2 equal to direction 1 and direction 3 within 1e-13 of it, so
    AS_n @ bob has a zero last row and a row n - 1 of norm about 2e-13.
    """
    coplanar = rng.standard_normal((n, 3))
    coplanar[:, 2] = 0.0
    repeated = random_unit_rows(rng, 3)[rng.integers(3, size=n)]
    integer = rng.integers(-1, 2, size=(n, 3)).astype(np.float64)
    integer[~integer.any(axis=1)] = [0.0, 0.0, 1.0]
    tiny = random_unit_rows(rng, n)
    tiny[1] = tiny[0]
    tiny[2] = tiny[0] + 1e-13 * random_unit_rows(rng, 1)[0]
    for bob in (coplanar, repeated, integer, tiny):
        yield bob / np.linalg.norm(bob, axis=1, keepdims=True)


@pytest.mark.parametrize(
    "n", [26, 40, 64, pytest.param(300, marks=pytest.mark.filterwarnings("error"))]
)
def test_bound_beyond_the_enumeration_cap_matches_the_oracle(n):
    # The regular n-gon, the hardest input found for the sweep, draws no
    # random numbers, so the sets after it draw what they drew without it.
    m = build_as_matrix(n)
    rng = np.random.default_rng(n)
    bob_sets = [random_unit_rows(rng, n), regular_polygon_set(n), *degenerate_bob_sets(rng, n)]
    for bob in bob_sets:
        result = steering_lhs_bound(m, bob)
        assert result.alice_witness[0] == -1
        assert np.array_equal(result.column_sums, result.alice_witness @ m)
        assert np.linalg.norm(result.column_sums @ bob) == pytest.approx(result.value, rel=1e-14)
        oracle = steering_lhs_bound_oracle(m, bob)
        assert oracle.lower == pytest.approx(result.value, rel=1e-12)
        assert bracketed(oracle, result)
    # The last set, zero-plus-tiny, gives a zero last row, which takes -1.
    assert not (m[-1] @ bob).any() and np.linalg.norm(m[-2] @ bob) < 1e-12
    assert result.alice_witness[-1] == -1


@pytest.mark.parametrize("n", [2, 40, MAX_STEERING_SETTINGS])
def test_oracle_drops_rows_whose_squares_underflow(n):
    # The oracle and the witness drop the same zero rows: a row counts as
    # zero when its squares sum to 0, even if an entry is not 0. pyproject
    # turns a RuntimeWarning, such as a division by a zero norm, into a failure.
    m = build_as_matrix(n)
    bob = underflow_bob_set(np.random.default_rng(n), n)
    last = m[-1] @ bob
    assert last.any() and last @ last == 0
    result = steering_lhs_bound(m, bob)
    assert result.alice_witness[-1] == -1
    oracle = steering_lhs_bound_oracle(m, bob)
    assert oracle.lower == pytest.approx(result.value, rel=1e-12)
    assert bracketed(oracle, result)


def test_oracle_on_lattice_directions_with_rows_of_mixed_scale():
    # Bob directions on the integer lattice put many great circles through
    # common points, and rows of m scaled by 1 to 1e5 make the circles of
    # small generators cross the caps near the maximizer: a cap bound that
    # is not an upper bound over the whole cap drops the maximizer there.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = rng.integers(-2, 3, size=(20, 20)) * 10 ** rng.integers(0, 6, size=(20, 1))
        bob = rng.integers(-1, 2, size=(20, 3)).astype(np.float64)
        bob[~bob.any(axis=1)] = [0.0, 0.0, 1.0]
        bob /= np.linalg.norm(bob, axis=1, keepdims=True)
        sweep, oracle = steering_lhs_bound(m, bob), steering_lhs_bound_oracle(m, bob)
        assert oracle.lower == pytest.approx(sweep.value, rel=1e-12, abs=0)
        assert bracketed(oracle, sweep)


@st.composite
def thin_cell_inputs(draw):
    """Inputs whose zonotope has thin or empty cells, with n up to 20.

    Bob's directions cluster around one axis with a drawn spread, so rows of
    w = m @ bob are nearly parallel and zero-sum rows of m give short rows of
    w. Rows e_j - e_k over nearly equal b_j, b_k have norm about 1e-13; zero
    rows, the all-zero matrix and coplanar sets are drawn too, so every entry
    of w may lie far below 1, where the core prescales it. Rows of w that all
    cancel are the explicit examples' case. Every number is drawn through
    Hypothesis, each row's numbers together, and the arrays are returned as
    lists, so a failure shrinks row by row and replays as printed.
    """
    m, offsets = square_rows(draw, DIRECTION_ROW)
    n = len(m)
    spread = draw(st.sampled_from([1.0, 1e-3, 1e-7, 1e-13]))
    bob = scaled_to_unit(draw(direction_rows(1))) + spread * np.array(offsets)
    eye = np.eye(n, dtype=np.int64)
    for i in range(draw(st.integers(0, min(3, n // 2)))):
        bob[2 * i + 1] = bob[2 * i] + 1e-13 * draw(direction_rows(1))[0]
        m[1 + i] = eye[2 * i] - eye[2 * i + 1]
    if n > 1:
        m[draw(st.lists(st.integers(1, n - 1), max_size=min(3, n - 1)))] = 0
    if draw(st.booleans()):
        bob[:, 2] = 0.0
    if draw(st.integers(0, 9)) == 0:
        m[:] = 0
    return m.tolist(), scaled_to_unit(bob).tolist()


@settings(max_examples=120, deadline=None)
@given(thin_cell_inputs())
@example(  # a row of norm 5e-13 ties two vertices: the sweep's value is 2.5e-13 below lower
    (
        [[1, 1, 1], [1, -1, 0], [0, 0, 0]],
        [[0.7071067811865475, 0.0, 0.7071067811865476],
         [0.7071067811869011, 0.0, 0.707106781186194], [1.0, 0.0, 0.0]],
    )
)
@example(  # every row of w is exactly 0, where ||(alice @ m) @ bob|| rounds to 1.57e-16
    (
        [[-2, 0, 2], [-1, 0, 1], [0, 0, 0]],
        [[0.0, 0.7071067811865476, 0.7071067811865476]] * 3,
    )
)
def test_oracle_matches_kernel_on_thin_cells(inputs):
    m, bob = map(np.array, inputs)
    sweep, oracle = steering_lhs_bound(m, bob), steering_lhs_bound_oracle(m, bob)
    assert oracle.lower == pytest.approx(sweep.value, rel=1e-12, abs=0)
    assert bracketed(oracle, sweep)


def _pairs_1e13_apart():
    """Rows e_j - e_k over Bob directions 1e-13 apart, as thin_cell_inputs builds them.

    The three pairs cluster around one direction and are offset along x, so
    the rows of w point nearly one way, and the witness is all -1, the
    maximizer.
    """
    rng = np.random.default_rng(0)
    bob = np.repeat(scaled_to_unit([0.0, 0.6, 0.8] + 1e-3 * random_unit_rows(rng, 3)), 2, axis=0)
    bob[1::2] += [1e-13, 0.0, 0.0]
    eye = np.eye(6, dtype=np.int64)
    m = np.zeros((6, 6), dtype=np.int64)
    m[:3] = eye[0::2] - eye[1::2]
    return m, scaled_to_unit(bob)


_S = 0.7071067811865476


@pytest.mark.parametrize(
    "m, bob",
    [
        # C_LHS is 3e-14, where ||(alice @ m) @ bob|| rounds to 3.000041e-14.
        (np.array([[1, -1], [2, -2]]), np.array([[0.0, _S, _S], [1e-14, _S, _S]])),
        _pairs_1e13_apart(),
    ],
    ids=["two-rows", "pairs-1e-13-apart"],
)
def test_value_is_relatively_exact_where_the_rows_of_w_cancel(m, bob):
    # The value is ||alice @ w|| on the w of Q(b) and the oracle, so it rounds
    # by about n eps Q(b) <= 2 n eps C_LHS, however far the rows of w cancel.
    result, oracle = steering_lhs_bound(m, bob), steering_lhs_bound_oracle(m, bob)
    exact, quantum_value = exact_lhs(m, bob)
    eps = np.finfo(np.float64).eps
    assert result.value == pytest.approx(float(exact), rel=2 * len(m) * eps, abs=0)
    assert oracle.lower == pytest.approx(float(exact), rel=1e-15, abs=0)
    assert result.quantum_value == pytest.approx(float(quantum_value), rel=1e-15, abs=0)
    assert bracketed(oracle, result)
