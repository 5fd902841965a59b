"""Coefficient matrices and exact LHV bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shimony.matrices import (
    MAX_ENUMERATION_SETTINGS,
    ResourceLimitError,
    assignment_from_index,
    build_as_matrix,
    classical_value,
    lhv_bound_bruteforce,
    lhv_bound_closed_form,
    require_even_settings,
)

# Low-order matrices kept literal: these fixed arrays are the ground truth
# the zone rule must reproduce.
AS_2 = [[1, 1], [1, -1]]
AS_4 = [
    [1, 1, 1, 1],
    [1, 1, 1, -1],
    [1, 1, -2, 0],
    [1, -1, 0, 0],
]
AS_6 = [
    [1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, -1],
    [1, 1, 1, 1, -2, 0],
    [1, 1, 1, -3, 0, 0],
    [1, 1, -2, 0, 0, 0],
    [1, -1, 0, 0, 0, 0],
]
AS_8 = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, -1],
    [1, 1, 1, 1, 1, 1, -2, 0],
    [1, 1, 1, 1, 1, -3, 0, 0],
    [1, 1, 1, 1, -4, 0, 0, 0],
    [1, 1, 1, -3, 0, 0, 0, 0],
    [1, 1, -2, 0, 0, 0, 0, 0],
    [1, -1, 0, 0, 0, 0, 0, 0],
]


@pytest.mark.parametrize("n", range(2, 14, 2))
def test_every_assignment_reaches_the_lhv_bound(n):
    # When Bob answers each setting with the sign of its column sum, every
    # Alice assignment of AS_n scores (N/2)(N/2+1): the classical bound is
    # reached by all 2**N assignments, not only by the witness.
    m = build_as_matrix(n)
    bound = (n // 2) * (n // 2 + 1)
    for alice in itertools.product((-1, 1), repeat=n):
        assert np.abs(np.array(alice) @ m).sum() == bound


@pytest.mark.parametrize("n,expected", [(2, AS_2), (4, AS_4), (6, AS_6), (8, AS_8)])
def test_explicit_matrices(n, expected):
    assert np.array_equal(build_as_matrix(n), np.array(expected))


def test_matrix_is_readonly_int64():
    m = build_as_matrix(6)
    assert m.dtype == np.int64
    with pytest.raises(ValueError):
        m[0, 0] = 5


@pytest.mark.parametrize("n", range(2, 22, 2))
def test_symmetry_and_all_ones_border(n):
    m = build_as_matrix(n)
    assert np.array_equal(m, m.T)
    assert np.all(m[0] == 1)
    assert np.all(m[:, 0] == 1)


def test_antidiagonal_band():
    m = build_as_matrix(10)
    n = 10
    for i in range(1, n + 1):
        j = n + 2 - i
        if 1 <= j <= n:
            assert m[i - 1, j - 1] == -(min(i, j) - 1)


@pytest.mark.parametrize("bad", [3, 0, -2, 1, 2.0, "4", True, None])
def test_invalid_setting_counts(bad):
    with pytest.raises(ValueError):
        require_even_settings(bad)
    with pytest.raises(ValueError):
        build_as_matrix(bad)


@pytest.mark.parametrize(
    "n,expected", [(2, 2), (4, 6), (6, 12), (8, 20), (10, 30), (12, 42)]
)
def test_closed_form_values(n, expected):
    assert lhv_bound_closed_form(n) == expected


@pytest.mark.parametrize("n", range(2, 14, 2))
def test_bruteforce_matches_closed_form(n):
    result = lhv_bound_bruteforce(build_as_matrix(n))
    assert result.value == lhv_bound_closed_form(n)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_bruteforce_witness_attains_value(n):
    m = build_as_matrix(n)
    result = lhv_bound_bruteforce(m)
    assert classical_value(m, result.alice_witness, result.bob_witness) == result.value
    # For AS matrices the all -1 assignment is optimal and lexicographically
    # first under -1 < +1.
    assert np.all(result.alice_witness == -1)


def test_bruteforce_full_enumeration_oracle_as4():
    # Independent O(4^n) check over both parties.
    m = np.array(AS_4)
    best = max(
        classical_value(m, a, b)
        for a in itertools.product((-1, 1), repeat=4)
        for b in itertools.product((-1, 1), repeat=4)
    )
    assert best == 6
    assert lhv_bound_bruteforce(m).value == 6


def test_bruteforce_zero_matrix():
    result = lhv_bound_bruteforce(np.zeros((2, 2), dtype=int))
    assert result.value == 0
    assert np.all(result.alice_witness == -1)
    assert np.all(result.bob_witness == -1)


def test_classical_value_examples():
    assert classical_value(AS_2, [1, 1], [1, 1]) == 2
    # all-ones strategies collect the full entry sum: 4 + 2 + 0 + 0
    assert classical_value(AS_4, [1, 1, 1, 1], [1, 1, 1, 1]) == 6
    assert classical_value(AS_4, [1, 1, 1, 1], [1, -1, 1, 1]) == 2
    assert classical_value(AS_4, [-1, -1, -1, -1], [-1, -1, -1, -1]) == 6


def test_classical_value_validation():
    with pytest.raises(ValueError):
        classical_value(AS_4, [1, 1, 1], [1, 1, 1, 1])
    with pytest.raises(ValueError):
        classical_value(AS_4, [1, 1, 1, 2], [1, 1, 1, 1])
    with pytest.raises(ValueError):
        classical_value([[1, 1], [1, 0.5]], [1, 1], [1, 1])
    with pytest.raises(ValueError):
        classical_value(np.ones((2, 3)), [1, 1], [1, 1, 1])


def test_coefficients_too_large_for_int64_are_rejected():
    # The scores of this matrix reach 2**64 and would wrap in int64.
    big = np.full((2, 2), 1 << 62, dtype=np.int64)
    with pytest.raises(ValueError, match="too large"):
        lhv_bound_bruteforce(big)
    with pytest.raises(ValueError, match="too large"):
        classical_value(big, [1, 1], [1, 1])
    assert lhv_bound_bruteforce(np.full((2, 2), 1 << 40)).value == 1 << 42


def test_resource_cap():
    n = MAX_ENUMERATION_SETTINGS + 2
    with pytest.raises(ResourceLimitError, match="exceeds the cap of 24 settings"):
        lhv_bound_bruteforce(build_as_matrix(n))


def test_assignment_from_index_encoding():
    assert np.array_equal(assignment_from_index(0, 4), [-1, -1, -1, -1])
    assert np.array_equal(assignment_from_index(1, 4), [-1, -1, -1, 1])
    assert np.array_equal(assignment_from_index(0b1010, 4), [1, -1, 1, -1])
    assert np.array_equal(assignment_from_index(15, 4), [1, 1, 1, 1])


signs = st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4)


@given(alice=signs, bob=signs)
def test_no_assignment_beats_bruteforce_bound(alice, bob):
    assert classical_value(AS_4, alice, bob) <= 6


@given(alice=signs, bob=signs)
def test_spin_flip_antisymmetry(alice, bob):
    value = classical_value(AS_4, alice, bob)
    flipped = [-a for a in alice]
    assert classical_value(AS_4, flipped, bob) == -value
    assert classical_value(AS_4, flipped, [-b for b in bob]) == value
