"""Coefficient matrices and exact LHV bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import classical_value
from shimony import _kernels
from shimony.matrices import (
    MAX_ENUMERATION_SETTINGS,
    ResourceLimitError,
    as_coefficient_matrix,
    build_as_matrix,
    lhv_bound,
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


def as_column_sums_by_walk(alice):
    """Column sums of alice @ AS_N from the walk: column N+1-k sums to S_k - min(k, N-k) A_{k+1}."""
    n = len(alice)
    walk = np.cumsum(alice)
    step = np.append(alice[1:], 0)  # A_{k+1}; the k = N term has weight 0
    k = np.arange(1, n + 1)
    return (walk - np.minimum(k, n - k) * step)[::-1]


def walk_dp(n):
    """Max and min over Alice of AS_n's best-response score, and the smallest maximizer.

    The score sum_j |column sum j| is a sum of terms on consecutive steps of
    the +-1 walk S_k = A_1 + ... + A_k (as_column_sums_by_walk). A backward DP
    over (k, S_k) gives its exact max and min in O(n**2), independent of the
    2**n scan; a forward pass that tries -1 first at each step recovers the
    lexicographically smallest maximizer under -1 < +1.
    """
    s = np.arange(-n, n + 1)  # S_k at index S_k + n
    hi = lo = np.abs(s)  # the k = N term
    highs = [hi]  # best score to go from step k, for k = N, N-1, ..., 0
    for k in range(n - 1, -1, -1):
        c = min(k, n - k)  # k = 0 adds no column: its term |S_0| is 0
        down, up = np.abs(s + c), np.abs(s - c)  # A_{k+1} = -1, +1
        # Shifting by one misreads only |S_k| = N, which the walk reaches at k = N alone.
        hi = np.maximum(down + np.r_[hi[:1], hi[:-1]], up + np.r_[hi[1:], hi[-1:]])
        lo = np.minimum(down + np.r_[lo[:1], lo[:-1]], up + np.r_[lo[1:], lo[-1:]])
        highs.append(hi)
    alice, walk = [], 0
    for k in range(n):
        to_go, after = highs[n - k], highs[n - k - 1]
        c = min(k, n - k)
        a = -1 if abs(walk + c) + after[walk - 1 + n] == to_go[walk + n] else 1
        alice.append(a)
        walk += a
    return int(hi[n]), int(lo[n]), np.array(alice)


@pytest.mark.parametrize("n", [*range(2, 102, 2), 200, 300, 1000])
def test_walk_dp_finds_the_lhv_bound_flat(n):
    # Past the scan's cap the walk DP is the reference: every Alice
    # assignment scores (N/2)(N/2+1), and the all -1 one is the smallest.
    best, worst, alice = walk_dp(n)
    assert best == worst == (n // 2) * (n // 2 + 1)
    assert np.all(alice == -1)


def twice_tail_score(j, s):
    """2 G(j, S): twice the score of AS_N's last j + 1 columns, given S_{N-j} = S."""
    return 2 * (j + 1) * abs(s) if abs(s) >= j else j * (j + 2) + s * s


def test_flatness_induction_in_exact_integers():
    # The steps of the proof in the matrices module docstring, doubled so
    # that every quantity is an integer. The base case G(0, S) = |S|; the
    # step G(j, S) = |S - jA| + G(j-1, S+A) for both A and every S with the
    # parity of j (that of S_{N-j}) up to |S| <= j + 4; and the total: the
    # first half's (M+1)**2/2 - S**2/2 plus G(M-1, S) is M(M+1) for every
    # S = S_{M+1}.
    for s in range(-5, 6):
        assert twice_tail_score(0, s) == 2 * abs(s)
    for j in range(1, 301):
        for s in range(-j - 4, j + 5, 2):
            for a in (-1, 1):
                assert twice_tail_score(j, s) == 2 * abs(s - j * a) + twice_tail_score(j - 1, s + a)
    for m in range(1, 301):
        for s in range(-m - 1, m + 2, 2):
            assert (m + 1) ** 2 - s * s + twice_tail_score(m - 1, s) == 2 * m * (m + 1)


@pytest.mark.parametrize("n", range(2, 22, 2))
def test_walk_dp_agrees_with_the_scan(n):
    m = build_as_matrix(n)
    for alice in np.random.default_rng(n).choice((-1, 1), size=(8, n)):
        assert np.array_equal(as_column_sums_by_walk(alice), alice @ m)
    best, _, alice = walk_dp(n)
    value, scanned = _kernels.lhv_max(m)
    assert value == best and np.array_equal(scanned, alice)


@pytest.mark.parametrize("n", range(2, 22, 2))
def test_lhv_bound_of_as_n_is_the_scan_result(n):
    m = build_as_matrix(n)
    closed, scanned = lhv_bound(m), lhv_bound_bruteforce(m)
    assert closed.value == scanned.value
    assert np.array_equal(closed.alice_witness, scanned.alice_witness)
    assert np.array_equal(closed.bob_witness, scanned.bob_witness)


def perturbed_as_6():
    m = np.array(build_as_matrix(6))
    m[5, 5] = 3
    return m


NOT_AS_MATRICES = {
    "identity 4": np.eye(4),
    "identity 3": np.eye(3, dtype=np.int64),
    "AS_6 with one entry changed": perturbed_as_6(),
    "odd order": build_as_matrix(8)[:7, :7],
    "random integers": np.random.default_rng(16).integers(-2, 3, size=(16, 16)),
}


@pytest.mark.parametrize("m", NOT_AS_MATRICES.values(), ids=NOT_AS_MATRICES)
def test_lhv_bound_scans_every_other_matrix(m):
    got, scanned = lhv_bound(m), lhv_bound_bruteforce(m)
    assert got.value == scanned.value
    assert np.array_equal(got.alice_witness, scanned.alice_witness)
    assert np.array_equal(got.bob_witness, scanned.bob_witness)


def test_a_perturbed_as_matrix_leaves_the_closed_form():
    assert lhv_bound(perturbed_as_6()).value != lhv_bound_closed_form(6)


@pytest.mark.parametrize(
    "convert",
    [np.asarray, lambda m: m.astype(np.float64), np.ndarray.tolist],
    ids=["int64", "float64", "nested list"],
)
@pytest.mark.parametrize("n", [26, 300])
def test_lhv_bound_of_as_n_past_the_cap_takes_the_closed_form(n, convert):
    m = build_as_matrix(n)
    result = lhv_bound(convert(m))
    assert result.value == lhv_bound_closed_form(n)
    assert np.all(result.alice_witness == -1)
    assert classical_value(m, result.alice_witness, result.bob_witness) == result.value


@pytest.mark.parametrize("m", [np.eye(26), np.array(build_as_matrix(26)) * 2])
def test_lhv_bound_of_another_matrix_past_the_cap_is_refused(m, monkeypatch):
    # Row 0 tells these from AS_26, so the refusal never builds AS_26.
    def unbuilt(n):
        raise AssertionError(f"AS_{n} built")

    monkeypatch.setattr("shimony.matrices.build_as_matrix", unbuilt)
    with pytest.raises(ResourceLimitError, match="exceeds the cap of 24 settings"):
        lhv_bound(m)


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


def test_coefficient_matrix_refusals():
    for m in (np.ones((2, 3)), np.zeros((0, 0)), [1, 1]):
        with pytest.raises(ValueError, match="must be square and non-empty, got shape"):
            as_coefficient_matrix(m)
    with pytest.raises(ValueError, match="coefficient matrix entries must be integers"):
        as_coefficient_matrix([[1, 1], [1, 0.5]])


@pytest.mark.parametrize("m", [[[np.nan]], [[1.0, np.inf], [0.0, 1.0]]], ids=["nan", "inf"])
def test_non_finite_coefficients_are_rejected(m):
    with pytest.raises(ValueError, match="coefficient matrix entries must be finite integers"):
        as_coefficient_matrix(m)


def test_coefficients_too_large_for_int64_are_rejected():
    # The scores of this matrix reach 2**64 and would wrap in int64.
    big = np.full((2, 2), 1 << 62, dtype=np.int64)
    with pytest.raises(ValueError, match="too large"):
        lhv_bound_bruteforce(big)
    with pytest.raises(ValueError, match="too large"):
        as_coefficient_matrix(big)
    assert lhv_bound_bruteforce(np.full((2, 2), 1 << 40)).value == 1 << 42


@pytest.mark.parametrize(
    "m",
    [
        pytest.param([["1", "0"], ["0", "1"]], id="strings"),
        pytest.param([[10**30, 0], [0, 1]], id="object"),
        pytest.param([[1 + 1j, 0], [0, 1]], id="complex"),
    ],
)
def test_non_real_coefficients_are_rejected(m):
    with pytest.raises(ValueError, match="must be real numbers, got dtype"):
        lhv_bound(m)


def test_resource_cap():
    n = MAX_ENUMERATION_SETTINGS + 2
    with pytest.raises(ResourceLimitError, match="exceeds the cap of 24 settings"):
        lhv_bound_bruteforce(build_as_matrix(n))


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
