"""Singlet correlations and Bell values on Bloch directions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    bloch_from_spherical,
    correlation_density_matrix,
    density_matrix,
    random_rotation,
    random_unit_rows,
)
from shimony.catalog import SUPPORTED_SETTINGS, catalog_directions
from shimony.matrices import build_as_matrix
from shimony.quantum import (
    as_bloch_vector,
    as_measurement_set,
    bell_quantum_value,
    correlation,
    max_quantum_closed_form,
)
from shimony.seesaw import alice_best_response, multistart_seesaw

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])


def test_bloch_from_spherical_axes():
    assert np.allclose(bloch_from_spherical(0.0, 0.0), Z, atol=1e-15)
    assert np.allclose(bloch_from_spherical(math.pi / 2, 0.0), X, atol=1e-15)
    assert np.allclose(bloch_from_spherical(math.pi / 2, math.pi / 2), Y, atol=1e-15)


@given(theta=st.floats(-10, 10), phi=st.floats(-10, 10))
def test_bloch_from_spherical_unit_norm(theta, phi):
    assert abs(np.linalg.norm(bloch_from_spherical(theta, phi)) - 1.0) <= 1e-12


def test_bloch_vector_renormalizes_near_unit():
    v = as_bloch_vector((1.0 + 5e-10) * Z)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


@pytest.mark.parametrize("bad", [1.1 * Z, 0.9 * Z, np.zeros(3), [1, 0], [1, 0, 0, 0]])
def test_bloch_vector_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        as_bloch_vector(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e308])
def test_non_finite_directions_are_rejected(bad):
    with pytest.raises(ValueError, match="unit length"):
        as_bloch_vector([bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="direction 1"):
        as_measurement_set([Z, [0.0, bad, 0.0]])
    with pytest.raises(ValueError, match="direction 0"):
        as_measurement_set([[bad, bad, bad], X])


def test_measurement_set_validation():
    as_measurement_set([Z, X], 2)
    with pytest.raises(ValueError, match="direction 1"):
        as_measurement_set([Z, 1.5 * X])
    with pytest.raises(ValueError):
        as_measurement_set([Z, X], 3)
    with pytest.raises(ValueError):
        as_measurement_set([[0, 1], [1, 0]])


@pytest.mark.parametrize(
    "directions",
    [
        pytest.param([["1", "0", "0"], ["0", "1", "0"]], id="strings"),
        pytest.param([[1j, 0, 0], [0, 1, 0]], id="complex"),
    ],
)
def test_measurement_set_rejects_non_real_dtypes(directions):
    with pytest.raises(ValueError, match="must hold real numbers, got dtype"):
        as_measurement_set(directions)


def test_werner_density_matrix_is_a_state():
    for v in (0.0, 0.3, 1.0):
        rho = density_matrix(v)
        assert rho.shape == (4, 4)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_correlation_examples():
    assert correlation(Z, Z) == pytest.approx(-1.0, abs=1e-15)
    assert correlation(Z, X) == pytest.approx(0.0, abs=1e-15)


@given(
    ta=st.floats(-4, 4), pa=st.floats(-4, 4),
    tb=st.floats(-4, 4), pb=st.floats(-4, 4),
    v=st.floats(0, 1),
)
def test_correlation_bounded_by_visibility(ta, pa, tb, pb, v):
    a = bloch_from_spherical(ta, pa)
    b = bloch_from_spherical(tb, pb)
    assert abs(v * correlation(a, b)) <= v + 1e-12
    assert abs(correlation_density_matrix(a, b, v)) <= v + 1e-12


def test_density_matrix_path_examples():
    assert correlation_density_matrix(Z, Z) == pytest.approx(-1.0, abs=1e-12)
    assert correlation_density_matrix(X, X) == pytest.approx(-1.0, abs=1e-12)
    assert correlation_density_matrix(Z, X) == pytest.approx(0.0, abs=1e-12)
    assert correlation_density_matrix(Z, Z, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert correlation_density_matrix(Z, Z, 0.5) == pytest.approx(-0.5, abs=1e-12)


def test_density_matrix_agrees_with_fast_path():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = random_unit_rows(rng, 1)[0]
        b = random_unit_rows(rng, 1)[0]
        v = float(rng.uniform())
        assert abs(v * correlation(a, b) - correlation_density_matrix(a, b, v)) <= 1e-12


def test_bell_value_chsh_geometry():
    s = 1 / math.sqrt(2)
    alice = [-(Z + X) * s, -(Z - X) * s]
    bob = [Z, X]
    value = bell_quantum_value(build_as_matrix(2), alice, bob)
    assert value == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_bell_value_matches_density_matrix():
    # sum_ij m_ij tr[rho_V (sigma.a_i x sigma.b_j)] is V times the singlet value.
    m = build_as_matrix(4)
    bob = catalog_directions(4).bob_directions
    alice = alice_best_response(m, bob)
    value = bell_quantum_value(m, alice, bob)
    for v in (0.0, 0.25, 0.6782, 1.0):
        traced = sum(
            m[i, j] * correlation_density_matrix(alice[i], bob[j], v)
            for i, j in itertools.product(range(4), repeat=2)
        )
        assert abs(traced - v * value) <= 1e-12


def test_bell_value_rotation_invariance():
    rng = np.random.default_rng(5)
    m = build_as_matrix(4)
    entry = catalog_directions(4)
    alice = alice_best_response(m, entry.bob_directions)
    base = bell_quantum_value(m, alice, entry.bob_directions)
    for _ in range(10):
        rot = random_rotation(rng)
        rotated = bell_quantum_value(m, alice @ rot.T, entry.bob_directions @ rot.T)
        assert abs(rotated - base) <= 1e-10


@pytest.mark.parametrize(
    "n,expected",
    [
        (2, 2 * math.sqrt(2)),
        (4, 10 * math.sqrt(2 / 3)),
        (6, 28 / math.sqrt(3)),
        (8, 12 * math.sqrt(5)),
        (12, 13 * math.sqrt(168) / 3),
    ],
)
def test_max_quantum_closed_form(n, expected):
    assert max_quantum_closed_form(n) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_sampled_values_never_exceed_closed_form(n):
    rng = np.random.default_rng(n)
    m = build_as_matrix(n)
    bound = max_quantum_closed_form(n) + 1e-9
    for _ in range(200):
        alice = random_unit_rows(rng, n)
        bob = random_unit_rows(rng, n)
        assert bell_quantum_value(m, alice, bob) <= bound


def _dual_weights(n):
    """t for AS_n, n = 2M: T_M in its first M+1 entries, then T_{M-1}, ..., T_1."""
    m = n // 2
    tri = [k * (k + 1) // 2 for k in range(m + 1)]
    return [tri[m]] * (m + 1) + tri[m - 1 : 0 : -1]


def _identity_holds(n, t):
    """Whether AS_n diag(t)^-1 AS_n^T = (2/T_M) diag(t), in exact integers.

    Both sides are scaled by D T_M, with D = lcm(t) and T_M = t[0]. Row i of
    AS_n is a run of n - i ones, then -min(i, n - i) in column n - i. Of two
    rows, the one with the shorter run is zero past that entry, so their
    product is a prefix sum over the run plus that one entry.
    """
    d = math.lcm(*t)
    inv = [d // x for x in t]
    prefix = list(itertools.accumulate(inv, initial=0))
    rows = [(n - i, -min(i, n - i)) for i in range(n)]

    def entry(row, col):
        run, last = row
        return 1 if col < run else last if col == run else 0

    for i, k in itertools.product(range(n), repeat=2):
        (run, last), other = sorted((rows[i], rows[k]))
        product = prefix[run] + (last * entry(other, run) * inv[run] if run < n else 0)
        if product * t[0] != (2 * d * t[i] if i == k else 0):
            return False
    return True


def test_dual_point_identity_in_exact_integers():
    # The identity behind the quantum maximum's proof (see shimony.quantum).
    for n in [*range(2, 101, 2), 300]:
        assert _identity_holds(n, _dual_weights(n)), n
    t = _dual_weights(10)
    t[-2], t[-1] = t[-1], t[-2]
    assert not _identity_holds(10, t)


def test_dual_point_sums_to_the_closed_form():
    for n in range(2, 301, 2):
        t = _dual_weights(n)
        total = math.fsum(math.sqrt(2 / t[0]) * x for x in t)
        assert total == pytest.approx(max_quantum_closed_form(n), rel=1e-12)


@pytest.mark.parametrize("n", SUPPORTED_SETTINGS)
def test_catalog_sets_meet_the_row_condition(n):
    # A Bob set reaches the maximum exactly when ||(AS_n b)_i|| = y_i for
    # every row i, with y = sqrt(2/T_M) t.
    entry = catalog_directions(n)
    t = np.array(_dual_weights(n), dtype=float)
    y = np.sqrt(2 / t[0]) * t
    norms = np.linalg.norm(build_as_matrix(n) @ entry.bob_directions, axis=1)
    assert np.all(np.abs(norms - y) <= entry.tolerance * y)


@pytest.mark.parametrize(
    "n, restarts",
    [
        (12, 8),
        (20, 8),
        (40, 6),
        (80, 4),
        (160, 4),
        pytest.param(300, 8, marks=pytest.mark.filterwarnings("error")),
    ],
)
def test_seesaw_never_exceeds_the_proved_maximum(n, restarts):
    # Past the catalog, a see-saw value does not exceed sum_i y_i, the closed
    # form, beyond rounding, comes within 1e-9 of it, and a converged Bob set
    # meets the row condition ||(AS_n b)_i|| = y_i.
    t = np.array(_dual_weights(n), dtype=float)
    y = np.sqrt(2 / t[0]) * t
    m = build_as_matrix(n)
    result = multistart_seesaw(m, restarts=restarts, seed=n)
    closed = max_quantum_closed_form(n)
    assert result.value <= closed * (1 + 1e-12)
    assert closed - result.value <= 1e-9 * closed
    assert result.converged
    norms = np.linalg.norm(m @ result.bob, axis=1)
    assert np.all(np.abs(norms - y) <= 1e-6 * y)
