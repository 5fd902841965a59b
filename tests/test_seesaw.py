"""See-saw optimizer: best responses, convergence, multistart determinism."""

import math
import sys

import numpy as np
import pytest

from shimony.catalog import catalog_directions
from shimony.matrices import build_as_matrix
from shimony.quantum import bell_quantum_value, max_quantum_closed_form
from shimony.seesaw import (
    DEFAULT_TOL,
    alice_best_response,
    bob_best_response,
    multistart_seesaw,
    random_measurement_set,
    seesaw,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def test_alice_best_response_as2():
    response = alice_best_response(build_as_matrix(2), [Z, X])
    s = 1 / math.sqrt(2)
    assert np.allclose(response, [-(Z + X) * s, -(Z - X) * s], atol=1e-15)


def test_best_response_all_ones_matrix():
    response = alice_best_response(np.ones((2, 2), dtype=int), [Z, Z])
    assert np.allclose(response, [[0, 0, -1], [0, 0, -1]], atol=1e-15)


def test_degenerate_columns_get_canonical_direction():
    # Columns of [[1,-1],[-1,1]] have zero resultant for alice = [z, z].
    response = bob_best_response(np.array([[1, -1], [-1, 1]]), [Z, Z])
    assert np.array_equal(response, [[0, 0, 1], [0, 0, 1]])


def test_best_response_attains_n10_maximum():
    m = build_as_matrix(10)
    bob = catalog_directions(10).bob_directions
    value = bell_quantum_value(m, alice_best_response(m, bob), bob)
    assert value == pytest.approx(22 * math.sqrt(10 / 3), abs=1e-3)


def test_seesaw_single_start_reaches_chsh_maximum():
    result = seesaw(build_as_matrix(2), random_measurement_set(2, seed=123))
    assert result.converged
    assert result.value == pytest.approx(2 * math.sqrt(2), abs=1e-9)


def test_seesaw_from_fixed_point_stops_immediately():
    m = build_as_matrix(4)
    first = multistart_seesaw(m, restarts=8, seed=0)
    again = seesaw(m, first.bob)
    assert again.iterations == 1
    assert again.converged
    assert again.value == pytest.approx(first.value, abs=1e-12)


def test_seesaw_value_matches_returned_sets():
    for n in (2, 4, 6):
        result = multistart_seesaw(build_as_matrix(n), restarts=4, seed=1)
        direct = bell_quantum_value(build_as_matrix(n), result.alice, result.bob)
        assert direct == pytest.approx(result.value, abs=1e-12)
        assert np.allclose(np.linalg.norm(result.alice, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(result.bob, axis=1), 1.0, atol=1e-12)


def test_trajectories_are_monotone():
    m = build_as_matrix(6)
    for seed in range(5):
        result = seesaw(m, random_measurement_set(6, seed=seed), record_trajectory=True)
        trajectory = np.array(result.trajectory)
        assert np.all(np.diff(trajectory) >= -1e-12)
        assert trajectory[-1] == pytest.approx(result.value, abs=1e-15)


def test_fixed_point_rowwise_optimality():
    m = build_as_matrix(8)
    result = multistart_seesaw(m, restarts=8, seed=0)
    resultants = m.astype(float) @ result.bob
    for i in range(8):
        achieved = -float(result.alice[i] @ resultants[i])
        optimal = float(np.linalg.norm(resultants[i]))
        assert optimal - achieved <= 1e-9


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12])
def test_multistart_reaches_closed_form(n):
    result = multistart_seesaw(build_as_matrix(n), restarts=32, seed=0)
    assert result.converged
    assert result.value == pytest.approx(max_quantum_closed_form(n), abs=1e-6)


def test_multistart_is_bitwise_deterministic():
    m = build_as_matrix(6)
    a = multistart_seesaw(m, restarts=8, seed=42)
    b = multistart_seesaw(m, restarts=8, seed=42)
    assert a.value == b.value
    assert a.restart_index == b.restart_index
    assert np.array_equal(a.alice, b.alice)
    assert np.array_equal(a.bob, b.bob)


def test_random_measurement_set_keying():
    first = random_measurement_set(4, seed=9, restart_index=0)
    assert np.array_equal(first, random_measurement_set(4, seed=9, restart_index=0))
    assert not np.array_equal(first, random_measurement_set(4, seed=9, restart_index=1))
    assert not np.array_equal(first, random_measurement_set(4, seed=10, restart_index=0))
    assert np.allclose(np.linalg.norm(first, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "seed, restart_index", [(0, 0), (7, 5), (-3, 1), (2**40, 2), (11, 2**63), (-3, 2**64 + 5)]
)
def test_seated_bit_generator_matches_fresh_philox(seed, restart_index):
    # multistart_seesaw reuses one bit generator, seated at each restart's
    # stream; its draws must be those of a fresh Generator(Philox(key=...)).
    key = (seed % 2**64) << 64 | (restart_index % 2**64)
    fresh = np.random.Generator(np.random.Philox(key=key)).standard_normal((6, 3))
    module = sys.modules["shimony.seesaw"]
    bit_generator = np.random.Philox(key=12345)
    used = np.random.Generator(bit_generator)
    used.standard_normal(5)
    used.integers(0, 7, size=3, dtype=np.uint32)  # leaves half a word buffered
    module._seat(bit_generator, seed, restart_index)
    assert np.array_equal(used.standard_normal((6, 3)), fresh)
    expected = fresh / np.linalg.norm(fresh, axis=1, keepdims=True)
    assert np.array_equal(random_measurement_set(6, seed, restart_index), expected)


@pytest.mark.parametrize("seed", [-3, 2**40])
def test_multistart_start_sets_are_the_keyed_streams(monkeypatch, seed):
    module = sys.modules["shimony.seesaw"]
    drawn = []
    unit_rows = module._unit_rows

    def record(rng, n):
        drawn.append(unit_rows(rng, n))
        return drawn[-1]

    monkeypatch.setattr(module, "_unit_rows", record)
    multistart_seesaw(build_as_matrix(6), restarts=3, seed=seed, max_iter=1)
    monkeypatch.undo()
    assert len(drawn) == 3
    for index, start in enumerate(drawn):
        assert np.array_equal(start, random_measurement_set(6, seed, index))


def test_parameter_validation(monkeypatch):
    m = build_as_matrix(2)
    start = random_measurement_set(2, seed=0)
    with pytest.raises(ValueError, match="tol"):
        seesaw(m, start, tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        seesaw(m, start, max_iter=0)
    with pytest.raises(ValueError, match="restarts"):
        multistart_seesaw(m, restarts=0)

    # multistart_seesaw checks tol and max_iter before it draws a start set.
    def refuse(*args, **kwargs):
        raise AssertionError("a start set was drawn")

    monkeypatch.setattr(sys.modules["shimony.seesaw"], "random_measurement_set", refuse)
    monkeypatch.setattr(sys.modules["shimony.seesaw"], "_unit_rows", refuse)
    with pytest.raises(ValueError, match="tol must be positive, got 0.0"):
        multistart_seesaw(m, tol=0.0)
    with pytest.raises(ValueError, match="tol must be positive, got -1e-09"):
        multistart_seesaw(m, tol=-1e-9)
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        multistart_seesaw(m, max_iter=0)


def test_bob_fixed_point_reproduces_maximum():
    m = build_as_matrix(4)
    result = multistart_seesaw(m, restarts=8, seed=3)
    rebuilt = bob_best_response(m, result.alice)
    assert bell_quantum_value(m, result.alice, rebuilt) == pytest.approx(
        10 * math.sqrt(2 / 3), abs=1e-9
    )
    assert np.allclose(rebuilt, result.bob, atol=1e-6)


def _serial_seesaw(m, start, tol, max_iter):
    """One see-saw run written as a plain 2-D loop, independent of the library."""
    mf = m.astype(np.float64)

    def respond(resultants):
        norms = np.linalg.norm(resultants, axis=1)
        degenerate = norms < 1e-12
        directions = -resultants / np.where(degenerate, 1.0, norms)[:, None]
        directions[degenerate] = [0.0, 0.0, 1.0]
        return directions, float(norms.sum())

    bob = start / np.linalg.norm(start, axis=1, keepdims=True)
    alice, value = respond(mf @ bob)
    trajectory = [value]
    converged = False
    for iterations in range(1, max_iter + 1):
        bob, bob_value = respond(mf.T @ alice)
        alice, new_value = respond(mf @ bob)
        trajectory += [bob_value, new_value]
        improvement = new_value - value
        value = new_value
        if improvement < tol:
            converged = True
            break
    return value, alice, bob, iterations, converged, tuple(trajectory)


def _random_matrix_with_zero_row(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(-3, 4, size=(n, n))
    m[rng.integers(n)] = 0
    return m


@pytest.mark.parametrize(
    "m, restarts, seed, max_iter",
    [
        (build_as_matrix(2), 16, 0, 10_000),
        (build_as_matrix(4), 16, 1, 10_000),
        (build_as_matrix(6), 16, 2, 10_000),
        (build_as_matrix(12), 16, 3, 10_000),
        (build_as_matrix(30), 8, 4, 10_000),
        (build_as_matrix(12), 1, 5, 10_000),
        (build_as_matrix(12), 16, 6, 3),
        (build_as_matrix(30), 8, 7, 3),
        (_random_matrix_with_zero_row(5, 8), 16, 8, 10_000),
        (_random_matrix_with_zero_row(9, 9), 16, 9, 10_000),
        (_random_matrix_with_zero_row(9, 10), 16, 10, 3),
    ],
)
def test_multistart_matches_serial_reference_bitwise(m, restarts, seed, max_iter):
    n = m.shape[0]
    runs = [
        _serial_seesaw(m, random_measurement_set(n, seed, index), DEFAULT_TOL, max_iter)
        for index in range(restarts)
    ]
    best_index = 0
    for index, run in enumerate(runs):
        if run[0] > runs[best_index][0]:
            best_index = index
    value, alice, bob, iterations, converged, trajectory = runs[best_index]

    result = multistart_seesaw(
        m, restarts=restarts, seed=seed, max_iter=max_iter, record_trajectory=True
    )
    assert result.value == value
    assert np.array_equal(result.alice, alice)
    assert np.array_equal(result.bob, bob)
    assert result.iterations == iterations
    assert result.converged is converged
    assert result.restart_index == best_index
    assert result.trajectory == trajectory
    if max_iter == 3:
        assert not converged

    for index, run in enumerate(runs):
        single = seesaw(
            m, random_measurement_set(n, seed, index), max_iter=max_iter, record_trajectory=True
        )
        assert (single.value, single.iterations, single.converged) == (run[0], run[3], run[4])
        assert np.array_equal(single.alice, run[1])
        assert np.array_equal(single.bob, run[2])
        assert single.trajectory == run[5]
