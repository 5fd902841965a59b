"""Alternating best-response (see-saw) maximization of AS Bell values.

For a fixed Bob set the optimal Alice direction on setting i is the unit
vector opposing the resultant sum_j m[i][j] b_j (the correlation is
-V a . b), and symmetrically for Bob. Each half-step is therefore exact and
never decreases the value; alternating converges to a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import as_coefficient_matrix
from .quantum import DEGENERATE_DIRECTION, ZERO_RESULTANT_TOL, as_measurement_set

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
DEFAULT_RESTARTS = 32


def _respond(resultants: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit directions opposing each resultant row, and the value they yield.

    The value sum_i ||r_i|| is the Bell value after the responding party
    updates (degenerate rows contribute their ~0 norm).
    """
    norms = np.linalg.norm(resultants, axis=1)
    degenerate = norms < ZERO_RESULTANT_TOL
    safe = np.where(degenerate, 1.0, norms)
    directions = -resultants / safe[:, None]
    directions[degenerate] = DEGENERATE_DIRECTION
    return directions, float(norms.sum())


def alice_best_response(m, bob) -> np.ndarray:
    """Optimal Alice directions against a fixed Bob set."""
    m = as_coefficient_matrix(m)
    bob = as_measurement_set(bob, m.shape[0])
    return _respond(m.astype(np.float64) @ bob)[0]


def bob_best_response(m, alice) -> np.ndarray:
    """Optimal Bob directions against a fixed Alice set."""
    m = as_coefficient_matrix(m)
    alice = as_measurement_set(alice, m.shape[0])
    return _respond(m.astype(np.float64).T @ alice)[0]


@dataclass(frozen=True)
class OptimizationResult:
    """Converged direction sets and diagnostics from one see-saw run."""

    value: float
    alice: np.ndarray
    bob: np.ndarray
    iterations: int
    converged: bool
    restart_index: int = 0
    trajectory: tuple[float, ...] | None = None


def seesaw(
    m,
    initial_bob,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    record_trajectory: bool = False,
    restart_index: int = 0,
) -> OptimizationResult:
    """Alternate exact best responses from an initial Bob set.

    Stops when one full Bob+Alice round improves the value by less than tol
    (converged=True) or after max_iter rounds (converged=False). The returned
    value is the Bell value of the returned pair at V=1. The trajectory, when
    recorded, holds the value after every half-step and is nondecreasing.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    m = as_coefficient_matrix(m)
    mf = m.astype(np.float64)
    bob = as_measurement_set(initial_bob, m.shape[0])

    trajectory: list[float] = []
    alice, value = _respond(mf @ bob)
    if record_trajectory:
        trajectory.append(value)

    converged = False
    iterations = 0
    for iteration in range(1, max_iter + 1):
        iterations = iteration
        bob, bob_value = _respond(mf.T @ alice)
        alice, new_value = _respond(mf @ bob)
        if record_trajectory:
            trajectory.extend((bob_value, new_value))
        improvement = new_value - value
        value = new_value
        if improvement < tol:
            converged = True
            break

    return OptimizationResult(
        value=value,
        alice=alice,
        bob=bob,
        iterations=iterations,
        converged=converged,
        restart_index=restart_index,
        trajectory=tuple(trajectory) if record_trajectory else None,
    )


def random_measurement_set(n: int, seed: int, restart_index: int = 0) -> np.ndarray:
    """Uniform random unit directions from a counter-keyed Philox stream.

    The key is (seed mod 2**64) << 64 | restart_index, so every
    (seed, restart) pair owns an independent reproducible stream regardless
    of how restarts are scheduled.
    """
    key = (int(seed) % (1 << 64)) << 64 | (int(restart_index) % (1 << 64))
    rng = np.random.Generator(np.random.Philox(key=key))
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def multistart_seesaw(
    m,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    record_trajectory: bool = False,
) -> OptimizationResult:
    """Best of `restarts` see-saw runs from independent random Bob sets.

    Deterministic for fixed (seed, restarts): ties keep the smallest restart
    index, and repeated calls return bitwise-identical results.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    m = as_coefficient_matrix(m)
    best: OptimizationResult | None = None
    for index in range(restarts):
        start = random_measurement_set(m.shape[0], seed, index)
        result = seesaw(
            m,
            start,
            tol=tol,
            max_iter=max_iter,
            record_trajectory=record_trajectory,
            restart_index=index,
        )
        if best is None or result.value > best.value:
            best = result
    assert best is not None
    return best
