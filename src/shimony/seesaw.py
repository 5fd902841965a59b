"""Alternating best-response (see-saw) maximization of AS Bell values.

For a fixed Bob set the optimal Alice direction on setting i is the unit
vector opposing the resultant sum_j m[i][j] b_j (the correlation is
-a . b), and symmetrically for Bob. Each half-step is therefore exact and
never decreases the value; alternating converges to a fixed point.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .matrices import as_coefficient_matrix
from .quantum import DEGENERATE_DIRECTION, ZERO_RESULTANT_TOL, as_measurement_set

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
DEFAULT_RESTARTS = 32
# Restarts run through the see-saw loop together, at most this many at a
# time; the working arrays stay O(group * n) for any restart count.
_RESTART_GROUP = 256


def _respond(resultants: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions opposing each resultant row, and the values they yield.

    Works on (..., n, 3) stacks. The value sum_i ||r_i|| of each (n, 3) set is
    the Bell value after the responding party updates (degenerate rows
    contribute their ~0 norm). The directions overwrite `resultants`, so
    callers pass a fresh product. Each norm sums its squares left to right,
    as np.linalg.norm(axis=-1) reduces a length-3 axis, so it equals that
    norm bit for bit without numpy's row-by-row reduction.
    """
    x, y, z = resultants[..., 0], resultants[..., 1], resultants[..., 2]
    norms = np.sqrt(x * x + y * y + z * z)
    degenerate = norms < ZERO_RESULTANT_TOL
    directions = np.negative(resultants, out=resultants)
    directions /= np.where(degenerate, 1.0, norms)[..., None]
    directions[degenerate] = DEGENERATE_DIRECTION
    return directions, norms.sum(axis=-1)


def alice_best_response(m, bob) -> np.ndarray:
    """Optimal Alice directions against a fixed Bob set."""
    m = as_coefficient_matrix(m)
    bob = as_measurement_set(bob, m.shape[0])
    return _respond(m.astype(np.float64) @ bob)[0]


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Converged direction sets and diagnostics from one see-saw run."""

    value: float
    alice: np.ndarray
    bob: np.ndarray
    iterations: int
    converged: bool
    restart_index: int = 0
    trajectory: tuple[float, ...] | None = None


def _check_iteration(tol: float, max_iter: int) -> None:
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def _best_run(
    mf: np.ndarray,
    bobs: np.ndarray,
    tol: float,
    max_iter: int,
    record_trajectory: bool,
    first_index: int,
) -> OptimizationResult:
    """Run the see-saw from every (n, 3) start set in bobs; return the best run.

    All runs advance together, and each does exactly the arithmetic it would
    do alone: np.matmul with the 2-D mf (or its transposed view) runs one
    (n, n) @ (n, 3) product per run. An einsum, one reshaped product or a
    contiguous copy of mf.T would round differently. A run leaves the batch
    the round its improvement drops below tol. Ties keep the first run, whose
    restart index is first_index + its position.
    """
    alices, values = _respond(np.matmul(mf, bobs))
    iterations = np.zeros(len(values), dtype=np.int64)
    converged = np.zeros(len(values), dtype=bool)
    steps = [values.copy()] if record_trajectory else None
    active = np.arange(len(values))
    for iteration in range(1, max_iter + 1):
        iterations[active] = iteration
        new_bobs, bob_values = _respond(np.matmul(mf.T, alices[active]))
        new_alices, new_values = _respond(np.matmul(mf, new_bobs))
        bobs[active] = new_bobs
        alices[active] = new_alices
        if steps is not None:
            for half_values in (bob_values, new_values):
                step = np.full(len(values), np.nan)
                step[active] = half_values
                steps.append(step)
        done = new_values - values[active] < tol
        values[active] = new_values
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break

    best = int(np.argmax(values))
    trajectory = None
    if steps is not None:
        trajectory = tuple(float(step[best]) for step in steps[: 1 + 2 * iterations[best]])
    return OptimizationResult(
        value=float(values[best]),
        alice=alices[best].copy(),
        bob=bobs[best].copy(),
        iterations=int(iterations[best]),
        converged=bool(converged[best]),
        restart_index=first_index + best,
        trajectory=trajectory,
    )


def seesaw(
    m,
    initial_bob,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    record_trajectory: bool = False,
) -> OptimizationResult:
    """Alternate exact best responses from an initial Bob set.

    Stops when one full Bob+Alice round improves the value by less than tol
    (converged=True) or after max_iter rounds (converged=False). The returned
    value is the Bell value of the returned pair at V=1. The trajectory, when
    recorded, holds the value after every half-step and is nondecreasing.
    """
    _check_iteration(tol, max_iter)
    m = as_coefficient_matrix(m)
    bob = as_measurement_set(initial_bob, m.shape[0])
    return _best_run(m.astype(np.float64), bob[None], tol, max_iter, record_trajectory, 0)


def _start_sets(n: int, seed: int, indices: Sequence[int]) -> np.ndarray:
    """(len(indices), n, 3) uniform random unit directions, one set per restart index.

    Set k is the first 3n standard normals of a fresh
    Generator(Philox(key=(seed mod 2**64) << 64 | (indices[k] mod 2**64))),
    each row normalized, so every (seed, restart) pair owns an independent
    reproducible stream regardless of how restarts are scheduled. One bit
    generator is seated at the start of each stream in turn: its own fresh
    state (counter 0, empty buffer), rekeyed per restart.
    """
    rng = np.random.Generator(np.random.Philox(key=0))
    fresh = rng.bit_generator.state
    high = int(seed) % (1 << 64)
    sets = np.empty((len(indices), n, 3))
    for k, index in enumerate(indices):
        fresh["state"]["key"] = np.array([int(index) % (1 << 64), high], dtype=np.uint64)
        rng.bit_generator.state = fresh
        rng.standard_normal(out=sets[k])
    return sets / np.linalg.norm(sets, axis=-1, keepdims=True)


def random_measurement_set(n: int, seed: int, restart_index: int = 0) -> np.ndarray:
    """Uniform random unit directions from the keyed stream of (seed, restart_index).

    The start set `multistart_seesaw` gives that restart (see `_start_sets`).
    """
    return _start_sets(n, seed, [restart_index])[0]


def multistart_seesaw(
    m,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    record_trajectory: bool = False,
) -> OptimizationResult:
    """Best of `restarts` see-saw runs from independent random Bob sets.

    The runs go through the see-saw loop together, in groups of at most 256,
    so memory stays bounded for any restart count; each gives the same result,
    bit for bit, as `seesaw` from its start set. Deterministic for
    fixed (seed, restarts): ties keep the smallest restart index, and
    repeated calls return bitwise-identical results.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    _check_iteration(tol, max_iter)
    m = as_coefficient_matrix(m)
    n = m.shape[0]
    mf = m.astype(np.float64)
    best: OptimizationResult | None = None
    for first in range(0, restarts, _RESTART_GROUP):
        indices = range(first, min(first + _RESTART_GROUP, restarts))
        starts = as_measurement_set(_start_sets(n, seed, indices).reshape(-1, 3))
        result = _best_run(mf, starts.reshape(-1, n, 3), tol, max_iter, record_trajectory, first)
        if best is None or result.value > best.value:
            best = result
    assert best is not None
    return best
