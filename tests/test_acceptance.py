"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``[PASS]``/``[FAIL]`` verdict line (visible with ``pytest -s``).

For n=10 the tabulated Bob angles theta2..theta7 admit two maximizing
(theta0, theta1) pairs. The tabulated pair gives C_LHS = 27.232058..., which
matches the tabulated visibility 0.6779; the other pair, (-2.9224, -2.3630),
gives C_LHS = 27.095441..., which is the tabulated decimal 27.0955.
``test_criterion_1_table1_lhs_reference_n10`` checks each figure on the
direction set it belongs to.
"""

import itertools
import math
import time

import numpy as np
import pytest

from shimony import cli
from shimony.catalog import (
    _ANGLES_10,
    SUPPORTED_SETTINGS,
    catalog_directions,
    unified_direction_set,
    verify_directions,
)
from shimony.matrices import (
    build_as_matrix,
    lhv_bound_bruteforce,
    lhv_bound_closed_form,
)
from shimony.quantum import (
    WernerState,
    bell_quantum_value,
    correlation,
    max_quantum_closed_form,
)
from shimony.seesaw import alice_best_response, multistart_seesaw
from shimony.steering import (
    steering_lhs_bound,
    steering_lhs_bound_oracle,
    visibility_lhv_closed_form,
)

from helpers import correlation_density_matrix, random_rotation, random_unit_rows

# closed-form steering bounds for the catalog direction sets
LHS_EXACT = {
    2: 2.0,
    4: 2.0 * math.sqrt(23.0 / 3.0),
    6: math.sqrt(358.0 / 3.0),
    8: math.sqrt(2.0 * (10444.0 + math.sqrt(20305.0)) / 65.0),
}
LHS_N10_COMPUTED = 27.232058090823607
LHS_N10_TABULATED = 27.0955
# The other maximizing (theta0, theta1) pair of the n=10 unified form with the
# tabulated theta2..theta7 held fixed: a 121x121 grid of Nelder-Mead starts
# over (theta0, theta1) maximizing the best-response Bell value ends, whenever
# it reaches the quantum maximum, at either the tabulated pair or this one.
ANGLES_N10_ALTERNATE = [-2.9224, -2.3630]
V_LHS_N10_ALTERNATE = 0.67458


def _verdict(name: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    return line


def test_criterion_1_table1():
    """Classical and steering bounds for n=2..10 (bound-table reproduction)."""
    expected_lhv = {2: 2, 4: 6, 6: 12, 8: 20, 10: 30}
    worst_lhs = 0.0
    slowest = 0.0
    for n in SUPPORTED_SETTINGS:
        start = time.perf_counter()
        m = build_as_matrix(n)
        lhv = lhv_bound_bruteforce(m)
        lhs = steering_lhs_bound(m, catalog_directions(n).bob_directions)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert lhv.value == expected_lhv[n] == lhv_bound_closed_form(n)
        target = LHS_EXACT.get(n, LHS_N10_COMPUTED)
        worst_lhs = max(worst_lhs, abs(lhs.value - target))
        assert elapsed < 1.0, f"n={n} row took {elapsed:.3f}s"
    ok = worst_lhs <= 1e-9
    line = _verdict(
        "criterion 1 (bound table)",
        ok,
        f"C_LHV exact for n=2..10; max |C_LHS - closed form| = {worst_lhs:.3g}; "
        f"slowest row {slowest * 1e3:.1f} ms",
    )
    assert ok, line


def test_criterion_1_table1_lhs_reference_n10():
    """n=10 steering bound against the tabulated 27.0955 decimal.

    The unified n=10 form has two maximizing (theta0, theta1) pairs for the
    tabulated theta2..theta7. The tabulated pair gives 27.232058..., which
    reproduces the companion visibility threshold 0.6779; the pair
    (-2.9224, -2.3630) also reaches the quantum maximum and gives
    27.095441..., the tabulated decimal (V_LHS = 0.67458). Each figure is
    checked on its own direction set, and the alternate bound is confirmed by
    the branch-and-bound oracle and a plain 2**10 enumeration.
    """
    m = build_as_matrix(10)
    quantum_max = max_quantum_closed_form(10)
    tabulated = steering_lhs_bound(m, catalog_directions(10).bob_directions)
    assert abs(tabulated.value - LHS_N10_COMPUTED) <= 1e-9

    bob = unified_direction_set(10, ANGLES_N10_ALTERNATE + _ANGLES_10[2:])
    quantum_gap = abs(bell_quantum_value(m, alice_best_response(m, bob), bob) - quantum_max)
    lhs = steering_lhs_bound(m, bob).value
    oracle = steering_lhs_bound_oracle(m, bob)
    brute = max(
        float(np.linalg.norm(np.array(alice) @ m @ bob))
        for alice in itertools.product((-1, 1), repeat=10)
    )
    gap = abs(lhs - LHS_N10_TABULATED)
    visibility = lhs / quantum_max
    spread = max(lhs, oracle, brute) - min(lhs, oracle, brute)
    ok = (
        quantum_gap <= 1e-6
        and gap <= 1e-3
        and abs(visibility - V_LHS_N10_ALTERNATE) <= 1e-5
        and spread <= 1e-6
    )
    line = _verdict(
        "criterion 1 (n=10 tabulated steering bound)",
        ok,
        f"tabulated angles give {tabulated.value:.6f} (V_LHS 0.6779); the other "
        f"maximizing pair (theta0, theta1) = {tuple(ANGLES_N10_ALTERNATE)} reaches "
        f"the quantum maximum within {quantum_gap:.3g} and gives {lhs:.6f} vs "
        f"tabulated {LHS_N10_TABULATED} (gap {gap:.2g}), V_LHS {visibility:.6f}; "
        f"kernel/oracle/brute-force spread {spread:.3g}",
    )
    assert ok, line


def test_criterion_2_table2(capsys):
    """Werner visibility thresholds for n=2..10 (threshold-table reproduction)."""
    worst_lhv = 0.0
    worst_lhs = 0.0
    for n in SUPPORTED_SETTINGS:
        m = build_as_matrix(n)
        quantum_max = max_quantum_closed_form(n)
        v_lhv = lhv_bound_bruteforce(m).value / quantum_max
        v_lhs = steering_lhs_bound(m, catalog_directions(n).bob_directions).value / quantum_max
        worst_lhv = max(worst_lhv, abs(v_lhv - visibility_lhv_closed_form(n)))
        reference = catalog_directions(n).v_lhs_reference[1]
        worst_lhs = max(worst_lhs, abs(v_lhs - reference))
    ok = worst_lhv <= 1e-9 and worst_lhs <= 1e-3

    # the n=10 report must surface both tabulated figures and the conflict
    code = cli.main(["thresholds", "10", "--format", "json"])
    out = capsys.readouterr().out
    cli_ok = code == 0 and all(s in out for s in ("0.6779", "0.6745", "inconsistent"))
    ok = ok and cli_ok

    line = _verdict(
        "criterion 2 (visibility thresholds)",
        ok,
        f"max |V_LHV - closed form| = {worst_lhv:.3g}; "
        f"max |V_LHS - tabulated| = {worst_lhs:.3g} (tolerance 1e-3); "
        f"n=10 CLI note reports both conflicting figures: {cli_ok}",
    )
    assert ok, line


def test_criterion_3_seesaw():
    """Multistart see-saw reaches the closed-form quantum maximum, n=2..14."""
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 15, 2):
        m = build_as_matrix(n)
        result = multistart_seesaw(m, restarts=32, seed=0)
        worst = max(worst, abs(result.value - max_quantum_closed_form(n)))
        assert result.converged
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    line = _verdict(
        "criterion 3 (see-saw optimizer)",
        ok,
        f"max |value - closed form| = {worst:.3g} over n=2..14 "
        f"(32 restarts each) in {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_4_oracles():
    """Fast paths agree with the independent oracles."""
    for n in range(2, 13, 2):
        assert lhv_bound_bruteforce(build_as_matrix(n)).value == lhv_bound_closed_form(n)

    worst = 0.0
    for n in SUPPORTED_SETTINGS:
        m = build_as_matrix(n)
        bob = catalog_directions(n).bob_directions
        fast = steering_lhs_bound(m, bob).value
        oracle = steering_lhs_bound_oracle(m, bob)
        worst = max(worst, abs(fast - oracle))
    ok = worst <= 1e-6
    line = _verdict(
        "criterion 4 (independent oracles)",
        ok,
        "brute-force classical bound matches the closed form for n=2..12; "
        f"max |steering fast path - branch-and-bound oracle| = {worst:.3g}",
    )
    assert ok, line


def test_criterion_5_correlation_paths():
    """Analytic correlations match the density-matrix trace on random inputs."""
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(1000):
        a = random_unit_rows(rng, 1)[0]
        b = random_unit_rows(rng, 1)[0]
        state = WernerState(rng.uniform())
        worst = max(worst, abs(correlation(a, b, state) - correlation_density_matrix(a, b, state)))
    ok = worst <= 1e-12
    line = _verdict(
        "criterion 5 (correlation consistency)",
        ok,
        f"max |analytic - density matrix| = {worst:.3g} over 1000 random (a, b, V)",
    )
    assert ok, line


def test_criterion_6_property_suite():
    """Structural invariants: rotation symmetry, monotonicity, ordering, determinism."""
    rng = np.random.default_rng(7)

    # steering bound is invariant under global rotations of Bob's directions
    worst_rotation = 0.0
    for n in (2, 4, 6):
        m = build_as_matrix(n)
        bob = catalog_directions(n).bob_directions
        base = steering_lhs_bound(m, bob).value
        for _ in range(5):
            rotated = steering_lhs_bound(m, bob @ random_rotation(rng).T).value
            worst_rotation = max(worst_rotation, abs(rotated - base))
    rotation_ok = worst_rotation <= 1e-10

    # see-saw values never decrease along a run
    monotone_ok = True
    for n in (4, 6):
        result = multistart_seesaw(
            build_as_matrix(n), restarts=8, seed=3, record_trajectory=True
        )
        steps = np.asarray(result.trajectory)
        monotone_ok = monotone_ok and bool(np.all(np.diff(steps) >= -1e-12))

    # a shared hidden state can never beat unrestricted hidden variables
    ordering_ok = True
    for index in range(100):
        n = (2, 4, 6)[index % 3]
        m = build_as_matrix(n)
        bob = random_unit_rows(rng, n)
        ordering_ok = ordering_ok and (
            steering_lhs_bound(m, bob).value <= lhv_bound_closed_form(n) + 1e-9
        )
    for n in SUPPORTED_SETTINGS[1:]:  # strict for the catalog sets beyond n=2
        m = build_as_matrix(n)
        bob = catalog_directions(n).bob_directions
        ordering_ok = ordering_ok and (
            steering_lhs_bound(m, bob).value < lhv_bound_closed_form(n)
        )

    # multistart is bitwise reproducible for a fixed seed
    first = multistart_seesaw(build_as_matrix(6), restarts=6, seed=11)
    second = multistart_seesaw(build_as_matrix(6), restarts=6, seed=11)
    deterministic_ok = (
        first.value == second.value
        and np.array_equal(first.alice, second.alice)
        and np.array_equal(first.bob, second.bob)
        and first.restart_index == second.restart_index
    )

    ok = rotation_ok and monotone_ok and ordering_ok and deterministic_ok
    line = _verdict(
        "criterion 6 (property suite)",
        ok,
        f"rotation invariance drift {worst_rotation:.3g}; "
        f"monotone trajectories: {monotone_ok}; "
        f"steering <= classical ordering: {ordering_ok}; "
        f"bitwise-deterministic multistart: {deterministic_ok}",
    )
    assert ok, line


def test_criterion_7_direction_verification(capsys):
    """Verification report pins down the n=4 tabulated-direction anomaly."""
    report = verify_directions(catalog_directions(4))
    target = max_quantum_closed_form(4)
    tabulated = [e for e in report.evaluations if e.alice_source == "tabulated"]
    tabulated_value = tabulated[0].value
    value_ok = abs(tabulated_value - 2.0 * math.sqrt(6.0)) <= 1e-9
    deviation_ok = abs(tabulated[0].deviation - (target - tabulated_value)) <= 1e-9
    diagnosis_ok = any("negating" in a and "x" in a for a in report.anomalies)
    witness_ok = abs(report.witness_value - target) <= 1e-9
    n4_ok = (not report.passed) and value_ok and deviation_ok and diagnosis_ok and witness_ok

    # the n=2 entry carries a degenerate tabulated pair but a sound canonical set
    entry2 = catalog_directions(2)
    canonical = bell_quantum_value(
        build_as_matrix(2),
        verify_directions(catalog_directions(2)).witness_alice,
        entry2.bob_directions,
    )
    n2_ok = abs(canonical - 2.0 * math.sqrt(2.0)) <= 1e-9

    codes = {}
    for n in SUPPORTED_SETTINGS:
        codes[n] = cli.main(["verify-directions", str(n)])
        capsys.readouterr()
    exit_ok = codes == {2: 3, 4: 3, 6: 0, 8: 0, 10: 0}

    ok = n4_ok and n2_ok and exit_ok
    line = _verdict(
        "criterion 7 (direction verification)",
        ok,
        f"n=4 tabulated set reaches {tabulated_value:.6f} (=2*sqrt(6)), flagged with "
        f"an x-sign diagnosis, see-saw witness restores {report.witness_value:.6f}; "
        f"n=2 canonical set reaches 2*sqrt(2); CLI exit codes {codes}",
    )
    assert ok, line
