"""Direction catalog: structure, attained maxima, anomaly reporting."""

import copy
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from helpers import entry_to_dict, random_unit_rows
from shimony import catalog
from shimony.catalog import (
    SUPPORTED_SETTINGS,
    VERIFICATION_TOL,
    catalog_directions,
    directions_from_dict,
    load_directions_file,
    reference_notes,
    unified_direction_set,
    verify_directions,
)
from shimony.matrices import build_as_matrix, lhv_bound_bruteforce, lhv_bound_closed_form
from shimony.quantum import bell_quantum_value, max_quantum_closed_form
from shimony.seesaw import alice_best_response, seesaw
from shimony.steering import steering_lhs_bound, steering_lhs_bound_oracle, werner_thresholds


def test_supported_orders():
    assert SUPPORTED_SETTINGS == (2, 4, 6, 8, 10)
    with pytest.raises(ValueError, match="supported"):
        catalog_directions(12)
    with pytest.raises(ValueError):
        catalog_directions(3)


@pytest.mark.parametrize("n", SUPPORTED_SETTINGS)
def test_entry_shapes_and_norms(n):
    entry = catalog_directions(n)
    assert entry.n == n
    assert entry.bob_directions.shape == (n, 3)
    assert np.allclose(np.linalg.norm(entry.bob_directions, axis=1), 1.0, atol=1e-12)
    if entry.alice_directions is not None:
        assert entry.alice_directions.shape == (n, 3)
        assert np.allclose(np.linalg.norm(entry.alice_directions, axis=1), 1.0, atol=1e-12)
    # Alice is fully tabulated only at n=4; the degenerate n=2 pairs are kept
    # separately for diagnostics.
    assert (entry.alice_directions is not None) == (n == 4)
    assert (entry.tabulated_bob is not None) == (n == 2)
    assert entry.notes


@pytest.mark.parametrize("n", SUPPORTED_SETTINGS)
def test_entry_is_shared_and_read_only(n):
    # One entry per order per process; writing into any of its arrays raises.
    entry = catalog_directions(n)
    assert catalog_directions(n) is entry
    assert catalog_directions(np.int64(n)) is entry
    arrays = [entry.bob_directions, entry.alice_directions, entry.tabulated_bob,
              entry.tabulated_alice]
    for array in filter(lambda a: a is not None, arrays):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.5


def test_a_file_entry_refuses_writes_so_its_bound_stays_right():
    entry = directions_from_dict({"n": 4, "bob": [[0, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert entry.steering_bound.value == pytest.approx(math.sqrt(20), rel=1e-15)
    with pytest.raises(ValueError, match="read-only"):
        entry.bob_directions[:] = [[0, 0, 1]] * 4
    fresh = steering_lhs_bound(build_as_matrix(4), entry.bob_directions)
    assert entry.steering_bound.value == fresh.value


def test_a_replaced_entry_copies_and_freezes_the_callers_array():
    bob = catalog_directions(4).bob_directions.copy()
    entry = dataclasses.replace(catalog_directions(4), bob_directions=bob)
    assert entry.bob_directions is not bob
    assert np.array_equal(entry.bob_directions, bob)
    with pytest.raises(ValueError, match="read-only"):
        entry.bob_directions[0, 0] = 0.5
    bob[0, 0] = 0.5
    assert entry.bob_directions[0, 0] != 0.5


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_unified_structure(n):
    bob = catalog_directions(n).bob_directions
    y = 1.0 / math.sqrt(lhv_bound_closed_form(n))
    assert bob[0, 0] == pytest.approx(y, abs=1e-15)
    assert bob[1, 0] == pytest.approx(-y, abs=1e-15)
    assert np.allclose(bob[0, 1:], bob[1, 1:], atol=1e-15)
    assert np.all(bob[2 : n - 1, 0] == 0.0)
    assert np.allclose(bob[n - 1], [1.0, 0.0, 0.0], atol=1e-15)


def test_unified_direction_set_angle_count():
    with pytest.raises(ValueError, match="expected 2 angles"):
        unified_direction_set(4, [0.1])
    with pytest.raises(ValueError, match="n=2"):
        unified_direction_set(2, [])


def test_frozen_vectors_n4():
    entry = catalog_directions(4)
    expected_bob = np.array(
        [
            [0.4082482904638631, -0.20600744422178593, 0.8893223635209794],
            [-0.4082482904638631, -0.20600744422178593, 0.8893223635209794],
            [0.0, 0.9166280100018142, 0.3997412804303731],
            [1.0, 0.0, 0.0],
        ]
    )
    assert np.allclose(entry.bob_directions, expected_bob, atol=1e-12)
    # The tabulated Alice set mirrors the best response except for the sign
    # of the x components (see verify_directions).
    m = build_as_matrix(4)
    best = alice_best_response(m, entry.bob_directions)
    assert np.allclose(entry.alice_directions[:, 1:], best[:, 1:], atol=1e-12)
    assert np.allclose(entry.alice_directions[:, 0], -best[:, 0], atol=1e-12)


def test_frozen_vectors_n10():
    bob = catalog_directions(10).bob_directions
    assert np.allclose(
        bob[0], [0.18257418583505536, -0.5486366111750072, -0.8158826726589251], atol=1e-12
    )
    assert np.allclose(
        bob[2], [0.0, -0.03260156848343253, -0.999468427581592], atol=1e-12
    )


def test_n2_tabulated_pairs_are_degenerate():
    entry = catalog_directions(2)
    assert np.allclose(entry.bob_directions, [[0, 0, 1], [1, 0, 0]], atol=1e-15)
    assert entry.tabulated_bob[0] @ entry.tabulated_bob[1] == pytest.approx(-1.0, abs=1e-12)
    assert entry.tabulated_alice[0] @ entry.tabulated_alice[1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n,tol", [(4, 1e-9), (6, 1e-9), (8, 1e-9), (10, 1e-6)])
def test_bob_catalogs_attain_quantum_maximum(n, tol):
    m = build_as_matrix(n)
    bob = catalog_directions(n).bob_directions
    value = bell_quantum_value(m, alice_best_response(m, bob), bob)
    assert value == pytest.approx(max_quantum_closed_form(n), abs=tol)


def test_verify_4_reports_sign_anomaly():
    report = verify_directions(catalog_directions(4))
    assert not report.passed
    given = report.evaluations[0]
    assert given.alice_source == "tabulated"
    assert given.value == pytest.approx(2 * math.sqrt(6), abs=1e-12)
    assert not given.passed
    best = report.evaluations[1]
    assert best.alice_source == "best-response"
    assert best.passed
    assert any("negating" in a for a in report.anomalies)
    assert report.witness_value == pytest.approx(report.target, abs=1e-9)
    assert report.witness_alice.shape == (4, 3)


def test_verify_2_flags_collinearity():
    report = verify_directions(catalog_directions(2))
    assert not report.passed
    assert any("antiparallel" in a for a in report.anomalies)
    canonical = report.evaluations[0]
    assert canonical.value == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert canonical.passed
    # Tabulated pairs: given Alice reaches sqrt(2), best response caps at 2.
    values = sorted(e.value for e in report.evaluations[1:])
    assert values == pytest.approx([math.sqrt(2), 2.0], abs=1e-9)
    assert report.witness_value == pytest.approx(2 * math.sqrt(2), abs=1e-9)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_verify_passes_for_consistent_entries(n):
    report = verify_directions(catalog_directions(n))
    assert report.passed
    assert report.anomalies == ()
    assert all(e.passed for e in report.evaluations)
    assert report.evaluations[0].deviation <= report.tolerance


# SHA-256 of each entry's JSON view plus its tabulated pairs, so that no
# rewrite of the angle closed forms moves a stored component.
ENTRY_DIGESTS = {
    2: "cc8d2889f232069fa45733a4124bef24fa4130ec505cad282937833f0c1d2a1c",
    4: "5849785b61416a031e9002692c47f3631c493ee9c19e8d9a20727a476cb7e507",
    6: "40c7906e0d64a5722676fc725e08c81c22a06699799782d827d4752984421967",
    8: "1e3e3a06f7c50c6072e710c74b26d3eda54e1c16808e459e34c1e58c3b102bec",
    10: "988015a6af26990d7a9971737f8679f740f7459792c6279c13d35521960fa2f9",
}


@pytest.mark.parametrize("n", SUPPORTED_SETTINGS)
def test_entry_bytes_pinned(n):
    entry = catalog_directions(n)
    data = entry_to_dict(entry)
    for key in ("tabulated_bob", "tabulated_alice"):
        rows = getattr(entry, key)
        data[key] = None if rows is None else rows.tolist()
    assert hashlib.sha256(json.dumps(data).encode("utf-8")).hexdigest() == ENTRY_DIGESTS[n]


def test_verify_passes_once_alice_x_signs_are_restored():
    entry = catalog_directions(4)
    restored = entry.alice_directions * (-1.0, 1.0, 1.0)
    report = verify_directions(dataclasses.replace(entry, alice_directions=restored))
    assert report.passed
    assert report.anomalies == ()
    assert [e.alice_source for e in report.evaluations] == ["tabulated", "best-response"]


def test_verify_diagnoses_alice_only_where_bob_reaches_the_maximum():
    # Antiparallel Bob rows cap the value, so the tabulated Alice set, which
    # misses too, is not diagnosed: Bob's set is what falls short.
    entry = catalog_directions(4)
    bob = entry.bob_directions.copy()
    bob[1] = -bob[0]
    report = verify_directions(dataclasses.replace(entry, bob_directions=bob))
    assert not report.passed
    assert len(report.anomalies) == 2
    assert report.anomalies[0].startswith("bob directions 1 and 2 are antiparallel")
    assert report.anomalies[1].startswith("bob directions cap the value at")
    assert not any("tabulated alice" in a for a in report.anomalies)
    assert not any(e.passed for e in report.evaluations)


def test_entry_to_dict_schema():
    for n in SUPPORTED_SETTINGS:
        entry = catalog_directions(n)
        data = entry_to_dict(entry)
        assert set(data) == {"n", "bob", "alice", "notes"}
        assert all(len(row) == 3 for row in data["bob"])
        # Round-trips through the validator into an entry with the same four fields.
        parsed = directions_from_dict(data)
        assert isinstance(parsed, catalog.DirectionCatalogEntry)
        assert parsed.n == n
        assert parsed.bob_directions.shape == (n, 3)
        assert np.allclose(parsed.bob_directions, entry.bob_directions, atol=1e-12)
        if n == 4:
            assert np.allclose(parsed.alice_directions, entry.alice_directions, atol=1e-12)
        else:
            assert parsed.alice_directions is None
        assert parsed.notes == entry.notes


@pytest.mark.parametrize(
    "data,fragment",
    [
        ([1, 2], "top-level"),
        ({"bob": []}, "n must be"),
        ({"n": 3, "bob": []}, "n must be"),
        ({"n": 2}, "bob is required"),
        ({"n": 2, "bob": [[0, 0, 1]]}, "bob must be a list of 2"),
        ({"n": 2, "bob": [[0, 0, 1], [1, 0]]}, "bob[1] must be a 3-component"),
        ({"n": 2, "bob": [[0, 0, 1], [1, 0, "x"]]}, "bob[1][2] must be a number"),
        ({"n": 2, "bob": [[0, 0, 1], [1, 0, 1]]}, "bob[1] must be unit length"),
        ({"n": 2, "bob": [[0, 0, 1], [1, 0, 0]], "alice": [[0, 0, 2], [1, 0, 0]]},
         "alice[0] must be unit length"),
        ({"n": 2, "bob": [[0, 0, 1], [1, 0, 0]], "notes": 5}, "notes must be a string"),
        ({"n": 2, "bob": [[10**400, 0, 0], [0, 0, 1]]}, "bob[0][0] is too large"),
        ({"n": 2, "bob": [[1e308, 1e308, 0], [0, 0, 1]]}, "bob[0] must be unit length"),
    ],
)
def test_directions_from_dict_errors(data, fragment):
    with pytest.raises(ValueError) as err:
        directions_from_dict(data)
    assert fragment in str(err.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_directions_from_dict_rejects_non_finite(bad):
    with pytest.raises(ValueError, match=r"bob\[1\] must be unit length"):
        directions_from_dict({"n": 2, "bob": [[0, 0, 1], [1, bad, 0]]})


def test_load_directions_file(tmp_path):
    path = tmp_path / "dirs.json"
    path.write_text(json.dumps(entry_to_dict(catalog_directions(4))))
    parsed = load_directions_file(path)
    assert parsed.n == 4
    assert np.allclose(parsed.alice_directions, catalog_directions(4).alice_directions, atol=1e-12)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_directions_file(bad)


def test_a_file_entry_computes_its_own_bounds_and_shares_none(tmp_path):
    # A file's entry carries no tabulated figures and the default tolerance;
    # its bounds are the direct calls' bit for bit, each load computes its own,
    # and no load reaches the per-order cache.
    path = tmp_path / "bob10.json"
    bob = random_unit_rows(np.random.default_rng(3), 10)
    path.write_text(json.dumps({"n": 10, "bob": bob.tolist()}))
    before = catalog._catalog_entry.cache_info()
    first, second = load_directions_file(path), load_directions_file(path)
    assert first is not second
    for entry in (first, second):
        assert entry.c_lhs_reference is None and entry.v_lhs_reference is None
        assert entry.tolerance == VERIFICATION_TOL
        assert reference_notes(entry, max_quantum_closed_form(10)) == []
    m = build_as_matrix(10)
    direct = steering_lhs_bound(m, first.bob_directions)
    bound = first.steering_bound
    for name in ("value", "quantum_value", "alice_witness", "bob_state_direction", "column_sums"):
        bits = [np.asarray(getattr(result, name)).tobytes() for result in (bound, direct)]
        assert bits[0] == bits[1]
    assert first.oracle_bound == steering_lhs_bound_oracle(m, first.bob_directions)
    assert second.steering_bound is not bound
    assert second.steering_bound.value == bound.value
    assert catalog._catalog_entry.cache_info() == before


# Each result type that holds arrays, directly or in a result it holds, and
# the field a replaced copy takes a deep copy of.
ARRAY_HOLDING_RESULTS = {
    "DirectionCatalogEntry": "bob_directions",
    "VerificationReport": "witness_bob",
    "SteeringBoundResult": "alice_witness",
    "ThresholdPair": "lhs",
    "LhvBoundResult": "bob_witness",
    "OptimizationResult": "bob",
}


@pytest.mark.parametrize("name", ARRAY_HOLDING_RESULTS)
def test_array_holding_results_compare_and_hash_by_identity(name):
    # Value equality would ask an array for its truth value, and hashing would
    # hash an array; these types compare and hash by identity instead.
    entry = catalog_directions(4)
    m = build_as_matrix(4)
    results = {
        "DirectionCatalogEntry": entry,
        "VerificationReport": entry.report,
        "SteeringBoundResult": entry.steering_bound,
        "ThresholdPair": werner_thresholds(m, entry.bob_directions, max_quantum_closed_form(4)),
        "LhvBoundResult": lhv_bound_bruteforce(m),
        "OptimizationResult": seesaw(m, entry.bob_directions),
    }
    result = results[name]
    assert type(result).__name__ == name
    field = ARRAY_HOLDING_RESULTS[name]
    replaced = dataclasses.replace(result, **{field: copy.deepcopy(getattr(result, field))})
    assert (result == replaced) is False
    assert result == result
    assert hash(result) == hash(result)
    assert len({result, replaced}) == 2
