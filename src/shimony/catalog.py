"""Tabulated measurement directions attaining maximal AS violations.

Entries exist for n = 2, 4, 6, 8, 10. Bob's directions follow a unified form:
the first two share a polar angle and carry x components +-Y with
Y = 1/sqrt((n/2)(n/2+1)), directions 3..n-1 lie in the y-z plane, and the last
is +x. The same form with azimuthal angles describes Alice where her angles
are tabulated (n = 4 only; elsewhere she is reconstructed by best response).

`verify_directions` checks every entry against the closed-form quantum
maximum and flags anomalies in the tabulated data instead of silently
repairing them; see each entry's notes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import acos, asin, cos, pi, sin, sqrt

import numpy as np

from . import steering
from .matrices import build_as_matrix, lhv_bound_closed_form, require_even_settings
from .quantum import as_measurement_set, bell_quantum_value, max_quantum_closed_form
from .seesaw import alice_best_response, seesaw

# |a . b| above this flags two catalog directions as (anti)parallel.
COLLINEARITY_TOL = 1e-9
# Deviation from the quantum maximum `verify_directions` accepts by default.
VERIFICATION_TOL = 1e-6


def unified_direction_set(n: int, angles) -> np.ndarray:
    """Assemble the unified n-direction form (n >= 4) from n-2 polar angles.

    angles[0] is shared by the first two directions (x components +-Y),
    angles[1:] fill the y-z plane directions 3..n-1, and direction n is +x.
    """
    n = require_even_settings(n)
    if n < 4:
        raise ValueError(f"the unified form needs n >= 4 settings, got n={n}")
    angles = [float(t) for t in angles]
    if len(angles) != n - 2:
        raise ValueError(f"expected {n - 2} angles for n={n}, got {len(angles)}")
    y = 1.0 / sqrt(lhv_bound_closed_form(n))
    s = sqrt(1.0 - y * y)
    out = np.zeros((n, 3))
    out[0] = (y, s * sin(angles[0]), s * cos(angles[0]))
    out[1] = (-y, s * sin(angles[0]), s * cos(angles[0]))
    out[2 : n - 1] = _yz_direction_set(angles[1:])
    out[n - 1] = (1.0, 0.0, 0.0)
    return out


def _yz_direction_set(angles) -> np.ndarray:
    return np.array([(0.0, sin(t), cos(t)) for t in angles])


def _angles_2() -> tuple[list[float], list[float]]:
    theta = [0.0, pi]
    phi_0 = -pi / 2 - acos(1 / sqrt(2))
    phi = [phi_0, -phi_0]
    return theta, phi


def _angles_4() -> tuple[list[float], list[float]]:
    theta_1 = 0.5 * acos(-5 / (3 * sqrt(6)))
    theta_0 = acos(4 / (3 * sqrt(5))) - theta_1
    phi_0 = acos(-4 / (3 * sqrt(5))) + theta_1
    phi_1 = acos(5 / (3 * sqrt(6))) + theta_1
    return [theta_0, theta_1], [phi_0, phi_1]


# At n = 6 and 8 Alice's interior azimuths phi_k only feed Bob's polar angles;
# her first azimuth is not tabulated, so no Alice set is returned.
def _angles_6() -> tuple[list[float], None]:
    theta_3 = -asin(4 / (3 * sqrt(11)))
    phi_1 = theta_3 + acos(5 / (6 * sqrt(3)))
    theta_2 = -acos(-5 / (2 * sqrt(21))) + acos(sqrt(83) / (2 * sqrt(231)))
    phi_2 = theta_2 + acos(7 / (6 * sqrt(3)))
    theta_1 = theta_2 - phi_1 + phi_2
    phi_3 = theta_1 + acos(5 / (6 * sqrt(3)))
    theta_0 = phi_3 - acos(-4 / (3 * sqrt(11)))
    return [theta_0, theta_1, theta_2, theta_3], None


def _angles_8() -> tuple[list[float], None]:
    theta_5 = -asin(4 / (3 * sqrt(19)))
    phi_1 = theta_5 + acos(5 / (6 * sqrt(5)))
    theta_4 = -acos(-5 / (2 * sqrt(39))) + acos(sqrt(155) / (2 * sqrt(741)))
    theta_3 = -acos(-sqrt(4 / 15)) + acos(
        (235 * sqrt(589) + 53 * sqrt(12445)) / (7410 * sqrt(12))
    )
    phi_2 = theta_4 + acos(7 / (6 * sqrt(5)))
    phi_3 = theta_3 + acos(3 / (2 * sqrt(5)))
    theta_2 = theta_3 - phi_2 + phi_3
    phi_5 = theta_2 - theta_5 + phi_2
    theta_1 = theta_2 - phi_1 + phi_2
    theta_0 = phi_5 - acos(-4 / (3 * sqrt(19)))
    return [theta_0, theta_1, theta_2, theta_3, theta_4, theta_5], None


# Tabulated to 4-5 decimal places; no azimuthal angles are tabulated.
_ANGLES_10 = [-2.5496, 3.1742, -1.9715, -1.5541, -1.0945, -0.7886, -0.5108, -0.2502]

_BOB_ONLY_NOTES = (
    "Bob fully tabulated. Alice's azimuthal angles are tabulated only for the interior directions "
    "(the first is not), so no Alice set is stored; she is reconstructed by best response."
)

# What the paper tabulates for each catalog order: the source of the (Bob,
# Alice) angles, the provenance note, the verification tolerance (wider where
# the angles are decimals), and C_LHS and V_LHS as (label, value). The
# 10-setting C_LHS is a tabulated decimal that does not match the value
# computed from the tabulated directions (27.2321, which matches the tabulated
# V_LHS 0.6779); it is the exact bound of the other maximizing (theta0,
# theta1) = (-2.9224, -2.3630) pair. The note of `cli._evaluate` sets both side by side.
_ORDERS = {
    2: (
        _angles_2,
        "The tabulated polar angles (0 and pi) make Bob's two directions antiparallel, which "
        "caps the Bell value at 2; the canonical orthogonal pair (0,0,1), (1,0,0) is stored "
        "instead and attains 2*sqrt(2) with best-response partners. The degenerate tabulated "
        "pairs are kept for diagnostics.",
        VERIFICATION_TOL,
        ("2", 2.0),
        ("1/sqrt(2)", 1 / sqrt(2)),
    ),
    4: (
        _angles_4,
        "Both parties fully tabulated. As tabulated, the Alice set reaches only 60% of the "
        "quantum maximum; negating its x components attains the maximum exactly, and the "
        "azimuthal angles already match the best response (see verify_directions).",
        VERIFICATION_TOL,
        ("2*sqrt(23/3)", 2 * sqrt(23 / 3)),
        ("sqrt(23)/(5*sqrt(2))", sqrt(23) / (5 * sqrt(2))),
    ),
    6: (
        _angles_6,
        _BOB_ONLY_NOTES,
        VERIFICATION_TOL,
        ("sqrt(358/3)", sqrt(358 / 3)),
        ("sqrt(179)/(14*sqrt(2))", sqrt(179) / (14 * sqrt(2))),
    ),
    8: (
        _angles_8,
        _BOB_ONLY_NOTES,
        VERIFICATION_TOL,
        ("sqrt(2*(10444 + sqrt(20305))/65)", sqrt(2 * (10444 + sqrt(20305)) / 65)),
        ("0.6726 (tabulated decimal)", 0.6726),
    ),
    10: (
        lambda: (_ANGLES_10, None),
        "Bob's angles tabulated numerically to 4-5 decimal places (verification tolerance "
        "widens to 1e-3 accordingly). No Alice angles are tabulated; she is reconstructed by "
        "best response.",
        1e-3,
        ("27.0955 (tabulated decimal, inconsistent with the directions)", 27.0955),
        ("0.6779 (tabulated decimal)", 0.6779),
    ),
}

SUPPORTED_SETTINGS = tuple(_ORDERS)


@dataclass(frozen=True, eq=False)
class DirectionCatalogEntry:
    """One direction set with what is known of it.

    An entry is a catalog order's set with the paper's figures for it, or a
    directions file's set without them (its references are then None).
    `alice_directions` is None where the data does not fully determine Alice
    (she is then reconstructed by best response on demand). `tolerance` is
    the deviation from the quantum maximum that `verify_directions` accepts,
    and `c_lhs_reference` and `v_lhs_reference` are the tabulated C_LHS and
    V_LHS as (label, value). The n=2 entry additionally keeps the raw
    tabulated pairs, which are degenerate, for diagnostics. `steering_bound`,
    `oracle_bound` and `report` are computed from the entry's own fields on
    first use and then kept, so an entry loaded from a file or made with
    `dataclasses.replace` computes its own. Every entry keeps float64 copies
    of the directions it is given, arrays or nested lists, and they, its
    bound and its report refuse writes (copy one to change it).
    `catalog_directions` shares one entry per order per process.
    """

    n: int
    bob_directions: np.ndarray
    alice_directions: np.ndarray | None
    notes: str
    tolerance: float = VERIFICATION_TOL
    c_lhs_reference: tuple[str, float] | None = None
    v_lhs_reference: tuple[str, float] | None = None
    tabulated_bob: np.ndarray | None = None
    tabulated_alice: np.ndarray | None = None

    def __post_init__(self):
        for name in ("bob_directions", "alice_directions", "tabulated_bob", "tabulated_alice"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, np.array(value, dtype=np.float64))
        _read_only(self)

    @cached_property
    def steering_bound(self) -> steering.SteeringBoundResult:
        """C_LHS of AS_n over `bob_directions` by `steering.steering_lhs_bound`."""
        return _read_only(steering.steering_lhs_bound(build_as_matrix(self.n), self.bob_directions))

    @cached_property
    def oracle_bound(self) -> steering.OracleBracket:
        """C_LHS of AS_n over `bob_directions` bracketed by `steering.steering_lhs_bound_oracle`."""
        return steering.steering_lhs_bound_oracle(build_as_matrix(self.n), self.bob_directions)

    @cached_property
    def report(self) -> VerificationReport:
        """This entry's `verify_directions` report."""
        return _read_only(verify_directions(self))


def catalog_directions(n: int) -> DirectionCatalogEntry:
    """Return the shared, read-only direction entry for n in SUPPORTED_SETTINGS."""
    n = require_even_settings(n)
    if n not in _ORDERS:
        raise ValueError(
            f"no tabulated directions for n={n}; supported orders are "
            f"{', '.join(str(k) for k in SUPPORTED_SETTINGS)}"
        )
    return _catalog_entry(n)


@lru_cache(maxsize=None)
def _catalog_entry(n: int) -> DirectionCatalogEntry:
    """Order n's entry, built once per process."""
    angles, *figures = _ORDERS[n]
    thetas, phis = angles()
    if n == 2:  # the tabulated pairs are degenerate; the canonical pair stands in
        canonical = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        tabulated = _yz_direction_set(thetas), _yz_direction_set(phis)
        return DirectionCatalogEntry(2, canonical, None, *figures, *tabulated)
    alice = None if phis is None else unified_direction_set(n, phis)
    return DirectionCatalogEntry(n, unified_direction_set(n, thetas), alice, *figures)


def _read_only(result):
    """result, with every array among its attributes set to refuse writes."""
    for value in vars(result).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return result


def _direction_rows(data, key: str, n: int) -> np.ndarray:
    rows = data[key]
    if not isinstance(rows, list) or len(rows) != n:
        raise ValueError(f"{key} must be a list of {n} directions")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError(f"{key}[{i}] must be a 3-component direction")
        parsed.append([])
        for k, component in enumerate(row):
            if isinstance(component, bool) or not isinstance(component, (int, float)):
                raise ValueError(f"{key}[{i}][{k}] must be a number")
            try:
                parsed[i].append(float(component))
            except OverflowError:
                raise ValueError(f"{key}[{i}][{k}] is too large for a float") from None
    return as_measurement_set(parsed, n, key + "[{i}]")


def directions_from_dict(data) -> DirectionCatalogEntry:
    """Validate a {n, bob, alice?, notes?} mapping into an entry without tabulated figures.

    Raises ValueError naming the offending path on any schema violation.
    """
    if not isinstance(data, dict):
        raise ValueError("top-level value must be an object")
    n = require_even_settings(data.get("n"))
    if "bob" not in data:
        raise ValueError("bob is required")
    bob = _direction_rows(data, "bob", n)
    alice = None
    if data.get("alice") is not None:
        alice = _direction_rows(data, "alice", n)
    notes = data.get("notes", "")
    if not isinstance(notes, str):
        raise ValueError("notes must be a string")
    return DirectionCatalogEntry(n, bob, alice, notes)


def load_directions_file(path) -> DirectionCatalogEntry:
    """Load and validate a JSON directions file (see directions_from_dict)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
    return directions_from_dict(data)


@dataclass(frozen=True)
class DirectionEvaluation:
    """Bell value of one (bob set, alice source) combination vs the target."""

    label: str
    alice_source: str
    value: float
    deviation: float
    passed: bool


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of checking a catalog entry against the quantum maximum.

    `passed` is False whenever any evaluation misses the target or any
    anomaly is flagged; the witness fields always hold a see-saw-confirmed
    maximizing pair grown from the entry's default Bob set.
    """

    n: int
    target: float
    tolerance: float
    evaluations: tuple[DirectionEvaluation, ...]
    anomalies: tuple[str, ...]
    passed: bool
    witness_value: float
    witness_alice: np.ndarray
    witness_bob: np.ndarray


def _collinear_pairs(directions: np.ndarray, label: str) -> list[str]:
    overlaps = directions @ directions.T
    pairs = np.nonzero(np.triu(np.abs(overlaps) > 1.0 - COLLINEARITY_TOL, 1))
    return [
        f"{label} directions {i + 1} and {j + 1} are "
        f"{'antiparallel' if overlaps[i, j] < 0 else 'parallel'}; "
        "the set cannot span the settings independently"
        for i, j in zip(*pairs)
    ]


def verify_directions(entry: DirectionCatalogEntry) -> VerificationReport:
    """Evaluate an entry's direction sets against the closed-form maximum.

    Each set (the catalog set, then the n=2 tabulated pairs) is checked for
    collinear directions, its tabulated Alice set if any, and the best
    response; a tabulated Alice set is diagnosed only when Bob's set can
    reach the maximum, since otherwise Bob's set is what caps the value.
    """
    n = entry.n
    m = build_as_matrix(n)
    target = max_quantum_closed_form(n)
    tolerance = entry.tolerance
    direction_sets = [("catalog", "bob", entry.bob_directions, entry.alice_directions)]
    if entry.tabulated_bob is not None:
        direction_sets.append(
            ("tabulated", "tabulated bob", entry.tabulated_bob, entry.tabulated_alice)
        )

    evaluations: list[DirectionEvaluation] = []
    anomalies: list[str] = []

    def evaluate(label: str, alice_source: str, alice, bob) -> DirectionEvaluation:
        value = bell_quantum_value(m, alice, bob)
        deviation = abs(value - target)
        evaluation = DirectionEvaluation(
            label=label,
            alice_source=alice_source,
            value=value,
            deviation=deviation,
            passed=deviation <= tolerance,
        )
        evaluations.append(evaluation)
        return evaluation

    for label, bob_label, bob, alice in direction_sets:
        anomalies.extend(_collinear_pairs(bob, bob_label))
        given = None if alice is None else evaluate(label, "tabulated", alice, bob)
        best = evaluate(label, "best-response", alice_best_response(m, bob), bob)
        if not best.passed:
            anomalies.append(
                f"{bob_label} directions cap the value at {best.value:.9g} "
                f"even with best-response alice (target {target:.9g})"
            )
        elif given is not None and not given.passed:
            mirrored = alice * (-1.0, 1.0, 1.0)
            mirrored_value = bell_quantum_value(m, mirrored, bob)
            diagnosis = (
                f"tabulated alice directions attain {given.value:.9g}, not the "
                f"target {target:.9g}"
            )
            if abs(mirrored_value - target) <= tolerance:
                diagnosis += (
                    f"; negating their x components attains {mirrored_value:.9g}, "
                    "so the tabulated x signs are flipped"
                )
            anomalies.append(diagnosis)

    witness = seesaw(m, entry.bob_directions)
    passed = not anomalies and all(e.passed for e in evaluations)
    return VerificationReport(
        n=n,
        target=target,
        tolerance=tolerance,
        evaluations=tuple(evaluations),
        anomalies=tuple(anomalies),
        passed=passed,
        witness_value=witness.value,
        witness_alice=witness.alice,
        witness_bob=witness.bob,
    )
