"""Abner-Shimony Bell inequalities.

Coefficient matrices and exact local bounds, Werner-state quantum values with
a closed-form maximum and a see-saw optimizer, EPR-steering bounds with an
independent verification oracle, and visibility thresholds, plus a CLI that
reproduces the reference tables.
"""

__version__ = "0.1.0"

from .catalog import (
    SUPPORTED_SETTINGS,
    DirectionCatalogEntry,
    DirectionEvaluation,
    VerificationReport,
    catalog_directions,
    unified_direction_set,
    verify_directions,
)
from .matrices import (
    MAX_ENUMERATION_SETTINGS,
    MAX_STEERING_SETTINGS,
    LhvBoundResult,
    ResourceLimitError,
    build_as_matrix,
    classical_value,
    lhv_bound,
    lhv_bound_bruteforce,
    lhv_bound_closed_form,
)
from .quantum import (
    SINGLET,
    WernerState,
    bell_quantum_value,
    correlation,
    max_quantum_closed_form,
)
from .seesaw import (
    OptimizationResult,
    alice_best_response,
    bob_best_response,
    multistart_seesaw,
    random_measurement_set,
    seesaw,
)
from .steering import (
    SteeringBoundResult,
    ThresholdPair,
    steering_lhs_bound,
    steering_lhs_bound_oracle,
    visibility_lhv_closed_form,
    werner_thresholds,
)

__all__ = [
    "__version__",
    "MAX_ENUMERATION_SETTINGS",
    "MAX_STEERING_SETTINGS",
    "SUPPORTED_SETTINGS",
    "SINGLET",
    "DirectionCatalogEntry",
    "DirectionEvaluation",
    "LhvBoundResult",
    "OptimizationResult",
    "ResourceLimitError",
    "SteeringBoundResult",
    "ThresholdPair",
    "VerificationReport",
    "WernerState",
    "alice_best_response",
    "bell_quantum_value",
    "bob_best_response",
    "build_as_matrix",
    "catalog_directions",
    "classical_value",
    "correlation",
    "lhv_bound",
    "lhv_bound_bruteforce",
    "lhv_bound_closed_form",
    "max_quantum_closed_form",
    "multistart_seesaw",
    "random_measurement_set",
    "seesaw",
    "steering_lhs_bound",
    "steering_lhs_bound_oracle",
    "unified_direction_set",
    "verify_directions",
    "visibility_lhv_closed_form",
    "werner_thresholds",
]
