"""Abner-Shimony Bell inequalities.

Coefficient matrices and exact local bounds, singlet quantum values with
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
    lhv_bound,
    lhv_bound_bruteforce,
    lhv_bound_closed_form,
)
from .quantum import (
    bell_quantum_value,
    correlation,
    max_quantum_closed_form,
)
from .seesaw import (
    OptimizationResult,
    alice_best_response,
    multistart_seesaw,
    random_measurement_set,
    seesaw,
)
from .steering import (
    OracleBracket,
    SteeringBoundResult,
    ThresholdPair,
    steering_lhs_bound,
    steering_lhs_bound_oracle,
    werner_thresholds,
    zonotope_bound,
    zonotope_bracket,
)

__all__ = [
    "__version__",
    "MAX_ENUMERATION_SETTINGS",
    "MAX_STEERING_SETTINGS",
    "SUPPORTED_SETTINGS",
    "DirectionCatalogEntry",
    "DirectionEvaluation",
    "LhvBoundResult",
    "OptimizationResult",
    "OracleBracket",
    "ResourceLimitError",
    "SteeringBoundResult",
    "ThresholdPair",
    "VerificationReport",
    "alice_best_response",
    "bell_quantum_value",
    "build_as_matrix",
    "catalog_directions",
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
    "werner_thresholds",
    "zonotope_bound",
    "zonotope_bracket",
]
