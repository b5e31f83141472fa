"""Numerics for the integral-means spectrum of Levy-Loewner evolutions.

The package computes beta(2) for whole-plane evolutions driven by Levy
processes with locally finite exponent sequences, by three independent
routes: the maximal real eigenvalue of a truncated evolution matrix, the
largest real root of its characteristic polynomial, and a direct fit of
the blowup exponent of the angular second moment near the unit circle.
"""

from .closed_forms import (
    BETA_SUP,
    HypergeometricParams,
    Theorem1Values,
    beta2_unbounded_n2,
    gauss_2f1,
    gauss_at_one,
    perturbed_n6_driver,
    perturbed_n6_pairs,
    theorem1_solution,
    truncated_sle_spectrum,
)
from .errors import (
    CapacityError,
    DegeneracyError,
    DomainError,
    LLESpecError,
    NumericalError,
    PoleError,
    PrecisionError,
    RealizabilityWarning,
    SizeError,
    TruncationNearMissWarning,
    ValidationError,
)
from .fuchsian_series import (
    BlowupFit,
    FuchsianSystem,
    GeometricLadder,
    ThetaSeries,
    analytic_null_vector,
    angular_mean_rho,
    blowup_exponent,
    evaluate_theta,
    evaluate_theta_with_tail,
    series_solution,
)
from .levy_driver import (
    EtaSequence,
    LevyDriver,
    driver_from_dict,
    eta_from_json_file,
    eta_sequence,
    validate_eta,
)
from .loewner_system import (
    CharPolyRecurrence,
    LoewnerMatrices,
    Variant,
    build_matrices,
    charpoly_coefficients,
    charpoly_eval,
    recurrence_coefficients,
    truncation_order,
)
from .spectral_solver import (
    Beta2Report,
    MaxRealRoot,
    SpectrumResult,
    beta2,
    descartes_positive_count,
    eigen_spectrum,
    max_real_root_detailed,
)

__version__ = "0.1.0"

__all__ = [
    "BETA_SUP",
    "Beta2Report",
    "BlowupFit",
    "CapacityError",
    "CharPolyRecurrence",
    "DegeneracyError",
    "DomainError",
    "EtaSequence",
    "FuchsianSystem",
    "GeometricLadder",
    "HypergeometricParams",
    "LLESpecError",
    "LevyDriver",
    "LoewnerMatrices",
    "MaxRealRoot",
    "NumericalError",
    "PoleError",
    "PrecisionError",
    "RealizabilityWarning",
    "SizeError",
    "SpectrumResult",
    "Theorem1Values",
    "ThetaSeries",
    "TruncationNearMissWarning",
    "ValidationError",
    "Variant",
    "analytic_null_vector",
    "angular_mean_rho",
    "beta2",
    "beta2_unbounded_n2",
    "blowup_exponent",
    "build_matrices",
    "charpoly_coefficients",
    "charpoly_eval",
    "descartes_positive_count",
    "driver_from_dict",
    "eigen_spectrum",
    "eta_from_json_file",
    "eta_sequence",
    "evaluate_theta",
    "evaluate_theta_with_tail",
    "gauss_2f1",
    "gauss_at_one",
    "max_real_root_detailed",
    "perturbed_n6_driver",
    "perturbed_n6_pairs",
    "recurrence_coefficients",
    "series_solution",
    "theorem1_solution",
    "truncated_sle_spectrum",
    "truncation_order",
    "validate_eta",
]
