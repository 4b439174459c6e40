"""Minimum-error discrimination of pure quantum states via ancilla couplings.

States enter as Gram matrices with priors; the package computes optimal
measurement couplings (closed forms where they exist, numerical
optimization elsewhere), realizes them as explicit joint unitaries, and
validates everything against square-root-measurement oracles and Monte
Carlo simulation.
"""

from .closed_form import (
    BinarySolution,
    binary_constraint_residual,
    binary_individual_errors,
    helstrom_bound,
    srm_error_circulant,
    srm_error_general,
    symmetric_min_error,
    symmetric_p_quadratic,
)
from .coupling import (
    CouplingMatrix,
    DilationModel,
    binary_optimal_coupling,
    build_dilation,
    circulant_optimal_coupling,
    coupling_from_unitary,
    dilation_residuals,
    error_probability,
    feasibility_residual,
    post_measurement_state,
    success_probability,
    symmetric_optimal_coupling,
)
from .ensembles import (
    Ensemble,
    SpectralFactor,
    ensemble_from_json,
    ensemble_to_json,
    gram_binary,
    gram_psk,
    gram_symmetric,
    spectral_factor,
)
from .errors import (
    InfeasibleCouplingError,
    InfeasibleSequentialError,
    InvalidIsometryError,
    NoSolutionError,
    NotCirculantError,
    QsdError,
    UndefinedConditionalError,
    UnsupportedPriorsError,
    ValidationError,
)
from .optimizer import (
    OptimizeResult,
    PskParams,
    dual_gap,
    optimal_coupling,
    optimize_general,
    psk3_solve,
    psk4_solve,
)
from .simulate import (
    SimulationReport,
    TwoStageParams,
    TwoStageResult,
    check_against_dilation,
    preservation_residual,
    run_monte_carlo,
    two_stage_binary,
)

__version__ = "0.1.0"

__all__ = [
    "BinarySolution",
    "CouplingMatrix",
    "DilationModel",
    "Ensemble",
    "InfeasibleCouplingError",
    "InfeasibleSequentialError",
    "InvalidIsometryError",
    "NoSolutionError",
    "NotCirculantError",
    "OptimizeResult",
    "PskParams",
    "QsdError",
    "SimulationReport",
    "SpectralFactor",
    "TwoStageParams",
    "TwoStageResult",
    "UndefinedConditionalError",
    "UnsupportedPriorsError",
    "ValidationError",
    "binary_constraint_residual",
    "binary_individual_errors",
    "binary_optimal_coupling",
    "build_dilation",
    "check_against_dilation",
    "circulant_optimal_coupling",
    "coupling_from_unitary",
    "dilation_residuals",
    "dual_gap",
    "ensemble_from_json",
    "ensemble_to_json",
    "error_probability",
    "feasibility_residual",
    "gram_binary",
    "gram_psk",
    "gram_symmetric",
    "helstrom_bound",
    "optimal_coupling",
    "optimize_general",
    "post_measurement_state",
    "preservation_residual",
    "psk3_solve",
    "psk4_solve",
    "run_monte_carlo",
    "spectral_factor",
    "srm_error_circulant",
    "srm_error_general",
    "success_probability",
    "symmetric_min_error",
    "symmetric_optimal_coupling",
    "symmetric_p_quadratic",
    "two_stage_binary",
]
