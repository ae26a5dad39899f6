"""Attitude-independent three-axis magnetometer calibration.

Two estimators of the soft-iron/hard-iron model y = S C m + h + e from
raw measurements alone: a fast norm-residual (quartic) solver and the
constrained maximum-likelihood solver it approximates, both seeded by a
linear ellipsoid fit. Includes a synthetic-data simulator, error metrics,
and reproducible Monte-Carlo, sensitivity, and timing studies.
"""

# Set before the submodule imports: fileio reads it at import time.
__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    DegenerateDataError,
    DivergenceError,
    InsufficientDataError,
    SolverFailure,
)
from .experiments import (
    MonteCarloResult,
    MonteCarloRun,
    SensitivityResult,
    TimingRow,
    perturb_initial,
    run_monte_carlo,
    run_sensitivity,
    run_timing,
)
from .initfit import (
    fit_ellipsoid,
    fit_initial,
    initial_ml_state,
    initial_params,
)
from .linalg import (
    attitude_from_euler,
    cholesky_upper,
    decompose_scale_ortho,
    invert_upper,
    pack_upper,
    qr_decompose,
    unpack_upper,
)
from .metrics import apply_calibration, error_metrics, params_from_ml
from .ml import ml_objective, solve_ml
from .nm import nm_gradient_hessian, nm_objective, solve_nm
from .simulate import (
    SimConfig,
    default_config,
    default_truth,
    simulate,
    sweep_trajectory,
)
from .types import (
    CalibrationParams,
    Dataset,
    EllipsoidCoeffs,
    ErrorMetrics,
    MLState,
    SensorTruth,
    SolveOptions,
    SolveReport,
)

__all__ = [
    "CalibrationError",
    "CalibrationParams",
    "Dataset",
    "DegenerateDataError",
    "DivergenceError",
    "EllipsoidCoeffs",
    "ErrorMetrics",
    "InsufficientDataError",
    "MLState",
    "MonteCarloResult",
    "MonteCarloRun",
    "SensitivityResult",
    "SensorTruth",
    "SimConfig",
    "SolveOptions",
    "SolveReport",
    "SolverFailure",
    "TimingRow",
    "apply_calibration",
    "attitude_from_euler",
    "cholesky_upper",
    "decompose_scale_ortho",
    "default_config",
    "default_truth",
    "error_metrics",
    "fit_ellipsoid",
    "fit_initial",
    "initial_ml_state",
    "initial_params",
    "invert_upper",
    "ml_objective",
    "nm_gradient_hessian",
    "nm_objective",
    "pack_upper",
    "params_from_ml",
    "perturb_initial",
    "qr_decompose",
    "run_monte_carlo",
    "run_sensitivity",
    "run_timing",
    "simulate",
    "solve_ml",
    "solve_nm",
    "sweep_trajectory",
    "unpack_upper",
]
