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
    SensitivityResult,
    run_monte_carlo,
    run_sensitivity,
    run_timing,
)
from .initfit import fit_initial
from .metrics import apply_calibration, error_metrics
from .ml import solve_ml
from .nm import solve_nm
from .simulate import SimConfig, default_config, default_truth, simulate, sweep_trajectory
from .types import CalibrationParams, Dataset, ErrorMetrics, SensorTruth, SolveOptions, SolveReport

__all__ = [
    "CalibrationError",
    "CalibrationParams",
    "Dataset",
    "DegenerateDataError",
    "DivergenceError",
    "ErrorMetrics",
    "InsufficientDataError",
    "MonteCarloResult",
    "SensitivityResult",
    "SensorTruth",
    "SimConfig",
    "SolveOptions",
    "SolveReport",
    "SolverFailure",
    "apply_calibration",
    "default_config",
    "default_truth",
    "error_metrics",
    "fit_initial",
    "run_monte_carlo",
    "run_sensitivity",
    "run_timing",
    "simulate",
    "solve_ml",
    "solve_nm",
    "sweep_trajectory",
]
