import magcal

PUBLIC_NAMES = [
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
    "fit_ellipsoid",
    "fit_initial",
    "initial_ml_state",
    "initial_params",
    "ml_objective",
    "nm_gradient_hessian",
    "nm_objective",
    "params_from_ml",
    "perturb_initial",
    "run_monte_carlo",
    "run_sensitivity",
    "run_timing",
    "simulate",
    "solve_ml",
    "solve_nm",
    "sweep_trajectory",
]


def test_public_surface_is_pinned():
    assert sorted(magcal.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(magcal, name) is not None
