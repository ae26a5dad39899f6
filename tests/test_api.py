import magcal

PUBLIC_NAMES = [
    "CalibrationError",
    "CalibrationParams",
    "Dataset",
    "DegenerateDataError",
    "DivergenceError",
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
    "fit_initial",
    "initial_ml_state",
    "perturb_initial",
    "run_monte_carlo",
    "run_sensitivity",
    "run_timing",
    "simulate",
    "solve_ml",
    "solve_nm",
    "sweep_trajectory",
]

INTERNAL_NAMES = [
    "EllipsoidCoeffs",
    "fit_ellipsoid",
    "initial_params",
    "ml_objective",
    "nm_gradient_hessian",
    "nm_objective",
    "params_from_ml",
]


def test_public_surface_is_pinned():
    assert sorted(magcal.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(magcal, name) is not None


def test_solver_internals_stay_in_their_modules():
    # Reached through fit_initial and SolveReport.final_params instead.
    for name in INTERNAL_NAMES:
        assert not hasattr(magcal, name)
