import os
import pathlib
import subprocess
import sys

import magcal

PUBLIC_NAMES = [
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

INTERNAL_NAMES = [
    "EllipsoidCoeffs",
    "MLState",
    "error_metrics_batch",
    "fit_ellipsoid",
    "fit_initial_batch",
    "initial_ml_state",
    "initial_params",
    "ml_objective",
    "nm_gradient_hessian",
    "nm_objective",
    "params_from_ml",
    "perturb_initial",
]


def test_public_surface_is_pinned():
    assert sorted(magcal.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(magcal, name) is not None


def test_solver_internals_stay_in_their_modules():
    # Reached through fit_initial, solve_ml and a SolveReport's final_params and final_state.
    for name in INTERNAL_NAMES:
        assert not hasattr(magcal, name)


def test_library_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: importing magcal, calibrating and running a
    # study must not load it.
    data, report = str(tmp_path / "data.csv"), str(tmp_path / "report.json")
    code = f"""
import sys
import magcal
from magcal.cli import main
data, report = {data!r}, {report!r}
assert main(["simulate", "--seed", "3", "--out", data]) == 0
assert main(["calibrate", "--input", data, "--method", "both", "--out", report]) == 0
magcal.run_monte_carlo(magcal.default_config(n=100), runs=2, seed=1)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip().splitlines()[-1] == "[]"
