"""Acceptance suite: one test per release criterion, at pinned tolerances.

The conftest terminal hook prints one PASS/FAIL line per criterion after
the run. Statistical criteria use the library's default master seeds.
"""

import json
import time

import numpy as np

from conftest import oracle_true_params
from fd import fd_gradient, fd_jacobian
from kkt_oracle import ml_kkt_system, ml_objective, step_dense
from magcal import ml
from magcal.cli import main as cli_main
from magcal.experiments import run_timing
from magcal.initfit import fit_initial
from magcal.linalg import unpack_upper
from magcal.metrics import error_metrics
from magcal.ml import MLState, solve_ml
from magcal.nm import solve_nm
from magcal.simulate import default_config, default_truth, simulate, sweep_trajectory
from magcal.types import CalibrationParams
from nm_reference import nm_derivatives, nm_objective
from packing import params_from_vector, stacked, state_from_vector, state_to_vector


def test_1_noise_free_exact_recovery():
    start = time.perf_counter()
    truth = default_truth(sigma=0.0)
    r_true, h_true = oracle_true_params(truth.soft_iron, truth.hard_iron)
    dataset = simulate(truth, sweep_trajectory(300), seed=0)

    init = fit_initial(dataset)[0]
    np.testing.assert_allclose(init.shape, r_true, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(init.offset, h_true, rtol=1e-6)

    oracle = CalibrationParams(r_true, h_true)
    nm_final = solve_nm(dataset, init).final_params
    assert max(error_metrics(nm_final, oracle).as_tuple()) <= 1e-6

    ml_final = solve_ml(dataset, init).final_params
    assert max(error_metrics(ml_final, oracle).as_tuple()) <= 1e-6

    assert time.perf_counter() - start < 1.0


def test_2_analytic_derivatives_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    for _ in range(100):
        samples = rng.normal(0, 1.0, (20, 3)) + rng.normal(0, 2.0, 3)
        x = np.concatenate(
            [rng.uniform(0.5, 1.5, 1), rng.normal(0, 0.3, 2),
             rng.uniform(0.5, 1.5, 1), rng.normal(0, 0.3, 1),
             rng.uniform(0.5, 1.5, 1), rng.normal(0, 1.0, 3)]
        )
        params = params_from_vector(x)
        grad, hess = nm_derivatives(params, samples)
        grad_fd = fd_gradient(
            lambda v: nm_objective(params_from_vector(v), samples), x
        )
        assert np.max(np.abs(grad - grad_fd)) / (1 + np.max(np.abs(grad_fd))) <= 1e-6
        hess_fd = fd_jacobian(
            lambda v: nm_derivatives(params_from_vector(v), samples)[0], x
        )
        assert np.max(np.abs(hess - hess_fd)) / (1 + np.max(np.abs(hess_fd))) <= 1e-4

    n = 5
    for _ in range(100):
        samples = rng.normal(0, 1.0, (n, 3))
        state = MLState(
            t_matrix=unpack_upper(
                np.concatenate([rng.uniform(0.7, 1.3, 1), rng.normal(0, 0.2, 2),
                                rng.uniform(0.7, 1.3, 1), rng.normal(0, 0.2, 1),
                                rng.uniform(0.7, 1.3, 1)])
            ),
            offset=rng.normal(0, 1.5, 3),
            field_dirs=rng.normal(0, 1.0, (n, 3)),
            lagrange=rng.normal(0, 0.5, n),
        )
        grad, _ = ml_kkt_system(*ml._assemble(*stacked(state, samples)))
        grad_fd = fd_gradient(
            lambda v: ml_objective(state_from_vector(v, n), samples)[1],
            state_to_vector(state),
        )
        assert np.max(np.abs(grad - grad_fd)) / (1 + np.max(np.abs(grad_fd))) <= 1e-6

    assert time.perf_counter() - start < 30.0


def test_3_monte_carlo_accuracy(monte_carlo_50):
    result, elapsed = monte_carlo_50
    assert result.failure_count("nm") == 0
    assert result.failure_count("ml") == 0

    nm = result.aggregate("nm")
    ml = result.aggregate("ml")
    assert 0.03 <= nm["scale_pct"]["mean"] <= 0.15
    assert 0.03 <= ml["scale_pct"]["mean"] <= 0.14
    assert ml["scale_pct"]["mean"] <= nm["scale_pct"]["mean"]
    assert ml["ortho_deg"]["mean"] <= nm["ortho_deg"]["mean"]
    assert nm["hard_iron_gauss"]["mean"] <= 0.0005
    assert ml["hard_iron_gauss"]["mean"] <= 0.0005

    assert elapsed < 120.0


def test_4_convergence_speed(monte_carlo_50):
    result, _ = monte_carlo_50
    for run in result.runs:
        assert run.nm.converged and run.nm.iterations <= 8
        assert run.ml.converged and run.ml.iterations <= 8
        assert run.nm.final_objective < 0.018
        assert run.ml.final_objective < 0.004


def test_5_divergence_pattern_under_initial_perturbation(sensitivity_50):
    # The default study: alphas 0.01-0.07, 50 runs each, DEFAULT_SENSITIVITY_SEED.
    result, elapsed = sensitivity_50
    nm = result.nm_divergences
    ml = result.ml_divergences

    assert ml[:5] == (0, 0, 0, 0, 0)
    assert nm[0] >= 1
    assert nm[2] >= 25
    assert nm[5] == 50 and nm[6] == 50
    assert all(nm[i] <= nm[i + 1] for i in range(6))
    assert all(ml[i] <= ml[i + 1] for i in range(6))
    assert all(ml[i] <= nm[i] for i in range(7))

    assert elapsed < 300.0


def test_6_block_elimination_matches_dense():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    for n in (5, 10, 30):
        state = MLState(
            t_matrix=unpack_upper(
                np.concatenate([rng.uniform(0.7, 1.3, 1), rng.normal(0, 0.2, 2),
                                rng.uniform(0.7, 1.3, 1), rng.normal(0, 0.2, 1),
                                rng.uniform(0.7, 1.3, 1)])
            ),
            offset=rng.normal(0, 1.0, 3),
            field_dirs=rng.normal(0, 1.0, (n, 3)),
            lagrange=rng.normal(0, 0.5, n),
        )
        samples = rng.normal(0, 1.0, (n, 3))
        assembly = ml._assemble(*stacked(state, samples))
        block = ml._step_block(*assembly)[0]
        dense = step_dense(*assembly)[0]
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(block - dense)) <= 1e-9 * scale
    assert time.perf_counter() - start < 10.0


def test_7_unit_norm_constraints_at_convergence():
    scenarios = [
        (default_truth(), sweep_trajectory(300), 1),
        (default_truth(), sweep_trajectory(300), 2),
        (default_truth(sigma=0.0), sweep_trajectory(300), 0),
        (default_truth(), sweep_trajectory(300, tilt_deg=5.0), 3),
        (default_truth(sigma=0.001), sweep_trajectory(150), 4),
    ]
    for truth, trajectory, seed in scenarios:
        dataset = simulate(truth, trajectory, seed)
        report = solve_ml(dataset, fit_initial(dataset)[0])
        assert report.converged
        violations = np.abs(
            np.einsum("ij,ij->i", report.final_state.field_dirs,
                      report.final_state.field_dirs) - 1.0
        )
        assert violations.max() <= 1e-8


def test_8_timing_trend_and_weak_coverage_protocol(tmp_path):
    # Per-iteration cost of the block-eliminated solver may grow at most
    # linearly in N (factor 2 slack distinguishes linear from quadratic).
    rows = run_timing(default_config(), [100, 300, 1000], repeats=5, methods=("ml",))
    per_iter = {row.n: row.seconds_per_iteration for row in rows}
    assert per_iter[300] / per_iter[100] <= 2.0 * (300 / 100)
    assert per_iter[1000] / per_iter[100] <= 2.0 * (1000 / 100)

    # Cross-application of weak-coverage estimates, end to end through the
    # command line: calibrations from a nearly-level sweep are scored
    # against the rich dataset's estimates; the constrained solver's scale
    # error must come out strictly smaller.
    rich_csv = tmp_path / "rich.csv"
    flat_csv = tmp_path / "flat.csv"
    assert cli_main(["simulate", "--out", str(rich_csv), "--seed", "124"]) == 0
    assert cli_main(["simulate", "--out", str(flat_csv), "--seed", "9124",
                     "--tilt", "5"]) == 0
    rich_rep = tmp_path / "rich.json"
    flat_rep = tmp_path / "flat.json"
    assert cli_main(["calibrate", "--input", str(rich_csv), "--out", str(rich_rep)]) == 0
    assert cli_main(["calibrate", "--input", str(flat_csv), "--out", str(flat_rep)]) == 0

    cross = {}
    for method in ("nm", "ml"):
        out = tmp_path / f"cross_{method}.json"
        assert cli_main([
            "metrics",
            "--estimate", str(flat_rep), "--method", method,
            "--truth", str(rich_rep), "--truth-method", method,
            "--out", str(out),
        ]) == 0
        cross[method] = json.loads(out.read_text())
    assert cross["ml"]["scale_pct"] < cross["nm"]["scale_pct"]
