import concurrent.futures
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from magcal import experiments, fileio, ml
from magcal.experiments import (
    perturb_initial,
    run_monte_carlo,
    run_sensitivity,
    run_timing,
)
from magcal.linalg import unpack_upper
from magcal.simulate import default_config
from magcal.types import CalibrationParams

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def small_config():
    return default_config(n=120, seed=0)


class TestPerturbInitial:
    def _params(self):
        return CalibrationParams(
            shape=unpack_upper([2.0, 0.3, -0.2, 1.5, 0.1, 1.8]),
            offset=np.array([0.5, 1.7, 2.6]),
        )

    def test_zero_alpha_is_identity(self):
        p = self._params()
        q = perturb_initial(p, 0.0, seed=1)
        np.testing.assert_array_equal(q.shape, p.shape)
        np.testing.assert_array_equal(q.offset, p.offset)

    def test_entries_move_by_exactly_alpha(self):
        p = self._params()
        q = perturb_initial(p, 0.05, seed=2)
        ratio = q.shape[0, 0] / p.shape[0, 0]
        assert ratio in (pytest.approx(1.05), pytest.approx(0.95))
        for i, j in zip(*np.triu_indices(3)):
            r = q.shape[i, j] / p.shape[i, j]
            assert min(abs(r - 1.05), abs(r - 0.95)) < 1e-12
        for k in range(3):
            r = q.offset[k] / p.offset[k]
            assert min(abs(r - 1.05), abs(r - 0.95)) < 1e-12

    def test_structural_zeros_untouched(self):
        q = perturb_initial(self._params(), 0.3, seed=3)
        np.testing.assert_array_equal(np.tril(q.shape, -1), 0.0)

    def test_diagonal_stays_positive_below_full_perturbation(self):
        for seed in range(20):
            q = perturb_initial(self._params(), 0.99, seed=seed)
            assert np.all(np.diag(q.shape) > 0)

    def test_deterministic_per_seed(self):
        a = perturb_initial(self._params(), 0.05, seed=7)
        b = perturb_initial(self._params(), 0.05, seed=7)
        np.testing.assert_array_equal(a.shape, b.shape)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            perturb_initial(self._params(), -0.1, seed=0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            perturb_initial(self._params(), alpha, seed=0)


class TestSolve:
    def test_solvers_looked_up_at_call_time(self, small_config, monkeypatch):
        # Rebinding experiments.solve_nm/solve_ml reaches every study solve,
        # as perfbench's tracer relies on.
        calls = []
        for name in ("solve_nm", "solve_ml"):
            real = getattr(experiments, name)

            def counted(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(experiments, name, counted)
        run_monte_carlo(small_config, runs=1, seed=1)
        run_sensitivity(small_config, [0.0], runs=1, seed=1)
        run_timing(small_config, [60], repeats=1)
        assert calls == ["solve_nm", "solve_ml"] * 2 + ["solve_nm"] * 2 + ["solve_ml"] * 2


class TestMonteCarlo:
    def test_deterministic_per_master_seed(self, small_config):
        a = run_monte_carlo(small_config, runs=3, seed=5)
        b = run_monte_carlo(small_config, runs=3, seed=5)
        assert json.dumps(fileio.monte_carlo_summary(a), sort_keys=True) == json.dumps(
            fileio.monte_carlo_summary(b), sort_keys=True
        )
        for ra, rb in zip(a.runs, b.runs):
            assert ra.nm.metrics.as_tuple() == rb.nm.metrics.as_tuple()
            assert ra.ml.metrics.as_tuple() == rb.ml.metrics.as_tuple()

    def test_parallel_matches_serial(self, small_config):
        serial = run_monte_carlo(small_config, runs=4, seed=6, workers=1)
        parallel = run_monte_carlo(small_config, runs=4, seed=6, workers=2)
        for rs, rp in zip(serial.runs, parallel.runs):
            assert rs.nm.metrics.as_tuple() == rp.nm.metrics.as_tuple()
            assert rs.ml.metrics.as_tuple() == rp.ml.metrics.as_tuple()

    def test_noise_free_run_recovers_exactly(self):
        config = default_config(sigma=0.0, n=120)
        result = run_monte_carlo(config, runs=1, seed=0)
        run = result.runs[0]
        assert max(run.nm.metrics.as_tuple()) <= 1e-4
        assert max(run.ml.metrics.as_tuple()) <= 1e-4

    def test_aggregate_recomputable_from_rows(self, small_config):
        result = run_monte_carlo(small_config, runs=5, seed=8)
        agg = result.aggregate("nm")
        values = np.array([r.nm.metrics.scale_pct for r in result.runs])
        assert agg["scale_pct"]["mean"] == pytest.approx(values.mean())
        assert agg["scale_pct"]["std"] == pytest.approx(values.std(ddof=1))

    def test_non_finite_ml_step_becomes_failed_row(self, small_config, monkeypatch):
        monkeypatch.setattr(ml, "_step_block", lambda g_head, g_m, *rest: np.full(
            9 + 4 * len(g_m), np.inf))
        result = run_monte_carlo(small_config, runs=1, seed=5)
        assert result.failure_count("ml") == 1
        assert result.failure_count("nm") == 0

    def test_run_count_validated(self, small_config):
        with pytest.raises(ValueError):
            run_monte_carlo(small_config, runs=0, seed=1)

    def test_pool_capped_at_job_count_and_workers_validated(self, small_config, monkeypatch):
        sizes = []

        class SerialPool:
            """Records the pool size it is asked for and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # _map imports the pool class only when it needs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        serial = run_monte_carlo(small_config, runs=2, seed=6)
        pooled = run_monte_carlo(small_config, runs=2, seed=6, workers=5000)
        assert sizes == [2]
        assert [r.ml.metrics for r in pooled.runs] == [r.ml.metrics for r in serial.runs]
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                run_monte_carlo(small_config, runs=2, seed=6, workers=workers)
        assert sizes == [2]


class TestSensitivity:
    def test_zero_alpha_never_diverges(self, small_config):
        result = run_sensitivity(small_config, [0.0], runs=2, seed=1)
        assert result.nm_divergences == (0,)
        assert result.ml_divergences == (0,)

    def test_deterministic(self, small_config):
        a = run_sensitivity(small_config, [0.0, 0.02], runs=2, seed=2)
        b = run_sensitivity(small_config, [0.0, 0.02], runs=2, seed=2)
        assert a == b

    def test_parallel_matches_serial(self, small_config):
        serial = run_sensitivity(small_config, [0.02, 0.06], runs=2, seed=3, workers=1)
        parallel = run_sensitivity(small_config, [0.02, 0.06], runs=2, seed=3, workers=2)
        assert parallel == serial

    @pytest.mark.parametrize("config", [default_config(n=1000), default_config(sigma=0.01)],
                             ids=["n_1000", "sigma_0.01"])
    def test_zero_alpha_never_diverges_at_other_n_and_sigma(self, config):
        result = run_sensitivity(config, [0.0], runs=2, seed=1)
        assert result.nm_divergences == (0,)
        assert result.ml_divergences == (0,)

    def test_default_thresholds_are_three_expected_optima(self):
        result = run_sensitivity(default_config(), [0.0], runs=1)
        assert result.nm_threshold == pytest.approx(0.0340, abs=5e-5)
        assert result.ml_threshold == pytest.approx(3 * (300 - 9) * 0.003**2)

    def test_non_finite_alpha_rejected_before_any_run(self, small_config, monkeypatch):
        monkeypatch.setattr(experiments, "_run", lambda job: pytest.fail("ran a job"))
        with pytest.raises(ValueError, match="alpha"):
            run_sensitivity(small_config, [0.01, float("nan")], runs=1)

    def test_overflowing_start_counts_as_divergence(self):
        # At alpha 1e300 the initial ml field directions overflow; that must give
        # diverged rows, not a warning (the suite turns warnings into errors).
        result = run_sensitivity(default_config(), [1e300], runs=2)
        assert result.nm_divergences == (2,)
        assert result.ml_divergences == (2,)

    def test_empty_alphas_rejected(self, small_config):
        with pytest.raises(ValueError, match="alphas"):
            run_sensitivity(small_config, [], runs=1)

    def test_noise_free_scenario_rejected(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            run_sensitivity(default_config(sigma=0.0, n=120), [0.01], runs=1)


class TestTiming:
    def test_rows_structure(self, small_config):
        rows = run_timing(small_config, [60, 120], repeats=1, methods=("nm", "ml"))
        assert [(r.n, r.method) for r in rows] == [
            (60, "nm"), (60, "ml"), (120, "nm"), (120, "ml")
        ]
        for row in rows:
            assert row.median_seconds > 0
            assert row.iterations >= 1
            assert row.seconds_per_iteration <= row.median_seconds

    def test_empty_n_values_rejected(self, small_config):
        with pytest.raises(ValueError):
            run_timing(small_config, [], repeats=1)

    def test_empty_methods_rejected(self, small_config):
        with pytest.raises(ValueError, match="methods"):
            run_timing(small_config, [60], repeats=1, methods=())

    def test_unknown_method_rejected(self, small_config):
        with pytest.raises(ValueError):
            run_timing(small_config, [40], repeats=1, methods=("qr",))

    def test_unknown_method_rejected_before_any_solve(self, small_config, monkeypatch):
        monkeypatch.setattr(experiments, "solve", lambda *a: pytest.fail("solved"))
        with pytest.raises(ValueError, match="unknown method 'xx'"):
            run_timing(small_config, [40], repeats=1, methods=("nm", "xx"))

    def test_nm_time_grows_about_linearly(self):
        # Doubling N from a base where per-sample work dominates the
        # N-independent assembly overhead: the ratio must sit between
        # flat (1) and quadratic (4). Timed in a fresh child with one BLAS
        # thread: left to itself, OpenBLAS goes to a second thread on the
        # larger products at 20k only, which alone can push the ratio past 3.
        code = (
            "from magcal import default_config, run_timing\n"
            "rows = run_timing(default_config(), [10_000, 20_000], repeats=5, methods=('nm',))\n"
            "print(rows[1].seconds_per_iteration / rows[0].seconds_per_iteration)\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        ratio = float(child.stdout)
        assert 1.3 <= ratio <= 3.2

    def test_block_ml_cost_is_small_multiple_of_nm(self):
        rows = run_timing(default_config(), [300, 1000], repeats=3, methods=("nm", "ml"))
        per_iter = {(r.n, r.method): r.seconds_per_iteration for r in rows}
        for n in (300, 1000):
            assert per_iter[(n, "ml")] / per_iter[(n, "nm")] <= 60.0

    def test_dense_oracle_markedly_slower_than_block_at_n_1000(self):
        import time

        from kkt_oracle import step_dense
        from magcal.initfit import fit_initial
        from magcal.ml import initial_ml_state
        from magcal.simulate import default_truth, simulate, sweep_trajectory

        ds = simulate(default_truth(), sweep_trajectory(1000), seed=0)
        state = initial_ml_state(fit_initial(ds)[0], ds.samples)
        ml._step_block(*ml._assemble(state, ds.samples))  # warm-up
        start = time.perf_counter()
        ml._step_block(*ml._assemble(state, ds.samples))
        block_s = time.perf_counter() - start
        start = time.perf_counter()
        step_dense(*ml._assemble(state, ds.samples))
        dense_s = time.perf_counter() - start
        assert dense_s > 10.0 * block_s
