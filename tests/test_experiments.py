import concurrent.futures
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from magcal import experiments, fileio, ml
from magcal.errors import DegenerateDataError
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
        # Rebinding experiments.solve_nm_batch/solve_ml_batch reaches every study
        # solve, and solve_nm/solve_ml every timing solve, as perfbench's tracer
        # relies on.
        calls = []
        for name in ("solve_nm", "solve_ml", "solve_nm_batch", "solve_ml_batch"):
            real = getattr(experiments, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(experiments, name, counted)
        run_monte_carlo(small_config, runs=1, seed=1)
        run_sensitivity(small_config, [0.0], runs=1, seed=1)
        # Each study solves its one batch by each method.
        assert calls == ["solve_nm_batch", "solve_ml_batch"] * 2
        calls.clear()
        run_timing(small_config, [60], repeats=1)
        # run_timing warms up each method, then times them in turn.
        assert calls == ["solve_nm", "solve_ml"] * 2


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
            (len(g_m), 9 + 4 * g_m.shape[1]), np.inf))
        result = run_monte_carlo(small_config, runs=1, seed=5)
        assert result.failure_count("ml") == 1
        assert result.failure_count("nm") == 0

    def test_zero_diagonal_estimate_stops_the_study(self, small_config, monkeypatch):
        # The stacked scorer raises as error_metrics does, so a study does not aggregate inf.
        solve_ml_batch = experiments.solve_ml_batch

        def zero_diagonal(samples, inits, **kwargs):
            reports = solve_ml_batch(samples, inits, **kwargs)
            bad = CalibrationParams(np.diag([1.0, 0.0, 1.0]), reports[1].final_params.offset)
            reports[1] = dataclasses.replace(reports[1], final_params=bad)
            return reports

        monkeypatch.setattr(experiments, "solve_ml_batch", zero_diagonal)
        with pytest.raises(ValueError, match="zero diagonal"):
            run_monte_carlo(small_config, runs=3, seed=1)

    def test_run_count_validated(self, small_config):
        with pytest.raises(ValueError):
            run_monte_carlo(small_config, runs=0, seed=1)

    def test_every_fit_failing_gives_nan_aggregates(self):
        # Below the fit's 10 samples every run fails before a solve.
        result = run_monte_carlo(default_config(n=9), runs=2, seed=1)
        for method in ("nm", "ml"):
            assert result.failure_count(method) == 2
            aggregate = result.aggregate(method)
            assert set(aggregate) == set(experiments.METRIC_NAMES)
            assert all(np.isnan(v) for stats in aggregate.values() for v in stats.values())

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
        # A job holds 8192 // 120 = 68 runs of this scenario, so 18 runs make one
        # job and start no pool. More workers split them into as many jobs as
        # there are workers, and no more jobs than runs.
        serial = run_monte_carlo(small_config, runs=18, seed=6)
        pooled = run_monte_carlo(small_config, runs=18, seed=6, workers=5000)
        run_monte_carlo(small_config, runs=3, seed=6, workers=2)
        assert sizes == [18, 2]
        assert [r.ml.metrics for r in pooled.runs] == [r.ml.metrics for r in serial.runs]
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                run_monte_carlo(small_config, runs=2, seed=6, workers=workers)
        assert sizes == [18, 2]


class TestBatches:
    def test_runs_fill_chunk_rows_in_order(self):
        runs = list(range(50))
        scene = experiments._scene(default_config())
        jobs = experiments._batches(scene, None, runs, workers=1)
        assert [len(job[2]) for job in jobs] == [27, 23]  # 8192 // 300 = 27 runs a job
        assert [run for job in jobs for run in job[2]] == runs
        # Two workers get at least two jobs.
        assert [len(job[2]) for job in experiments._batches(scene, None, runs[:21], 2)] == [11, 10]
        assert [len(job[2]) for job in experiments._batches(scene, None, runs, 2)] == [25, 25]
        big = experiments._batches(experiments._scene(default_config(n=9000)), None, runs[:3], 1)
        assert [len(job[2]) for job in big] == [1, 1, 1]

    @pytest.fixture
    def stacks(self, monkeypatch):
        """The (solver, stack size) of every study solve, in call order."""
        stacks = []
        for name in ("solve_nm_batch", "solve_ml_batch"):
            real = getattr(experiments, name)

            def counted(samples, inits, _real=real, _name=name, **kwargs):
                stacks.append((_name, len(samples)))
                return _real(samples, inits, **kwargs)

            monkeypatch.setattr(experiments, name, counted)
        return stacks

    def test_sensitivity_job_is_one_nm_stack_and_one_ml_stack(self, stacks):
        run_sensitivity(default_config(), [0.01 * k for k in range(1, 8)], runs=3)
        assert stacks == [("solve_nm_batch", 21), ("solve_ml_batch", 21)]

    def test_monte_carlo_jobs_are_one_nm_stack_then_one_ml_stack_each(self, stacks):
        run_monte_carlo(default_config(), runs=50, seed=experiments.DEFAULT_MC_SEED)
        assert stacks == [("solve_nm_batch", 27), ("solve_ml_batch", 27),
                          ("solve_nm_batch", 23), ("solve_ml_batch", 23)]

    def test_job_whose_fits_all_fail_solves_nothing(self, small_config, stacks, monkeypatch):
        monkeypatch.setattr(experiments, "fit_initial_batch",
                            lambda samples, scatter: [DegenerateDataError("test")] * len(samples))
        result = run_monte_carlo(small_config, runs=3, seed=4)
        assert stacks == []
        failed = "init-fit failed: test"
        assert [(r.nm.error, r.ml.error) for r in result.runs] == [(failed, failed)] * 3

    def test_failed_fit_leaves_the_other_runs_of_its_batch(self, small_config, monkeypatch):
        clean = run_monte_carlo(small_config, runs=5, seed=4)
        fit = experiments.fit_initial_batch

        def flaky(samples, scatter):
            fits = fit(samples, scatter)
            fits[1] = fits[3] = DegenerateDataError("test")
            return fits

        monkeypatch.setattr(experiments, "fit_initial_batch", flaky)
        result = run_monte_carlo(small_config, runs=5, seed=4)
        assert [r.nm.error for r in result.runs] == [None, "init-fit failed: test", None,
                                                     "init-fit failed: test", None]
        for i in (0, 2, 4):
            assert result.runs[i] == clean.runs[i]

    def test_parallel_matches_serial_over_several_batches(self, small_config):
        serial = run_monte_carlo(small_config, runs=18, seed=6, workers=1)
        parallel = run_monte_carlo(small_config, runs=18, seed=6, workers=2)
        assert parallel.runs == serial.runs


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

    def test_run_count_validated(self, small_config):
        with pytest.raises(ValueError, match="runs must be an integer >= 1, got 0"):
            run_sensitivity(small_config, [0.01], runs=0)

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
            assert 0 < row.min_seconds <= row.median_seconds
            assert row.iterations >= 1
            assert row.seconds_per_iteration <= row.median_seconds

    def test_empty_n_values_rejected(self, small_config):
        with pytest.raises(ValueError):
            run_timing(small_config, [], repeats=1)

    def test_repeat_count_validated(self, small_config):
        with pytest.raises(ValueError, match="repeats must be an integer >= 1, got 0"):
            run_timing(small_config, [60], repeats=0)

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

    def test_methods_are_timed_in_turn(self, small_config, monkeypatch):
        # One warm-up per method, then the repeats round-robin, at each N.
        calls = []
        monkeypatch.setattr(experiments, "solve", lambda method, *a: calls.append(method)
                            or SimpleNamespace(iterations={"nm": 2, "ml": 3}[method]))
        rows = run_timing(small_config, [40, 60], repeats=3, methods=("nm", "ml"))
        assert calls == ["nm", "ml"] * 8
        assert [(r.n, r.method, r.iterations) for r in rows] == [
            (40, "nm", 2), (40, "ml", 3), (60, "nm", 2), (60, "ml", 3)
        ]

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
        from packing import initial_ml_state, stacked
        from magcal.initfit import fit_initial
        from magcal.simulate import default_truth, simulate, sweep_trajectory

        ds = simulate(default_truth(), sweep_trajectory(1000), seed=0)
        state = initial_ml_state(fit_initial(ds)[0], ds.samples)
        ml._step_block(*ml._assemble(*stacked(state, ds.samples)))  # warm-up
        start = time.perf_counter()
        ml._step_block(*ml._assemble(*stacked(state, ds.samples)))
        block_s = time.perf_counter() - start
        start = time.perf_counter()
        step_dense(*ml._assemble(*stacked(state, ds.samples)))
        dense_s = time.perf_counter() - start
        assert dense_s > 10.0 * block_s


@pytest.mark.parametrize("study", [
    lambda config, seed: run_monte_carlo(config, runs=1, seed=seed),
    lambda config, seed: run_sensitivity(config, [0.01], runs=1, seed=seed),
    lambda config, seed: run_timing(config, [60], repeats=1, seed=seed),
], ids=["montecarlo", "sensitivity", "timing"])
def test_negative_seed_rejected_naming_it_before_any_run(small_config, monkeypatch, study):
    monkeypatch.setattr(experiments, "_run", lambda job: pytest.fail("ran a job"))
    monkeypatch.setattr(experiments, "simulate", lambda *a: pytest.fail("simulated"))
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
        study(small_config, -3)


_STUDIES = {
    "montecarlo": lambda config, kw: run_monte_carlo(config, **{"runs": 1, "seed": 0, **kw}),
    "sensitivity": lambda config, kw: run_sensitivity(config, [0.01], **{"runs": 1, **kw}),
    "timing": lambda config, kw: run_timing(config, **{"n_values": [60], "repeats": 1, **kw}),
}


@pytest.mark.parametrize("study, argument, value, message", [
    ("montecarlo", "runs", True, "runs must be an integer >= 1, got True"),
    ("montecarlo", "runs", 2.0, "runs must be an integer >= 1, got 2.0"),
    ("montecarlo", "runs", 2.5, "runs must be an integer >= 1, got 2.5"),
    ("sensitivity", "runs", True, "runs must be an integer >= 1, got True"),
    ("sensitivity", "runs", 2.5, "runs must be an integer >= 1, got 2.5"),
    ("montecarlo", "workers", 2.5, "workers must be an integer >= 1, got 2.5"),
    ("sensitivity", "workers", 2.5, "workers must be an integer >= 1, got 2.5"),
    ("timing", "repeats", 2.5, "repeats must be an integer >= 1, got 2.5"),
    ("timing", "n_values", [60.7], "n must be an integer >= 1, got 60.7"),
    ("timing", "n_values", [60, True], "n must be an integer >= 1, got True"),
    ("montecarlo", "seed", 2.5, "seed must be a non-negative integer, got 2.5"),
    ("montecarlo", "seed", True, "seed must be a non-negative integer, got True"),
    ("sensitivity", "seed", 2.5, "seed must be a non-negative integer, got 2.5"),
    ("timing", "seed", True, "seed must be a non-negative integer, got True"),
], ids=["montecarlo_runs_true", "montecarlo_runs_2.0", "montecarlo_runs_2.5",
        "sensitivity_runs_true", "sensitivity_runs_2.5", "montecarlo_workers_2.5",
        "sensitivity_workers_2.5", "timing_repeats_2.5", "timing_n_60.7", "timing_second_n_true",
        "montecarlo_seed_2.5", "montecarlo_seed_true", "sensitivity_seed_2.5", "timing_seed_true"])
def test_non_integral_or_boolean_count_rejected_naming_it_before_any_run(
        small_config, monkeypatch, study, argument, value, message):
    # Unchecked, runs=True would run one run, n = 60.7 would time N = 60, and a float
    # count would die with a TypeError that names nothing.
    monkeypatch.setattr(experiments, "_run", lambda job: pytest.fail("ran a job"))
    monkeypatch.setattr(experiments, "simulate", lambda *a: pytest.fail("simulated"))
    with pytest.raises(ValueError) as info:
        _STUDIES[study](small_config, {argument: value})
    assert str(info.value) == message


def test_numpy_integer_counts_and_seeds_give_the_summaries_of_ints(small_config, tmp_path):
    # A study keeps the ints it checked, so a numpy seed or run count writes JSON.
    for name, study, summary in [
        ("montecarlo", lambda i: run_monte_carlo(small_config, runs=i(2), seed=i(5), workers=i(1)),
         fileio.monte_carlo_summary),
        ("sensitivity", lambda i: run_sensitivity(small_config, [0.02], runs=i(2), seed=i(3)),
         fileio.sensitivity_summary),
    ]:
        paths = [tmp_path / f"{name}_{kind.__name__}.json" for kind in (int, np.int64)]
        for kind, path in zip((int, np.int64), paths):
            fileio.write_json(path, summary(study(kind)))
        assert paths[0].read_bytes() == paths[1].read_bytes()
    rows = run_timing(small_config, [np.int64(60)], repeats=np.int64(1), seed=np.int64(2))
    assert [type(row.n) for row in rows] == [int, int]
    json.dumps(fileio.timing_summary(rows))
