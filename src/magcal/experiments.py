"""Monte-Carlo accuracy, initial-error sensitivity, and timing studies.

All studies are deterministic per master seed: child generators are derived
through numpy SeedSequence spawning keyed by run (and sweep) index, so
serial and parallel execution produce identical results.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from statistics import median

import numpy as np

from .errors import CalibrationError, SolverFailure
from .initfit import fit_initial, initial_ml_state
from .metrics import error_metrics
from .ml import solve_ml
from .nm import solve_nm
from .simulate import SimConfig, simulate, sweep_trajectory
from .types import CalibrationParams, ErrorMetrics, SolveOptions, SolveReport

METRIC_NAMES = tuple(f.name for f in fields(ErrorMetrics))

# Divergence cutoffs on the final objective value for the bundled default
# scenario (sigma = 0.003, N = 300). They scale with both N and sigma, so
# other scenarios need their own.
DEFAULT_NM_THRESHOLD = 0.018
DEFAULT_ML_THRESHOLD = 0.004

# Default master seeds for the bundled studies.
DEFAULT_MC_SEED = 20240901
DEFAULT_SENSITIVITY_SEED = 18687


def solve(method: str, data, init: CalibrationParams,
          opts: SolveOptions | None = None) -> SolveReport:
    """Run estimator ``method`` ("nm" or "ml") from the initial estimate ``init``."""
    # The solvers are looked up by module-global name at call time, so a
    # rebinding of ``solve_nm``/``solve_ml`` here (as perfbench's tracer does)
    # applies to every study and CLI solve.
    if method == "nm":
        return solve_nm(data, init, opts)
    if method == "ml":
        return solve_ml(data, initial_ml_state(init, data), opts)
    raise ValueError(f"unknown method {method!r}")


def perturb_initial(params: CalibrationParams, alpha: float, seed) -> CalibrationParams:
    """Multiply every free entry by (1 +/- alpha), signs drawn independently.

    Signs are the sign of standard-normal draws from the seeded generator
    (shape entries first, then offset). Structural zeros of the shape
    matrix are unaffected since scaling zero leaves zero.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    rng = np.random.default_rng(seed)
    shape_signs = np.sign(rng.standard_normal((3, 3)))
    offset_signs = np.sign(rng.standard_normal(3))
    return CalibrationParams(
        shape=params.shape * (1.0 + alpha * shape_signs),
        offset=params.offset * (1.0 + alpha * offset_signs),
    )


@dataclass(frozen=True)
class MethodOutcome:
    """One solver's result within a study run."""

    failed: bool
    error: str | None
    converged: bool
    iterations: int
    final_objective: float
    metrics: ErrorMetrics | None


@dataclass(frozen=True)
class MonteCarloRun:
    index: int
    nm: MethodOutcome
    ml: MethodOutcome


@dataclass(frozen=True)
class MonteCarloResult:
    runs: tuple
    seed: int
    config: SimConfig

    def outcomes(self, method: str) -> list:
        return [getattr(run, method) for run in self.runs]

    def failure_count(self, method: str) -> int:
        return sum(1 for o in self.outcomes(method) if o.failed)

    def aggregate(self, method: str) -> dict:
        """Mean and sample standard deviation per metric over clean runs."""
        rows = [o.metrics.as_tuple() for o in self.outcomes(method) if not o.failed]
        if not rows:
            return {name: {"mean": float("nan"), "std": float("nan")} for name in METRIC_NAMES}
        arr = np.asarray(rows)
        ddof = 1 if arr.shape[0] > 1 else 0
        return {
            name: {"mean": float(arr[:, i].mean()), "std": float(arr[:, i].std(ddof=ddof))}
            for i, name in enumerate(METRIC_NAMES)
        }


def _failed_outcome(message: str, report=None) -> MethodOutcome:
    return MethodOutcome(
        failed=True,
        error=message,
        converged=False,
        iterations=report.iterations if report else 0,
        final_objective=report.final_objective if report else float("nan"),
        metrics=None,
    )


def _outcome(method, dataset, init, opts, truth_params=None) -> MethodOutcome:
    """One solve as a study row; error metrics need ``truth_params``."""
    try:
        report = solve(method, dataset, init, opts)
    except SolverFailure as exc:
        return _failed_outcome(str(exc), exc.report)
    return MethodOutcome(
        failed=False,
        error=None,
        converged=report.converged,
        iterations=report.iterations,
        final_objective=report.final_objective,
        metrics=None if truth_params is None else error_metrics(report.final_params, truth_params),
    )


def _mc_run(args) -> MonteCarloRun:
    config, trajectory, truth_params, seed_seq, index, opts = args
    dataset = simulate(config.truth, trajectory, seed_seq)
    try:
        init, _ = fit_initial(dataset)
    except CalibrationError as exc:
        bad = _failed_outcome(f"init-fit failed: {exc}")
        return MonteCarloRun(index=index, nm=bad, ml=bad)
    return MonteCarloRun(
        index=index,
        nm=_outcome("nm", dataset, init, opts, truth_params),
        ml=_outcome("ml", dataset, init, opts, truth_params),
    )


def _map(fn, jobs, workers: int) -> list:
    """``fn`` over ``jobs`` in order, in one pool of at most ``workers`` processes."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # A fork-context pool starts all max_workers processes at the first submit.
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def run_monte_carlo(
    config: SimConfig,
    runs: int,
    seed: int,
    opts: SolveOptions | None = None,
    workers: int = 1,
) -> MonteCarloResult:
    """Repeated calibration of the configured scenario under fresh noise.

    The trajectory and truth stay fixed; only the noise realization is
    redrawn per run. Solver failures become flagged rows, never aborts.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    trajectory = sweep_trajectory(config.n)
    truth_params = config.truth.calibration()
    children = np.random.SeedSequence(seed).spawn(runs)
    jobs = [
        (config, trajectory, truth_params, children[i], i, opts) for i in range(runs)
    ]
    results = _map(_mc_run, jobs, workers)
    return MonteCarloResult(runs=tuple(results), seed=seed, config=config)


@dataclass(frozen=True)
class SensitivityResult:
    alphas: tuple
    nm_divergences: tuple
    ml_divergences: tuple
    runs: int
    nm_threshold: float
    ml_threshold: float
    seed: int


def _sensitivity_run(args) -> tuple:
    """One perturbed calibration; returns (nm_diverged, ml_diverged)."""
    config, trajectory, alpha, nm_threshold, ml_threshold, run_seq, opts = args
    noise_seq, sign_seq = run_seq.spawn(2)
    dataset = simulate(config.truth, trajectory, noise_seq)
    try:
        init, _ = fit_initial(dataset)
    except CalibrationError:
        return True, True
    perturbed = perturb_initial(init, alpha, sign_seq)
    nm = _outcome("nm", dataset, perturbed, opts)
    ml = _outcome("ml", dataset, perturbed, opts)
    # A solve diverges when it fails or its final objective (NaN included) exceeds the threshold.
    return (nm.failed or not nm.final_objective <= nm_threshold,
            ml.failed or not ml.final_objective <= ml_threshold)


def run_sensitivity(
    config: SimConfig,
    alphas,
    runs: int,
    nm_threshold: float = DEFAULT_NM_THRESHOLD,
    ml_threshold: float = DEFAULT_ML_THRESHOLD,
    seed: int = 0,
    opts: SolveOptions | None = None,
    workers: int = 1,
) -> SensitivityResult:
    """Divergence counts as the initial estimate is perturbed by each alpha.

    Every run redraws both the noise realization and the perturbation
    signs. A run diverges when its final objective exceeds the method's
    threshold or the solver fails outright.
    """
    if nm_threshold <= 0.0 or ml_threshold <= 0.0:
        raise ValueError("divergence thresholds must be positive")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    alphas = tuple(float(a) for a in alphas)
    trajectory = sweep_trajectory(config.n)
    alpha_children = np.random.SeedSequence(seed).spawn(len(alphas))

    # One pool for the whole sweep; flags come back in (alpha, run) order.
    jobs = [
        (config, trajectory, alpha, nm_threshold, ml_threshold, run_seq, opts)
        for alpha, child in zip(alphas, alpha_children)
        for run_seq in child.spawn(runs)
    ]
    flags = _map(_sensitivity_run, jobs, workers)
    per_alpha = [flags[i : i + runs] for i in range(0, len(flags), runs)]
    nm_counts = [sum(1 for nm_d, _ in group if nm_d) for group in per_alpha]
    ml_counts = [sum(1 for _, ml_d in group if ml_d) for group in per_alpha]

    return SensitivityResult(
        alphas=alphas,
        nm_divergences=tuple(nm_counts),
        ml_divergences=tuple(ml_counts),
        runs=runs,
        nm_threshold=nm_threshold,
        ml_threshold=ml_threshold,
        seed=seed,
    )


@dataclass(frozen=True)
class TimingRow:
    n: int
    method: str
    median_seconds: float
    iterations: int
    seconds_per_iteration: float


def run_timing(
    config: SimConfig,
    n_values,
    repeats: int = 5,
    methods: tuple = ("nm", "ml"),
    seed: int = 0,
    opts: SolveOptions | None = None,
) -> tuple:
    """Median wall-clock solve time per (N, method).

    One warm-up solve precedes the timed repeats. An ml solve is timed from
    the fit's estimate, so its time includes building the initial ML state.
    """
    if not n_values:
        raise ValueError("n_values must be nonempty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rows = []
    for n in n_values:
        dataset = simulate(config.truth, sweep_trajectory(int(n)), seed)
        init, _ = fit_initial(dataset)
        for method in methods:
            report = solve(method, dataset, init, opts)  # warm-up
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                report = solve(method, dataset, init, opts)
                times.append(time.perf_counter() - start)
            med = float(median(times))
            iters = max(report.iterations, 1)
            rows.append(
                TimingRow(
                    n=int(n),
                    method=method,
                    median_seconds=med,
                    iterations=report.iterations,
                    seconds_per_iteration=med / iters,
                )
            )
    return tuple(rows)
