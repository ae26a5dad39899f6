"""Monte-Carlo accuracy, initial-error sensitivity, and timing studies.

All studies are deterministic per master seed: child generators are derived
through numpy SeedSequence spawning keyed by run (and sweep) index, so
serial and parallel execution produce identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from statistics import median

import numpy as np

from .errors import CalibrationError, SolverFailure
from .initfit import fit_initial
from .metrics import error_metrics
from .ml import solve_ml
from .nm import solve_nm
from .simulate import SimConfig, noise_free_samples, simulate, sweep_trajectory
from .types import CalibrationParams, ErrorMetrics, SolveOptions, SolveReport

METRIC_NAMES = tuple(f.name for f in fields(ErrorMetrics))

# Default master seeds for the bundled studies.
DEFAULT_MC_SEED = 20240901
DEFAULT_SENSITIVITY_SEED = 18687


def _check_method(method) -> None:
    if method not in ("nm", "ml"):
        raise ValueError(f"unknown method {method!r}")


def solve(method: str, data, init: CalibrationParams,
          opts: SolveOptions | None = None) -> SolveReport:
    """Run estimator ``method`` ("nm" or "ml") from the initial estimate ``init``."""
    _check_method(method)
    # The solvers are looked up by module-global name at call time, so a
    # rebinding of ``solve_nm``/``solve_ml`` here (as perfbench's tracer does)
    # applies to every study and CLI solve.
    return (solve_nm if method == "nm" else solve_ml)(data, init, opts)


def _check_alpha(alpha) -> None:
    if not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")


def perturb_initial(params: CalibrationParams, alpha: float, seed) -> CalibrationParams:
    """Multiply every free entry by (1 +/- alpha), signs drawn independently.

    Signs are the sign of standard-normal draws from the seeded generator
    (shape entries first, then offset). Structural zeros of the shape
    matrix are unaffected since scaling zero leaves zero.
    """
    _check_alpha(alpha)
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


def _outcome(method, dataset, init, truth_params=None) -> MethodOutcome:
    """One solve as a study row; error metrics need ``truth_params``."""
    try:
        report = solve(method, dataset, init)
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


def _run(args) -> tuple:
    """Simulate, fit, perturb unless ``alpha`` is None, and solve: one run's (nm, ml) outcomes.

    The first item is the study's scene, (truth, trajectory, noise-free
    samples), the same for every run. A Monte-Carlo run (``alpha`` None)
    draws its noise from ``run_seq`` and is scored against ``truth_params``.
    A sensitivity run splits ``run_seq`` into noise and perturbation-sign
    seeds and is not scored.
    """
    (truth, trajectory, noise_free), truth_params, alpha, run_seq = args
    noise_seq = run_seq
    if alpha is not None:
        noise_seq, sign_seq = run_seq.spawn(2)
    dataset = simulate(truth, trajectory, noise_seq, noise_free)
    try:
        init, _ = fit_initial(dataset)
    except CalibrationError as exc:
        bad = _failed_outcome(f"init-fit failed: {exc}")
        return bad, bad
    if alpha is not None:
        init = perturb_initial(init, alpha, sign_seq)
    return _outcome("nm", dataset, init, truth_params), _outcome("ml", dataset, init, truth_params)


def _scene(config: SimConfig) -> tuple:
    """A study's fixed (truth, trajectory, noise-free samples): computed once, not per run."""
    trajectory = sweep_trajectory(config.n)
    return config.truth, trajectory, noise_free_samples(config.truth, trajectory)


def _map(fn, jobs, workers: int) -> list:
    """``fn`` over ``jobs`` in order, in one pool of at most ``workers`` processes."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # A fork-context pool starts all max_workers processes at the first submit.
    workers = min(workers, len(jobs))
    if workers > 1:
        # Imported here: concurrent.futures.process costs a serial caller ~20 ms at import.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def run_monte_carlo(
    config: SimConfig,
    runs: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloResult:
    """Repeated calibration of the configured scenario under fresh noise.

    The trajectory and truth stay fixed; only the noise realization is
    redrawn per run. Solver failures become flagged rows, never aborts.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    scene, truth_params = _scene(config), config.truth.calibration()
    children = np.random.SeedSequence(seed).spawn(runs)
    results = _map(_run, [(scene, truth_params, None, child) for child in children], workers)
    rows = tuple(MonteCarloRun(i, nm, ml) for i, (nm, ml) in enumerate(results))
    return MonteCarloResult(runs=rows, seed=seed, config=config)


@dataclass(frozen=True)
class SensitivityResult:
    """Divergence counts per alpha, with the thresholds the study derived for its scenario."""

    alphas: tuple
    nm_divergences: tuple
    ml_divergences: tuple
    runs: int
    nm_threshold: float
    ml_threshold: float
    seed: int


def _thresholds(config: SimConfig) -> tuple:
    """Divergence cutoffs on the final (nm, ml) objectives: 3x their expected value at the optimum.

    The ml misfit is about (N - 9) sigma^2, since 3N observations fit 2N + 9
    unknowns. An nm residual ||R (y_k - h)||^2 - 1 is about 2 u_k' R e_k for a
    unit u_k, with variance 4 sigma^2 ||R' u_k||^2, which averages to
    4 sigma^2 ||R||_F^2 / 3 over directions. Converged runs end well below
    these cutoffs and diverged ones far above them.
    """
    sigma2 = config.truth.noise_sigma ** 2
    if sigma2 == 0.0:
        raise ValueError("noise_sigma must be > 0: noise-free data leave no divergence threshold")
    r_norm2 = float(np.sum(config.truth.calibration().shape ** 2))
    expected = (4.0 * sigma2 * config.n * r_norm2 / 3.0, (config.n - 9) * sigma2)
    return tuple(3.0 * f for f in expected)


def run_sensitivity(
    config: SimConfig,
    alphas,
    runs: int,
    seed: int = 0,
    workers: int = 1,
) -> SensitivityResult:
    """Divergence counts as the initial estimate is perturbed by each alpha.

    Every run redraws both the noise realization and the perturbation
    signs. A run diverges when the solver fails outright or its final
    objective (NaN included) is not within the method's threshold, which
    the scenario's N and sigma set (see ``_thresholds``).
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValueError("alphas must be nonempty")
    for alpha in alphas:  # before any run, not when a run reaches the bad alpha
        _check_alpha(alpha)
    thresholds = _thresholds(config)
    scene = _scene(config)
    alpha_children = np.random.SeedSequence(seed).spawn(len(alphas))

    # One pool for the whole sweep; outcomes come back in (alpha, run) order.
    jobs = [
        (scene, None, alpha, run_seq)
        for alpha, child in zip(alphas, alpha_children)
        for run_seq in child.spawn(runs)
    ]
    diverged = np.array([[o.failed or not o.final_objective <= limit
                          for o, limit in zip(pair, thresholds)]
                         for pair in _map(_run, jobs, workers)])
    nm_counts, ml_counts = diverged.reshape(len(alphas), runs, 2).sum(axis=1).T.tolist()

    return SensitivityResult(
        alphas=alphas,
        nm_divergences=tuple(nm_counts),
        ml_divergences=tuple(ml_counts),
        runs=runs,
        nm_threshold=thresholds[0],
        ml_threshold=thresholds[1],
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
) -> tuple:
    """Median wall-clock solve time per (N, method).

    One warm-up solve precedes the timed repeats. An ml solve is timed from
    the fit's estimate, so its time includes building the initial ML state.
    """
    if not n_values or not methods:
        raise ValueError("n_values and methods must be nonempty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for method in methods:  # before any solve, not when the timing loop reaches it
        _check_method(method)
    rows = []
    for n in n_values:
        dataset = simulate(config.truth, sweep_trajectory(int(n)), seed)
        init, _ = fit_initial(dataset)
        for method in methods:
            report = solve(method, dataset, init)  # warm-up
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                report = solve(method, dataset, init)
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
