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

from ._newton import CHUNK
from .errors import CalibrationError, SolverFailure
from .initfit import _scatter, fit_initial, fit_initial_batch
from .metrics import error_metrics_batch
from .ml import solve_ml, solve_ml_batch
from .nm import solve_nm, solve_nm_batch
from .simulate import SimConfig, noise_free_samples, simulate, sweep_trajectory
from .types import CalibrationParams, ErrorMetrics, SolveOptions, SolveReport
from .types import check_integer, check_real

METRIC_NAMES = tuple(f.name for f in fields(ErrorMetrics))

# Default master seeds for the bundled studies.
DEFAULT_MC_SEED = 20240901
DEFAULT_SENSITIVITY_SEED = 18687


def _check_method(method) -> str:
    if method not in ("nm", "ml"):
        raise ValueError(f"unknown method {method!r}")
    return method


def solve(method: str, data, init: CalibrationParams,
          opts: SolveOptions | None = None) -> SolveReport:
    """Run estimator ``method`` ("nm" or "ml") from the initial estimate ``init``."""
    _check_method(method)
    # The solvers are looked up by module-global name at call time, so a
    # rebinding of ``solve_nm``/``solve_ml`` here (as perfbench's tracer does)
    # applies to every CLI and timing solve.
    return (solve_nm if method == "nm" else solve_ml)(data, init, opts)


def perturb_initial(params: CalibrationParams, alpha: float, seed) -> CalibrationParams:
    """Multiply every free entry by (1 +/- alpha), signs drawn independently.

    Signs are the sign of standard-normal draws from the seeded generator
    (shape entries first, then offset). Structural zeros of the shape
    matrix are unaffected since scaling zero leaves zero.
    """
    alpha = check_real("alpha", alpha, 0.0)
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


def _outcomes(results: list, truth_params=None) -> list:
    """A stack's reports or failures as study rows; with ``truth_params``, scored as one stack."""
    reports = [r for r in results if not isinstance(r, SolverFailure)]
    scores = iter(error_metrics_batch([r.final_params for r in reports], truth_params)
                  if truth_params is not None else [None] * len(reports))
    return [_failed_outcome(str(r), r.report) if isinstance(r, SolverFailure)
            else MethodOutcome(failed=False, error=None, converged=r.converged,
                               iterations=r.iterations, final_objective=r.final_objective,
                               metrics=next(scores))
            for r in results]


def _run(args) -> list:
    """Simulate, fit and perturb a job's runs as one stack, then solve and score them as stacks.

    Returns the runs' (nm, ml) outcomes, in order. The first item of ``args``
    is the study's scene, (truth, trajectory, noise-free samples), the same
    for every run; the last lists the runs as (alpha, run_seq) pairs. A
    Monte-Carlo run (``alpha`` None) draws its noise from ``run_seq`` and is
    scored against ``truth_params``. A sensitivity run splits ``run_seq`` into
    noise and perturbation-sign seeds and is not scored. The job's samples go
    into one (B, N, 3) array whose scatter matrices are formed once, for the
    stacked fit and for nm. The runs whose fit succeeds are solved, with the
    numbers of lone solves, by nm as one stack and then by ml as one stack, and
    each stack is scored as one; a job whose fits all fail solves nothing.
    """
    (truth, trajectory, noise_free), truth_params, runs = args
    samples, signs = np.empty((len(runs),) + noise_free.shape), []
    for i, (alpha, run_seq) in enumerate(runs):
        noise_seq, sign_seq = (run_seq, None) if alpha is None else run_seq.spawn(2)
        samples[i] = simulate(truth, trajectory, noise_seq, noise_free).samples
        signs.append(sign_seq)
    scatter = _scatter(samples)
    # Called by module-global name, never bound at import, like ``solve``'s solvers: a
    # rebinding of a batch entry point here applies to every study fit, solve and score.
    fits = fit_initial_batch(samples, scatter)
    outcomes, solved, inits = [None] * len(runs), [], []
    for i, ((alpha, _), sign_seq, fit) in enumerate(zip(runs, signs, fits)):
        if isinstance(fit, CalibrationError):
            bad = _failed_outcome(f"init-fit failed: {fit}")
            outcomes[i] = bad, bad
            continue
        solved.append(i)
        inits.append(fit[0] if alpha is None else perturb_initial(fit[0], alpha, sign_seq))
    if len(solved) < len(runs):  # a view of the job's arrays otherwise, so no copy
        samples, scatter = samples[solved], tuple(a[solved] for a in scatter)
    if solved:
        nm = _outcomes(solve_nm_batch(samples, inits, scatter=scatter), truth_params)
        del signs, fits, scatter  # not held while ml solves
        ml = _outcomes(solve_ml_batch(samples, inits), truth_params)
        for i, pair in zip(solved, zip(nm, ml)):
            outcomes[i] = pair
    return outcomes


def _batches(scene, truth_params, runs: list, workers: int) -> list:
    """The ``_run`` jobs of a study: its runs in order, up to 4 CHUNK sample rows a job.

    A job holds at least one run and is one nm and one ml stack. There are at
    least ``workers`` jobs when there are that many runs.
    """
    workers = check_integer("workers", workers, 1)
    size = min(max(1, 4 * CHUNK // len(scene[1])), -(-len(runs) // workers))
    return [(scene, truth_params, runs[i : i + size]) for i in range(0, len(runs), size)]


def _scene(config: SimConfig) -> tuple:
    """A study's fixed (truth, trajectory, noise-free samples): computed once, not per run."""
    trajectory = sweep_trajectory(config.n)
    return config.truth, trajectory, noise_free_samples(config.truth, trajectory)


def _map(fn, jobs, workers: int) -> list:
    """``fn`` over ``jobs`` in order, in one pool of at most ``workers`` processes.

    The jobs are ``_run`` jobs, and their lists of outcomes are joined in order.
    """
    # A fork-context pool starts all max_workers processes at the first submit.
    workers = min(workers, len(jobs))
    if workers > 1:
        # Imported here: concurrent.futures.process costs a serial caller ~20 ms at import.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return [out for outs in pool.map(fn, jobs) for out in outs]
    return [out for job in jobs for out in fn(job)]


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
    runs, seed = check_integer("runs", runs, 1), check_integer("seed", seed, 0)
    scene, truth_params = _scene(config), config.truth.calibration()
    children = np.random.SeedSequence(seed).spawn(runs)
    results = _map(_run, _batches(scene, truth_params, [(None, child) for child in children],
                                  workers), workers)
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
    runs, seed = check_integer("runs", runs, 1), check_integer("seed", seed, 0)
    # Each alpha before any run, not when a run reaches the bad one.
    alphas = tuple(check_real("alpha", alpha, 0.0) for alpha in alphas)
    if not alphas:
        raise ValueError("alphas must be nonempty")
    thresholds = _thresholds(config)
    scene = _scene(config)
    alpha_children = np.random.SeedSequence(seed).spawn(len(alphas))

    # One pool for the whole sweep; outcomes come back in (alpha, run) order.
    jobs = _batches(scene, None, [(alpha, run_seq) for alpha, child in zip(alphas, alpha_children)
                                  for run_seq in child.spawn(runs)], workers)
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
    min_seconds: float
    min_cpu_seconds: float
    iterations: int
    seconds_per_iteration: float


def run_timing(
    config: SimConfig,
    n_values,
    repeats: int = 5,
    methods: tuple = ("nm", "ml"),
    seed: int = 0,
) -> tuple:
    """Median and fastest wall-clock solve time, and fastest thread CPU time, per (N, method).

    The CPU time (``time.thread_time``) leaves out the time other processes
    hold the core, so a loaded host moves it less than the wall clock. One
    warm-up solve per (N, method) precedes the timed repeats, which take every
    (N, method) in turn, so that a host whose speed drifts over seconds slows
    all rows alike. An ml solve is timed from the fit's estimate, so its time
    includes building the initial ML state.
    """
    for name, values in (("n_values", n_values), ("methods", methods)):
        if isinstance(values, str):  # whose characters would pass as items
            raise ValueError(f"{name} must be a sequence, not the string {values!r}")
    repeats, seed = check_integer("repeats", repeats, 1), check_integer("seed", seed, 0)
    n_values = [check_integer("n", n, 1) for n in n_values]  # all before any solve
    methods = [_check_method(method) for method in methods]
    if not n_values or not methods:
        raise ValueError("n_values and methods must be nonempty")
    cases = []
    for n in n_values:
        dataset = simulate(config.truth, sweep_trajectory(n), seed)
        init, _ = fit_initial(dataset)
        cases += [(n, method, dataset, init) for method in methods]
    reports = [solve(method, dataset, init) for _, method, dataset, init in cases]  # warm-up
    times, cpu_times = [[] for _ in cases], [[] for _ in cases]
    for _ in range(repeats):
        for i, (_, method, dataset, init) in enumerate(cases):
            start, cpu_start = time.perf_counter(), time.thread_time()
            reports[i] = solve(method, dataset, init)
            cpu_times[i].append(time.thread_time() - cpu_start)  # within the wall interval
            times[i].append(time.perf_counter() - start)
    rows = []
    for (n, method, _, _), report, case_times, case_cpu in zip(cases, reports, times, cpu_times):
        med = float(median(case_times))
        rows.append(TimingRow(n=n, method=method, median_seconds=med,
                              min_seconds=min(case_times), min_cpu_seconds=min(case_cpu),
                              iterations=report.iterations,
                              seconds_per_iteration=med / max(report.iterations, 1)))
    return tuple(rows)
