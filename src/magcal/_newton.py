"""Newton iteration shared by the nm and ml estimators."""

import warnings

import numpy as np
import scipy.linalg

from .errors import DivergenceError, SolverFailure
from .types import SolveOptions, SolveReport


def solve_newton_system(hess, rhs) -> np.ndarray:
    """Symmetric solve; a non-finite system gives a NaN step, which newton_solve calls divergence.

    LAPACK would call such a system singular, or even return a finite step.
    """
    if not (np.all(np.isfinite(hess)) and np.all(np.isfinite(rhs))):
        return np.full(rhs.shape, np.nan)
    return scipy.linalg.solve(hess, rhs, assume_a="sym", check_finite=False)


def newton_solve(x, opts: SolveOptions, objective, step, converged, finish) -> SolveReport:
    """Full Newton steps from ``x`` until ``converged`` or max_iterations.

    ``objective(x)`` is called once per iterate and recorded in the history.
    ``step(x)`` returns ``(delta, next_x)``. ``converged(x, delta, history)``
    is asked before every step and after the last one; ``delta`` is None
    before the first. ``finish(x)`` gives the report's final-estimate fields.
    A singular Newton system raises SolverFailure and a non-finite objective
    or step DivergenceError, both carrying the partial report.
    """
    history = []

    def record(x) -> bool:
        history.append(objective(x))
        return np.isfinite(history[-1])

    def report(iterations, done):
        return SolveReport(history, iterations, done, **finish(x))

    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        if not record(x):
            raise DivergenceError("initial objective is non-finite", report(0, False))
        delta = None
        for iteration in range(opts.max_iterations + 1):
            if converged(x, delta, history):
                return report(iteration, True)
            if iteration == opts.max_iterations:
                break
            try:
                delta, x = step(x)
            except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
                raise SolverFailure("singular Newton system", report(iteration, False)) from exc
            if not record(x) or not np.all(np.isfinite(delta)):
                raise DivergenceError("objective became non-finite", report(iteration + 1, False))
    return report(opts.max_iterations, False)
