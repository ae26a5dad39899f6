"""Newton iteration shared by the nm and ml estimators."""

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytrs

from .errors import DivergenceError, SolverFailure
from .types import SolveOptions, SolveReport


def solve_newton_system(hess, rhs) -> np.ndarray:
    """Symmetric solve by LAPACK's Bunch-Kaufman LDL' (dsytrf, dsytrs) on the upper triangle.

    An exactly singular factor raises LinAlgError. A non-finite system gives a NaN step, which
    newton_solve calls divergence; LAPACK would call it singular, or even return a finite step.
    """
    if not (np.isfinite(hess).all() and np.isfinite(rhs).all()):
        return np.full(rhs.shape, np.nan)
    factor, pivots, info = dsytrf(hess)
    if info > 0:
        raise np.linalg.LinAlgError("singular symmetric system")
    return dsytrs(factor, pivots, rhs)[0]


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

    with np.errstate(over="ignore", invalid="ignore"):
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
            except np.linalg.LinAlgError as exc:
                raise SolverFailure("singular Newton system", report(iteration, False)) from exc
            if not record(x) or not np.all(np.isfinite(delta)):
                raise DivergenceError("objective became non-finite", report(iteration + 1, False))
    return report(opts.max_iterations, False)
