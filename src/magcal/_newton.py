"""Newton iteration shared by the nm and ml estimators, over a stack of independent problems."""

import numpy as np

from .errors import CalibrationError, DivergenceError, SolverFailure
from .types import SolveOptions, SolveReport

CHUNK = 2048  # rows a block in the solvers' per-sample passes, so temporaries stay bounded


def tr(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix in a stack."""
    return a.swapaxes(-1, -2)


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each item's inner product over the last axis, rounded as a 1-D ``a @ b`` rounds it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def each(fn, *stacks) -> tuple:
    """``fn`` over stacks of matrices, shaped as the last, and a flag per item it fails on.

    One call takes the whole stack. Only if it raises LinAlgError is ``fn``
    called item by item; an item on which it raises alone is NaN and flagged.
    """
    failed = np.zeros(len(stacks[-1]), dtype=bool)
    try:
        return fn(*stacks), failed
    except np.linalg.LinAlgError:
        out = np.full(stacks[-1].shape, np.nan)
        for i in range(len(out)):
            try:
                out[i] = fn(*(s[i : i + 1] for s in stacks))[0]
            except np.linalg.LinAlgError:
                failed[i] = True
        return out, failed


def solve_newton_system(hess, rhs) -> tuple:
    """Solve a stack of symmetric Newton systems by numpy's LU with partial pivoting.

    Returns the steps and a flag per exactly singular system, whose step is NaN. A
    non-finite system is solved as an identity stand-in and gets a NaN step and no flag,
    which newton_solve calls divergence; LAPACK might call it singular or solve it.
    """
    finite = np.isfinite(hess).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
    hess = np.where(finite[:, None, None], hess, np.eye(hess.shape[-1]))
    out, singular = each(np.linalg.solve, hess, np.where(finite[:, None], rhs, 0.0)[:, :, None])
    out[~finite] = np.nan
    return out[:, :, 0], singular


def take(arrays: tuple, keep) -> tuple:
    """The items ``keep`` (indices or a mask) of every array in a stack."""
    return tuple(a[keep] for a in arrays)


def newton_solve(x: tuple, opts: SolveOptions, objective, step, converged, finish) -> list:
    """Full Newton steps on a stack of B problems until each converges or hits max_iterations.

    ``x`` is a tuple of arrays whose leading axis runs over the problems: the
    iterate and the data it is fitted to. ``objective(x)`` returns ``(records,
    cache)``: a tuple of per-item arrays to record, the first being the
    objective, and a tuple of per-item arrays that ``converged`` and ``step``
    then reuse. ``converged(values, previous, delta, cache)`` is asked of
    every iterate, with the objectives of this and the previous iterate as
    arrays, and gives a boolean array, a flag per item; ``previous`` and
    ``delta`` are None before the first step. ``step(x, cache)`` returns
    ``(delta, next_x, singular)``: one flat step per item and a flag for each
    item whose Newton system is singular. ``finish(item, records)`` gives the
    report's fields from one item's arrays and its recorded histories.

    Returns one entry per problem, in order: a SolveReport, or the SolverFailure
    (singular Newton system) or DivergenceError (non-finite objective or step)
    that ends it, carrying the partial report. Finished problems leave the
    stack; one problem's failure does not stop the others. A flagged item ends
    at that iteration and leaves the stack; no step is redone. Every item's
    numbers are those of its lone solve, as long as the callbacks compute each
    item as they would alone.
    """
    results = [None] * len(x[0])
    histories = [[] for _ in results]
    active = np.arange(len(results))  # problem index of each stacked item
    previous = delta = None

    def end(local, iterations, done=False, error=None, message=""):
        """Report stacked item ``local``; ``error`` is the failure class that ends it, if any."""
        j = active[local]
        records = tuple(zip(*histories[j]))
        report = SolveReport(records[0], iterations, done, **finish(take(x, local), records))
        results[j] = report if error is None else error(message, report)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for iteration in range(opts.max_iterations + 1):
            records, cache = objective(x)
            for j, row in zip(active.tolist(), zip(*[r.tolist() for r in records])):
                histories[j].append(row)
            values = records[0]
            finite = np.isfinite(values)
            if delta is not None:
                finite &= np.isfinite(delta).all(axis=1)
            done = finite & converged(values, previous, delta, cache)
            delta = None  # not held while the next step is formed
            last = iteration == opts.max_iterations
            if last or done.any() or not finite.all():
                message = ("initial objective is non-finite" if iteration == 0
                           else "objective became non-finite")
                for local, (ok, stop) in enumerate(zip(finite.tolist(), done.tolist())):
                    if not ok:
                        end(local, iteration, error=DivergenceError, message=message)
                    elif stop or last:
                        end(local, iteration, done=stop)
                keep = finite & ~done
                if last or not keep.any():
                    break
                x, cache = take(x, keep), take(cache, keep)
                active, values = active[keep], values[keep]
            delta, next_x, singular = step(x, cache)
            if singular.any():
                for local in np.flatnonzero(singular).tolist():
                    end(local, iteration, error=SolverFailure, message="singular Newton system")
                if singular.all():
                    break
                keep = ~singular
                delta, next_x = delta[keep], take(next_x, keep)
                active, values = active[keep], values[keep]
            cache = None
            x, previous = next_x, values
            del next_x
    return results


def only(results: list):
    """The one item of a one-problem stack's results, or its CalibrationError raised."""
    if isinstance(results[0], CalibrationError):
        raise results[0]
    return results[0]
