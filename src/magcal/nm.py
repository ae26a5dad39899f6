"""Newton solver for the norm-residual (quartic) calibration estimate.

Minimizes f(R, h) = sum_k (1 - ||R (y_k - h)||^2)^2 over the six free
entries of the upper-triangular shape matrix R and the offset h, using
analytic first and second derivatives and full Newton steps. There is no
damping or line search: from a good initial estimate the iteration
converges in a handful of steps, while a poor one surfaces quickly as
divergence (which the sensitivity experiments count) instead of being
masked by globalization.

A residual s_k = ||R (y_k - h)||^2 - 1 is theta'd_k, with d_k the ellipsoid fit's
design row of y_k about the sample mean c and theta = [A = R'R, -2 A h', h'A h' - 1],
h' = h - c. The Gauss-Newton Hessian is then 2 J'GJ, with J = d theta / dx and the
scatter matrix G of the d_k formed once, so an iteration makes one pass over the samples.

Parameter layout: x = [shape entries 11,12,13,22,23,33, offset], so the
three structurally-zero lower-triangular coordinates never enter the
iteration and R stays exactly triangular.
"""

from __future__ import annotations

import numpy as np

from ._newton import dot, newton_solve, only, solve_newton_system, tr
from .initfit import _scatter
from .linalg import UPPER_POSITIONS, pack_upper, unpack_upper
from .types import CalibrationParams, SolveOptions, SolveReport, as_samples

# Offsets in nm_gradient_hessian's per-item sources: R[r, i], (R X)[r, k] and (A X)[i, k]
# with X = [h', m, u2], R[r, i] X[c, k] for k < 2, (R h')_r h'_c, A, u2, total A and a zero.
_R, _RX, _AX, _OUT, _RHH, _A, _U2, _SA, _ZERO = np.cumsum([0, 9, 15, 15, 54, 9, 9, 9, 9])


def _gather_table() -> tuple[np.ndarray, np.ndarray]:
    """Where nm_gradient_hessian's outputs take their terms in its per-item sources.

    The outputs are [gradient (9), J (10x9), sum_k 2 s_k Hess s_k (9x9)], and
    output e is sum_t coef[t, e] src[at[t, e]]: one or two sources, times 1, 2
    or 4 in magnitude, with the zero source where there is no second term.
    """
    table, d = np.zeros((_ZERO + 1, 180)), np.arange(3)
    for p, (r, c) in enumerate(UPPER_POSITIONS):
        for m, (i, j) in enumerate(UPPER_POSITIONS):
            table[_R + 3 * r + j, 9 + 9 * m + p] += i == c  # J: d A_ij / d R_rc
            table[_R + 3 * r + i, 9 + 9 * m + p] += j == c
            table[_U2 + 3 * c + j, 99 + 9 * p + m] += 4.0 * (i == r)  # 4 kron(I, u2)
        for i in range(3):  # J: d (-2 A h')_i / d R_rc, and its twin in m, -4 kron(m, R) + ...
            for e, k, w in ((63 + 9 * i + p, 0, -2.0), (105 + 9 * p + i, 1, -4.0),
                            (153 + 9 * i + p, 1, -4.0)):
                table[[_OUT + 18 * r + 6 * i + 2 * c + k, _RX + 5 * r + k], e] += w, w * (i == c)
        # The gradient's 4 (R u2)[r, c] and J's d (h'A h') / d R_rc.
        table[[_RX + 5 * r + 2 + c, _RHH + 3 * r + c], [p, 90 + p]] += 4.0, 2.0
    for i in range(3):  # -4 (A m)_i, d (h'A h') / d h_i, d (-2 A h') / d h_i and 4 total A
        table[[_AX + 5 * i + 1, _AX + 5 * i], [6 + i, 96 + i]] += -4.0, 2.0
        table[_A + 3 * d + i, 69 + 9 * d + i] += -2.0
        table[_SA + 3 * i + d, 159 + 9 * i + d] += 4.0
    at = np.argsort(table == 0.0, axis=0, kind="stable")[:2]
    coef = np.take_along_axis(table, at, axis=0)
    return np.where(coef == 0.0, _ZERO, at), coef


_GATHER_AT, _GATHER_COEF = _gather_table()


def _residual_pass(shape, offset, samples):
    """A stack's objectives f and residual moments sum s u u', sum s u and sum s, with u = y - h."""
    u = samples - offset[:, None, :]
    v = u @ tr(shape)
    s = np.einsum("bij,bij->bi", v, v) - 1.0
    del v
    su = u * s[:, :, None]
    return dot(s, s), tr(su) @ u, np.einsum("bij->bj", su), np.einsum("bi->b", s)


def nm_gradient_hessian(shape, offset, center, gram, u2, m, total):
    """Gradients (B, 9) and Hessians (B, 9, 9) of the objective at a stack of (R, h).

    Takes each item's R and h, _scatter's (c, G) and _residual_pass's moments.
    The gradient is [4 R u2, -4 A m]. The Hessian is 2 J'GJ plus sum_k 2 s_k
    Hess s_k, whose blocks are 4 kron(I, u2), -4 (kron(m, R) + kron(I, R m)) and
    4 total A. All three are gathered from a few products of R, h', m and u2.
    """
    b, hp, a = len(total), offset - center, tr(shape) @ shape
    x = np.concatenate([hp[:, :, None], m[:, :, None], u2], axis=2)
    rx = shape @ x
    src = np.concatenate([
        shape.reshape(b, 9), rx.reshape(b, 15), (a @ x).reshape(b, 15),
        (shape[:, :, :, None, None] * x[:, None, None, :, :2]).reshape(b, 54),
        (rx[:, :, :1] * hp[:, None, :]).reshape(b, 9), a.reshape(b, 9), u2.reshape(b, 9),
        (total[:, None, None] * a).reshape(b, 9), np.zeros((b, 1))], axis=1)
    out = (src.take(_GATHER_AT, axis=1) * _GATHER_COEF).sum(axis=1)
    jac = out[:, 9:99].reshape(b, 10, 9)
    return out[:, :9], 2.0 * (tr(jac) @ (gram @ jac)) + out[:, 99:].reshape(b, 9, 9)


def solve_nm(data, init: CalibrationParams, opts: SolveOptions | None = None) -> SolveReport:
    """Newton iteration from ``init`` until the objective stalls.

    Convergence: absolute objective change <= objective_tolerance, or
    Newton-step norm <= step_tolerance. Raises SolverFailure on a singular
    Newton system and DivergenceError when the objective turns non-finite;
    both carry the partial report.
    """
    return only(solve_nm_batch(as_samples(data)[None], [init], opts))


def solve_nm_batch(samples: np.ndarray, inits, opts: SolveOptions | None = None,
                   scatter=None) -> list:
    """solve_nm on a stack of problems: validated (B, N, 3) ``samples`` and B initial estimates.

    ``scatter`` is _scatter(samples), if the caller has formed it. Returns, per
    problem in order, its SolveReport or the SolverFailure that ended it. Each
    problem's numbers are those of its lone solve_nm. An iteration's residual pass
    spans the whole stack, so the caller bounds its size: a study's stack holds at
    most 4 CHUNK sample rows, or one run.
    """
    opts = opts or SolveOptions()

    def objective(x):
        f, *moments = _residual_pass(*x[:3])
        return (f,), tuple(moments)  # step reuses the moments

    def step(x, moments):
        shape, offset, *rest = x
        grad, hess = nm_gradient_hessian(shape, offset, *rest[1:], *moments)
        delta, singular = solve_newton_system(hess, grad)
        shape, offset = unpack_upper(pack_upper(shape) - delta[:, :6]), offset - delta[:, 6:]
        return delta, (shape, offset, *rest), singular

    def converged(values, previous, delta, moments):
        if delta is None:
            return np.zeros(len(values), dtype=bool)
        return ((np.abs(values - previous) <= opts.objective_tolerance)
                | (np.sqrt(dot(delta, delta)) <= opts.step_tolerance))

    x = (np.array([p.shape for p in inits]), np.array([p.offset for p in inits]), samples,
         *(_scatter(samples) if scatter is None else scatter))
    return newton_solve(x, opts, objective, step, converged,
                        lambda item, records: {"final_params": CalibrationParams(*item[:2])})
