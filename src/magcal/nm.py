"""Newton solver for the norm-residual (quartic) calibration estimate.

Minimizes f(R, h) = sum_k (1 - ||R (y_k - h)||^2)^2 over the six free
entries of the upper-triangular shape matrix R and the offset h, using
analytic first and second derivatives (a few N-row matrix products per
iteration) and full Newton steps. There is no damping or line search: from
a good initial estimate the iteration converges in a handful of steps,
while a poor one surfaces quickly as divergence (which the sensitivity
experiments count) instead of being masked by globalization.

Parameter layout: x = [shape entries 11,12,13,22,23,33, offset], so the
three structurally-zero lower-triangular coordinates never enter the
iteration and R stays exactly triangular.
"""

from __future__ import annotations

import math

import numpy as np

from ._newton import dot, newton_solve, only, solve_newton_system, stacked_positions, tr
from .linalg import UPPER_VEC_INDICES, pack_upper, unpack_upper
from .types import CalibrationParams, SolveOptions, SolveReport, as_samples

_FULL_INDICES = np.concatenate([UPPER_VEC_INDICES, [9, 10, 11]])
_D = np.arange(3)
# Entry 3 i + a of vec(R) is R[a, i]. Flat positions of the Kronecker terms
# of the Hessian: kron(u2, I)[3i+a, 3j+a] = u2[i, j] in the 9x9 h_rr, as
# [a, i, j], and kron(I, sv)[3i+a, i] = sv[a] in the 9x3 h_rh, as [i, a].
_U2_AT = stacked_positions(np.arange(81).reshape(3, 3, 3, 3)[:, _D, :, _D], 81)
_SV_AT = stacked_positions(np.arange(27).reshape(3, 3, 3)[_D, :, _D], 27)
# Flat positions of the 9x9 Hessian over [six shape entries, offset] in the
# concatenated blocks h_rr (9x9), h_rh (9x3) and h_hh (3x3).
_RR_AT = 9 * UPPER_VEC_INDICES[:, None] + UPPER_VEC_INDICES
_RH_AT = 81 + 3 * UPPER_VEC_INDICES[:, None] + _D
_HESS_AT = np.block([[_RR_AT, _RH_AT], [_RH_AT.T, 108 + 3 * _D[:, None] + _D]])


def nm_gradient_hessian(shape: np.ndarray, u: np.ndarray, v: np.ndarray,
                        s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients (B, 9) and Hessians (B, 9, 9) of the objective at a stack of (R, h).

    Each item's R is ``shape[b]``; the rows of ``u[b]`` and ``v[b]`` are y_k - h
    and R u_k over its N samples y_k, and ``s[b]`` holds the norm residuals
    ||v_k||^2 - 1. Derivatives are assembled over the column-stacked 9-vector
    vec(R): the Kronecker-product terms of the Hessian are added in place onto
    the matrix products at precomputed flat positions, and the 9x9 over the
    layout [six shape entries, offset] is gathered from those blocks, leaving
    out the three excluded lower-triangular coordinates.
    """
    b = len(s)
    ut, sc = tr(u), s[:, :, None]
    rtr = tr(shape) @ shape
    p = u @ rtr                            # rows R'R u_k
    su = ut @ sc                           # sum s_k u_k, as a column
    sv = (tr(v) @ sc)[:, :, 0]             # sum s_k R u_k

    g_shape = 4.0 * tr(v * sc) @ u         # d f / d R as a matrix
    g_offset = (-4.0 * rtr @ su)[:, :, 0]
    grad_full = np.concatenate([tr(g_shape).reshape(b, 9), g_offset], axis=1)

    h_hh = (4.0 * s.sum(axis=1))[:, None, None] * rtr + 8.0 * tr(p) @ p
    w = np.einsum("bki,bka->bkia", u, v).reshape(b, -1, 9)  # rows u_k (x) R u_k
    u2 = ut @ (u * sc)                                      # sum s_k u_k u_k'
    w8 = 8.0 * tr(w)
    h_rr = w8 @ w
    h_rr.reshape(-1)[_U2_AT(b)] += 4.0 * u2[:, None]        # + 4 kron(u2, I)
    k_rh = su[:, :, :, None] * shape[:, None]               # kron(su, R) as [i, a, j]
    k_rh.reshape(-1)[_SV_AT(b)] += sv[:, None]              # + kron(I, sv)
    # -4 k_rh - w8 p rounds as -8 w'p - 4 k_rh: negation is exact.
    h_rh = -4.0 * k_rh.reshape(b, 9, 3) - w8 @ p

    blocks = np.concatenate([h_rr.reshape(b, 81), h_rh.reshape(b, 27), h_hh.reshape(b, 9)], axis=1)
    return grad_full.take(_FULL_INDICES, axis=1), blocks.take(_HESS_AT, axis=1)


def solve_nm(data, init: CalibrationParams, opts: SolveOptions | None = None) -> SolveReport:
    """Newton iteration from ``init`` until the objective stalls.

    Convergence: absolute objective change <= objective_tolerance, or
    Newton-step norm <= step_tolerance. Raises SolverFailure on a singular
    Newton system and DivergenceError when the objective turns non-finite;
    both carry the partial report.
    """
    return only(solve_nm_batch(as_samples(data)[None], [init], opts))


def solve_nm_batch(samples: np.ndarray, inits, opts: SolveOptions | None = None) -> list:
    """solve_nm on a stack of problems: validated (B, N, 3) ``samples`` and B initial estimates.

    Returns, per problem in order, its SolveReport or the SolverFailure that
    ended it. Each problem's numbers are those of its lone solve_nm.
    """
    opts = opts or SolveOptions()

    def objective(x):
        shape, offset, data = x
        u = data - offset[:, None, :]
        v = u @ tr(shape)
        s = np.einsum("bij,bij->bi", v, v) - 1.0
        return (dot(s, s),), (u, v, s)  # step reuses the residuals

    def step(x, residuals):
        shape, offset, data = x
        grad, hess = nm_gradient_hessian(shape, *residuals)
        delta = solve_newton_system(hess, grad)
        return delta, (unpack_upper(pack_upper(shape) - delta[:, :6]), offset - delta[:, 6:], data)

    def converged(values, previous, delta, residuals):
        if delta is None:
            return [False] * len(values)
        # The step norm is taken only where the objective has not stalled, as a 1-D dot.
        return [abs(f - f0) <= opts.objective_tolerance
                or math.sqrt(d @ d) <= opts.step_tolerance
                for f, f0, d in zip(values, previous, delta)]

    x = (np.array([p.shape for p in inits]), np.array([p.offset for p in inits]), samples)
    return newton_solve(x, opts, objective, step, converged,
                        lambda item, records: {"final_params": CalibrationParams(*item[:2])})
