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

import numpy as np

from ._newton import newton_solve, solve_newton_system
from .linalg import UPPER_VEC_INDICES
from .types import CalibrationParams, SolveOptions, SolveReport, as_samples

_FULL_INDICES = np.concatenate([UPPER_VEC_INDICES, [9, 10, 11]])
_D = np.arange(3)
# Entry 3 i + a of vec(R) is R[a, i]. Flat positions of the Kronecker terms
# of the Hessian: kron(u2, I)[3i+a, 3j+a] = u2[i, j] in the 9x9 h_rr, as
# [a, i, j], and kron(I, sv)[3i+a, i] = sv[a] in the 9x3 h_rh, as [i, a].
_U2_AT = np.arange(81).reshape(3, 3, 3, 3)[:, _D, :, _D]
_SV_AT = np.arange(27).reshape(3, 3, 3)[_D, :, _D]
# Flat positions of the 9x9 Hessian over [six shape entries, offset] in the
# concatenated blocks h_rr (9x9), h_rh (9x3) and h_hh (3x3).
_RR_AT = 9 * UPPER_VEC_INDICES[:, None] + UPPER_VEC_INDICES
_RH_AT = 81 + 3 * UPPER_VEC_INDICES[:, None] + _D
_HESS_AT = np.block([[_RR_AT, _RH_AT], [_RH_AT.T, 108 + 3 * _D[:, None] + _D]])


def nm_objective(params: CalibrationParams, data) -> float:
    """Sum of squared norm residuals (1 - ||R (y_k - h)||^2)^2."""
    u = as_samples(data) - params.offset
    v = u @ params.shape.T
    s = np.einsum("ij,ij->i", v, v) - 1.0
    return float(s @ s)


def nm_gradient_hessian(params: CalibrationParams, data) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient (9,) and Hessian (9, 9) of the objective.

    Derivatives are assembled over the column-stacked 9-vector vec(R): the
    Kronecker-product terms of the Hessian are added in place onto the matrix
    products at precomputed flat positions, and the 9x9 over the layout
    [six shape entries, offset] is gathered from those blocks, leaving out
    the three excluded lower-triangular coordinates.
    """
    shape = params.shape
    u = as_samples(data) - params.offset  # (N, 3)
    v = u @ shape.T                       # rows R u_k
    s = np.einsum("ij,ij->i", v, v) - 1.0
    rtr = shape.T @ shape
    p = u @ rtr                           # rows R'R u_k
    su = u.T @ s                          # sum s_k u_k
    sv = v.T @ s                          # sum s_k R u_k

    g_shape = 4.0 * (v * s[:, None]).T @ u        # d f / d R as a matrix
    g_offset = -4.0 * rtr @ su
    grad_full = np.concatenate([g_shape.ravel(order="F"), g_offset])

    w = (u[:, :, None] * v[:, None, :]).reshape(len(u), 9)  # rows u_k (x) R u_k
    u2 = u.T @ (u * s[:, None])                             # sum s_k u_k u_k'
    h_rr = 8.0 * w.T @ w
    h_rr.ravel()[_U2_AT] += 4.0 * u2       # + 4 kron(u2, I)
    k_rh = su[:, None, None] * shape      # kron(su, R) as [i, a, j]
    k_rh.ravel()[_SV_AT] += sv            # + kron(I, sv)
    h_rh = -8.0 * w.T @ p - 4.0 * k_rh.reshape(9, 3)
    h_hh = 4.0 * s.sum() * rtr + 8.0 * p.T @ p

    blocks = np.concatenate([h_rr.ravel(), h_rh.ravel(), h_hh.ravel()])
    return grad_full[_FULL_INDICES], blocks[_HESS_AT]


def solve_nm(data, init: CalibrationParams, opts: SolveOptions | None = None) -> SolveReport:
    """Newton iteration from ``init`` until the objective stalls.

    Convergence: absolute objective change <= objective_tolerance, or
    Newton-step norm <= step_tolerance. Raises SolverFailure on a singular
    Newton system and DivergenceError when the objective turns non-finite;
    both carry the partial report.
    """
    opts = opts or SolveOptions()
    samples = as_samples(data)

    def step(params):
        grad, hess = nm_gradient_hessian(params, samples)
        delta = solve_newton_system(hess, grad)
        return delta, CalibrationParams.from_vector(params.to_vector() - delta)

    def converged(params, delta, history):
        return delta is not None and (
            abs(history[-1] - history[-2]) <= opts.objective_tolerance
            or np.linalg.norm(delta) <= opts.step_tolerance
        )

    return newton_solve(
        init, opts, lambda params: nm_objective(params, samples), step, converged,
        lambda params: {"final_params": params},
    )
