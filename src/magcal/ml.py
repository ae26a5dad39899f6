"""Constrained maximum-likelihood calibration via a Lagrangian Newton method.

Minimizes sum_k ||y_k - T m_k - h||^2 subject to ||m_k|| = 1, over the
upper-triangular inverse shape matrix T, the offset h, the per-sample unit
field directions m_k, and one Lagrange multiplier per constraint. The full
estimate has dimension 4N+9 with the layout

    x = [six T entries, h, m_1 .. m_N, lambda_1 .. lambda_N].

The KKT Hessian is an arrowhead matrix: each (m_k, lambda_k) 4x4 block
couples only to the 9-dimensional (T, h) head. Newton steps are therefore
computed in O(N) by eliminating every per-sample block onto the head via
Schur complements.

Convergence is declared on the norm of the full Lagrangian gradient; the
data misfit alone can be tiny at infeasible points (it is ~0 at the
standard initialization) and is no use as a test.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ._newton import newton_solve
from .linalg import UPPER_VEC_INDICES
from .metrics import params_from_ml
from .types import CalibrationParams, MLState, SolveOptions, SolveReport, as_samples

_EYE3 = np.eye(3)


def ml_objective(state: MLState, data) -> tuple[float, float]:
    """Data misfit and full Lagrangian value.

    Returns (misfit, lagrangian) where misfit = sum ||y - T m - h||^2 and
    lagrangian adds sum lambda_k (||m_k||^2 - 1).
    """
    samples = as_samples(data)
    if samples.shape[0] != state.n_samples:
        raise ValueError("state and data sample counts disagree")
    r = samples - state.offset - state.field_dirs @ state.t_matrix.T
    misfit = float(np.einsum("ij,ij->", r, r))
    constraint = np.einsum("ij,ij->i", state.field_dirs, state.field_dirs) - 1.0
    return misfit, misfit + float(state.lagrange @ constraint)


def _assemble(state: MLState, samples: np.ndarray):
    """Gradient and Hessian blocks of the Lagrangian.

    Returns (g_head, g_m, g_lam, head, coupling, diag_blocks): the 9-vector
    head gradient, per-sample gradients (N,3) and (N,), the 9x9 head
    Hessian, the (N,9,4) head-to-sample couplings, and the (N,4,4)
    per-sample KKT blocks.
    """
    t = state.t_matrix
    dirs = state.field_dirs
    lam = state.lagrange
    n = dirs.shape[0]
    u = samples - state.offset
    r = u - dirs @ t.T

    g_t = -2.0 * (r.T @ dirs).ravel(order="F")[UPPER_VEC_INDICES]
    g_h = -2.0 * r.sum(axis=0)
    g_head = np.concatenate([g_t, g_h])
    g_m = -2.0 * r @ t + 2.0 * lam[:, None] * dirs
    g_lam = np.einsum("ij,ij->i", dirs, dirs) - 1.0

    head = np.zeros((9, 9))
    h_tt = 2.0 * np.kron(dirs.T @ dirs, _EYE3)
    head[:6, :6] = h_tt[np.ix_(UPPER_VEC_INDICES, UPPER_VEC_INDICES)]
    h_th = 2.0 * np.kron(dirs.sum(axis=0)[:, None], _EYE3)
    head[:6, 6:] = h_th[UPPER_VEC_INDICES, :]
    head[6:, :6] = head[:6, 6:].T
    head[6:, 6:] = 2.0 * n * _EYE3

    # Head-to-sample coupling: rows over [T entries, h], columns [m_k, lambda_k].
    h_tm = 2.0 * (
        np.einsum("kc,rl->kcrl", dirs, t).reshape(n, 9, 3)
        - np.einsum("cl,kr->kcrl", _EYE3, r).reshape(n, 9, 3)
    )
    coupling = np.zeros((n, 9, 4))
    coupling[:, :6, :3] = h_tm[:, UPPER_VEC_INDICES, :]
    coupling[:, 6:9, :3] = 2.0 * t

    diag_blocks = np.zeros((n, 4, 4))
    diag_blocks[:, :3, :3] = 2.0 * t.T @ t + 2.0 * lam[:, None, None] * _EYE3
    diag_blocks[:, :3, 3] = 2.0 * dirs
    diag_blocks[:, 3, :3] = 2.0 * dirs

    return g_head, g_m, g_lam, head, coupling, diag_blocks


def _step_block(g_head, g_m, g_lam, head, coupling, diag_blocks):
    """Newton step by Schur elimination of each 4x4 block onto the head."""
    n = g_lam.shape[0]
    g_tail = np.concatenate([g_m, g_lam[:, None]], axis=1)  # (N, 4)
    tail_solve = np.linalg.solve(diag_blocks, np.concatenate(
        [g_tail[:, :, None], np.transpose(coupling, (0, 2, 1))], axis=2
    ))  # (N, 4, 1+9)
    dinv_g = tail_solve[:, :, 0]
    dinv_bt = tail_solve[:, :, 1:]
    schur = head - np.einsum("kij,kjl->il", coupling, dinv_bt)
    rhs = -g_head + np.einsum("kij,kj->i", coupling, dinv_g)
    d_head = scipy.linalg.solve(schur, rhs, assume_a="sym")
    d_tail = -(dinv_g + np.einsum("kij,j->ki", dinv_bt, d_head))
    return np.concatenate([d_head, d_tail[:, :3].ravel(), d_tail[:, 3]])


def solve_ml(data, init: MLState, opts: SolveOptions | None = None) -> SolveReport:
    """Newton iteration on the full KKT system from ``init``.

    Exits when the Lagrangian gradient norm drops to gradient_tolerance or
    max_iterations is reached. Raises SolverFailure on singular systems and
    DivergenceError on non-finite values, both carrying the partial report.
    """
    opts = opts or SolveOptions()
    samples = as_samples(data)
    assembly = None
    violations = []

    def objective(state):
        # Called once per iterate, so the violation history aligns with the misfit's.
        dirs = state.field_dirs
        violations.append(float(np.max(np.abs(np.einsum("ij,ij->i", dirs, dirs) - 1.0))))
        return ml_objective(state, samples)[0]

    def converged(state, delta, history):
        nonlocal assembly  # reused by the step that follows
        assembly = _assemble(state, samples)
        g_head, g_m, g_lam = assembly[:3]
        grad_norm = np.sqrt(g_head @ g_head + np.einsum("ij,ij->", g_m, g_m) + g_lam @ g_lam)
        return grad_norm <= opts.gradient_tolerance

    def step(state):
        delta = _step_block(*assembly)
        return delta, MLState.from_vector(state.to_vector() + delta, init.n_samples)

    def finish(state):
        t, warn = state.t_matrix, ()
        if np.any(np.diag(t) <= 0.0):
            warn = ("t_matrix diagonal not strictly positive at exit",)
        # A failed solve can stop at a T with no inverse; its report gets a NaN shape.
        params = CalibrationParams(np.triu(np.full((3, 3), np.nan)), state.offset.copy())
        if np.all(np.isfinite(t)) and np.all(np.diag(t) != 0.0):
            params = params_from_ml(state)
        return dict(final_params=params, final_state=state,
                    constraint_violation_history=violations, warnings=warn)

    return newton_solve(init, opts, objective, step, converged, finish)
