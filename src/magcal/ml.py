"""Constrained maximum-likelihood calibration via a Lagrangian Newton method.

Minimizes sum_k ||y_k - T m_k - h||^2 subject to ||m_k|| = 1, over the
upper-triangular inverse shape matrix T, the offset h, the per-sample unit
field directions m_k, and one Lagrange multiplier per constraint. The full
estimate has dimension 4N+9 with the layout

    x = [six T entries, h, m_1 .. m_N, lambda_1 .. lambda_N].

``solve_ml`` starts from a shape/offset estimate (R, h), which
``initial_ml_state`` maps onto this state with T = R^-1, and reports its
estimate back as R = T^-1.

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

from ._newton import newton_solve, solve_newton_system
from .linalg import UPPER_POSITIONS, UPPER_VEC_INDICES, invert_upper
from .types import CalibrationParams, MLState, SolveOptions, SolveReport, as_samples

_EYE3 = np.eye(3)
_ROWS, _COLS = np.array(UPPER_POSITIONS).T
# The head Hessian is twice [[kron(m'm, I), kron(sum m, I)], [., n I]] struck to
# the six T entries: head[p, q] = 2 (m'm)[c_p, c_q] where r_p = r_q, and
# head[p, 6 + r_p] = head[6 + r_p, p] = 2 (sum m)[c_p]. These are its flat
# positions, and where each takes its value in [vec(m'm), sum m, n].
_SAME_P, _SAME_Q = np.nonzero(_ROWS[:, None] == _ROWS)
_HEAD_AT = np.concatenate([9 * _SAME_P + _SAME_Q, 9 * np.arange(6) + 6 + _ROWS,
                           54 + 9 * _ROWS + np.arange(6), [60, 70, 80]])
_HEAD_FROM = np.concatenate([3 * _COLS[_SAME_P] + _COLS[_SAME_Q], 9 + _COLS, 9 + _COLS, [12] * 3])
# _step_block inverts a row's own 4x4 block where its closed form would
# cancel more than this fraction of the terms it sums.
_FALLBACK_RTOL = 1e-4


def _assemble(state: MLState, samples: np.ndarray):
    """Gradient and head Hessian of the Lagrangian, plus what the step needs.

    Returns (g_head, g_m, g_lam, head, t, dirs, resid, lam): the 9-vector
    head gradient, per-sample gradients (N,3) and (N,), the 9x9 head
    Hessian, and T with the per-sample directions, residuals and
    multipliers from which _step_block forms the per-sample blocks.
    """
    t = state.t_matrix
    dirs = state.field_dirs
    lam = state.lagrange
    n = dirs.shape[0]
    r = samples - state.offset - dirs @ t.T

    g_t = -2.0 * (r.T @ dirs).ravel(order="F")[UPPER_VEC_INDICES]
    g_h = -2.0 * r.sum(axis=0)
    g_head = np.concatenate([g_t, g_h])
    g_m = -2.0 * r @ t + 2.0 * lam[:, None] * dirs
    g_lam = np.einsum("ij,ij->i", dirs, dirs) - 1.0

    head = np.zeros((9, 9))
    moments = np.concatenate([(dirs.T @ dirs).ravel(), dirs.sum(axis=0), [n]])
    head.ravel()[_HEAD_AT] = 2.0 * moments[_HEAD_FROM]

    return g_head, g_m, g_lam, head, t, dirs, r, lam


def _step_block(g_head, g_m, g_lam, head, t, dirs, r, lam):
    """Newton step by Schur elimination of each (m_k, lambda_k) block onto the head.

    Every block is [[A_k, 2 m_k], [2 m_k', 0]] with A_k = 2 T'T + 2 lambda_k I,
    so one eigendecomposition T'T = V diag(ev) V' diagonalises all A_k. In
    that basis a block's inverse is [[diag(1/a) - w w'/s, w/s], [w'/s, -1/s]]
    with a = 2 ev + 2 lambda_k, w = 2 m_k / a and s = 2 m_k'w, and the Schur
    sum is a sum of weighted moments of y_k = [m_k, r_k, 1]. Rows where this
    closed form cancels (A_k or the block near singular) invert their 4x4 block.
    """
    n = g_lam.shape[0]
    ttt = t.T @ t
    if not np.all(np.isfinite(ttt)):
        return np.full(9 + 4 * n, np.nan)  # overflow is divergence, not a singular system
    ev, v = np.linalg.eigh(ttt)
    tv = t @ v
    m_e = v.T @ dirs.T  # per-sample values in the eigenbasis are (3, N)
    a = 2.0 * (ev[:, None] + lam)
    bad = np.abs(a).min(axis=0) <= _FALLBACK_RTOL * np.abs(a).max(axis=0)
    inv_a = np.divide(1.0, a, out=np.zeros_like(a), where=~bad)
    w = 2.0 * m_e * inv_a
    s = 2.0 * (m_e * w).sum(axis=0)
    bad |= np.abs(s) <= _FALLBACK_RTOL * 2.0 * np.abs(m_e * w).sum(axis=0)
    inv_a[:, bad] = w[:, bad] = 0.0
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=~bad)
    blocks = np.zeros((int(bad.sum()), 4, 4))
    blocks[:, :3, :3] = _EYE3 * a[:, bad].T[:, None, :]
    blocks[:, :3, 3] = blocks[:, 3, :3] = 2.0 * m_e[:, bad].T
    bad_inv = np.linalg.inv(blocks)

    def solve_blocks(x, y):
        # Every block inverse applied to (x_k, y_k); x is (3, N) in the eigenbasis.
        c = (y - (w * x).sum(axis=0)) * inv_s
        out_m, out_lam = x * inv_a + w * c, -c
        sol = bad_inv @ np.vstack([x[:, bad], y[bad]]).T[:, :, None]
        out_m[:, bad], out_lam[bad] = sol[:, :3, 0].T, sol[:, 3, 0]
        return out_m, out_lam

    # Sample k couples to the head along eigenvector j through lin[j] @ y_k.
    lin = np.zeros((3, 9, 7))
    lin[:, np.arange(6), _COLS] = 2.0 * tv[_ROWS].T
    lin[:, np.arange(6), 3 + _ROWS] = -2.0 * v[_COLS].T
    lin[:, 6:, 6] = 2.0 * tv.T
    lin_flat = lin.transpose(1, 0, 2).reshape(9, 21)
    y = np.ones((7, n))
    y[:3], y[3:6] = dirs.T, r.T
    moments = ((inv_a[:, None, :] * y).reshape(21, n) @ y.T).reshape(3, 7, 7)
    z = lin_flat @ (w[:, None, :] * y).reshape(21, n)
    g_bad = (lin @ y[:, bad]).transpose(2, 0, 1)
    schur = (head - (lin @ moments @ lin.transpose(0, 2, 1)).sum(axis=0) + (z * inv_s) @ z.T
             - g_bad.reshape(-1, 9).T @ (bad_inv[:, :3, :3] @ g_bad).reshape(-1, 9))

    g_me = v.T @ g_m.T
    rhs = -g_head + lin_flat @ (solve_blocks(g_me, g_lam)[0] @ y.T).ravel()
    d_head = solve_newton_system(schur, rhs)
    d_m, d_lam = solve_blocks(g_me + (d_head @ lin) @ y, g_lam)
    return np.concatenate([d_head, -(v @ d_m).T.ravel(), -d_lam])


def initial_ml_state(params: CalibrationParams, samples: np.ndarray) -> MLState:
    """Starting point for the maximum-likelihood solver from validated (N, 3) ``samples``.

    The inverse shape matrix seeds t_matrix, the calibrated samples seed
    the field directions, and all Lagrange multipliers start at zero. A
    start so far off that the directions overflow is left to the solver,
    which reports it as divergence.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        field_dirs = (samples - params.offset) @ params.shape.T
    return MLState(
        t_matrix=invert_upper(params.shape),
        offset=params.offset.copy(),
        field_dirs=field_dirs,
        lagrange=np.zeros(samples.shape[0]),
    )


def solve_ml(data, init: CalibrationParams, opts: SolveOptions | None = None) -> SolveReport:
    """Newton iteration on the full KKT system from the estimate ``init``.

    Exits when the Lagrangian gradient norm drops to gradient_tolerance or
    max_iterations is reached. Raises SolverFailure on singular systems and
    DivergenceError on non-finite values, both carrying the partial report.
    """
    samples = as_samples(data)
    return _iterate(samples, initial_ml_state(init, samples), opts)


def _iterate(samples: np.ndarray, init: MLState, opts: SolveOptions | None = None) -> SolveReport:
    """solve_ml's Newton iteration from the ML state ``init`` of ``samples``."""
    opts = opts or SolveOptions()
    assembly = None
    violations = []

    def objective(state):
        # Assembled once per iterate; converged and step then reuse it.
        nonlocal assembly
        assembly = _assemble(state, samples)
        g_lam, r = assembly[2], assembly[6]
        violations.append(float(np.max(np.abs(g_lam))))
        return float(np.einsum("ij,ij->", r, r))

    def converged(state, delta, history):
        g_head, g_m, g_lam = assembly[:3]
        grad_norm = np.sqrt(g_head @ g_head + np.einsum("ij,ij->", g_m, g_m) + g_lam @ g_lam)
        return grad_norm <= opts.gradient_tolerance

    def step(state):
        delta = _step_block(*assembly)
        return delta, MLState.from_vector(state.to_vector() + delta, len(samples))

    def finish(state):
        t, warn = state.t_matrix, ()
        if np.any(np.diag(t) <= 0.0):
            warn = ("t_matrix diagonal not strictly positive at exit",)
        # R = T^-1. A failed solve can stop at a T with no inverse; its report gets a NaN shape.
        shape = np.triu(np.full((3, 3), np.nan))
        if np.all(np.isfinite(t)) and np.all(np.diag(t) != 0.0):
            shape = invert_upper(t)
        params = CalibrationParams(shape, state.offset.copy())
        return dict(final_params=params, final_state=state,
                    constraint_violation_history=violations, warnings=warn)

    return newton_solve(init, opts, objective, step, converged, finish)
