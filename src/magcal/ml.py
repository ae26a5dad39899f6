"""Constrained maximum-likelihood calibration via a Lagrangian Newton method.

Minimizes sum_k ||y_k - T m_k - h||^2 subject to ||m_k|| = 1, over the
upper-triangular inverse shape matrix T, the offset h, the per-sample unit
field directions m_k, and one Lagrange multiplier per constraint. The full
estimate has dimension 4N+9 with the layout

    x = [six T entries, h, m_1 .. m_N, lambda_1 .. lambda_N].

``solve_ml`` starts from a shape/offset estimate (R, h), which
``_initial_states`` maps onto this state with T = R^-1, and reports its
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

from dataclasses import dataclass

import numpy as np

from ._newton import CHUNK as _CHUNK  # _step_block's rows a block: N <= _CHUNK is one block
from ._newton import dot, newton_solve, only, solve_newton_system, tr
from .linalg import UPPER_COLS, UPPER_ROWS, UPPER_VEC_INDICES, invert_upper, pack_upper
from .linalg import unpack_upper
from .types import CalibrationParams, SolveOptions, SolveReport, as_samples

_EYE3 = np.eye(3)
# The head Hessian is twice [[kron(m'm, I), kron(sum m, I)], [., n I]] struck to
# the six T entries: head[p, q] = 2 (m'm)[c_p, c_q] where r_p = r_q, and
# head[p, 6 + r_p] = head[6 + r_p, p] = 2 (sum m)[c_p]. This is where each entry
# takes its half in [vec(m'm), sum m, n, 0].
_SAME_P, _SAME_Q = np.nonzero(UPPER_ROWS[:, None] == UPPER_ROWS)
_HEAD_FROM = np.full((9, 9), 13)
_HEAD_FROM[_SAME_P, _SAME_Q] = 3 * UPPER_COLS[_SAME_P] + UPPER_COLS[_SAME_Q]
_HEAD_FROM[np.arange(6), 6 + UPPER_ROWS] = _HEAD_FROM[6 + UPPER_ROWS, np.arange(6)] = 9 + UPPER_COLS
_HEAD_FROM[6 + np.arange(3), 6 + np.arange(3)] = 12
# Sample k couples to the head along eigenvector j through the 9x7 matrix
# lin[j], over y_k = [m_k, r_k, 1]: lin[j, p, c_p] = 2 (T V)[r_p, j],
# lin[j, p, 3 + r_p] = -2 V[c_p, j] and lin[j, 6 + i, 6] = 2 (T V)[i, j]. These
# are where each entry takes its value in [vec(2 T V), vec(-2 V), 0], row-major.
_J = np.arange(3)[:, None]
_LIN_FROM = np.full((3, 9, 7), 18)
_LIN_FROM[:, np.arange(6), UPPER_COLS] = 3 * UPPER_ROWS + _J
_LIN_FROM[:, np.arange(6), 3 + UPPER_ROWS] = 9 + 3 * UPPER_COLS + _J
_LIN_FROM[:, 6:, 6] = 3 * np.arange(3) + _J
# _step_block inverts a row's own 4x4 block where its closed form would
# cancel more than this fraction of the terms it sums.
_FALLBACK_RTOL = 1e-4


@dataclass(frozen=True)
class MLState:
    """Where an ml solve ended, as its report's final_state: T = R^-1, h, m_k (N, 3), lambda_k."""

    t_matrix: np.ndarray
    offset: np.ndarray
    field_dirs: np.ndarray
    lagrange: np.ndarray


def _assemble(t, offset, dirs, lam, samples):
    """Gradient and head Hessian of the Lagrangian at a stack of states, plus what the step needs.

    Takes the stacked state (T, h, directions, multipliers) and the (B, N, 3)
    samples. Returns (g_head, g_m, g_lam, head, t, dirs, resid, lam), each with
    a leading batch axis: the 9-vector head gradient, per-sample gradients
    (N,3) and (N,), the 9x9 head Hessian, and T with the per-sample
    directions, residuals and multipliers from which _step_block forms the
    per-sample blocks.
    """
    b, n = lam.shape
    r = samples - offset[:, None, :] - dirs @ tr(t)

    g_t = -2.0 * tr(tr(r) @ dirs).reshape(b, 9).take(UPPER_VEC_INDICES, axis=1)
    # einsum sums each column in row order, as r.sum(axis=1) does, in half the time.
    g_h = -2.0 * np.einsum("bij->bj", r)
    g_head = np.concatenate([g_t, g_h], axis=1)
    g_m = -2.0 * r @ t + 2.0 * lam[:, :, None] * dirs
    g_lam = np.einsum("bij,bij->bi", dirs, dirs) - 1.0

    moments = np.concatenate([(tr(dirs) @ dirs).reshape(b, 9), np.einsum("bij->bj", dirs),
                              np.full((b, 1), float(n)), np.zeros((b, 1))], axis=1)
    head = 2.0 * moments.take(_HEAD_FROM, axis=1)

    return g_head, g_m, g_lam, head, t, dirs, r, lam


def _block_inverses(ev, v, dirs, r, lam):
    """The closed-form block inverses of some sample rows, and their y_k.

    Returns (inv_a, w, inv_s, bad, bad_inv, y) as _step_block describes them;
    bad_inv holds the flagged rows' inverted 4x4 blocks, item by item, or is
    None if no row is flagged.
    """
    m_e = tr(v) @ tr(dirs)  # per-sample values in the eigenbasis are (B, 3, rows)
    a = 2.0 * (ev[:, :, None] + lam[:, None, :])
    abs_a = np.abs(a)
    bad = abs_a.min(axis=1) <= _FALLBACK_RTOL * abs_a.max(axis=1)
    inv_a = (np.divide(1.0, a, out=np.zeros_like(a), where=~bad[:, None, :]) if bad.any()
             else 1.0 / a)
    w = 2.0 * m_e * inv_a
    m_w = m_e * w
    s = 2.0 * m_w.sum(axis=1)
    bad |= np.abs(s) <= _FALLBACK_RTOL * 2.0 * np.abs(m_w).sum(axis=1)
    bad_inv = None
    if bad.any():
        tr(inv_a)[bad] = tr(w)[bad] = 0.0
        inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=~bad)
        blocks = np.zeros((int(bad.sum()), 4, 4))
        blocks[:, :3, :3] = _EYE3 * tr(a)[bad][:, None, :]
        blocks[:, :3, 3] = blocks[:, 3, :3] = 2.0 * tr(m_e)[bad]
        bad_inv = np.linalg.inv(blocks)
    else:
        inv_s = 1.0 / s
    del abs_a, m_w, m_e, a  # not held while y is formed
    y = np.empty((lam.shape[0], 7, lam.shape[1]))
    y[:, :3], y[:, 3:6], y[:, 6] = tr(dirs), tr(r), 1.0
    return inv_a, w, inv_s, bad, bad_inv, y


def _solve_blocks(inverses, x, x_lam):
    """Each row's block inverse applied to (x_k, x_lam_k); x is (B, 3, rows) in the eigenbasis."""
    inv_a, w, inv_s, bad, bad_inv, _ = inverses
    c = (x_lam - (w * x).sum(axis=1)) * inv_s
    out_m, out_lam = x * inv_a, -c
    out_m += w * c[:, None, :]
    if bad_inv is not None:
        sol = bad_inv @ np.vstack([tr(x)[bad].T, x_lam[bad]]).T[:, :, None]
        tr(out_m)[bad], out_lam[bad] = sol[:, :3, 0], sol[:, 3, 0]
    return out_m, out_lam


def _step_block(g_head, g_m, g_lam, head, t, dirs, r, lam):
    """Newton steps by Schur elimination of each (m_k, lambda_k) block onto the head.

    Takes _assemble's stacked output and gives one (9 + 4N) step per item.
    Every block is [[A_k, 2 m_k], [2 m_k', 0]] with A_k = 2 T'T + 2 lambda_k I,
    so one eigendecomposition T'T = V diag(ev) V' diagonalises all A_k. In
    that basis a block's inverse is [[diag(1/a) - w w'/s, w/s], [w'/s, -1/s]]
    with a = 2 ev + 2 lambda_k, w = 2 m_k / a and s = 2 m_k'w, and the Schur
    sum is a sum of weighted moments of y_k = [m_k, r_k, 1]. Rows where this
    closed form cancels (A_k or the block near singular) are flagged and
    invert their own 4x4 block instead; that fallback is built and applied
    only in a block of rows where some row is flagged.

    The rows are taken _CHUNK at a time, so the temporaries are the size of
    one block: a first pass adds each block's part of the Schur complement
    and of its right-hand side, the 9x9 head system is solved once, and a
    second pass back-substitutes each block into the step. An item whose T'T
    is not finite gets a NaN step.
    """
    b, n = g_lam.shape
    ttt = tr(t) @ t
    finite = np.isfinite(ttt).all(axis=(1, 2))
    if not finite.all():  # overflow is divergence, not a singular system
        step = np.full((b, 9 + 4 * n), np.nan)
        if finite.any():
            step[finite] = _step_block(*(a[finite] for a in (g_head, g_m, g_lam, head, t, dirs,
                                                              r, lam)))
        return step
    ev, v = np.linalg.eigh(ttt)
    tv = t @ v
    # take keeps each item's lin contiguous, as a BLAS product needs it to round as for B = 1.
    lin = np.concatenate([(2.0 * tv).reshape(b, 9), (-2.0 * v).reshape(b, 9), np.zeros((b, 1))],
                         axis=1).take(_LIN_FROM, axis=1)
    lin_flat = lin.transpose(0, 2, 1, 3).reshape(b, 9, 21)

    blocks, total, fallback = [], None, [None] * b
    for lo in range(0, n, _CHUNK):
        span = slice(lo, lo + _CHUNK)
        inverses = _block_inverses(ev, v, dirs[:, span], r[:, span], lam[:, span])
        inv_a, w, inv_s, bad, bad_inv, y = inverses
        rows, moments, zz = y.shape[2], np.empty((b, 21, 7)), np.empty((b, 9, 9))
        step_items = max(1, _CHUNK // (2 * rows))  # (items, 21, rows) products of <= _CHUNK/2 rows
        for g in (slice(i, i + step_items) for i in range(0, b, step_items)):
            np.matmul((inv_a[g, :, None, :] * y[g, None]).reshape(-1, 21, rows), tr(y[g]),
                      out=moments[g])
            z = lin_flat[g] @ (w[g, :, None, :] * y[g, None]).reshape(-1, 21, rows)
            np.matmul(z * inv_s[g, None, :], tr(z), out=zz[g])
        del z  # not held while the next temporaries are formed
        moments = moments.reshape(b, 3, 7, 7)
        g_me = tr(v) @ tr(g_m[:, span])
        part = moments, zz, _solve_blocks(inverses, g_me, g_lam[:, span])[0] @ tr(y)
        # Each sum starts from its first block's part, so one block adds nothing.
        total = part if total is None else [p + q for p, q in zip(total, part)]
        if bad_inv is not None:
            ends = np.cumsum(bad.sum(axis=1))
            for i in np.flatnonzero(bad.any(axis=1)):
                g_bad = (lin[i] @ y[i][:, bad[i]]).transpose(2, 0, 1)
                item_inv = bad_inv[ends[i] - len(g_bad) : ends[i]]
                part = g_bad.reshape(-1, 9).T @ (item_inv[:, :3, :3] @ g_bad).reshape(-1, 9)
                fallback[i] = part if fallback[i] is None else fallback[i] + part
        blocks.append((span, inverses, g_me))
    moments, zz, g_y = total
    schur = head - (lin @ moments @ tr(lin)).sum(axis=1) + zz
    for i, part in enumerate(fallback):
        if part is not None:
            schur[i] -= part

    rhs = -g_head + (lin_flat @ g_y.reshape(b, 21, 1))[:, :, 0]
    d_head = solve_newton_system(schur, rhs)
    d_lin = (d_head[:, None, None, :] @ lin)[:, :, 0, :]
    step = np.empty((b, 9 + 4 * n))
    step[:, :9] = d_head
    d_dirs, d_lams = step[:, 9 : 9 + 3 * n].reshape(b, n, 3), step[:, 9 + 3 * n :]
    for span, inverses, g_me in blocks:
        d_x = d_lin @ inverses[5]
        d_x += g_me
        d_m, d_lam = _solve_blocks(inverses, d_x, g_lam[:, span])
        del d_x
        np.negative(tr(v @ d_m), out=d_dirs[:, span])
        np.negative(d_lam, out=d_lams[:, span])
    return step


def _initial_states(inits, samples: np.ndarray) -> tuple:
    """The stacked starting states of the estimates ``inits`` on validated (B, N, 3) ``samples``.

    Returns the iterate of _iterate: (T, h, directions, multipliers, samples).
    The inverse shape matrix seeds T, the calibrated samples seed the field
    directions, and all Lagrange multipliers start at zero. A start so far off
    that the directions overflow, or whose shape has no finite inverse (a zero
    diagonal or a non-finite entry; T is then NaN), is left to the solver,
    which reports it as divergence.
    """
    shapes = np.array([p.shape for p in inits])
    offsets = np.array([p.offset for p in inits])
    with np.errstate(over="ignore", invalid="ignore"):
        field_dirs = (samples - offsets[:, None, :]) @ tr(shapes)
    t = np.array([invert_upper(r) for r in shapes])
    return t, offsets, field_dirs, np.zeros(samples.shape[:2]), samples


def solve_ml(data, init: CalibrationParams, opts: SolveOptions | None = None) -> SolveReport:
    """Newton iteration on the full KKT system from the estimate ``init``.

    Exits when the Lagrangian gradient norm drops to gradient_tolerance or
    max_iterations is reached. Raises SolverFailure on singular systems and
    DivergenceError on non-finite values, both carrying the partial report.
    """
    return only(solve_ml_batch(as_samples(data)[None], [init], opts))


def solve_ml_batch(samples: np.ndarray, inits, opts: SolveOptions | None = None) -> list:
    """solve_ml on a stack of problems: validated (B, N, 3) ``samples`` and B initial estimates.

    Returns, per problem in order, its SolveReport or the SolverFailure that
    ended it. Each problem's numbers are those of its lone solve_ml. The step
    takes CHUNK rows at a time, but the iterates span the stack (about 51 floats
    a row at N = 300), so the caller bounds it, as for solve_nm_batch.
    """
    return _iterate(_initial_states(inits, samples), opts)


def _iterate(x: tuple, opts: SolveOptions | None = None) -> list:
    """solve_ml_batch's Newton iteration from the stacked iterate ``x`` of _initial_states."""
    opts = opts or SolveOptions()

    def objective(x):
        # Assembled once per iterate; converged and step then reuse it.
        assembly = _assemble(*x)
        g_lam, r = assembly[2], assembly[6]
        return (np.einsum("bij,bij->b", r, r), np.abs(g_lam).max(axis=1)), assembly

    def converged(values, previous, delta, assembly):
        g_head, g_m, g_lam = assembly[:3]
        grad_norm = np.sqrt(dot(g_head, g_head) + np.einsum("bij,bij->b", g_m, g_m)
                            + dot(g_lam, g_lam))
        return (grad_norm <= opts.gradient_tolerance).tolist()

    def step(x, assembly):
        t, offset, dirs, lam, samples = x
        n = lam.shape[1]
        delta = _step_block(*assembly)
        return delta, (unpack_upper(pack_upper(t) + delta[:, :6]), offset + delta[:, 6:9],
                       dirs + delta[:, 9 : 9 + 3 * n].reshape(-1, n, 3),
                       lam + delta[:, 9 + 3 * n :], samples)

    def finish(item, records):
        t, offset, dirs, lam, _ = item
        warn = ()
        if np.any(np.diag(t) <= 0.0):
            warn = ("t_matrix diagonal not strictly positive at exit",)
        # R = T^-1. A failed solve can stop at a T with no inverse; its report gets a NaN shape.
        state = MLState(*(a.copy() for a in (t, offset, dirs, lam)))  # views would hold the stack
        return dict(final_params=CalibrationParams(invert_upper(t), offset.copy()),
                    final_state=state, constraint_violation_history=records[1], warnings=warn)

    return newton_solve(x, opts, objective, step, converged, finish)
