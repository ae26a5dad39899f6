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

import ctypes
from dataclasses import dataclass

import numpy as np

from ._newton import CHUNK as _CHUNK  # _step_block's rows a block: N <= _CHUNK is one block
from ._newton import dot, newton_solve, only, solve_newton_system, tr
from .linalg import UPPER_COLS, UPPER_ROWS, UPPER_VEC_INDICES, invert_upper, pack_upper
from .linalg import unpack_upper
from .types import CalibrationParams, SolveOptions, SolveReport, as_samples

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
# lin[:, j], over y_k = [m_k, r_k, 1]: lin[p, j, c_p] = 2 (T V)[r_p, j],
# lin[p, j, 3 + r_p] = -2 V[c_p, j] and lin[6 + i, j, 6] = 2 (T V)[i, j]. These
# are where each entry takes its value in [vec(2 T V), vec(-2 V), 0], row-major.
_J, _T6 = np.arange(3), np.arange(6)[:, None]
_LIN_FROM = np.full((9, 3, 7), 18)
_LIN_FROM[_T6, _J, UPPER_COLS[:, None]] = 3 * UPPER_ROWS[:, None] + _J
_LIN_FROM[_T6, _J, 3 + UPPER_ROWS[:, None]] = 9 + 3 * UPPER_COLS[:, None] + _J
_LIN_FROM[6:, :, 6] = 3 * _J[:, None] + _J
# A row's P from its six entries [P_00, P_11, P_22, P_12, P_20, P_01]: P[j, l] = six[_SIX[j, l]].
# The Schur sum's 21x21 moment over (j, y entry) takes M_jl from six moments in that order.
_SIX = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])
_MOMENT_FROM = (49 * _SIX[:, None, :, None] + 7 * np.arange(7)[:, None, None]
                + np.arange(7)).reshape(21, 21)
try:  # the C library's malloc and free, which numpy's arrays go through
    _LIBC = ctypes.CDLL(None)
    _LIBC.malloc.restype, _LIBC.free.argtypes = ctypes.c_void_p, [ctypes.c_void_p]
except (OSError, TypeError, AttributeError):  # no C library to load by name
    _LIBC = None


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
    """The inverses of some sample rows' blocks, in adjugate form, and their y_k.

    In the eigenbasis a row's block is [[diag(a), 2 mu], [2 mu', 0]], with a = 2 ev + 2 lambda_k
    and mu = V'm_k. With i = j + 1, o = j + 2 (mod 3) and q = sum_j mu_j^2 a_i a_o, its inverse
    is [[P, c], [c', d]]: P = [mu]x diag(a) [mu]x' / q, c_j = mu_j a_i a_o / (2q) and
    d = -a_0 a_1 a_2 / (4q). No a_j is divided by, so a singular A_k costs no digits; q is 0
    only for a singular block, whose inverse is then inf or NaN. Returns P's six entries
    (6, B, rows) in _SIX's order and c (3, B, rows), component first, d (B, rows), y (B, 7, rows)
    and a flag per item with a singular block among these rows.
    """
    b, rows = lam.shape
    # mu and a / 2 component first, each with its first two components again after
    # the third, so that [1:4] and [2:5] are every j's i and o. Each term formed from
    # a / 2 is a power of two times its value from a, and rounds alike.
    mu, half_a = np.empty((5, b, rows)), np.empty((5, b, rows))
    np.matmul(tr(v), tr(dirs), out=mu[:3].transpose(1, 0, 2))
    np.add(ev.T[:, :, None], lam, out=half_a[:3])
    mu[3:], half_a[3:] = mu[:2], half_a[:2]
    c = half_a[1:4] * half_a[2:5]
    d = half_a[0] * c[0]
    c *= mu[:3]
    quarter_q = np.einsum("jbk,jbk->bk", mu[:3], c)
    neg = -0.5 / quarter_q  # -2 / q
    c *= -neg
    d *= neg
    half_a *= neg  # -a / q from here on
    six = np.empty((6, b, rows))  # P_jj = (mu_i^2 a_o + mu_o^2 a_i) / q, P_io = -mu_i mu_o a_j / q
    np.multiply(mu[1:4], mu[2:5], out=six[3:])
    six[3:] *= half_a[:3]
    mu *= -mu  # -mu^2
    np.multiply(mu[1:4], half_a[2:5], out=six[:3])
    six[:3] += mu[2:5] * half_a[1:4]
    y = np.empty((b, 7, rows))
    y[:, :3], y[:, 3:6], y[:, 6] = tr(dirs), tr(r), 1.0
    return six, c, d, y, ~quarter_q.all(axis=1)


def _solve_blocks(inverses, x, x_lam):
    """Each row's block inverse applied to (x_k, x_lam_k); x is (B, 3, rows) in the eigenbasis."""
    six, c, d = inverses[:3]
    out_m = np.einsum("jlbk,blk->jbk", six[_SIX], x)
    out_m += c * x_lam
    return out_m.swapaxes(0, 1), np.einsum("jbk,bjk->bk", c, x) + d * x_lam


def _step_block(g_head, g_m, g_lam, head, t, dirs, r, lam):
    """Newton steps by Schur elimination of each (m_k, lambda_k) block onto the head.

    Takes _assemble's stacked output and gives one (9 + 4N) step per item.
    Every block is [[A_k, 2 m_k], [2 m_k', 0]] with A_k = 2 T'T + 2 lambda_k I,
    so one eigendecomposition T'T = V diag(ev) V' diagonalises all A_k, and
    _block_inverses inverts every row's block by one closed form. The Schur
    sum is head - sum_jl lin[:, j] M_jl lin[:, l]', over the six moments
    M_jl = sum_k P_jl y_k y_k' of y_k = [m_k, r_k, 1].

    The rows are taken _CHUNK at a time, so the temporaries are the size of
    one block: a first pass adds each block's part of the Schur complement
    and of its right-hand side, the 9x9 head system is solved once, and a
    second pass back-substitutes each block into the step. Only the last
    block's inverses outlive the first pass, so the second pass walks the
    blocks last-first, reuses them, and computes every earlier block's
    again, bit for bit. Returns the steps and a flag per item whose block or Schur
    complement is singular; such an item's step is NaN, as is that of an item whose T'T
    is not finite, which keeps its place without a flag.
    """
    b, n = g_lam.shape
    ttt = tr(t) @ t
    # Overflow is divergence, not a singular system: an item whose T'T is not finite is
    # decomposed as the identity, and its NaN eigenvalues carry a NaN q to a NaN step.
    finite = np.isfinite(ttt).all(axis=(1, 2))
    ev, v = np.linalg.eigh(np.where(finite[:, None, None], ttt, np.eye(3)))
    ev[~finite] = np.nan
    # take keeps each item's lin contiguous, as a BLAS product needs it to round as for B = 1.
    lin = np.concatenate([2.0 * (t @ v).reshape(b, 9), (-2.0 * v).reshape(b, 9), np.zeros((b, 1))],
                         axis=1).take(_LIN_FROM, axis=1).reshape(b, 9, 21)

    def block_inverses(span):
        return _block_inverses(ev, v, dirs[:, span], r[:, span], lam[:, span])

    spans = [slice(lo, lo + _CHUNK) for lo in range(0, n, _CHUNK)]
    total, singular = None, np.zeros(b, dtype=bool)
    for span in spans:
        inverses = block_inverses(span)
        singular |= inverses[4]
        six, y = inverses[0], inverses[3]
        moments = np.empty((b, 42, 7))
        for i in range(b):  # one (42, rows) product per item, as a lone step forms it
            np.matmul((six[:, i, None] * y[i, None]).reshape(42, -1), y[i].T, out=moments[i])
        g_me = tr(v) @ tr(g_m[:, span])
        part = moments, _solve_blocks(inverses, g_me, g_lam[:, span])[0] @ tr(y)
        # Each sum starts from its first block's part, so one block adds nothing.
        total = part if total is None else [p + q for p, q in zip(total, part)]
    moments, g_y = total
    schur = head - lin @ moments.reshape(b, 294).take(_MOMENT_FROM, axis=1) @ tr(lin)

    rhs = -g_head + (lin @ g_y.reshape(b, 21, 1))[:, :, 0]
    d_head, schur_singular = solve_newton_system(schur, rhs)
    d_lin = (d_head[:, None, :] @ lin).reshape(b, 3, 7)
    step = np.empty((b, 9 + 4 * n))
    step[:, :9] = d_head
    d_dirs, d_lams = step[:, 9 : 9 + 3 * n].reshape(b, n, 3), step[:, 9 + 3 * n :]
    for span in reversed(spans):
        if span is not spans[-1]:  # the last block's inverses are those pass 1 ended with
            inverses = block_inverses(span)
        d_x = d_lin @ inverses[3]
        d_x += tr(v) @ tr(g_m[:, span])  # g_me, as in pass 1
        d_m, d_lam = _solve_blocks(inverses, d_x, g_lam[:, span])
        np.negative(tr(v @ d_m), out=d_dirs[:, span])
        np.negative(d_lam, out=d_lams[:, span])
    return step, singular | schur_singular


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
    takes CHUNK rows at a time, but the iterates span the stack: its traced peak
    is about 55 floats a stacked row at N = 300, where one row block holds the
    whole stack, and 20 a row for one item of 30 000 rows. The caller bounds the
    stack, as for solve_nm_batch.
    """
    return _iterate(_initial_states(inits, samples), opts)


def _iterate(x: tuple, opts: SolveOptions | None = None) -> list:
    """solve_ml_batch's Newton iteration from the stacked iterate ``x`` of _initial_states."""
    opts = opts or SolveOptions()
    # Dropped untouched: glibc mmaps a 4 MiB block and, on its free, raises the mmap
    # threshold to 4 MiB and the trim threshold to 8 MiB (mallopt(3)), so later solves
    # reuse the heap instead of handing it back to the kernel and faulting it in again.
    # From the C library, not numpy: tracemalloc would count the block, never resident,
    # as the solve's memory.
    if _LIBC is not None:
        _LIBC.free(_LIBC.malloc(4 << 20))

    def objective(x):
        # Assembled once per iterate; converged and step then reuse it.
        assembly = _assemble(*x)
        g_lam, r = assembly[2], assembly[6]
        return (np.einsum("bij,bij->b", r, r), np.abs(g_lam).max(axis=1)), assembly

    def converged(values, previous, delta, assembly):
        g_head, g_m, g_lam = assembly[:3]
        grad_norm = np.sqrt(dot(g_head, g_head) + np.einsum("bij,bij->b", g_m, g_m)
                            + dot(g_lam, g_lam))
        return grad_norm <= opts.gradient_tolerance

    def step(x, assembly):
        t, offset, dirs, lam, samples = x
        n = lam.shape[1]
        delta, singular = _step_block(*assembly)
        return delta, (unpack_upper(pack_upper(t) + delta[:, :6]), offset + delta[:, 6:9],
                       dirs + delta[:, 9 : 9 + 3 * n].reshape(-1, n, 3),
                       lam + delta[:, 9 + 3 * n :], samples), singular

    def finish(item, records):
        t, offset, dirs, lam, _ = item
        warn = ()
        if np.any(np.diag(t) <= 0.0):
            warn = ("t_matrix diagonal not strictly positive at exit",)
        # R = T^-1. A failed solve can stop at a T with no inverse; its report gets a NaN shape.
        state = MLState(*(a.copy() for a in (t, offset, dirs, lam)))  # views would hold the stack
        return dict(final_params=CalibrationParams(invert_upper(t), offset.copy()),
                    final_state=state, constraint_violation_history=records[1], warnings=warn)

    # Handed over, not kept here, so that a solve_ml_batch drops its start after the first step.
    start = [x]
    del x
    return newton_solve(start.pop(), opts, objective, step, converged, finish)
