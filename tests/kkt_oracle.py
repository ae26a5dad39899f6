"""Dense KKT oracle for the ml solver.

Expands the compact assembly of magcal.ml into the full (4N+9)^2 arrowhead
system that the library's block elimination never builds, and factors it.
Tests compare the library's O(N) Newton step, and whole solves, against it.
ml_objective is the Lagrangian those derivatives are checked against.
"""

import numpy as np
import scipy.linalg

from magcal.linalg import UPPER_VEC_INDICES
from magcal.ml import MLState
from magcal.types import as_samples

_EYE3 = np.eye(3)


def ml_objective(state: MLState, data) -> tuple[float, float]:
    """Data misfit and full Lagrangian value.

    Returns (misfit, lagrangian) where misfit = sum ||y - T m - h||^2 and
    lagrangian adds sum lambda_k (||m_k||^2 - 1).
    """
    samples = as_samples(data)
    r = samples - state.offset - state.field_dirs @ state.t_matrix.T
    misfit = float(np.einsum("ij,ij->", r, r))
    constraint = np.einsum("ij,ij->i", state.field_dirs, state.field_dirs) - 1.0
    return misfit, misfit + float(state.lagrange @ constraint)


def ml_kkt_system(*assembly, item=0):
    """Full KKT gradient and dense symmetric Hessian, dimension 4N+9.

    Takes the stacked tuple returned by magcal.ml._assemble, and the index of the item.
    """
    g_head, g_m, g_lam, head, t, dirs, resid, lam = (a[item] for a in assembly)
    n = g_lam.shape[0]
    # d^2L / dT_rc dm_kl = 2 (m_kc T_rl - delta_cl r_kr), row index 3c + r of vec(T).
    h_tm = 2.0 * (
        np.einsum("kc,rl->kcrl", dirs, t).reshape(n, 9, 3)
        - np.einsum("cl,kr->kcrl", _EYE3, resid).reshape(n, 9, 3)
    )
    coupling = np.concatenate([h_tm[:, UPPER_VEC_INDICES, :], np.broadcast_to(2.0 * t, (n, 3, 3))],
                              axis=1)
    grad = np.concatenate([g_head, g_m.ravel(), g_lam])
    dim = 4 * n + 9
    hess = np.zeros((dim, dim))
    hess[:9, :9] = head
    for k in range(n):
        mi = 9 + 3 * k
        li = 9 + 3 * n + k
        hess[:9, mi : mi + 3] = coupling[k]
        hess[mi : mi + 3, :9] = coupling[k].T
        hess[mi : mi + 3, mi : mi + 3] = 2.0 * t.T @ t + 2.0 * lam[k] * _EYE3
        hess[mi : mi + 3, li] = 2.0 * dirs[k]
        hess[li, mi : mi + 3] = 2.0 * dirs[k]
    return grad, hess


def step_dense(*assembly):
    """Newton steps from the dense systems, none flagged singular; a drop-in for
    magcal.ml._step_block."""
    steps = []
    for item in range(len(assembly[0])):
        grad, hess = ml_kkt_system(*assembly, item=item)
        steps.append(scipy.linalg.solve(hess, -grad, assume_a="sym"))
    return np.stack(steps), np.zeros(len(steps), dtype=bool)
