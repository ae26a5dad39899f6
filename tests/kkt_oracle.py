"""Dense KKT oracle for the ml solver.

Forms and factors the full (4N+9)^2 arrowhead system that magcal.ml's
block elimination avoids building. Tests compare the library's O(N) Newton
step, and whole solves, against it.
"""

import numpy as np
import scipy.linalg

from magcal.ml import _assemble, _step_block
from magcal.types import as_samples


def dense_kkt(g_head, g_m, g_lam, head, coupling, diag_blocks):
    """Full KKT gradient and dense symmetric Hessian from the assembled blocks."""
    n = g_lam.shape[0]
    grad = np.concatenate([g_head, g_m.ravel(), g_lam])
    dim = 4 * n + 9
    hess = np.zeros((dim, dim))
    hess[:9, :9] = head
    for k in range(n):
        mi = 9 + 3 * k
        li = 9 + 3 * n + k
        hess[:9, mi : mi + 3] = coupling[k, :, :3]
        hess[mi : mi + 3, :9] = coupling[k, :, :3].T
        hess[mi : mi + 3, mi : mi + 3] = diag_blocks[k, :3, :3]
        hess[mi : mi + 3, li] = diag_blocks[k, :3, 3]
        hess[li, mi : mi + 3] = diag_blocks[k, 3, :3]
    return grad, hess


def ml_kkt_system(state, data):
    """Full KKT gradient and dense Hessian, dimension 4N+9."""
    return dense_kkt(*_assemble(state, as_samples(data)))


def step_dense(*assembly):
    """Newton step from the dense system; a drop-in for magcal.ml._step_block."""
    grad, hess = dense_kkt(*assembly)
    return scipy.linalg.solve(hess, -grad, assume_a="sym")


_STEPS = {"block": _step_block, "dense": step_dense}


def newton_step(state, data, method="block"):
    """One Newton step delta for the full (4N+9) estimate vector."""
    if method not in _STEPS:
        raise ValueError(f"unknown method {method!r}")
    return _STEPS[method](*_assemble(state, as_samples(data)))
