"""nm's objective, written out apart from magcal.nm, and its derivatives on raw samples.

nm_objective is the function that the finite-difference checks of nm's
analytic derivatives difference; the library evaluates it only inside
solve_nm.
"""

import numpy as np

from magcal.initfit import _scatter
from magcal.nm import _residual_pass, nm_gradient_hessian


def nm_objective(params, samples) -> float:
    """Sum of squared norm residuals (1 - ||R (y_k - h)||^2)^2 over (N, 3) samples."""
    calibrated = (samples - params.offset) @ params.shape.T
    residuals = 1.0 - np.einsum("ij,ij->i", calibrated, calibrated)
    return float(residuals @ residuals)


def nm_derivatives(params, samples):
    """nm_gradient_hessian at ``params`` on (N, 3) ``samples``: one gradient and Hessian."""
    shape, offset, samples = params.shape[None], params.offset[None], samples[None]
    moments = _residual_pass(shape, offset, samples)[1:]
    grad, hess = nm_gradient_hessian(shape, offset, *_scatter(samples), *moments)
    return grad[0], hess[0]
