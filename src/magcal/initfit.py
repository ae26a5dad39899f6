"""Linear ellipsoid fit producing the initial calibration estimate.

Noise-free samples satisfy y'Ay + b'y + c = 0 with A = R'R, b = -2Ah and
c = h'Ah - 1, which is linear in the ten unknowns (A, b, c) up to scale.
The fit takes the eigenvector of the 10x10 normal matrix belonging to its
smallest eigenvalue, fixes its sign so that A_11 > 0, and rescales so that
h'Ah - c = 1. The initial shape matrix is then the upper Cholesky factor of
A, which exists only for an ellipsoid, and the offset is -A^{-1} b / 2.
"""

from __future__ import annotations

import numpy as np

from ._newton import CHUNK, tr
from .errors import DegenerateDataError, InsufficientDataError
from .linalg import UPPER_POSITIONS, unpack_upper
from .types import CalibrationParams, as_samples

MIN_SAMPLES = 10
_ROWS, _COLS = np.array(UPPER_POSITIONS).T
_QUADRATIC_FACTOR = np.where(_ROWS == _COLS, 1.0, 2.0)


def _design_matrix(samples: np.ndarray) -> np.ndarray:
    """Linear-system rows, one per sample of (..., N, 3) ``samples``: [quadratic monomials, y, 1].

    The six quadratic columns follow the row-major upper-triangular order
    (11, 12, 13, 22, 23, 33); each off-diagonal column carries the factor 2
    for its merged symmetric counterpart, so the solved coefficients are
    the entries of A directly.
    """
    quadratic = samples[..., _ROWS] * samples[..., _COLS] * _QUADRATIC_FACTOR
    return np.concatenate([quadratic, samples, np.ones(samples.shape[:-1] + (1,))], axis=-1)


def _scatter(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each item's sample mean c (B, 3) and scatter matrix G (B, 10, 10) of its design rows about c.

    The one place the design rows are formed, for the fit and for nm. Formed
    over blocks of at most CHUNK rows. Overflow makes G non-finite: the fit
    then raises DegenerateDataError, and nm's Hessian diverges.
    """
    (b, n), group = samples.shape[:2], max(1, CHUNK // samples.shape[1])  # items a block
    center, gram = np.einsum("bij->bj", samples) / n, np.zeros((b, 10, 10))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, b, group):
            items = slice(lo, lo + group)
            for rows in range(0, n, CHUNK):
                d = _design_matrix(samples[items, rows : rows + CHUNK] - center[items, None])
                gram[items] += tr(d) @ d
    return center, gram


def fit_initial(data) -> tuple[CalibrationParams, float]:
    """Least-squares quadric fit of the raw samples, as a shape/offset estimate.

    Returns the estimate and the smallest eigenvalue of the 10x10 normal
    matrix, which is zero for noise-free data and diagnostic only. That
    matrix is _scatter's G, of the design rows about the sample mean (an
    exact reparameterization that improves conditioning).

    Raises InsufficientDataError below 10 samples and DegenerateDataError
    when G overflows or the scaled quadric matrix has no finite Cholesky factor:
    the quadric is not an ellipsoid (typically: not enough distinct attitudes).
    """
    samples = as_samples(data)
    n = samples.shape[0]
    if n < MIN_SAMPLES:
        raise InsufficientDataError(f"ellipsoid fit needs >= {MIN_SAMPLES} samples, got {n}")

    (center,), (gram,) = _scatter(samples[None])
    if not np.isfinite(gram).all():
        raise DegenerateDataError("the quadric's scatter matrix overflows; rescale the data")
    eigvals, eigvecs = np.linalg.eigh(gram)
    z = eigvecs[:, 0]
    min_eigenvalue = float(eigvals[0])

    a = unpack_upper(z[:6])
    a += np.triu(a, 1).T
    if a[0, 0] < 0.0:  # eigh's sign is arbitrary; a definite A shares the sign of A_11
        z, a = -z, -a
    b, c = z[6:9], z[9]
    # The Cholesky factor alone decides: a singular A fails the scale's solve, an
    # indefinite one the factorization, and a zero or overflowing scale gives inf or NaN.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            alpha = 4.0 / (b @ np.linalg.solve(a, b) - 4.0 * c)
            a, b = alpha * a, alpha * b
            shape = np.linalg.cholesky(a).T.copy()  # upper, R'R = A
        except np.linalg.LinAlgError:
            shape = None
    if shape is None or not np.isfinite(shape).all():
        raise DegenerateDataError(
            "fitted quadric is not an ellipsoid; attitude coverage is insufficient"
        )
    # b is the linear term of the centred quadric; b - 2 A center is that of the raw one.
    offset = -0.5 * np.linalg.solve(a, b - 2.0 * a @ center)
    return CalibrationParams(shape=shape, offset=offset), min_eigenvalue
