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

from ._newton import CHUNK, dot, each, only, tr
from .errors import DegenerateDataError, InsufficientDataError
from .linalg import UPPER_COLS, UPPER_ROWS, unpack_upper
from .types import CalibrationParams, as_samples

MIN_SAMPLES = 10
_QUADRATIC_FACTOR = np.where(UPPER_ROWS == UPPER_COLS, 1.0, 2.0)


def _design_matrix(samples: np.ndarray) -> np.ndarray:
    """Linear-system rows, one per sample of (..., N, 3) ``samples``: [quadratic monomials, y, 1].

    The six quadratic columns follow the row-major upper-triangular order
    (11, 12, 13, 22, 23, 33); each off-diagonal column carries the factor 2
    for its merged symmetric counterpart, so the solved coefficients are
    the entries of A directly.
    """
    quadratic = samples[..., UPPER_ROWS] * samples[..., UPPER_COLS] * _QUADRATIC_FACTOR
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

    Raises ValueError unless the data are a finite (N>=1, 3) array, InsufficientDataError
    below 10 samples and DegenerateDataError when G overflows or the scaled quadric matrix
    has no finite Cholesky factor: the quadric is not an ellipsoid (too few attitudes).
    """
    return only(fit_initial_batch(as_samples(data)[None]))


def fit_initial_batch(samples: np.ndarray, scatter=None) -> list:
    """fit_initial on a stack of validated (B, N, 3) ``samples``; ``scatter`` is their _scatter.

    Returns, per item in order, its (estimate, smallest eigenvalue) or the
    CalibrationError its lone fit raises. Each item's numbers are those of its
    lone fit_initial. Every item runs through the same arrays: an overflowing G
    is decomposed as the identity, a failed factorization leaves NaN, and each
    item is classified at the end.
    """
    n = samples.shape[1]
    if n < MIN_SAMPLES:
        return [InsufficientDataError(f"ellipsoid fit needs >= {MIN_SAMPLES} samples, got {n}")
                for _ in samples]
    center, gram = _scatter(samples) if scatter is None else scatter
    overflow = ~np.isfinite(gram).all(axis=(1, 2))
    eigvals, eigvecs = np.linalg.eigh(np.where(overflow[:, None, None], np.eye(10), gram))
    z = eigvecs[:, :, 0]

    a = unpack_upper(z[:, :6])
    a += tr(np.triu(a, 1))
    flip = a[:, 0, 0] < 0.0  # eigh's sign is arbitrary; a definite A shares the sign of A_11
    z[flip], a[flip] = -z[flip], -a[flip]
    b, c = z[:, 6:9], z[:, 9]
    # The Cholesky factor alone decides: a singular A fails the scale's solve, an
    # indefinite one the factorization, and a zero or overflowing scale gives inf or NaN.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = dot(b, each(np.linalg.solve, a, b[:, :, None])[0][:, :, 0]) - 4.0 * c
        alpha = 4.0 / scale
        a, b = alpha[:, None, None] * a, alpha[:, None] * b
        shape = tr(each(np.linalg.cholesky, a)[0])  # upper, R'R = A
        # b is the linear term of the centred quadric; b - 2 A center is that of the raw one.
        rhs = b - 2.0 * (a @ center[:, :, None])[:, :, 0]
        offset = -0.5 * each(np.linalg.solve, a, rhs[:, :, None])[0][:, :, 0]
    ellipsoid = np.isfinite(shape).all(axis=(1, 2))
    out = []
    for i, min_eigenvalue in enumerate(eigvals[:, 0].tolist()):
        if overflow[i]:
            out.append(DegenerateDataError(
                "the quadric's scatter matrix overflows; rescale the data"))
        elif not ellipsoid[i]:
            out.append(DegenerateDataError(
                "fitted quadric is not an ellipsoid; attitude coverage is insufficient"))
        else:
            out.append((CalibrationParams(shape=shape[i].copy(), offset=offset[i]), min_eigenvalue))
    return out
