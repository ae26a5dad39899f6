"""Linear ellipsoid fit producing the initial calibration estimate.

Noise-free samples satisfy y'Ay + b'y + c = 0 with A = R'R, b = -2Ah and
c = h'Ah - 1, which is linear in the ten unknowns (A, b, c) up to scale.
The fit takes the eigenvector of the 10x10 normal matrix belonging to its
smallest eigenvalue, fixes its sign so A is positive definite, and rescales
so that h'Ah - c = 1. The initial shape matrix is then the upper Cholesky
factor of A and the offset is -A^{-1} b / 2.
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


def _definiteness(a: np.ndarray) -> int:
    """+1 if positive definite, -1 if negative definite, 0 otherwise.

    Uses the three leading principal minors.
    """
    m1 = a[0, 0]
    m2 = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    m3 = np.linalg.det(a)
    if m1 > 0.0 and m2 > 0.0 and m3 > 0.0:
        return 1
    if m1 < 0.0 and m2 > 0.0 and m3 < 0.0:
        return -1
    return 0


def fit_initial(data) -> tuple[CalibrationParams, float]:
    """Least-squares quadric fit of the raw samples, as a shape/offset estimate.

    Returns the estimate and the smallest eigenvalue of the 10x10 normal
    matrix, which is zero for noise-free data and diagnostic only. That
    matrix is _scatter's G, of the design rows about the sample mean (an
    exact reparameterization that improves conditioning).

    Raises InsufficientDataError below 10 samples and DegenerateDataError
    when G overflows or the fitted quadric cannot be sign-fixed and scaled
    to an ellipsoid (typically: not enough distinct attitudes).
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
    sign = _definiteness(a)
    if sign == 0:
        raise DegenerateDataError(
            "fitted quadric is not an ellipsoid; attitude coverage is insufficient"
        )
    if sign < 0:
        z = -z
        a = -a
    b = z[6:9]
    c = z[9]

    denom = b @ np.linalg.solve(a, b) - 4.0 * c
    if denom <= 0.0:
        raise DegenerateDataError("ellipsoid scaling failed; degenerate excitation")
    alpha = 4.0 / denom
    a = alpha * a
    b = alpha * b

    try:
        shape = np.linalg.cholesky(a).T.copy()  # upper, R'R = A
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError("quadric matrix is not positive definite") from exc
    # b is the linear term of the centred quadric; b - 2 A center is that of the raw one.
    offset = -0.5 * np.linalg.solve(a, b - 2.0 * a @ center)
    return CalibrationParams(shape=shape, offset=offset), min_eigenvalue
