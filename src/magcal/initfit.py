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

from .errors import DegenerateDataError, InsufficientDataError
from .linalg import cholesky_upper, invert_upper
from .types import CalibrationParams, Dataset, EllipsoidCoeffs, MLState, as_samples

MIN_SAMPLES = 10


def _design_matrix(samples: np.ndarray) -> np.ndarray:
    """Linear-system rows, one per sample: [quadratic monomials, y, 1].

    The six quadratic columns follow the row-major upper-triangular order
    (11, 12, 13, 22, 23, 33); each off-diagonal column carries the factor 2
    for its merged symmetric counterpart, so the solved coefficients are
    the entries of A directly.
    """
    y1, y2, y3 = samples[:, 0], samples[:, 1], samples[:, 2]
    return np.column_stack(
        [
            y1 * y1,
            2 * y1 * y2,
            2 * y1 * y3,
            y2 * y2,
            2 * y2 * y3,
            y3 * y3,
            y1,
            y2,
            y3,
            np.ones(len(samples)),
        ]
    )


def _sym_from_packed(z6: np.ndarray) -> np.ndarray:
    a11, a12, a13, a22, a23, a33 = z6
    return np.array([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])


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


def fit_ellipsoid(data) -> EllipsoidCoeffs:
    """Least-squares quadric fit of the raw samples.

    Samples are pre-centered on their mean before building the design
    matrix (an exact reparameterization that improves conditioning); the
    returned coefficients are expressed in the original coordinates.

    Raises InsufficientDataError below 10 samples and DegenerateDataError
    when the fitted quadric cannot be sign-fixed and scaled to an ellipsoid
    (typically: not enough distinct attitudes).
    """
    samples = as_samples(data)
    n = samples.shape[0]
    if n < MIN_SAMPLES:
        raise InsufficientDataError(f"ellipsoid fit needs >= {MIN_SAMPLES} samples, got {n}")

    center = samples.mean(axis=0)
    design = _design_matrix(samples - center)
    gram = design.T @ design
    eigvals, eigvecs = np.linalg.eigh(gram)
    z = eigvecs[:, 0]
    min_eigenvalue = float(eigvals[0])

    a = _sym_from_packed(z[:6])
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
    c = alpha * c

    # Undo the pre-centering: translate coefficients back to raw coordinates.
    b_raw = b - 2.0 * a @ center
    c_raw = c - b @ center + center @ a @ center
    return EllipsoidCoeffs(
        a_matrix=a, b_vec=b_raw, c_scalar=c_raw, min_eigenvalue=min_eigenvalue
    )


def initial_params(coeffs: EllipsoidCoeffs) -> CalibrationParams:
    """Shape/offset estimate from scaled ellipsoid coefficients."""
    try:
        shape = cholesky_upper(coeffs.a_matrix)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError("quadric matrix is not positive definite") from exc
    offset = -0.5 * np.linalg.solve(coeffs.a_matrix, coeffs.b_vec)
    return CalibrationParams(shape=shape, offset=offset)


def initial_ml_state(params: CalibrationParams, data) -> MLState:
    """Starting point for the maximum-likelihood solver.

    The inverse shape matrix seeds t_matrix, the calibrated samples seed
    the field directions, and all Lagrange multipliers start at zero. A
    start so far off that the directions overflow is left to the solver,
    which reports it as divergence.
    """
    samples = as_samples(data)
    with np.errstate(over="ignore", invalid="ignore"):
        field_dirs = (samples - params.offset) @ params.shape.T
    return MLState(
        t_matrix=invert_upper(params.shape),
        offset=params.offset.copy(),
        field_dirs=field_dirs,
        lagrange=np.zeros(samples.shape[0]),
    )


def fit_initial(data) -> tuple[CalibrationParams, EllipsoidCoeffs]:
    """Convenience: ellipsoid fit plus parameter extraction in one call."""
    coeffs = fit_ellipsoid(data)
    return initial_params(coeffs), coeffs
