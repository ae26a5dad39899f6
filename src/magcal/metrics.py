"""Apply calibrations and score estimates against a reference."""

from __future__ import annotations

import numpy as np

from ._newton import dot
from .types import CalibrationParams, ErrorMetrics

_STRICT_UPPER = np.triu_indices(3, 1)  # (0, 1), (0, 2), (1, 2): the orthogonality error's entries


def apply_calibration(params: CalibrationParams, y) -> np.ndarray:
    """Calibrated measurement(s): shape @ (y - offset).

    Accepts a single 3-vector or an (N, 3) batch; the output matches the
    input shape.
    """
    y = np.asarray(y, dtype=float)
    return (y - params.offset) @ params.shape.T


def error_metrics(estimate: CalibrationParams, truth: CalibrationParams) -> ErrorMetrics:
    """Three physical error scalars of an estimate versus a reference.

    Both shape matrices are split into scale factors and a unit-diagonal
    coupling matrix. The scale error is the norm of the relative diagonal
    mismatch (averaged over three axes, in percent), the orthogonality
    error the norm of the coupling mismatch expressed in degrees, and the
    hard-iron error a third of the offset distance in Gauss.
    """
    return error_metrics_batch([estimate], truth)[0]


def _norm(x: np.ndarray) -> np.ndarray:
    """Each item's Euclidean norm over the last axis, rounded as np.linalg.norm rounds a 1-D x."""
    return np.sqrt(dot(x, x))


def error_metrics_batch(estimates, truth: CalibrationParams) -> list:
    """error_metrics of each of a sequence of estimates against one reference, in order.

    Raises ValueError if any shape matrix has a zero diagonal entry.
    """
    shapes = np.array([e.shape for e in estimates]).reshape(-1, 3, 3)
    est_scales, ref_scales = np.diagonal(shapes, axis1=1, axis2=2), np.diag(truth.shape)
    if not (est_scales.all() and ref_scales.all()):
        raise ValueError("cannot split a shape matrix with a zero diagonal entry into scales")
    coupling = shapes / est_scales[:, None] - truth.shape / ref_scales  # of unit-diagonal matrices
    offsets = np.array([e.offset for e in estimates]).reshape(-1, 3)
    scores = np.stack([
        _norm(est_scales / ref_scales - 1.0) / 3.0 * 100.0,
        180.0 / (3.0 * np.pi) * _norm(coupling[:, _STRICT_UPPER[0], _STRICT_UPPER[1]]),
        _norm(offsets - truth.offset) / 3.0,
    ], axis=1)
    return [ErrorMetrics(*row) for row in scores.tolist()]
