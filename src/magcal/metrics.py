"""Apply calibrations and score estimates against a reference."""

from __future__ import annotations

import numpy as np

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
    est_scales, ref_scales = np.diag(estimate.shape), np.diag(truth.shape)
    if not (est_scales.all() and ref_scales.all()):
        raise ValueError("cannot split a shape matrix with a zero diagonal entry into scales")
    coupling = estimate.shape / est_scales - truth.shape / ref_scales  # of unit-diagonal matrices
    return ErrorMetrics(
        scale_pct=float(np.linalg.norm(est_scales / ref_scales - 1.0) / 3.0 * 100.0),
        ortho_deg=float(180.0 / (3.0 * np.pi) * np.linalg.norm(coupling[_STRICT_UPPER])),
        hard_iron_gauss=float(np.linalg.norm(estimate.offset - truth.offset) / 3.0),
    )
