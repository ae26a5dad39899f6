"""Apply calibrations and score estimates against a reference."""

from __future__ import annotations

import numpy as np

from .linalg import decompose_scale_ortho, invert_upper
from .types import CalibrationParams, ErrorMetrics, MLState

# Strictly-upper entry positions used for the orthogonality error.
_STRICT_ROWS = np.array([0, 0, 1])
_STRICT_COLS = np.array([1, 2, 2])


def apply_calibration(params: CalibrationParams, y) -> np.ndarray:
    """Calibrated measurement(s): shape @ (y - offset).

    Accepts a single 3-vector or an (N, 3) batch; the output matches the
    input shape.
    """
    y = np.asarray(y, dtype=float)
    return (y - params.offset) @ params.shape.T


def params_from_ml(state: MLState) -> CalibrationParams:
    """Convert a maximum-likelihood state to shape/offset form (R = T^-1)."""
    return CalibrationParams(shape=invert_upper(state.t_matrix), offset=state.offset.copy())


def error_metrics(estimate: CalibrationParams, truth: CalibrationParams) -> ErrorMetrics:
    """Three physical error scalars of an estimate versus a reference.

    Both shape matrices are split into scale factors and a unit-diagonal
    coupling matrix. The scale error is the norm of the relative diagonal
    mismatch (averaged over three axes, in percent), the orthogonality
    error the norm of the coupling mismatch expressed in degrees, and the
    hard-iron error a third of the offset distance in Gauss.
    """
    est_m, est_scales = decompose_scale_ortho(estimate.shape)
    ref_m, ref_scales = decompose_scale_ortho(truth.shape)
    scale_rel = est_scales / ref_scales - 1.0
    ortho_diff = (est_m - ref_m)[_STRICT_ROWS, _STRICT_COLS]
    return ErrorMetrics(
        scale_pct=float(np.linalg.norm(scale_rel) / 3.0 * 100.0),
        ortho_deg=float(180.0 / (3.0 * np.pi) * np.linalg.norm(ortho_diff)),
        hard_iron_gauss=float(np.linalg.norm(estimate.offset - truth.offset) / 3.0),
    )
