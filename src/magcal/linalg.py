"""Fixed-size 3x3 matrix helpers shared by the calibration estimators.

Everything here is specific to dimension 3: the Euler-angle attitude matrix,
sign-normalized QR, the upper Cholesky factor, the scale/non-orthogonality
split of a triangular shape matrix, and packing of the six free entries of
an upper-triangular matrix. No general N x N support is intended.
"""

from __future__ import annotations

import numpy as np

# Row/column positions of the free entries of an upper-triangular 3x3
# matrix, row-major: (11, 12, 13, 22, 23, 33). This ordering is also the
# on-disk 6-tuple convention for serialized shape matrices.
UPPER_POSITIONS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_ROWS = np.array([p[0] for p in UPPER_POSITIONS])
_COLS = np.array([p[1] for p in UPPER_POSITIONS])

# The same six entries as indices into a column-stacked 9-vector vec(R),
# used to pick the free coordinates out of the vec(R)-indexed gradients and
# Hessians that the nm and ml solvers assemble.
UPPER_VEC_INDICES = 3 * _COLS + _ROWS


def pack_upper(m: np.ndarray) -> np.ndarray:
    """Six free entries of an upper-triangular matrix, row-major."""
    m = np.asarray(m, dtype=float)
    return m[_ROWS, _COLS].copy()


def unpack_upper(entries) -> np.ndarray:
    """Rebuild the 3x3 upper-triangular matrix from its six free entries."""
    entries = np.asarray(entries, dtype=float)
    if entries.shape != (6,):
        raise ValueError(f"expected 6 entries, got shape {entries.shape}")
    out = np.zeros((3, 3))
    out[_ROWS, _COLS] = entries
    return out


def attitude_from_euler(phi_deg, theta_deg, psi_deg) -> np.ndarray:
    """Rotation from the local-level frame to the sensor body frame.

    Angles are roll (phi), pitch (theta), yaw (psi) in degrees; arrays of
    angles broadcast and give a (..., 3, 3) stack. Each matrix is a proper
    rotation: orthogonal with determinant +1.
    """
    phi, theta, psi = np.deg2rad(np.broadcast_arrays(phi_deg, theta_deg, psi_deg))
    sf, cf = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(psi), np.cos(psi)
    entries = [
        ct * cp, sf * sp - cf * cp * st, cf * sp + cp * sf * st,
        st, cf * ct, -ct * sf,
        -ct * sp, cp * sf + cf * st * sp, cf * cp - sf * st * sp,
    ]
    return np.stack(entries, axis=-1).reshape(phi.shape + (3, 3))


def qr_decompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR factorization normalized so R has a strictly positive diagonal.

    Sign flips are absorbed pairwise into columns of q and rows of r, so
    q @ r still reproduces the input. Raises LinAlgError for singular input.
    """
    m = np.asarray(m, dtype=float)
    q, r = np.linalg.qr(m)
    diag = np.diag(r)
    if np.min(np.abs(diag)) <= 1e-13 * max(1.0, np.max(np.abs(r))):
        raise np.linalg.LinAlgError("QR decomposition of a (near-)singular matrix")
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs, signs[:, None] * r


def cholesky_upper(a: np.ndarray) -> np.ndarray:
    """Upper-triangular factor R with R.T @ R == a, positive diagonal.

    Raises LinAlgError when ``a`` is not positive definite.
    """
    a = np.asarray(a, dtype=float)
    return np.linalg.cholesky(a).T.copy()


def invert_upper(r: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular matrix by back-substitution; exactly upper-triangular.

    Only the upper triangle of ``r`` is read. Raises ValueError on non-finite
    entries and LinAlgError on a zero diagonal entry. The arithmetic is on
    Python floats, so entries that overflow become inf or NaN without a warning.
    """
    r = np.asarray(r, dtype=float)
    if not np.isfinite(r).all():
        raise ValueError("array must not contain infs or NaNs")
    (r00, r01, r02), (_, r11, r12), (_, _, r22) = r.tolist()
    if r00 == 0.0 or r11 == 0.0 or r22 == 0.0:
        raise np.linalg.LinAlgError("singular upper-triangular matrix: zero diagonal entry")
    t12 = -r12 / r22 / r11
    return np.array([
        [1.0 / r00, -r01 / r11 / r00, -(r01 * t12 + r02 / r22) / r00],
        [0.0, 1.0 / r11, t12],
        [0.0, 0.0, 1.0 / r22],
    ])


def decompose_scale_ortho(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor an upper-triangular matrix as (unit-diagonal) @ diag(scales).

    Returns ``(m_matrix, scales)``: ``m_matrix`` is upper triangular with unit
    diagonal (inter-axis coupling), ``scales`` the diagonal scale factors, and
    ``m_matrix * scales`` reproduces ``r``.
    """
    r = np.asarray(r, dtype=float)
    scales = np.diag(r).copy()
    if np.any(scales == 0.0):
        raise ValueError("cannot decompose: zero diagonal entry")
    return r / scales, scales
