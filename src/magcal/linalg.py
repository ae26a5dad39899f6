"""Fixed-size 3x3 matrix helpers shared by the calibration estimators.

Everything here is specific to dimension 3: the Euler-angle attitude matrix, and
the inverse and six-entry packing of an upper-triangular matrix. No general N x N
support is intended.
"""

from __future__ import annotations

import numpy as np

# Row/column positions of the free entries of an upper-triangular 3x3
# matrix, row-major: (11, 12, 13, 22, 23, 33). This ordering is also the
# on-disk 6-tuple convention for serialized shape matrices.
UPPER_POSITIONS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
UPPER_ROWS, UPPER_COLS = np.array(UPPER_POSITIONS).T

# The same six entries as indices into a column-stacked 9-vector vec(R),
# used to pick the free coordinates out of the vec(R)-indexed gradients and
# Hessians that the nm and ml solvers assemble.
UPPER_VEC_INDICES = 3 * UPPER_COLS + UPPER_ROWS


def pack_upper(m: np.ndarray) -> np.ndarray:
    """Six free entries of an upper-triangular matrix, row-major; of each in a stack."""
    return np.asarray(m, dtype=float)[..., UPPER_ROWS, UPPER_COLS]  # a fancy index copies


def unpack_upper(entries) -> np.ndarray:
    """Rebuild the 3x3 upper-triangular matrix from its six free entries; a stack from a stack."""
    entries = np.asarray(entries, dtype=float)
    if entries.shape[-1:] != (6,):
        raise ValueError(f"expected 6 entries, got shape {entries.shape}")
    out = np.zeros(entries.shape[:-1] + (3, 3))
    out[..., UPPER_ROWS, UPPER_COLS] = entries
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


def invert_upper(r: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular matrix by back-substitution; exactly upper-triangular.

    The arithmetic reads only the upper triangle of ``r``, on Python floats, so
    entries that overflow become inf or NaN without a warning. A matrix with a
    non-finite entry, or a zero on the diagonal, gives an upper triangle of NaN.
    """
    r = np.asarray(r, dtype=float)
    (r00, r01, r02), (_, r11, r12), (_, _, r22) = r.tolist()
    if not np.isfinite(r).all() or r00 == 0.0 or r11 == 0.0 or r22 == 0.0:
        return np.triu(np.full((3, 3), np.nan))
    t12 = -r12 / r22 / r11
    return np.array([
        [1.0 / r00, -r01 / r11 / r00, -(r01 * t12 + r02 / r22) / r00],
        [0.0, 1.0 / r11, t12],
        [0.0, 0.0, 1.0 / r22],
    ])
