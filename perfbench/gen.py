"""Input log for the calibrate-30k workload, generated by the benchmark itself.

The log follows the measurement model y = S C m + h + e with the bundled
default scenario's truth and the sweep trajectory, vectorised in numpy. It
does not call ``magcal.simulate`` or ``magcal.fileio``, so a change to either
cannot change the bytes this workload reads; the sha256 recorded with every
result proves that two runs read the same file.
"""

from __future__ import annotations

import hashlib

import numpy as np

# The bundled default scenario, copied so that the input is fixed here.
SOFT_IRON = np.array([[0.7, -0.8, 0.4], [1.1, 0.3, -0.1], [-0.3, 0.6, 0.7]])
HARD_IRON = np.array([0.5, 1.7, 2.6])
SIGMA = 0.003
FIELD = np.array([0.7388, 0.0409, -0.6727]) / np.linalg.norm([0.7388, 0.0409, -0.6727])
TILT_DEG = 20.0


def sweep_field_dirs(n: int) -> np.ndarray:
    """Body-frame field C_k m along the sweep (oscillating roll/pitch, one yaw turn)."""
    k = np.arange(1, n + 1, dtype=float)
    phase = 20.0 * np.pi * k / n
    phi = np.deg2rad(TILT_DEG * np.sin(phase + np.pi / 2.0))
    theta = np.deg2rad(TILT_DEG * np.sin(phase))
    psi = np.deg2rad(360.0 * k / n)
    sf, cf = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(psi), np.cos(psi)
    c = np.stack(
        [
            np.stack([ct * cp, sf * sp - cf * cp * st, cf * sp + cp * sf * st], axis=-1),
            np.stack([st, cf * ct, -ct * sf], axis=-1),
            np.stack([-ct * sp, cp * sf + cf * st * sp, cf * cp - sf * st * sp], axis=-1),
        ],
        axis=1,
    )  # (n, 3, 3) rotations from the local-level frame to the body frame
    return c @ FIELD


def generate_samples(n: int, seed: int) -> np.ndarray:
    """Raw (n, 3) samples in Gauss; the same seed gives the same samples."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, SIGMA, size=(n, 3))
    return sweep_field_dirs(n) @ SOFT_IRON.T + HARD_IRON + noise


def write_dataset_csv(path, samples: np.ndarray) -> str:
    """Write the dataset-CSV format (header yx,yy,yz; shortest round-trip floats).

    Returns the sha256 of the bytes written.
    """
    lines = ["yx,yy,yz"] + [",".join(map(repr, row)) for row in samples.tolist()]
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def true_shape_offset() -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangular R (positive diagonal) with R (y - h) unit-norm, and h."""
    _, r = np.linalg.qr(np.linalg.inv(SOFT_IRON))
    r = np.sign(np.diag(r))[:, None] * r
    return r, HARD_IRON.copy()
