"""Synthetic magnetometer data: measurement model and attitude trajectories.

A raw sample is y = S C m + h + e, where S is the soft-iron distortion,
C the attitude matrix at that sample, m the constant unit field vector,
h the hard-iron offset, and e isotropic Gaussian noise. The bundled default
scenario uses a strongly non-orthogonal soft-iron matrix, a large offset,
sigma = 0.003 Gauss, and 300 samples along a rich sweep trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import attitude_from_euler
from .types import Dataset, SensorTruth

DEFAULT_SOFT_IRON = np.array(
    [
        [0.7, -0.8, 0.4],
        [1.1, 0.3, -0.1],
        [-0.3, 0.6, 0.7],
    ]
)
DEFAULT_HARD_IRON = np.array([0.5, 1.7, 2.6])
DEFAULT_SIGMA = 0.003
# Geomagnetic field direction (north, up, east components) used by the
# default scenario; normalized to unit length on use.
DEFAULT_FIELD = np.array([0.7388, 0.0409, -0.6727])
DEFAULT_N = 300
DEFAULT_SEED = 20240901


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize a zero field vector")
    return v / n


def default_truth(sigma: float = DEFAULT_SIGMA) -> SensorTruth:
    """Ground truth of the bundled default scenario."""
    return SensorTruth(
        soft_iron=DEFAULT_SOFT_IRON.copy(),
        hard_iron=DEFAULT_HARD_IRON.copy(),
        noise_sigma=sigma,
        field=_unit(DEFAULT_FIELD),
    )


def sweep_trajectory(n: int, tilt_deg: float = 20.0) -> np.ndarray:
    """Attitude sweep: oscillating roll/pitch plus one full yaw revolution.

    Returns an (n, 3) array of (roll, pitch, yaw) in degrees, evaluated at
    sample indices k = 1..n:

        roll  = tilt_deg * sin(20*pi*k/n + pi/2)
        pitch = tilt_deg * sin(20*pi*k/n)
        yaw   = 360*k/n

    The default tilt covers the ellipsoid surface well; a small ``tilt_deg``
    mimics motion confined to a nearly level surface (weak excitation).
    """
    if n < 1:
        raise ValueError("trajectory needs at least one sample")
    k = np.arange(1, n + 1, dtype=float)
    phase = 20.0 * np.pi * k / n
    roll = tilt_deg * np.sin(phase + np.pi / 2.0)
    pitch = tilt_deg * np.sin(phase)
    yaw = 360.0 * k / n
    return np.column_stack([roll, pitch, yaw])


def simulate(truth: SensorTruth, trajectory, seed) -> Dataset:
    """Generate one dataset from the measurement model.

    ``seed`` feeds a fresh numpy Generator; identical (truth, trajectory,
    seed) yield identical datasets. Noise is drawn i.i.d. per axis with
    standard deviation ``truth.noise_sigma``.
    """
    trajectory = np.asarray(trajectory, dtype=float)
    if trajectory.ndim != 2 or trajectory.shape[1] != 3 or trajectory.shape[0] < 1:
        raise ValueError(f"trajectory must be (N>=1, 3), got {trajectory.shape}")
    rng = np.random.default_rng(seed)
    clean = truth.soft_iron @ attitude_from_euler(*trajectory.T) @ truth.field
    noise = rng.normal(0.0, truth.noise_sigma, size=clean.shape)
    return Dataset(
        samples=clean + truth.hard_iron + noise,
        truth=truth,
        trajectory=trajectory,
    )


@dataclass(frozen=True)
class SimConfig:
    """Serializable simulation scenario: sensor truth plus size and seed."""

    soft_iron: np.ndarray
    hard_iron: np.ndarray
    sigma: float
    field: np.ndarray
    n: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "soft_iron", np.asarray(self.soft_iron, float))
        object.__setattr__(self, "hard_iron", np.asarray(self.hard_iron, float))
        object.__setattr__(self, "field", np.asarray(self.field, float))
        if self.soft_iron.shape != (3, 3) or self.hard_iron.shape != (3,) or self.field.shape != (3,):
            raise ValueError("bad config array shapes")
        if self.n < 1:
            raise ValueError("config requires n >= 1")

    def truth(self) -> SensorTruth:
        return SensorTruth(
            soft_iron=self.soft_iron.copy(),
            hard_iron=self.hard_iron.copy(),
            noise_sigma=self.sigma,
            field=_unit(self.field),
        )

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "soft_iron": [float(v) for v in self.soft_iron.ravel()],
            "hard_iron": [float(v) for v in self.hard_iron],
            "sigma": float(self.sigma),
            "field": [float(v) for v in self.field],
            "n": int(self.n),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        # Field direction is normalized at load; the model assumes unit norm.
        return cls(
            soft_iron=np.asarray(d["soft_iron"], float).reshape(3, 3),
            hard_iron=np.asarray(d["hard_iron"], float),
            sigma=float(d["sigma"]),
            field=_unit(np.asarray(d["field"], float)),
            n=int(d["n"]),
            seed=int(d["seed"]),
        )


def default_config(
    sigma: float = DEFAULT_SIGMA, n: int = DEFAULT_N, seed: int = DEFAULT_SEED
) -> SimConfig:
    """The bundled default scenario as a config object."""
    return SimConfig(
        soft_iron=DEFAULT_SOFT_IRON.copy(),
        hard_iron=DEFAULT_HARD_IRON.copy(),
        sigma=sigma,
        field=_unit(DEFAULT_FIELD),
        n=n,
        seed=seed,
    )
