"""Synthetic magnetometer data: measurement model and attitude trajectories.

A raw sample is y = S C m + h + e, where S is the soft-iron distortion,
C the attitude matrix at that sample, m the constant unit field vector,
h the hard-iron offset, and e isotropic Gaussian noise. The bundled default
scenario uses a strongly non-orthogonal soft-iron matrix, a large offset,
sigma = 0.003 Gauss, and 300 samples along a rich sweep trajectory.
"""

from __future__ import annotations

import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

from .linalg import attitude_from_euler
from .types import Dataset, SensorTruth, check_integer, json_field, json_numbers

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
_MAX_N = int(np.iinfo(np.intp).max)  # no array is longer


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if not 0.0 < n < np.inf:
        raise ValueError(f"field must be finite and nonzero, got {v}")
    return v / n


def _scenario_number(d: dict, name: str, integral: bool = False):
    """A scenario's scalar field: a JSON number, and an integral one where ``integral``."""
    value = json_field(d, name, "scenario")
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or integral and not isinstance(value, numbers.Integral) and not value.is_integer()):
        kind = "an integer" if integral else "a number"
        raise ValueError(f"scenario field {name!r} must be {kind}, got {reprlib.repr(value)}")
    return int(value) if integral else float(value)


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
    n = check_integer("n", n, 1)
    if not np.isfinite(tilt_deg):
        raise ValueError(f"tilt must be finite, got {tilt_deg}")
    k = np.arange(1, n + 1, dtype=float)
    phase = 20.0 * np.pi * k / n
    roll = tilt_deg * np.sin(phase + np.pi / 2.0)
    pitch = tilt_deg * np.sin(phase)
    yaw = 360.0 * k / n
    return np.column_stack([roll, pitch, yaw])


def noise_free_samples(truth: SensorTruth, trajectory) -> np.ndarray:
    """Samples S C m + h without noise, one row per attitude of ``trajectory``."""
    trajectory = np.asarray(trajectory, dtype=float)
    if trajectory.ndim != 2 or trajectory.shape[1] != 3 or trajectory.shape[0] < 1:
        raise ValueError(f"trajectory must be (N>=1, 3), got {trajectory.shape}")
    return truth.soft_iron @ attitude_from_euler(*trajectory.T) @ truth.field + truth.hard_iron


def simulate(truth: SensorTruth, trajectory, seed, noise_free=None) -> Dataset:
    """Generate one dataset from the measurement model.

    ``seed`` feeds a fresh numpy Generator; identical (truth, trajectory,
    seed) yield identical datasets. Noise is drawn i.i.d. per axis with
    standard deviation ``truth.noise_sigma``. A caller that draws many noise
    realizations of one scene passes ``noise_free``, which must be
    ``noise_free_samples(truth, trajectory)``, and gets the same datasets
    without recomputing it.
    """
    if noise_free is None:
        noise_free = noise_free_samples(truth, trajectory)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, truth.noise_sigma, size=noise_free.shape)
    return Dataset(samples=noise_free + noise)


@dataclass(frozen=True)
class SimConfig:
    """Serializable simulation scenario: sensor truth plus size and seed."""

    truth: SensorTruth
    n: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n", check_integer("n", self.n, 1, _MAX_N))
        object.__setattr__(self, "seed", check_integer("seed", self.seed, 0))

    def to_dict(self) -> dict:
        truth = self.truth
        return {
            "format_version": 1,
            "soft_iron": [float(v) for v in truth.soft_iron.ravel()],
            "hard_iron": [float(v) for v in truth.hard_iron],
            "sigma": truth.noise_sigma,
            "field": [float(v) for v in truth.field],
            "n": self.n,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        # Field direction is normalized at load; the model assumes unit norm.
        # SensorTruth checks finiteness, sigma >= 0, the unit field and that
        # soft_iron has a calibration.
        if not isinstance(d, dict):
            raise ValueError(f"scenario must be a JSON object, got {reprlib.repr(d)}")
        truth = SensorTruth(
            soft_iron=json_numbers(d, "soft_iron", 9, "scenario").reshape(3, 3),
            hard_iron=json_numbers(d, "hard_iron", 3, "scenario"),
            noise_sigma=_scenario_number(d, "sigma"),
            field=_unit(json_numbers(d, "field", 3, "scenario")),
        )
        return cls(truth, n=_scenario_number(d, "n", integral=True),
                   seed=_scenario_number(d, "seed", integral=True))


def default_config(
    sigma: float = DEFAULT_SIGMA, n: int = DEFAULT_N, seed: int = DEFAULT_SEED
) -> SimConfig:
    """The bundled default scenario as a config object."""
    return SimConfig(default_truth(sigma), n, seed)
