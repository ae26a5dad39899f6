"""Shared data types: sensor model, datasets, parameters, solve reports.

All numeric fields are plain numpy arrays; the dataclasses are frozen value
objects and safe to share across threads. Vector packing methods define the
parameter layouts the Newton solvers iterate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import pack_upper, unpack_upper


def _as_float_array(x, shape=None):
    out = np.asarray(x, dtype=float)
    if shape is not None and out.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {out.shape}")
    return out


@dataclass(frozen=True)
class CalibrationParams:
    """Triangular shape matrix (Gauss^-1) plus hard-iron offset (Gauss).

    ``shape @ (y - offset)`` maps a raw measurement back onto the unit
    sphere; the shape matrix is upper triangular and, for any valid
    calibration, has a strictly positive diagonal.
    """

    shape: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shape", _as_float_array(self.shape, (3, 3)))
        object.__setattr__(self, "offset", _as_float_array(self.offset, (3,)))

    def to_vector(self) -> np.ndarray:
        """Pack into the 9-vector [six free shape entries, offset]."""
        return np.concatenate([pack_upper(self.shape), self.offset])

    @classmethod
    def from_vector(cls, x) -> "CalibrationParams":
        x = _as_float_array(x, (9,))
        return cls(shape=unpack_upper(x[:6]), offset=x[6:9].copy())


@dataclass(frozen=True)
class MLState:
    """Full state of the constrained maximum-likelihood estimation.

    ``t_matrix`` is the inverse shape matrix (upper triangular), ``offset``
    the hard-iron estimate, ``field_dirs`` one unit field-direction estimate
    per sample, ``lagrange`` the multiplier of each unit-norm constraint.
    """

    t_matrix: np.ndarray
    offset: np.ndarray
    field_dirs: np.ndarray
    lagrange: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t_matrix", _as_float_array(self.t_matrix, (3, 3)))
        object.__setattr__(self, "offset", _as_float_array(self.offset, (3,)))
        dirs = _as_float_array(self.field_dirs)
        lag = _as_float_array(self.lagrange)
        if dirs.ndim != 2 or dirs.shape[1] != 3:
            raise ValueError(f"field_dirs must be (N, 3), got {dirs.shape}")
        if lag.shape != (dirs.shape[0],):
            raise ValueError("field_dirs and lagrange lengths disagree")
        object.__setattr__(self, "field_dirs", dirs)
        object.__setattr__(self, "lagrange", lag)

    @property
    def n_samples(self) -> int:
        return self.field_dirs.shape[0]

    def to_vector(self) -> np.ndarray:
        """Pack into the (4N+9)-vector [t entries, offset, dirs, multipliers]."""
        return np.concatenate(
            [
                pack_upper(self.t_matrix),
                self.offset,
                self.field_dirs.ravel(),
                self.lagrange,
            ]
        )

    @classmethod
    def from_vector(cls, x, n_samples: int) -> "MLState":
        x = _as_float_array(x, (4 * n_samples + 9,))
        return cls(
            t_matrix=unpack_upper(x[:6]),
            offset=x[6:9].copy(),
            field_dirs=x[9 : 9 + 3 * n_samples].reshape(n_samples, 3).copy(),
            lagrange=x[9 + 3 * n_samples :].copy(),
        )


@dataclass(frozen=True)
class SensorTruth:
    """Ground-truth sensor model for synthetic data generation.

    ``soft_iron`` is the multiplicative distortion, ``hard_iron`` the
    additive bias (Gauss), ``noise_sigma`` the per-axis noise standard
    deviation (Gauss), ``field`` the unit external field vector in the
    local-level frame.
    """

    soft_iron: np.ndarray
    hard_iron: np.ndarray
    noise_sigma: float
    field: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "soft_iron", _as_float_array(self.soft_iron, (3, 3)))
        object.__setattr__(self, "hard_iron", _as_float_array(self.hard_iron, (3,)))
        object.__setattr__(self, "field", _as_float_array(self.field, (3,)))
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if abs(np.linalg.norm(self.field) - 1.0) > 1e-12:
            raise ValueError("field must be a unit vector (normalize before use)")

    def calibration(self) -> CalibrationParams:
        """True shape/offset this model implies.

        The shape matrix is the triangular factor of the inverse soft-iron
        matrix (positive-diagonal QR), so shape @ (y - hard_iron) is a unit
        vector for noise-free data.
        """
        from .linalg import qr_decompose

        _, r = qr_decompose(np.linalg.inv(self.soft_iron))
        return CalibrationParams(shape=r, offset=self.hard_iron.copy())


@dataclass(frozen=True)
class Dataset:
    """Raw three-axis samples (N, 3) plus optional generation metadata."""

    samples: np.ndarray
    truth: SensorTruth | None = None
    trajectory: np.ndarray | None = None

    def __post_init__(self):
        samples = _as_float_array(self.samples)
        if samples.ndim != 2 or samples.shape[1] != 3 or samples.shape[0] < 1:
            raise ValueError(f"samples must be (N>=1, 3), got {samples.shape}")
        object.__setattr__(self, "samples", samples)
        if self.trajectory is not None:
            object.__setattr__(
                self, "trajectory", _as_float_array(self.trajectory, samples.shape)
            )

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def as_samples(data) -> np.ndarray:
    """Accept a Dataset or a raw (N, 3) array-like; return the samples.

    Raises ValueError naming the first row that holds a NaN or infinity.
    """
    samples = data.samples if isinstance(data, Dataset) else np.asarray(data, float)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise ValueError(f"expected samples of shape (N, 3), got {samples.shape}")
    finite = np.isfinite(samples)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise ValueError(f"sample row {row} is not finite: {samples[row]}")
    return samples


@dataclass(frozen=True)
class EllipsoidCoeffs:
    """Quadric coefficients y'Ay + b'y + c = 0 of the fitted ellipsoid.

    ``min_eigenvalue`` records the smallest eigenvalue of the 10x10 normal
    matrix of the fit (zero for noise-free data); it is diagnostic only.
    """

    a_matrix: np.ndarray
    b_vec: np.ndarray
    c_scalar: float
    min_eigenvalue: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "a_matrix", _as_float_array(self.a_matrix, (3, 3)))
        object.__setattr__(self, "b_vec", _as_float_array(self.b_vec, (3,)))
        object.__setattr__(self, "c_scalar", float(self.c_scalar))


@dataclass(frozen=True)
class SolveOptions:
    """Newton iteration controls shared by both solvers."""

    max_iterations: int = 50
    objective_tolerance: float = 1e-12
    step_tolerance: float = 1e-10
    gradient_tolerance: float = 1e-9

    def __post_init__(self):
        if (
            self.max_iterations <= 0
            or self.objective_tolerance <= 0.0
            or self.step_tolerance <= 0.0
            or self.gradient_tolerance <= 0.0
        ):
            raise ValueError("all solve options must be positive")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an nm or ml solve; history index 0 is the initial value.

    ``objective_history`` tracks the nm objective or the ml data misfit (sum
    of squared residuals). Both estimators set ``final_params``; only ml sets
    ``final_state`` and ``constraint_violation_history``, the worst unit-norm
    violation max_k |  ||m_k||^2 - 1 |, aligned per iteration.
    """

    objective_history: tuple
    iterations: int
    converged: bool
    final_params: CalibrationParams
    final_state: MLState | None = None
    constraint_violation_history: tuple = ()
    warnings: tuple = ()

    def __post_init__(self):
        for name in ("objective_history", "constraint_violation_history"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))

    @property
    def final_objective(self) -> float:
        return self.objective_history[-1]


@dataclass(frozen=True)
class ErrorMetrics:
    """Scale-factor (%), orthogonality (degrees), hard-iron (Gauss) errors."""

    scale_pct: float
    ortho_deg: float
    hard_iron_gauss: float

    def as_tuple(self) -> tuple:
        return (self.scale_pct, self.ortho_deg, self.hard_iron_gauss)
