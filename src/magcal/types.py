"""Shared data types: sensor model, datasets, parameters, solve reports.

All numeric fields are plain numpy arrays; the dataclasses are frozen value
objects and safe to share across threads. The Newton solvers step these
fields directly; ``nm`` and ``ml`` document the flat layout of each step.
"""

from __future__ import annotations

import numbers
import reprlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .ml import MLState


def _as_float_array(x, shape=None):
    out = np.asarray(x, dtype=float)
    if shape is not None and out.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {out.shape}")
    return out


def json_field(doc: dict, name: str, what: str):
    """Field ``name`` of the ``what`` JSON document; a ValueError names both if it is missing."""
    if name not in doc:
        raise ValueError(f"{what} field {name!r} is missing")
    return doc[name]


def json_numbers(doc: dict, name: str, size: int, what: str) -> np.ndarray:
    """The ``size`` numbers of a JSON document's field ``name`` as a float array.

    Raises ValueError naming the field of the ``what`` document when it is missing or
    holds no ``size`` numbers (a string, a boolean, a null, an object or a ragged list).
    """
    value = json_field(doc, name, what)
    try:
        out = np.asarray(value)
    except ValueError:  # a ragged list
        out = None
    if out is None or out.dtype.kind not in "iuf" or out.size != size:
        raise ValueError(f"{what} field {name!r} must be {size} numbers, got {reprlib.repr(value)}")
    return out.astype(float)


def check_integer(name: str, value, low: int, high=np.inf) -> int:
    """``value`` as an int; a ValueError names a bool, a fraction or a value out of [low, high]."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral)
            or not low <= value <= high):
        rule = "a non-negative integer" if low == 0 else f"an integer >= {low}"
        rule += f" and <= {high}" if high < np.inf else ""
        raise ValueError(f"{name} must be {rule}, got {reprlib.repr(value)}")
    return int(value)


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
        for name in ("soft_iron", "hard_iron", "noise_sigma", "field"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if abs(np.linalg.norm(self.field) - 1.0) > 1e-12:
            raise ValueError("field must be a unit vector (normalize before use)")
        try:
            r = np.abs(self.calibration().shape)
            calibrates = np.isfinite(r).all() and np.diag(r).min() > 1e-13 * max(1.0, r.max())
        except np.linalg.LinAlgError:  # exactly singular
            calibrates = False
        if not calibrates:
            raise ValueError(f"soft_iron is singular or near-singular: {self.soft_iron.tolist()}")

    def calibration(self) -> CalibrationParams:
        """True shape/offset this model implies.

        The shape matrix is the triangular factor of the inverse soft-iron
        matrix (positive-diagonal QR), so shape @ (y - hard_iron) is a unit
        vector for noise-free data.
        """
        r = np.linalg.qr(np.linalg.inv(self.soft_iron))[1]
        signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
        return CalibrationParams(shape=signs[:, None] * r, offset=self.hard_iron.copy())


@dataclass(frozen=True)
class Dataset:
    """Raw three-axis samples (N, 3)."""

    samples: np.ndarray

    def __post_init__(self):
        samples = _as_float_array(self.samples)
        if samples.ndim != 2 or samples.shape[1] != 3 or samples.shape[0] < 1:
            raise ValueError(f"samples must be (N>=1, 3), got {samples.shape}")
        object.__setattr__(self, "samples", samples)

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
class SolveOptions:
    """Newton iteration controls shared by both solvers."""

    max_iterations: int = 50
    objective_tolerance: float = 1e-12
    step_tolerance: float = 1e-10
    gradient_tolerance: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "max_iterations",
                           check_integer("max_iterations", self.max_iterations, 1))
        for name, value in vars(self).items():  # max_iterations passes, an int >= 1 by now
            if isinstance(value, (bool, np.bool_)) or not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, and a number, got {value}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an nm or ml solve; a history is a tuple of floats, index 0 the initial value.

    ``objective_history`` tracks the nm objective or the ml data misfit (sum
    of squared residuals). Both estimators set ``final_params``; only ml sets
    ``final_state`` (an ``ml.MLState``) and ``constraint_violation_history``,
    the worst unit-norm violation max_k |  ||m_k||^2 - 1 |, aligned per iteration.
    """

    objective_history: tuple
    iterations: int
    converged: bool
    final_params: CalibrationParams
    final_state: MLState | None = None
    constraint_violation_history: tuple = ()
    warnings: tuple = ()

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
