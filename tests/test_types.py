import numpy as np
import pytest
from conftest import oracle_true_params

from magcal.simulate import DEFAULT_SOFT_IRON
from magcal.types import (
    CalibrationParams, Dataset, SensorTruth, SolveOptions, as_samples, check_integer,
)


@pytest.mark.parametrize("shape, offset", [(np.eye(2), np.zeros(3)), (np.eye(3), np.zeros(2))],
                         ids=["shape_2x2", "offset_2"])
def test_calibration_params_need_a_3x3_shape_and_a_3_offset(shape, offset):
    with pytest.raises(ValueError, match="expected array of shape"):
        CalibrationParams(shape, offset)


def test_sensor_truth_needs_a_unit_field():
    with pytest.raises(ValueError, match="field must be a unit vector"):
        SensorTruth(np.eye(3), np.zeros(3), 0.01, np.array([2.0, 0.0, 0.0]))


def _random_soft_irons(count, seed):
    """Random S = U diag(s) V' with singular values in [0.5, 1.5] and random rotations."""
    rng = np.random.default_rng(seed)
    rotations = np.linalg.qr(rng.normal(size=(count, 2, 3, 3)))[0]
    return rotations[:, 0] * rng.uniform(0.5, 1.5, (count, 1, 3)) @ rotations[:, 1]


def _truth(soft_iron):
    return SensorTruth(soft_iron, np.zeros(3), 0.0, np.array([1.0, 0.0, 0.0]))


def test_sensor_truth_calibration_is_upper_with_positive_diagonal():
    for soft_iron in [np.eye(3), np.diag([0.5, 2.0, 4.0]), DEFAULT_SOFT_IRON,
                      *_random_soft_irons(200, 2)]:
        shape = _truth(soft_iron).calibration().shape
        assert np.all(np.diag(shape) > 0.0)
        np.testing.assert_array_equal(np.tril(shape, -1), 0.0)
        np.testing.assert_allclose(np.linalg.inv(shape.T @ shape), soft_iron @ soft_iron.T,
                                   rtol=1e-12, atol=1e-12)


def test_sensor_truth_calibration_equals_the_qr_oracle():
    for soft_iron in _random_soft_irons(200, 3):
        np.testing.assert_array_equal(_truth(soft_iron).calibration().shape,
                                      oracle_true_params(soft_iron, np.zeros(3))[0])


def test_sensor_truth_rejects_a_singular_soft_iron_naming_it():
    with pytest.raises(ValueError, match="soft_iron is singular or near-singular"):
        _truth(np.ones((3, 3)))


@pytest.mark.parametrize("shape", [(0, 3), (5, 2), (3,)])
def test_dataset_needs_n_by_3_samples(shape):
    with pytest.raises(ValueError, match=r"samples must be \(N>=1, 3\)"):
        Dataset(np.zeros(shape))


@pytest.mark.parametrize("shape", [(5, 2), (3,), (2, 3, 3)])
def test_as_samples_needs_an_n_by_3_array(shape):
    with pytest.raises(ValueError, match=r"expected samples of shape \(N, 3\)"):
        as_samples(np.zeros(shape))


@pytest.mark.parametrize("field, value", [
    ("max_iterations", 2.5), ("max_iterations", np.float64(3.0)), ("max_iterations", True),
    ("gradient_tolerance", True), ("objective_tolerance", np.True_),
    ("max_iterations", 0), ("max_iterations", np.False_), ("max_iterations", "3"),
    ("step_tolerance", 0.0), ("step_tolerance", np.inf),
], ids=["iterations_2.5", "iterations_float64", "iterations_true", "gradient_true",
        "objective_numpy_true", "iterations_0", "iterations_numpy_false", "iterations_string",
        "step_0", "step_inf"])
def test_solve_options_reject_a_non_integral_count_or_a_boolean_naming_the_field(field, value):
    # A float count would fail mid-solve with a TypeError; a boolean would read as 1.
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SolveOptions(**{field: value})


def test_solve_options_accept_numpy_numbers():
    opts = SolveOptions(max_iterations=np.int64(3), gradient_tolerance=np.float64(1e-6))
    assert opts.max_iterations == 3 and opts.gradient_tolerance == 1e-6


@pytest.mark.parametrize("value, low, high, rule", [
    (True, 0, np.inf, "a non-negative integer"),
    (np.True_, 1, np.inf, "an integer >= 1"),
    (2.0, 1, np.inf, "an integer >= 1"),
    (2.5, 0, np.inf, "a non-negative integer"),
    (-1, 0, np.inf, "a non-negative integer"),
    (np.int64(0), 1, np.inf, "an integer >= 1"),
    (4, 1, 3, "an integer >= 1 and <= 3"),
    (None, 0, np.inf, "a non-negative integer"),
], ids=["true", "numpy_true", "2.0", "2.5", "negative", "numpy_below", "above", "none"])
def test_check_integer_names_the_argument_the_rule_and_the_value(value, low, high, rule):
    with pytest.raises(ValueError) as info:
        check_integer("seed", value, low, high)
    assert str(info.value) == f"seed must be {rule}, got {value!r}"


def test_check_integer_returns_a_python_int():
    for value in (3, np.int64(3), np.uint8(3)):
        assert type(check_integer("n", value, 1, 3)) is int and check_integer("n", value, 1) == 3
