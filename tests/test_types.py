import numpy as np
import pytest

from magcal.types import CalibrationParams, Dataset, SensorTruth, as_samples


@pytest.mark.parametrize("shape, offset", [(np.eye(2), np.zeros(3)), (np.eye(3), np.zeros(2))],
                         ids=["shape_2x2", "offset_2"])
def test_calibration_params_need_a_3x3_shape_and_a_3_offset(shape, offset):
    with pytest.raises(ValueError, match="expected array of shape"):
        CalibrationParams(shape, offset)


def test_sensor_truth_needs_a_unit_field():
    with pytest.raises(ValueError, match="field must be a unit vector"):
        SensorTruth(np.eye(3), np.zeros(3), 0.01, np.array([2.0, 0.0, 0.0]))


@pytest.mark.parametrize("shape", [(0, 3), (5, 2), (3,)])
def test_dataset_needs_n_by_3_samples(shape):
    with pytest.raises(ValueError, match=r"samples must be \(N>=1, 3\)"):
        Dataset(np.zeros(shape))


@pytest.mark.parametrize("shape", [(5, 2), (3,), (2, 3, 3)])
def test_as_samples_needs_an_n_by_3_array(shape):
    with pytest.raises(ValueError, match=r"expected samples of shape \(N, 3\)"):
        as_samples(np.zeros(shape))
