import numpy as np
import pytest
import scipy.linalg

from magcal.linalg import (
    attitude_from_euler,
    invert_upper,
    pack_upper,
    unpack_upper,
)
from magcal.simulate import DEFAULT_SOFT_IRON
from magcal.types import SensorTruth


class TestAttitude:
    def test_zero_angles_is_identity(self):
        np.testing.assert_allclose(attitude_from_euler(0, 0, 0), np.eye(3), atol=1e-15)

    def test_pure_roll_90(self):
        expected = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        np.testing.assert_allclose(attitude_from_euler(90, 0, 0), expected, atol=1e-12)

    def test_proper_rotation_for_random_angles(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            angles = rng.uniform(-180, 180, 3)
            c = attitude_from_euler(*angles)
            np.testing.assert_allclose(c.T @ c, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(c) - 1.0) <= 1e-12

    def test_angle_arrays_broadcast_to_stacked_matrices(self):
        rng = np.random.default_rng(2)
        roll, pitch = rng.uniform(-180, 180, (2, 4, 5))
        stack = attitude_from_euler(roll, pitch, 30.0)
        assert stack.shape == (4, 5, 3, 3)
        for i in range(4):
            for j in range(5):
                expected = attitude_from_euler(roll[i, j], pitch[i, j], 30.0)
                np.testing.assert_array_equal(stack[i, j], expected)


class TestQR:
    """The positive-diagonal QR of inv(S) that SensorTruth.calibration takes."""

    @staticmethod
    def _qr(soft_iron):
        m = np.linalg.inv(soft_iron)
        r = SensorTruth(soft_iron, np.zeros(3), 0.0, np.array([1.0, 0.0, 0.0])).calibration().shape
        return m, m @ np.linalg.inv(r), r

    def test_identity(self):
        _, q, r = self._qr(np.eye(3))
        np.testing.assert_allclose(q, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-15)

    def test_diagonal_passthrough(self):
        _, q, r = self._qr(np.diag([1 / 2.0, 1 / 3.0, 1 / 4.0]))
        np.testing.assert_allclose(q, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(r, np.diag([2.0, 3.0, 4.0]), atol=1e-15)

    def test_recomposes_inverse_soft_iron(self):
        m, q, r = self._qr(DEFAULT_SOFT_IRON)
        np.testing.assert_allclose(q @ r, m, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)
        assert np.all(np.diag(r) > 0)
        np.testing.assert_array_equal(np.tril(r, -1), 0.0)


class TestPacking:
    def test_round_trip(self):
        entries = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        np.testing.assert_array_equal(pack_upper(unpack_upper(entries)), entries)

    def test_row_major_order(self):
        m = np.array([[11.0, 12.0, 13.0], [0.0, 22.0, 23.0], [0.0, 0.0, 33.0]])
        np.testing.assert_array_equal(pack_upper(m), [11, 12, 13, 22, 23, 33])

    def test_bad_length_raises(self):
        with pytest.raises(ValueError):
            unpack_upper([1.0, 2.0])


class TestInvertUpper:
    def test_inverse_stays_upper(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            r = np.triu(rng.normal(0, 1, (3, 3)))
            r[np.diag_indices(3)] = rng.uniform(0.5, 2.0, 3)
            t = invert_upper(r)
            np.testing.assert_array_equal(np.tril(t, -1), 0.0)
            np.testing.assert_allclose(t @ r, np.eye(3), atol=1e-12)

    def test_matches_scipy_triangular_solve(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            r = np.triu(rng.normal(0, 1, (3, 3)))
            r[np.diag_indices(3)] = rng.choice([-1.0, 1.0], 3) * rng.uniform(0.1, 10.0, 3)
            expected = scipy.linalg.solve_triangular(r, np.eye(3))
            np.testing.assert_allclose(invert_upper(r), expected,
                                       rtol=0, atol=1e-14 * np.abs(expected).max())

    def test_reads_only_the_upper_triangle(self):
        r = np.array([[2.0, 0.5, -1.0], [0.0, 4.0, 0.25], [0.0, 0.0, 0.5]])
        np.testing.assert_array_equal(invert_upper(r + np.tril(np.ones((3, 3)), -1)),
                                      invert_upper(r))

    # A matrix with no inverse does not raise: it gives an upper triangle of NaN.
    @pytest.mark.parametrize("k", range(3))
    def test_zero_diagonal_raises(self, k):
        r = np.triu(np.ones((3, 3)))
        r[k, k] = 0.0
        np.testing.assert_array_equal(invert_upper(r), np.triu(np.full((3, 3), np.nan)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, bad):
        r = np.triu(np.ones((3, 3)))
        r[0, 2] = bad
        np.testing.assert_array_equal(invert_upper(r), np.triu(np.full((3, 3), np.nan)))
        r[0, 2], r[2, 0] = 1.0, bad  # below the diagonal too, though the arithmetic skips it
        np.testing.assert_array_equal(invert_upper(r), np.triu(np.full((3, 3), np.nan)))

    def test_overflow_gives_inf_without_warning(self):
        # The suite turns warnings into errors, so a warning would fail this test.
        r = np.array([[1e-300, 1e300, 0.0], [0.0, 1e-300, 0.0], [0.0, 0.0, 1.0]])
        t = invert_upper(r)
        assert np.isinf(t[0, 1])
        np.testing.assert_array_equal(np.tril(t, -1), 0.0)
