import numpy as np
import pytest
import scipy.linalg

from magcal.linalg import (
    attitude_from_euler,
    cholesky_upper,
    decompose_scale_ortho,
    invert_upper,
    pack_upper,
    qr_decompose,
    unpack_upper,
)


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
    def test_identity(self):
        q, r = qr_decompose(np.eye(3))
        np.testing.assert_allclose(q, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-15)

    def test_diagonal_passthrough(self):
        q, r = qr_decompose(np.diag([2.0, 3.0, 4.0]))
        np.testing.assert_allclose(q, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(r, np.diag([2.0, 3.0, 4.0]), atol=1e-15)

    def test_recomposes_inverse_soft_iron(self):
        from magcal.simulate import DEFAULT_SOFT_IRON

        m = np.linalg.inv(DEFAULT_SOFT_IRON)
        q, r = qr_decompose(m)
        np.testing.assert_allclose(q @ r, m, atol=1e-12)
        assert np.all(np.diag(r) > 0)

    def test_random_matrices(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = rng.normal(0, 1, (3, 3))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            q, r = qr_decompose(m)
            assert np.linalg.norm(q @ r - m) <= 1e-10 * np.linalg.norm(m)
            np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)
            assert np.all(np.diag(r) > 0)
            np.testing.assert_allclose(np.tril(r, -1), 0.0, atol=0.0)

    def test_singular_input_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            qr_decompose(np.ones((3, 3)))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky_upper(np.eye(3)), np.eye(3), atol=1e-15)

    def test_diagonal_square_roots(self):
        np.testing.assert_allclose(
            cholesky_upper(np.diag([4.0, 9.0, 16.0])), np.diag([2.0, 3.0, 4.0]), atol=1e-15
        )

    def test_round_trip_recovers_factor(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = np.triu(rng.normal(0, 1, (3, 3)))
            r[np.diag_indices(3)] = rng.uniform(0.5, 2.0, 3)
            a = r.T @ r
            r_hat = cholesky_upper(a)
            np.testing.assert_allclose(r_hat, r, atol=1e-10 * np.abs(r).max())
            assert np.linalg.norm(r_hat.T @ r_hat - a) <= 1e-10 * np.linalg.norm(a)

    def test_not_positive_definite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_upper(np.diag([1.0, -1.0, 1.0]))


class TestScaleOrtho:
    def test_diagonal_input(self):
        m_matrix, scales = decompose_scale_ortho(np.diag([2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(m_matrix, np.eye(3))
        np.testing.assert_array_equal(scales, [2.0, 3.0, 4.0])

    def test_hand_example(self):
        r = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 4.0]])
        m_matrix, scales = decompose_scale_ortho(r)
        np.testing.assert_array_equal(scales, [2.0, 1.0, 4.0])
        expected_m = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.25], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(m_matrix, expected_m)
        np.testing.assert_array_equal(m_matrix * scales, r)

    def test_round_trip_within_one_ulp(self):
        # Division then multiplication is not always bit-exact in IEEE
        # doubles, so the recomposition is held to 1 ulp per entry.
        rng = np.random.default_rng(4)
        for _ in range(500):
            r = np.triu(rng.uniform(-2.0, 2.0, (3, 3)))
            r[np.diag_indices(3)] = rng.uniform(0.3, 3.0, 3)
            m_matrix, scales = decompose_scale_ortho(r)
            back = m_matrix * scales
            np.testing.assert_array_max_ulp(back, r, maxulp=1)

    def test_zero_diagonal_raises(self):
        with pytest.raises(ValueError):
            decompose_scale_ortho(np.diag([1.0, 0.0, 2.0]))


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

    @pytest.mark.parametrize("k", range(3))
    def test_zero_diagonal_raises(self, k):
        r = np.triu(np.ones((3, 3)))
        r[k, k] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            invert_upper(r)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, bad):
        r = np.triu(np.ones((3, 3)))
        r[0, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            invert_upper(r)

    def test_overflow_gives_inf_without_warning(self):
        # The suite turns warnings into errors, so a warning would fail this test.
        r = np.array([[1e-300, 1e300, 0.0], [0.0, 1e-300, 0.0], [0.0, 0.0, 1.0]])
        t = invert_upper(r)
        assert np.isinf(t[0, 1])
        np.testing.assert_array_equal(np.tril(t, -1), 0.0)
