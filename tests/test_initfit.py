import numpy as np
import pytest

from magcal.errors import DegenerateDataError, InsufficientDataError
from magcal.initfit import _design_matrix, fit_initial
from magcal.linalg import pack_upper
from magcal.ml import initial_ml_state
from magcal.simulate import default_truth, simulate, sweep_trajectory
from magcal.types import CalibrationParams


def _noise_free_default():
    return simulate(default_truth(sigma=0.0), sweep_trajectory(300), seed=0)


def _pack_quadric(a, b, c):
    return np.concatenate([pack_upper(a), b, [c]])


def _quadric(params):
    """(A, b, c) of y'Ay + b'y + c = 0 for a calibration: A = R'R, b = -2Ah, c = h'Ah - 1."""
    a = params.shape.T @ params.shape
    h = params.offset
    return a, -2.0 * a @ h, h @ a @ h - 1.0


class TestDesignRow:
    def test_unit_x(self):
        np.testing.assert_array_equal(
            _design_matrix(np.array([[1.0, 0.0, 0.0]]))[0],
            [1, 0, 0, 0, 0, 0, 1, 0, 0, 1],
        )

    def test_origin(self):
        np.testing.assert_array_equal(
            _design_matrix(np.zeros((1, 3)))[0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        )

    def test_annihilates_true_quadric(self, default_scene):
        r_true, h_true = default_scene["r_true"], default_scene["h_true"]
        z = _pack_quadric(*_quadric(CalibrationParams(r_true, h_true)))
        ds = _noise_free_default()
        np.testing.assert_array_less(np.abs(_design_matrix(ds.samples[::37]) @ z), 1e-10)


class TestFitEllipsoid:
    def test_unit_sphere(self):
        rng = np.random.default_rng(0)
        dirs = rng.normal(0, 1, (300, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        a, b, c = _quadric(fit_initial(dirs)[0])
        np.testing.assert_allclose(a, np.eye(3), atol=1e-8)
        np.testing.assert_allclose(b, 0.0, atol=1e-8)
        assert c == pytest.approx(-1.0, abs=1e-8)

    def test_noise_free_default_recovers_truth(self, default_scene):
        r_true, h_true = default_scene["r_true"], default_scene["h_true"]
        params, min_eigenvalue = fit_initial(_noise_free_default())
        a, b, c = _quadric(params)
        a_true, b_true, c_true = _quadric(CalibrationParams(r_true, h_true))
        np.testing.assert_allclose(a, a_true, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(b, b_true, rtol=1e-6)
        assert c == pytest.approx(c_true, rel=1e-6)
        assert min_eigenvalue == pytest.approx(0.0, abs=1e-8)

    def test_noisy_initial_estimate_nearly_calibrates(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=2)
        params = fit_initial(ds)[0]
        mags = np.linalg.norm((ds.samples - params.offset) @ params.shape.T, axis=1)
        assert np.all(mags > 0.98) and np.all(mags < 1.02)

    def test_eigen_solution_matches_svd_oracle(self, default_scene):
        # Rebuild the quadric from the returned estimate, centre it as the fit
        # does, and compare with the minimum right-singular vector of the
        # centered design.
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=3)
        samples = ds.samples[:50]
        a, b, c = _quadric(fit_initial(samples)[0])
        center = samples.mean(axis=0)
        b_centered = b + 2.0 * a @ center
        c_centered = c + b @ center + center @ a @ center
        z = _pack_quadric(a, b_centered, c_centered)
        z /= np.linalg.norm(z)

        rows = _design_matrix(samples - center)
        _, _, vt = np.linalg.svd(rows)
        z_svd = vt[-1]
        assert min(np.linalg.norm(z - z_svd), np.linalg.norm(z + z_svd)) < 1e-8

    def test_exact_recovery_for_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = np.triu(rng.normal(0, 0.3, (3, 3))) + np.diag(rng.uniform(0.8, 1.5, 3))
            h = rng.normal(0, 2.0, 3)
            dirs = rng.normal(0, 1, (40, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            samples = dirs @ np.linalg.inv(r).T + h
            params = fit_initial(samples)[0]
            np.testing.assert_allclose(params.shape, r, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(params.offset, h, rtol=1e-6, atol=1e-8)

    def test_non_finite_row_named(self):
        samples = _noise_free_default().samples.copy()
        samples[17, 1] = np.inf
        with pytest.raises(ValueError, match="row 17"):
            fit_initial(samples)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_initial(np.ones((9, 3)))

    def test_planar_data_is_degenerate(self):
        rng = np.random.default_rng(8)
        angles = rng.uniform(0, 2 * np.pi, 100)
        circle = np.column_stack(
            [np.cos(angles), np.sin(angles), np.zeros_like(angles)]
        )
        with pytest.raises(DegenerateDataError):
            fit_initial(circle)


class TestInitialParams:
    def test_noise_free_recovery(self, default_scene):
        params = fit_initial(_noise_free_default())[0]
        np.testing.assert_allclose(params.shape, default_scene["r_true"], rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(params.offset, default_scene["h_true"], rtol=1e-6)


class TestInitialMLState:
    def test_identity_params_keep_samples(self):
        rng = np.random.default_rng(9)
        dirs = rng.normal(0, 1, (30, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        state = initial_ml_state(
            CalibrationParams(shape=np.eye(3), offset=np.zeros(3)), dirs
        )
        np.testing.assert_array_equal(state.field_dirs, dirs)
        np.testing.assert_allclose(state.t_matrix, np.eye(3), atol=1e-15)

    def test_noise_free_unit_directions(self, default_scene):
        ds = _noise_free_default()
        params = fit_initial(ds)[0]
        state = initial_ml_state(params, ds.samples)
        np.testing.assert_allclose(
            np.linalg.norm(state.field_dirs, axis=1), 1.0, atol=1e-6
        )

    def test_multipliers_start_at_zero(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=13)
        state = initial_ml_state(fit_initial(ds)[0], ds.samples)
        np.testing.assert_array_equal(state.lagrange, 0.0)
