import numpy as np
import pytest

from magcal.errors import CalibrationError, DegenerateDataError, InsufficientDataError
from magcal.initfit import _design_matrix, _scatter, fit_initial, fit_initial_batch
from magcal.linalg import pack_upper
from magcal.simulate import default_truth, simulate, sweep_trajectory
from magcal.types import CalibrationParams
from packing import initial_ml_state


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


class TestScatter:
    def test_blocked_stack_equals_whole_design_gram(self):
        # 5 000 rows take three blocks, so the blocks' sums round differently.
        rng = np.random.default_rng(4)
        samples = rng.normal(0, 1, (2, 5_000, 3)) + [[[0.0, 0.0, 0.0]], [[30.0, -5.0, 2.0]]]
        center, gram = _scatter(samples)
        for item, c, g in zip(samples, center, gram):
            np.testing.assert_allclose(c, item.mean(axis=0), rtol=1e-14, atol=1e-14)
            design = _design_matrix(item - c)
            np.testing.assert_allclose(g, design.T @ design, rtol=0, atol=1e-14 * np.abs(g).max())


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

    def test_overflowing_data_is_degenerate(self):
        # Near 1e77 the quartic entries of the scatter matrix overflow.
        samples = simulate(default_truth(), sweep_trajectory(300), 7).samples * 1e77
        with pytest.raises(DegenerateDataError, match="scatter matrix overflows; rescale"):
            fit_initial(samples)

    def test_temporaries_do_not_grow_with_n(self, traced_peak):
        # The design rows are formed a block at a time (2.1 arrays of N floats here;
        # 21.0 when the fit formed all N x 10 of them at once).
        n = 30_000
        samples = simulate(default_truth(), sweep_trajectory(n), seed=7).samples
        fit_initial(samples[:300])  # numpy's first-call set-up is not the fit's
        assert traced_peak(lambda: fit_initial(samples)) < 4 * 8 * n


_COVERAGE = "not an ellipsoid; attitude coverage is insufficient"


class TestEllipsoidDecision:
    """The scaled quadric's Cholesky factor alone decides whether the fit is an ellipsoid.

    Each case hands the fit a crafted eigenvector z = [A entries 11,12,13,22,23,33, b, c]
    of the centred quadric, whose scale is b'A^-1 b - 4c.
    """

    @staticmethod
    def _fit_with(monkeypatch, z):
        eigh = np.linalg.eigh

        def crafted(gram):
            vals, vecs = eigh(gram)
            vecs[..., :, 0] = z
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", crafted)
        return fit_initial(_noise_free_default())

    @pytest.mark.parametrize("c", [0.25, 0.0, -1e-320], ids=["negative", "zero", "subnormal"])
    def test_positive_definite_a_with_a_bad_scale_is_degenerate(self, monkeypatch, c):
        # Scale -1 makes alpha A negative definite; 0 and 4e-320 make alpha overflow to inf.
        with pytest.raises(DegenerateDataError, match=_COVERAGE):
            self._fit_with(monkeypatch, _pack_quadric(np.eye(3), np.zeros(3), c))

    @pytest.mark.parametrize("diag", [(1.0, 1.0, -1.0), (-1.0, 1.0, 1.0), (1.0, 1.0, 0.0)],
                             ids=["indefinite", "indefinite_negative_a11", "singular"])
    def test_indefinite_or_singular_a_is_degenerate(self, monkeypatch, diag):
        with pytest.raises(DegenerateDataError, match=_COVERAGE):
            self._fit_with(monkeypatch, _pack_quadric(np.diag(diag), np.zeros(3), -1.0))

    def test_negative_definite_twin_gives_the_same_fit_bit_for_bit(self, monkeypatch):
        z = _pack_quadric(*_quadric(default_truth().calibration()))
        twin = self._fit_with(monkeypatch, -z)
        fit = self._fit_with(monkeypatch, z)
        np.testing.assert_array_equal(twin[0].shape, fit[0].shape)
        np.testing.assert_array_equal(twin[0].offset, fit[0].offset)
        assert twin[1] == fit[1]

    def test_hyperboloid_samples_are_degenerate(self):
        rng = np.random.default_rng(9)
        t, phi = rng.uniform(-1.0, 1.0, 60), rng.uniform(0.0, 2 * np.pi, 60)
        samples = np.column_stack([np.cosh(t) * np.cos(phi), np.cosh(t) * np.sin(phi), np.sinh(t)])
        with pytest.raises(DegenerateDataError, match=_COVERAGE):
            fit_initial(samples)


def _assert_fits_equal(fit, lone):
    """A stacked fit's item is its lone fit, bit for bit: the same estimate or the same error."""
    if isinstance(lone, CalibrationError):
        assert type(fit) is type(lone) and str(fit) == str(lone)
        return
    assert not isinstance(fit, CalibrationError), fit
    np.testing.assert_array_equal(fit[0].shape, lone[0].shape)
    np.testing.assert_array_equal(fit[0].offset, lone[0].offset)
    assert fit[1] == lone[1]


def _lone_fit(samples):
    try:
        return fit_initial(samples)
    except CalibrationError as exc:
        return exc


class TestFitBatch:
    def test_stack_equals_lone_fits_bit_for_bit(self):
        # A clean run, near-planar runs (tilt 0.5 fails; tilt 0 fits a needle), a run whose
        # scatter matrix overflows, and random clouds, of which the Gaussian ones fit.
        rng = np.random.default_rng(21)
        clean = simulate(default_truth(), sweep_trajectory(300), seed=3).samples
        planar = [simulate(default_truth(), sweep_trajectory(300, tilt), seed=4).samples
                  for tilt in (0.0, 0.5)]
        clouds = [rng.normal(0, 1, (300, 3)) * 10.0 ** e for e in (-3, 0, 3)]
        stack = np.array([clean, *planar, clean * 1e77, *clouds, rng.standard_cauchy((300, 3)),
                          clean[::-1]])
        lone = [_lone_fit(samples) for samples in stack]
        kinds = [str(f) if isinstance(f, CalibrationError) else "fit" for f in lone]
        assert sorted(set(kinds)) == ["fit", "fitted quadric is not an ellipsoid; attitude "
                                      "coverage is insufficient", "the quadric's scatter matrix "
                                      "overflows; rescale the data"]
        for fits in (fit_initial_batch(stack), fit_initial_batch(stack, _scatter(stack)),
                     fit_initial_batch(stack[::-1])[::-1]):
            assert len(fits) == len(stack)
            for fit, alone in zip(fits, lone):
                _assert_fits_equal(fit, alone)

    def test_too_few_samples_fail_every_item(self):
        fits = fit_initial_batch(np.ones((3, 9, 3)))
        assert [type(f) for f in fits] == [InsufficientDataError] * 3
        assert str(fits[0]) == "ellipsoid fit needs >= 10 samples, got 9"

    def test_singular_and_indefinite_items_leave_the_others_bit_for_bit(self, monkeypatch):
        # Item 1's A is singular, so the stack's scale solve raises; item 2's is indefinite,
        # so the stack's Cholesky factorization raises. Items 0 and 3 still fit as alone.
        stack = np.array([simulate(default_truth(), sweep_trajectory(300), seed=s).samples
                          for s in range(4)])
        lone = [fit_initial(samples) for samples in stack]
        eigh = np.linalg.eigh
        crafted = {1: _pack_quadric(np.diag([1.0, 1.0, 0.0]), np.zeros(3), -1.0),
                   2: _pack_quadric(np.diag([1.0, 1.0, -1.0]), np.zeros(3), -1.0)}

        def crafted_eigh(gram):
            vals, vecs = eigh(gram)
            for i, z in crafted.items():
                vecs[i, :, 0] = z
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", crafted_eigh)
        fits = fit_initial_batch(stack)
        for i in (1, 2):
            assert isinstance(fits[i], DegenerateDataError)
            assert str(fits[i]).startswith("fitted quadric is not an ellipsoid")
        for i in (0, 3):
            _assert_fits_equal(fits[i], lone[i])


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
