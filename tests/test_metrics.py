import numpy as np
import pytest

from magcal.initfit import fit_initial
from magcal.linalg import unpack_upper
from magcal.metrics import apply_calibration, error_metrics, error_metrics_batch
from magcal.ml import solve_ml
from magcal.nm import solve_nm
from magcal.simulate import default_truth, simulate
from magcal.types import CalibrationParams


def _params(shape_entries, offset):
    return CalibrationParams(shape=unpack_upper(shape_entries), offset=np.asarray(offset, float))


class TestApplyCalibration:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0, 1, (20, 3))
        out = apply_calibration(CalibrationParams(np.eye(3), np.zeros(3)), y)
        np.testing.assert_array_equal(out, y)

    def test_single_vector_shape(self):
        out = apply_calibration(CalibrationParams(np.eye(3), np.zeros(3)), [1.0, 2.0, 3.0])
        assert out.shape == (3,)

    def test_truth_params_give_unit_norms_on_noise_free_data(self, default_scene):
        ds = simulate(default_truth(sigma=0.0), default_scene["trajectory"], seed=0)
        truth = CalibrationParams(default_scene["r_true"], default_scene["h_true"])
        mags = np.linalg.norm(apply_calibration(truth, ds.samples), axis=1)
        np.testing.assert_allclose(mags, 1.0, atol=1e-10)

    def test_calibrated_spread_tracks_noise_level(self, default_scene):
        truth = default_scene["truth"]
        ds = simulate(truth, default_scene["trajectory"], seed=1)
        report = solve_nm(ds, fit_initial(ds)[0])
        mags = np.linalg.norm(apply_calibration(report.final_params, ds.samples), axis=1)
        bound = 10 * truth.noise_sigma * np.linalg.norm(report.final_params.shape)
        assert mags.std() < bound


class TestErrorMetrics:
    def test_zero_for_identical_params(self):
        p = _params([1.1, 0.2, -0.1, 0.9, 0.3, 1.2], [0.5, 1.7, 2.6])
        assert error_metrics(p, p).as_tuple() == (0.0, 0.0, 0.0)

    def test_uniform_scale_error_by_hand(self):
        # 1% on all three scales: |(0.01, 0.01, 0.01)| / 3 * 100.
        truth = _params([1.0, 0.2, -0.1, 0.9, 0.3, 1.2], [0.0, 0.0, 0.0])
        scaled = CalibrationParams(
            shape=truth.shape * np.array([1.01, 1.01, 1.01]), offset=truth.offset
        )
        m = error_metrics(scaled, truth)
        assert m.scale_pct == pytest.approx(0.01 * np.sqrt(3) / 3 * 100, rel=1e-12)
        assert m.ortho_deg == pytest.approx(0.0, abs=1e-12)
        assert m.hard_iron_gauss == 0.0

    def test_hard_iron_translation_consistency(self):
        rng = np.random.default_rng(2)
        a = _params([1.0, 0.1, 0.0, 1.1, 0.2, 0.9], rng.normal(0, 1, 3))
        b = _params([1.0, 0.1, 0.0, 1.1, 0.2, 0.9], rng.normal(0, 1, 3))
        shift = rng.normal(0, 5, 3)
        m0 = error_metrics(a, b)
        m1 = error_metrics(
            CalibrationParams(a.shape, a.offset + shift),
            CalibrationParams(b.shape, b.offset + shift),
        )
        assert m1.hard_iron_gauss == pytest.approx(m0.hard_iron_gauss, rel=1e-12)

    def test_scale_error_is_relative(self):
        est = _params([1.05, 0.1, 0.0, 0.95, 0.2, 1.1], [0, 0, 0])
        ref = _params([1.0, 0.1, 0.0, 1.0, 0.2, 1.0], [0, 0, 0])
        m0 = error_metrics(est, ref)
        c = 3.7
        m1 = error_metrics(
            CalibrationParams(est.shape * c, est.offset),
            CalibrationParams(ref.shape * c, ref.offset),
        )
        assert m1.scale_pct == pytest.approx(m0.scale_pct, rel=1e-12)

    def test_ml_and_nm_paths_agree_after_conversion(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=3)
        init = fit_initial(ds)[0]
        truth = CalibrationParams(default_scene["r_true"], default_scene["h_true"])
        ml_params = solve_ml(ds, init).final_params
        m = error_metrics(ml_params, truth)
        assert m.scale_pct < 0.5 and m.ortho_deg < 0.5

    def test_stack_equals_lone_norms_bit_for_bit(self):
        # The stacked scorer rounds as np.linalg.norm of each 1-D mismatch, at scales 1e-6 to 1e6.
        rng = np.random.default_rng(17)
        truth = _params([1.1, 0.2, -0.1, 0.9, 0.3, 1.2], [0.5, 1.7, 2.6])
        estimates = [CalibrationParams(truth.shape * (1.0 + rng.normal(0, s, (3, 3))),
                                       truth.offset + rng.normal(0, s, 3))
                     for s in np.logspace(-6, 6, 49)]
        scores = error_metrics_batch(estimates, truth)
        for estimate, score in zip(estimates, scores):
            est_scales, ref_scales = np.diag(estimate.shape), np.diag(truth.shape)
            coupling = estimate.shape / est_scales - truth.shape / ref_scales
            assert score.as_tuple() == error_metrics(estimate, truth).as_tuple() == (
                float(np.linalg.norm(est_scales / ref_scales - 1.0) / 3.0 * 100.0),
                float(180.0 / (3.0 * np.pi) * np.linalg.norm(coupling[np.triu_indices(3, 1)])),
                float(np.linalg.norm(estimate.offset - truth.offset) / 3.0))
        assert error_metrics_batch([], truth) == []

    @pytest.mark.parametrize("zero_in", ["estimate", "truth"])
    def test_zero_scale_diagonal_raises(self, zero_in):
        # A study that met one must stop, not warn and then aggregate inf.
        good = _params([1.1, 0.2, -0.1, 0.9, 0.3, 1.2], [0.5, 1.7, 2.6])
        bad = _params([1.1, 0.2, -0.1, 0.0, 0.3, 1.2], [0.5, 1.7, 2.6])
        args = (bad, good) if zero_in == "estimate" else (good, bad)
        with pytest.raises(ValueError, match="zero diagonal"):
            error_metrics(*args)
