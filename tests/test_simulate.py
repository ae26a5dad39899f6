import dataclasses

import numpy as np
import pytest

from magcal.linalg import attitude_from_euler
from magcal.simulate import (
    DEFAULT_FIELD,
    SimConfig,
    default_config,
    default_truth,
    noise_free_samples,
    simulate,
    sweep_trajectory,
)
from magcal.types import SensorTruth


class TestSweepTrajectory:
    def test_final_yaw_is_full_revolution(self):
        traj = sweep_trajectory(300)
        assert traj[-1, 2] == pytest.approx(360.0, abs=1e-12)

    def test_final_roll_hits_amplitude(self):
        # roll(k=N) = 20 sin(20 pi + pi/2) = 20
        traj = sweep_trajectory(300)
        assert traj[-1, 0] == pytest.approx(20.0, abs=1e-10)

    def test_final_pitch_is_zero(self):
        # pitch(k=N) = 20 sin(20 pi) = 0
        traj = sweep_trajectory(300)
        assert traj[-1, 1] == pytest.approx(0.0, abs=1e-10)

    def test_tilt_scaling(self):
        traj = sweep_trajectory(100, tilt_deg=5.0)
        assert np.max(np.abs(traj[:, 0])) <= 5.0 + 1e-12
        assert np.max(np.abs(traj[:, 1])) <= 5.0 + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sweep_trajectory(0)


class TestSimulate:
    def test_identity_model_returns_field(self):
        truth = SensorTruth(
            soft_iron=np.eye(3),
            hard_iron=np.zeros(3),
            noise_sigma=0.0,
            field=default_truth().field,
        )
        ds = simulate(truth, np.array([[0.0, 0.0, 0.0]]), seed=0)
        np.testing.assert_allclose(ds.samples[0], truth.field, atol=1e-15)

    def test_deterministic_per_seed(self):
        truth = default_truth()
        traj = sweep_trajectory(50)
        a = simulate(truth, traj, seed=123).samples
        b = simulate(truth, traj, seed=123).samples
        np.testing.assert_array_equal(a, b)
        c = simulate(truth, traj, seed=124).samples
        assert np.any(a != c)

    @pytest.mark.parametrize("n,tilt", [(300, 20.0), (300, 5.0), (3000, 0.0)])
    def test_bit_identical_to_per_sample_loop(self, n, tilt):
        truth = default_truth()
        traj = sweep_trajectory(n, tilt_deg=tilt)
        clean = np.empty((n, 3))
        for i, (roll, pitch, yaw) in enumerate(traj):
            clean[i] = truth.soft_iron @ attitude_from_euler(roll, pitch, yaw) @ truth.field
        noise = np.random.default_rng(5).normal(0.0, truth.noise_sigma, size=(n, 3))
        expected = clean + truth.hard_iron + noise
        np.testing.assert_array_equal(simulate(truth, traj, seed=5).samples, expected)
        noise_free = noise_free_samples(truth, traj)
        np.testing.assert_array_equal(simulate(truth, traj, 5, noise_free).samples, expected)

    def test_noise_free_unit_norm_after_true_calibration(self, default_scene):
        truth = default_truth(sigma=0.0)
        ds = simulate(truth, default_scene["trajectory"], seed=0)
        u = ds.samples - default_scene["h_true"]
        norms_sq = np.einsum("ij,ij->i", u @ default_scene["r_true"].T, u @ default_scene["r_true"].T)
        np.testing.assert_allclose(norms_sq, 1.0, atol=1e-10)

    def test_raw_magnitudes_far_from_unity(self, default_scene):
        # The offset norm (3.15) exceeds the largest soft-iron gain (1.41),
        # so every raw magnitude sits well above 1 and the spread is wide.
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=5)
        mags = np.linalg.norm(ds.samples, axis=1)
        assert mags.max() > 3.0
        assert np.all(np.abs(mags - 1.0) > 1.0)

    def test_noise_statistics(self):
        sigma = 0.003
        n = 100_000
        truth = SensorTruth(
            soft_iron=np.eye(3),
            hard_iron=np.zeros(3),
            noise_sigma=sigma,
            field=np.array([1.0, 0.0, 0.0]),
        )
        ds = simulate(truth, np.zeros((n, 3)), seed=99)
        noise = ds.samples - np.array([1.0, 0.0, 0.0])
        assert np.all(np.abs(noise.mean(axis=0)) < 5 * sigma / np.sqrt(n))
        cov = np.cov(noise.T)
        np.testing.assert_allclose(np.diag(cov), sigma**2, rtol=0.05)
        off = cov[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.05 * sigma**2)


@pytest.mark.parametrize("shape", [(0, 3), (5, 2), (3,)])
def test_noise_free_samples_need_an_n_by_3_trajectory(shape):
    with pytest.raises(ValueError, match="trajectory must be"):
        noise_free_samples(default_truth(), np.zeros(shape))


_N_RULE = f"n must be an integer >= 1 and <= {np.iinfo(np.intp).max}"


class TestSimConfig:
    def test_round_trip(self):
        cfg = default_config()
        again = SimConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_field_normalized_at_load(self):
        cfg = default_config()
        d = cfg.to_dict()
        d["field"] = list(DEFAULT_FIELD)  # raw direction, norm 0.99926
        loaded = SimConfig.from_dict(d)
        assert np.linalg.norm(loaded.truth.field) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "key, value, name",
        [
            ("soft_iron", [np.nan] + [0.5] * 8, "soft_iron"),
            ("hard_iron", [0.0, np.inf, 0.0], "hard_iron"),
            ("sigma", np.nan, "noise_sigma"),
            ("sigma", np.inf, "noise_sigma"),
            ("field", [np.nan, 0.0, 1.0], "field"),
            ("field", [np.inf, 0.0, 0.0], "field"),
        ],
        ids=["soft_iron_nan", "hard_iron_inf", "sigma_nan", "sigma_inf", "field_nan", "field_inf"],
    )
    def test_non_finite_truth_rejected_naming_field(self, key, value, name):
        d = default_config().to_dict()
        d[key] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimConfig.from_dict(d)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("soft_iron", [[1.0, 2.0], [3.0]], "'soft_iron' must be 9 numbers"),
            ("hard_iron", {}, "'hard_iron' must be 3 numbers"),
            ("hard_iron", [True, False, True], "'hard_iron' must be 3 numbers"),
            ("field", "abc", "'field' must be 3 numbers"),
            ("sigma", "0.003", "'sigma' must be a number"),
            ("n", True, "'n' must be an integer"),
            ("seed", np.inf, "'seed' must be an integer"),
        ],
        ids=["soft_iron_ragged", "hard_iron_object", "hard_iron_booleans", "field_string",
             "sigma_string", "n_boolean", "seed_inf"],
    )
    def test_wrong_type_rejected_naming_field(self, key, value, message):
        d = default_config().to_dict()
        d[key] = value
        with pytest.raises(ValueError, match=f"scenario field {message}"):
            SimConfig.from_dict(d)

    def test_negative_seed_rejected_naming_it(self):
        # numpy's own message for a negative seed names nothing.
        for make in (lambda: default_config(seed=-1),
                     lambda: SimConfig.from_dict({**default_config().to_dict(), "seed": -1}),
                     lambda: dataclasses.replace(default_config(), seed=-1)):
            with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
                make()

    @pytest.mark.parametrize("make, message", [
        (lambda: default_config(n=300.5), f"{_N_RULE}, got 300.5"),
        (lambda: default_config(n=True), f"{_N_RULE}, got True"),
        (lambda: default_config(n=2.5), f"{_N_RULE}, got 2.5"),
        (lambda: default_config(seed=2.5), "seed must be a non-negative integer, got 2.5"),
        (lambda: dataclasses.replace(default_config(), seed=True),
         "seed must be a non-negative integer, got True"),
        (lambda: sweep_trajectory(300.5), "n must be an integer >= 1, got 300.5"),
        (lambda: sweep_trajectory(True), "n must be an integer >= 1, got True"),
        (lambda: sweep_trajectory(2.5), "n must be an integer >= 1, got 2.5"),
    ], ids=["config_n_300.5", "config_n_true", "config_n_2.5", "config_seed_2.5",
            "replaced_seed_true", "trajectory_300.5", "trajectory_true", "trajectory_2.5"])
    def test_non_integral_or_boolean_n_or_seed_rejected_naming_it(self, make, message):
        # At 300.5 a study would simulate 301 samples a run and write n = 300 to its summary.
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_numpy_integer_n_and_seed_stored_as_int(self):
        config = default_config(n=np.int64(120), seed=np.uint32(7))
        assert (config.n, config.seed) == (120, 7)
        assert type(config.n) is type(config.seed) is int
        assert config.to_dict() == default_config(n=120, seed=7).to_dict()

    def test_integral_float_n_and_seed_accepted(self):
        d = {**default_config().to_dict(), "n": 300.0, "seed": 7.0}
        loaded = SimConfig.from_dict(d)
        assert (loaded.n, loaded.seed) == (300, 7)
        assert type(loaded.n) is type(loaded.seed) is int

    @pytest.mark.parametrize("soft_iron", [np.zeros((3, 3)), np.diag([1.0, 1.0, 1e-300]),
                                           np.diag([1.0, 1.0, 1e-310]), np.ones((3, 3))],
                             ids=["zero", "tiny_pivot", "subnormal_pivot", "rank_one"])
    def test_singular_soft_iron_rejected_naming_it(self, soft_iron):
        d = default_config().to_dict()
        d["soft_iron"] = soft_iron.ravel().tolist()
        with pytest.raises(ValueError, match="soft_iron is singular"):
            SimConfig.from_dict(d)

    def test_truth_invariants(self):
        truth = default_config().truth
        assert np.linalg.norm(truth.field) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            SensorTruth(
                soft_iron=np.eye(3),
                hard_iron=np.zeros(3),
                noise_sigma=-1.0,
                field=np.array([1.0, 0.0, 0.0]),
            )
        with pytest.raises(ValueError, match="field must be finite"):
            # Past the unit-norm check, which NaN passes.
            SensorTruth(
                soft_iron=np.eye(3),
                hard_iron=np.zeros(3),
                noise_sigma=0.0,
                field=np.array([np.nan, 0.0, 0.0]),
            )
