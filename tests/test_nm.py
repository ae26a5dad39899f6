import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fd import fd_gradient, fd_jacobian
from magcal.errors import DivergenceError, SolverFailure
from magcal.initfit import fit_ellipsoid, initial_params
from magcal.linalg import UPPER_VEC_INDICES
from magcal.metrics import error_metrics
from magcal.nm import nm_gradient_hessian, nm_objective, solve_nm
from magcal.simulate import default_truth, simulate, sweep_trajectory
from magcal.types import CalibrationParams, SolveOptions


def _random_instance(rng, n=20):
    samples = rng.normal(0, 1.0, (n, 3)) + rng.normal(0, 2.0, 3)
    x = np.concatenate([rng.uniform(0.5, 1.5, 1), rng.normal(0, 0.3, 2),
                        rng.uniform(0.5, 1.5, 1), rng.normal(0, 0.3, 1),
                        rng.uniform(0.5, 1.5, 1), rng.normal(0, 1.0, 3)])
    return CalibrationParams.from_vector(x), samples


def _gradient_hessian_kron(params, samples):
    """The Kronecker-product and np.block assembly of nm's derivatives, kept as their reference."""
    shape, eye = params.shape, np.eye(3)
    u = samples - params.offset
    v = u @ shape.T
    s = np.einsum("ij,ij->i", v, v) - 1.0
    rtr = shape.T @ shape
    p = u @ rtr
    su = u.T @ s
    sv = v.T @ s
    g_shape = 4.0 * (v * s[:, None]).T @ u
    g_offset = -4.0 * rtr @ su
    grad_full = np.concatenate([g_shape.ravel(order="F"), g_offset])
    w = (u[:, :, None] * v[:, None, :]).reshape(len(u), 9)
    u2 = u.T @ (u * s[:, None])
    h_rr = 8.0 * w.T @ w + 4.0 * np.kron(u2, eye)
    h_rh = -8.0 * w.T @ p - 4.0 * (np.kron(eye, sv[:, None]) + np.kron(su[:, None], shape))
    h_hh = 4.0 * s.sum() * rtr + 8.0 * p.T @ p
    hess_full = np.block([[h_rr, h_rh], [h_rh.T, h_hh]])
    keep = np.concatenate([UPPER_VEC_INDICES, [9, 10, 11]])
    return grad_full[keep], hess_full[np.ix_(keep, keep)]


class TestObjective:
    def test_zero_at_truth_on_noise_free_data(self, default_scene):
        ds = simulate(default_truth(sigma=0.0), default_scene["trajectory"], seed=0)
        truth = CalibrationParams(default_scene["r_true"], default_scene["h_true"])
        assert nm_objective(truth, ds.samples) < 1e-18

    def test_single_sample_by_hand(self):
        # ||R y||^2 = 2 for y = (1,1,0), so the residual is (1-2)^2 = 1.
        params = CalibrationParams(shape=np.eye(3), offset=np.zeros(3))
        assert nm_objective(params, np.array([[1.0, 1.0, 0.0]])) == pytest.approx(1.0)

    def test_converged_value_below_divergence_threshold(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=1)
        report = solve_nm(ds, initial_params(fit_ellipsoid(ds)))
        assert report.final_objective < 0.018


class TestDerivatives:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            params, samples = _random_instance(rng)
            x = params.to_vector()
            fun = lambda v: nm_objective(CalibrationParams.from_vector(v), samples)
            grad, _ = nm_gradient_hessian(params, samples)
            grad_fd = fd_gradient(fun, x)
            scale = 1.0 + np.max(np.abs(grad_fd))
            assert np.max(np.abs(grad - grad_fd)) / scale < 1e-6

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            params, samples = _random_instance(rng)
            x = params.to_vector()
            gfun = lambda v: nm_gradient_hessian(
                CalibrationParams.from_vector(v), samples
            )[0]
            _, hess = nm_gradient_hessian(params, samples)
            hess_fd = fd_jacobian(gfun, x)
            scale = 1.0 + np.max(np.abs(hess_fd))
            assert np.max(np.abs(hess - hess_fd)) / scale < 1e-4
            np.testing.assert_allclose(hess, hess.T, atol=1e-9 * scale)

    @settings(max_examples=150, deadline=None)
    @given(
        x=arrays(float, 9, elements=st.floats(-10.0, 10.0)),
        samples=st.one_of(st.integers(1, 50), st.just(300)).flatmap(
            lambda n: arrays(float, (n, 3), elements=st.floats(-1e3, 1e3))
        ),
    )
    def test_assembly_equals_kronecker_reference(self, x, samples):
        params = CalibrationParams.from_vector(x)
        grad, hess = nm_gradient_hessian(params, samples)
        ref_grad, ref_hess = _gradient_hessian_kron(params, samples)
        np.testing.assert_array_equal(grad, ref_grad)
        np.testing.assert_array_equal(hess, ref_hess)

    def test_gradient_vanishes_at_converged_minimum(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=2)
        report = solve_nm(ds, initial_params(fit_ellipsoid(ds)))
        grad, _ = nm_gradient_hessian(report.final_params, ds.samples)
        assert np.linalg.norm(grad) <= 1e-8 * (1.0 + report.final_objective)


class TestSolve:
    def test_converges_fast_from_ellipsoid_init(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=3)
        report = solve_nm(ds, initial_params(fit_ellipsoid(ds)))
        assert report.converged
        assert report.iterations <= 5
        # full Newton may overshoot early; only the tail must not increase
        assert report.objective_history[-1] <= report.objective_history[-2] + 1e-15

    def test_truth_init_on_noise_free_data_is_fixed_point(self, default_scene):
        ds = simulate(default_truth(sigma=0.0), default_scene["trajectory"], seed=0)
        truth = CalibrationParams(default_scene["r_true"], default_scene["h_true"])
        report = solve_nm(ds, truth)
        assert report.converged
        assert report.iterations <= 2
        m = error_metrics(report.final_params, truth)
        assert max(m.as_tuple()) < 1e-10

    def test_shape_stays_exactly_triangular(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=4)
        report = solve_nm(ds, initial_params(fit_ellipsoid(ds)))
        np.testing.assert_array_equal(np.tril(report.final_params.shape, -1), 0.0)

    def test_consistency_as_noise_vanishes(self, default_scene):
        ds = simulate(default_truth(sigma=1e-6), default_scene["trajectory"], seed=5)
        report = solve_nm(ds, initial_params(fit_ellipsoid(ds)))
        truth = CalibrationParams(default_scene["r_true"], default_scene["h_true"])
        m = error_metrics(report.final_params, truth)
        assert m.scale_pct < 1e-4
        assert m.ortho_deg < 1e-4
        assert m.hard_iron_gauss < 1e-4

    def test_six_percent_perturbation_usually_diverges(self, default_scene):
        from magcal.experiments import perturb_initial

        diverged = 0
        for seed in range(10):
            ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=seed)
            init = initial_params(fit_ellipsoid(ds))
            bad_init = perturb_initial(init, 0.06, seed + 1000)
            try:
                report = solve_nm(ds, bad_init)
                diverged += report.final_objective > 0.018
            except SolverFailure:
                diverged += 1
        assert diverged > 5

    def test_singular_hessian_raises_with_report(self):
        # Every sample at the offset zeroes the shape-entry block exactly.
        params = CalibrationParams(shape=np.eye(3), offset=np.zeros(3))
        with pytest.raises(SolverFailure) as exc_info:
            solve_nm(np.zeros((12, 3)), params)
        assert exc_info.value.report is not None
        assert not isinstance(exc_info.value, DivergenceError)

    def test_non_finite_objective_raises_divergence(self):
        params = CalibrationParams(shape=1e80 * np.eye(3), offset=np.zeros(3))
        with pytest.raises(DivergenceError) as exc_info:
            solve_nm(np.array([[1.0, 1.0, 0.0]]), params)
        assert exc_info.value.report is not None

    def test_overflowing_newton_system_raises_divergence(self):
        # Samples near 1e77 keep the objective finite but overflow the Hessian.
        # Each solve ends or raises DivergenceError, never a bare ValueError.
        rng = np.random.default_rng(0)
        diverged = 0
        for _ in range(400):
            params, _ = _random_instance(rng)
            n = int(rng.integers(3, 10))
            samples = rng.normal(0, 1.0, (n, 3)) * 10.0 ** rng.uniform(75, 78)
            try:
                solve_nm(samples, params, SolveOptions(max_iterations=5))
            except DivergenceError:
                diverged += 1
        assert diverged > 100

    def test_non_finite_sample_rejected_naming_row(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=7)
        init = initial_params(fit_ellipsoid(ds))
        samples = ds.samples.copy()
        samples[42, 0] = -np.inf
        with pytest.raises(ValueError, match="row 42"):
            solve_nm(samples, init)

    def test_max_iterations_respected(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=7)
        opts = SolveOptions(max_iterations=1, objective_tolerance=1e-30, step_tolerance=1e-30)
        report = solve_nm(ds, initial_params(fit_ellipsoid(ds)), opts)
        assert report.iterations == 1
        assert not report.converged
