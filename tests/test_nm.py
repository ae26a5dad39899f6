import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import examples
from fd import fd_gradient, fd_jacobian
from magcal import nm
from magcal.errors import DivergenceError, SolverFailure
from magcal.initfit import fit_initial
from magcal.linalg import UPPER_VEC_INDICES
from magcal.metrics import error_metrics
from magcal.nm import solve_nm
from magcal.simulate import default_truth, simulate, sweep_trajectory
from magcal.types import CalibrationParams, SolveOptions
from nm_reference import nm_derivatives, nm_objective
from packing import params_from_vector, params_to_vector


def _random_instance(rng, n=20):
    samples = rng.normal(0, 1.0, (n, 3)) + rng.normal(0, 2.0, 3)
    x = np.concatenate([rng.uniform(0.5, 1.5, 1), rng.normal(0, 0.3, 2),
                        rng.uniform(0.5, 1.5, 1), rng.normal(0, 0.3, 1),
                        rng.uniform(0.5, 1.5, 1), rng.normal(0, 1.0, 3)])
    return params_from_vector(x), samples


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


def _assert_assembly_equals_kronecker_reference(params, samples):
    grad, hess = nm_derivatives(params, samples)
    ref_grad, ref_hess = _gradient_hessian_kron(params, samples)
    for got, ref in ((grad, ref_grad), (hess, ref_hess)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref)))


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
        report = solve_nm(ds, fit_initial(ds)[0])
        assert report.final_objective < 0.018


class TestDerivatives:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            params, samples = _random_instance(rng)
            x = params_to_vector(params)
            fun = lambda v: nm_objective(params_from_vector(v), samples)
            grad, _ = nm_derivatives(params, samples)
            grad_fd = fd_gradient(fun, x)
            scale = 1.0 + np.max(np.abs(grad_fd))
            assert np.max(np.abs(grad - grad_fd)) / scale < 1e-6

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            params, samples = _random_instance(rng)
            x = params_to_vector(params)
            gfun = lambda v: nm_derivatives(params_from_vector(v), samples)[0]
            _, hess = nm_derivatives(params, samples)
            hess_fd = fd_jacobian(gfun, x)
            scale = 1.0 + np.max(np.abs(hess_fd))
            assert np.max(np.abs(hess - hess_fd)) / scale < 1e-4
            np.testing.assert_allclose(hess, hess.T, atol=1e-9 * scale)

    @settings(max_examples=examples(150), deadline=None)
    @given(
        x=arrays(float, 9, elements=st.floats(-10.0, 10.0)),
        samples=st.one_of(st.integers(1, 50), st.just(300)).flatmap(
            lambda n: arrays(float, (n, 3), elements=st.floats(-1e3, 1e3))
        ),
    )
    def test_assembly_equals_kronecker_reference(self, x, samples):
        # The scatter-matrix assembly sums the same terms in another order; over
        # 3 000 random instances the gradients were within 2.9e-15 of the
        # reference and the Hessians within 1.2e-15, relative to 1 + max|ref|.
        _assert_assembly_equals_kronecker_reference(params_from_vector(x), samples)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 14: nm forms R (sum s u u') and A (sum s u) after summing, and R u cancels "
        "about tenfold on these constant samples; at the first, in exact arithmetic its gradient "
        "is 3.3e-8 off (|g| ~ 2.6e5), the reference 4.9e-9"))
    @pytest.mark.parametrize("x, sample", [
        ([6.1541764581291645, 0.0, 6.369999620908228, -0.75, -1.485147924836518, 0.0,
          0.0, 1.5, 7.5], 4.0),
        ([2.0, -1.5, 0.0, 9.0, -7.84765625, 0.0, 0.0, 3.0, 0.0], 215.0),
        ([0.0, -2.5467, -6.0, 0.0, 0.0, 0.0, 0.0, -8.0, 2.5], -0.5),
    ], ids=["first_found", "hypothesis_seed_159", "offset_y_minus_8"])
    def test_assembly_equals_kronecker_reference_where_r_u_cancels(self, x, sample):
        # Examples of the property above, found by hypothesis, with 300 samples at one point:
        # the gradient is 1.42e-13, 1.03e-13 and 1.43e-13 (1 + max|ref|) off the reference,
        # against the 1e-13 bound.
        _assert_assembly_equals_kronecker_reference(params_from_vector(np.array(x)),
                                                    np.full((300, 3), sample))

    def test_gradient_vanishes_at_converged_minimum(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=2)
        report = solve_nm(ds, fit_initial(ds)[0])
        grad, _ = nm_derivatives(report.final_params, ds.samples)
        assert np.linalg.norm(grad) <= 1e-8 * (1.0 + report.final_objective)


class TestSolve:
    def test_each_step_differentiates_its_recorded_iterate(self, default_scene, monkeypatch):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=7)
        residuals = []
        real = nm.nm_gradient_hessian

        def hooked(shape, offset, *rest):
            v = (ds.samples - offset[:, None, :]) @ shape.swapaxes(1, 2)
            residuals.append(np.einsum("bij,bij->bi", v, v) - 1.0)
            return real(shape, offset, *rest)

        monkeypatch.setattr(nm, "nm_gradient_hessian", hooked)
        opts = SolveOptions(max_iterations=3, objective_tolerance=1e-300, step_tolerance=1e-300)
        report = solve_nm(ds, fit_initial(ds)[0], opts)
        assert len(residuals) == report.iterations == 3
        assert [s[0] @ s[0] for s in residuals] == list(report.objective_history[:3])
        reference = nm_objective(report.final_params, ds.samples)
        assert report.final_objective == pytest.approx(reference, rel=1e-12)

    def test_converges_fast_from_ellipsoid_init(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=3)
        report = solve_nm(ds, fit_initial(ds)[0])
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
        report = solve_nm(ds, fit_initial(ds)[0])
        np.testing.assert_array_equal(np.tril(report.final_params.shape, -1), 0.0)

    def test_consistency_as_noise_vanishes(self, default_scene):
        ds = simulate(default_truth(sigma=1e-6), default_scene["trajectory"], seed=5)
        report = solve_nm(ds, fit_initial(ds)[0])
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
            init = fit_initial(ds)[0]
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
        init = fit_initial(ds)[0]
        samples = ds.samples.copy()
        samples[42, 0] = -np.inf
        with pytest.raises(ValueError, match="row 42"):
            solve_nm(samples, init)

    def test_step_temporaries_do_not_grow_with_n(self, default_scene, traced_peak):
        # An iteration holds the residual pass's few N-vectors, and the scatter
        # matrix is formed over blocks of rows (8.0 here; 28.0 when every
        # iteration formed the N x 9 rows u_k (x) R u_k and their products).
        n = 30_000
        ds = simulate(default_scene["truth"], sweep_trajectory(n), seed=7)
        init = fit_initial(ds)[0]
        solve_nm(ds.samples[:300], init)  # numpy's first-call set-up is not the solve's
        assert traced_peak(lambda: solve_nm(ds, init)) < 16 * 8 * n

    @pytest.mark.parametrize("scale, shift", [(1e-3, 0.0), (1e5, 0.0), (1.0, 1e4)])
    @pytest.mark.parametrize("tilt, seed", [(20.0, 7), (5.0, 1005), (0.0, 2), (0.0, 11)])
    def test_estimate_follows_units_and_offsets_of_the_data(self, tilt, seed, scale, shift):
        # y -> c y + o maps (R, h) to (R / c, c h + o) and leaves every residual as it is.
        ds = simulate(default_truth(), sweep_trajectory(300, tilt), seed)
        init = fit_initial(ds)[0]
        ref = solve_nm(ds, init)
        moved = solve_nm(scale * ds.samples + shift,
                         CalibrationParams(init.shape / scale, scale * init.offset + shift))
        assert (moved.converged, moved.iterations) == (ref.converged, ref.iterations)
        est = moved.final_params
        np.testing.assert_allclose(scale * est.shape, ref.final_params.shape, rtol=0, atol=1e-8)
        np.testing.assert_allclose((est.offset - shift) / scale, ref.final_params.offset,
                                   rtol=0, atol=1e-8)

    def test_max_iterations_respected(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=7)
        opts = SolveOptions(max_iterations=1, objective_tolerance=1e-30, step_tolerance=1e-30)
        report = solve_nm(ds, fit_initial(ds)[0], opts)
        assert report.iterations == 1
        assert not report.converged
