import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fd import fd_gradient, fd_jacobian
from kkt_oracle import ml_kkt_system, ml_objective, step_dense
from magcal import ml
from magcal.errors import DivergenceError, SolverFailure
from magcal.initfit import fit_initial
from magcal.linalg import UPPER_VEC_INDICES, unpack_upper
from magcal.linalg import invert_upper
from magcal.metrics import apply_calibration, error_metrics
from magcal.ml import initial_ml_state, solve_ml
from magcal.nm import solve_nm
from magcal.simulate import default_truth, simulate, sweep_trajectory
from magcal.types import CalibrationParams, MLState, SolveOptions


def _random_state(rng, n):
    return MLState(
        t_matrix=unpack_upper(
            np.concatenate([rng.uniform(0.7, 1.3, 1), rng.normal(0, 0.2, 2),
                            rng.uniform(0.7, 1.3, 1), rng.normal(0, 0.2, 1),
                            rng.uniform(0.7, 1.3, 1)])
        ),
        offset=rng.normal(0, 1.5, 3),
        field_dirs=rng.normal(0, 1.0, (n, 3)),
        lagrange=rng.normal(0, 0.5, n),
    )


def _kkt(state, samples):
    return ml_kkt_system(*ml._assemble(state, samples))


def _head_kron(dirs):
    """The Kronecker-product assembly of ml's 9x9 head Hessian, kept as its reference."""
    n = dirs.shape[0]
    head = np.zeros((9, 9))
    h_tt = 2.0 * np.kron(dirs.T @ dirs, np.eye(3))
    head[:6, :6] = h_tt[np.ix_(UPPER_VEC_INDICES, UPPER_VEC_INDICES)]
    h_th = 2.0 * np.kron(dirs.sum(axis=0)[:, None], np.eye(3))
    head[:6, 6:] = h_th[UPPER_VEC_INDICES, :]
    head[6:, :6] = head[:6, 6:].T
    head[6:, 6:] = 2.0 * n * np.eye(3)
    return head


class TestObjective:
    def test_initial_state_has_machine_zero_misfit(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=0)
        state = initial_ml_state(fit_initial(ds)[0], ds.samples)
        misfit, _ = ml_objective(state, ds)
        assert misfit < 1e-16

    def test_consistent_unit_state(self):
        rng = np.random.default_rng(1)
        dirs = rng.normal(0, 1, (25, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        state = MLState(
            t_matrix=np.eye(3), offset=np.zeros(3), field_dirs=dirs, lagrange=np.zeros(25)
        )
        misfit, lagrangian = ml_objective(state, dirs)
        assert misfit == pytest.approx(0.0, abs=1e-30)
        assert lagrangian == pytest.approx(0.0, abs=1e-30)

    def test_converged_misfit_below_threshold(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=1)
        assert solve_ml(ds, fit_initial(ds)[0]).final_objective < 0.004


class TestKKTSystem:
    def test_constraint_gradient_vanishes_on_unit_directions(self):
        rng = np.random.default_rng(3)
        state = _random_state(rng, 8)
        dirs = state.field_dirs / np.linalg.norm(state.field_dirs, axis=1, keepdims=True)
        state = MLState(state.t_matrix, state.offset, dirs, state.lagrange)
        grad, _ = _kkt(state, rng.normal(0, 1, (8, 3)))
        np.testing.assert_allclose(grad[9 + 24 :], 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        n = 5
        for _ in range(10):
            state = _random_state(rng, n)
            samples = rng.normal(0, 1.0, (n, 3))
            fun = lambda v: ml_objective(MLState.from_vector(v, n), samples)[1]
            grad, _ = _kkt(state, samples)
            grad_fd = fd_gradient(fun, state.to_vector())
            scale = 1.0 + np.max(np.abs(grad_fd))
            assert np.max(np.abs(grad - grad_fd)) / scale < 1e-6

    def test_hessian_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(7)
        n = 5
        for _ in range(5):
            state = _random_state(rng, n)
            samples = rng.normal(0, 1.0, (n, 3))
            _, hess = _kkt(state, samples)
            hess_fd = fd_jacobian(
                lambda v: _kkt(MLState.from_vector(v, n), samples)[0], state.to_vector()
            )
            assert np.max(np.abs(hess - hess_fd)) / (1.0 + np.max(np.abs(hess_fd))) < 1e-6

    def test_offset_block_is_2n_identity(self):
        rng = np.random.default_rng(5)
        n = 7
        state = _random_state(rng, n)
        _, hess = _kkt(state, rng.normal(0, 1, (n, 3)))
        np.testing.assert_array_equal(hess[6:9, 6:9], 2.0 * n * np.eye(3))

    def test_lambda_block_is_zero(self):
        rng = np.random.default_rng(6)
        n = 4
        state = _random_state(rng, n)
        _, hess = _kkt(state, rng.normal(0, 1, (n, 3)))
        lam = slice(9 + 3 * n, None)
        np.testing.assert_array_equal(hess[lam, lam], 0.0)
        np.testing.assert_array_equal(hess[:9, lam], 0.0)


class TestAssembly:
    @settings(max_examples=150, deadline=None)
    @given(
        dirs=st.one_of(st.integers(1, 50), st.just(300)).flatmap(
            lambda n: arrays(float, (n, 3), elements=st.floats(-1e3, 1e3))
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_head_equals_kronecker_reference(self, dirs, seed):
        rng = np.random.default_rng(seed)
        n = dirs.shape[0]
        state = _random_state(rng, n)
        state = MLState(state.t_matrix, state.offset, dirs, state.lagrange)
        head = ml._assemble(state, rng.normal(0, 1.0, (n, 3)))[3]
        np.testing.assert_array_equal(head, _head_kron(dirs))


class TestNewtonStep:
    @pytest.mark.parametrize("n", [5, 10, 30])
    def test_block_elimination_equals_dense(self, n):
        rng = np.random.default_rng(n)
        state = _random_state(rng, n)
        assembly = ml._assemble(state, rng.normal(0, 1.0, (n, 3)))
        block = ml._step_block(*assembly)
        dense = step_dense(*assembly)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(block - dense)) <= 1e-9 * scale

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 12),
        seed=st.integers(0, 2**32 - 1),
        shifts=st.lists(st.sampled_from([0.0, 1e-15, -1e-12, 1e-9, -1e-6, 1e-3]), max_size=3),
    )
    def test_block_step_equals_dense_step(self, n, seed, shifts):
        # Rows with lambda_k at -ev_j (1 + shift) make A_k (near) singular and
        # take the 4x4 fallback. States whose bordered blocks are themselves
        # ill-conditioned are skipped: there Schur elimination, by LU or in
        # closed form, loses digits that the dense solve keeps.
        rng = np.random.default_rng(seed)
        state = _random_state(rng, n)
        ev = np.linalg.eigvalsh(state.t_matrix.T @ state.t_matrix)
        lam = state.lagrange.copy()
        for k, shift in enumerate(shifts):
            lam[k] = -ev[rng.integers(3)] * (1.0 + shift)
        state = MLState(state.t_matrix, state.offset, state.field_dirs, lam)
        blocks = np.zeros((n, 4, 4))
        t = state.t_matrix
        blocks[:, :3, :3] = 2.0 * t.T @ t + 2.0 * lam[:, None, None] * np.eye(3)
        blocks[:, :3, 3] = blocks[:, 3, :3] = 2.0 * state.field_dirs
        assume(np.linalg.cond(blocks).max() < 1e6)
        assembly = ml._assemble(state, rng.normal(0, 1.0, (n, 3)))
        dense = step_dense(*assembly)
        assert np.max(np.abs(ml._step_block(*assembly) - dense)) <= 1e-9 * np.max(np.abs(dense))


class TestSolve:
    def test_converges_fast_with_feasible_constraints(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=7)
        report = solve_ml(ds, fit_initial(ds)[0])
        assert report.converged
        assert report.iterations <= 5
        assert report.constraint_violation_history[-1] <= 1e-8
        assert report.warnings == ()

    def test_kkt_stationarity_at_convergence(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=8)
        report = solve_ml(ds, fit_initial(ds)[0])
        grad, _ = _kkt(report.final_state, ds.samples)
        assert np.linalg.norm(grad) <= 1e-8 * (1.0 + report.final_objective)

    def test_truth_init_on_noise_free_data_converges_immediately(self, default_scene):
        ds = simulate(default_truth(sigma=0.0), default_scene["trajectory"], seed=0)
        truth = CalibrationParams(default_scene["r_true"], default_scene["h_true"])
        report = solve_ml(ds, truth)
        assert report.converged
        assert report.iterations == 0
        assert report.final_objective < 1e-16

    def test_dense_method_reaches_same_solution(self, default_scene, monkeypatch):
        ds = simulate(default_scene["truth"], sweep_trajectory(40), seed=9)
        init = fit_initial(ds)[0]
        block = solve_ml(ds, init)
        # The same driver, with the dense oracle in place of the block step.
        monkeypatch.setattr(ml, "_step_block", step_dense)
        dense = solve_ml(ds, init)
        np.testing.assert_allclose(
            block.final_state.to_vector(), dense.final_state.to_vector(), atol=1e-8
        )

    def test_gauge_consistency_with_exact_nm_solution(self, default_scene):
        ds = simulate(default_truth(sigma=0.0), default_scene["trajectory"], seed=0)
        init = fit_initial(ds)[0]
        nm_params = solve_nm(ds, init).final_params
        ml_params = solve_ml(ds, init).final_params
        out_nm = apply_calibration(nm_params, ds.samples)
        out_ml = apply_calibration(ml_params, ds.samples)
        np.testing.assert_allclose(out_nm, out_ml, atol=1e-8)

    def test_estimate_matches_truth_under_noise(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=10)
        report = solve_ml(ds, fit_initial(ds)[0])
        truth = CalibrationParams(default_scene["r_true"], default_scene["h_true"])
        m = error_metrics(report.final_params, truth)
        assert m.scale_pct < 0.3
        assert m.ortho_deg < 0.3
        assert m.hard_iron_gauss < 0.002

    def test_starts_from_the_ml_state_of_the_estimate(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=11)
        init = fit_initial(ds)[0]
        direct = ml._iterate(ds.samples, initial_ml_state(init, ds.samples))
        report = solve_ml(ds, init)
        assert report.objective_history == direct.objective_history
        np.testing.assert_array_equal(report.final_state.to_vector(),
                                      direct.final_state.to_vector())

    def test_non_finite_sample_rejected_naming_row(self, monkeypatch):
        samples = np.random.default_rng(3).normal(0, 1, (12, 3))
        samples[4, 1] = np.nan
        monkeypatch.setattr(ml, "_iterate", lambda *a: pytest.fail("iterated"))
        with pytest.raises(ValueError, match="sample row 4 is not finite"):
            solve_ml(samples, CalibrationParams(np.eye(3), np.zeros(3)))

    def test_final_params_invert_the_final_t_matrix(self):
        # The report's shape is R = T^-1; this start is already the exact solution.
        rng = np.random.default_rng(4)
        shape = np.triu(rng.normal(0, 0.3, (3, 3))) + np.diag(rng.uniform(0.8, 1.3, 3))
        dirs = rng.normal(0, 1, (12, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        state = MLState(t_matrix=invert_upper(shape), offset=np.array([0.1, 0.2, 0.3]),
                        field_dirs=dirs, lagrange=np.zeros(12))
        report = ml._iterate(dirs @ state.t_matrix.T + state.offset, state)
        assert report.iterations == 0
        np.testing.assert_allclose(report.final_params.shape, shape, atol=1e-12)
        np.testing.assert_array_equal(report.final_params.offset, state.offset)

    def test_singular_tail_block_raises(self):
        n = 12
        rng = np.random.default_rng(11)
        dirs = rng.normal(0, 1, (n, 3))
        dirs[0] = 0.0  # zero direction with zero multiplier: singular 4x4 block
        state = MLState(
            t_matrix=np.eye(3), offset=np.zeros(3), field_dirs=dirs, lagrange=np.zeros(n)
        )
        with pytest.raises(SolverFailure):
            ml._iterate(rng.normal(0, 1, (n, 3)), state)

    def test_singular_schur_complement_raises(self):
        # Every field direction is e1: each (m_k, lambda_k) block is regular,
        # but the data cannot fix T's other columns, so the 9x9 Schur
        # complement is singular.
        n = 12
        dirs = np.tile([1.0, 0.0, 0.0], (n, 1))
        state = MLState(t_matrix=np.eye(3), offset=np.zeros(3), field_dirs=dirs,
                        lagrange=np.full(n, 0.5))
        with pytest.raises(SolverFailure, match="singular Newton system") as exc_info:
            ml._iterate(dirs.copy(), state)
        assert not isinstance(exc_info.value, DivergenceError)
        assert exc_info.value.report.iterations == 0

    def test_non_finite_initial_t_raises_divergence(self):
        n = 12
        rng = np.random.default_rng(11)
        t = np.eye(3)
        t[1, 1] = np.inf
        state = MLState(t_matrix=t, offset=np.zeros(3), field_dirs=rng.normal(0, 1, (n, 3)),
                        lagrange=np.zeros(n))
        with pytest.raises(DivergenceError) as exc_info:
            ml._iterate(rng.normal(0, 1, (n, 3)), state)
        report = exc_info.value.report
        assert report.iterations == 0
        assert np.all(np.isnan(np.diag(report.final_params.shape)))
        np.testing.assert_array_equal(report.final_state.t_matrix, t)

    def test_non_finite_step_raises_divergence(self, default_scene, monkeypatch):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=12)
        monkeypatch.setattr(ml, "_step_block", lambda *a: np.full(4 * ds.n_samples + 9, np.inf))
        with pytest.raises(DivergenceError) as exc_info:
            solve_ml(ds, fit_initial(ds)[0], SolveOptions(gradient_tolerance=1e-300))
        assert exc_info.value.report.iterations == 1

    def test_overflowing_newton_system_raises_divergence(self):
        # Field directions up to 1e155 overflow the assembly. Each solve ends
        # or raises DivergenceError, never a bare ValueError from LAPACK's
        # finiteness check or a SolverFailure calling the system singular.
        rng = np.random.default_rng(0)
        diverged = 0
        for _ in range(400):
            n = int(rng.integers(3, 10))
            state = _random_state(rng, n)
            dirs = state.field_dirs * 10.0 ** rng.uniform(140, 155)
            state = MLState(state.t_matrix, state.offset, dirs, state.lagrange)
            try:
                ml._iterate(rng.normal(0, 1.0, (n, 3)), state, SolveOptions(max_iterations=5))
            except DivergenceError:
                diverged += 1
        assert diverged > 50

    def test_zero_t_diagonal_in_failure_report_gives_nan_shape(self):
        n = 12
        rng = np.random.default_rng(11)
        dirs = rng.normal(0, 1, (n, 3))
        dirs[0] = 0.0  # singular 4x4 block, as in test_singular_tail_block_raises
        state = MLState(t_matrix=np.diag([1.0, 0.0, 1.0]), offset=np.zeros(3),
                        field_dirs=dirs, lagrange=np.zeros(n))
        with pytest.raises(SolverFailure) as exc_info:
            ml._iterate(rng.normal(0, 1, (n, 3)), state)
        report = exc_info.value.report
        assert np.all(np.isnan(np.diag(report.final_params.shape)))
        assert report.warnings

    def test_one_assembly_per_recorded_iterate(self, default_scene, monkeypatch):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=7)
        calls = []
        assemble = ml._assemble
        monkeypatch.setattr(ml, "_assemble", lambda *a: calls.append(1) or assemble(*a))
        report = solve_ml(ds, fit_initial(ds)[0],
                          SolveOptions(max_iterations=6, gradient_tolerance=1e-300))
        assert len(calls) == len(report.objective_history) == 7

    @pytest.mark.parametrize("seed, tilt, max_k", [(7, 20.0, 8), (1005, 5.0, 50)])
    def test_truncated_runs_are_prefixes_scored_at_their_final_state(self, seed, tilt, max_k):
        # Seed 1005 at tilt 5 is a run that does not converge.
        ds = simulate(default_truth(), sweep_trajectory(300, tilt), seed=seed)
        init = fit_initial(ds)[0]
        capped = lambda k: SolveOptions(max_iterations=k, gradient_tolerance=1e-300)
        full = solve_ml(ds, init, capped(max_k))
        for k in range(1, max_k + 1):
            report = solve_ml(ds, init, capped(k))
            history = report.objective_history
            violations = report.constraint_violation_history
            assert history == full.objective_history[: k + 1]
            assert violations == full.constraint_violation_history[: k + 1]
            dirs = report.final_state.field_dirs
            assert history[-1] == ml_objective(report.final_state, ds)[0]
            assert violations[-1] == np.max(np.abs(np.einsum("ij,ij->i", dirs, dirs) - 1.0))

    def test_max_iterations_respected(self, default_scene):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=12)
        opts = SolveOptions(max_iterations=1, gradient_tolerance=1e-300)
        report = solve_ml(ds, fit_initial(ds)[0], opts)
        assert report.iterations == 1
        assert not report.converged
