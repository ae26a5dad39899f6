import json
import os
import pathlib
import platform
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import examples
from fd import fd_gradient, fd_jacobian
from kkt_oracle import ml_kkt_system, ml_objective, step_dense
from magcal import ml
from magcal._newton import only
from magcal.errors import DivergenceError, SolverFailure
from magcal.initfit import fit_initial
from magcal.linalg import UPPER_VEC_INDICES, unpack_upper
from magcal.linalg import invert_upper
from magcal.metrics import apply_calibration, error_metrics
from magcal.ml import MLState, solve_ml
from magcal.nm import solve_nm
from magcal.simulate import default_truth, simulate, sweep_trajectory
from magcal.types import CalibrationParams, SolveOptions
from packing import initial_ml_state, stacked, state_from_vector, state_to_vector


def _fresh_process_env():
    """A subprocess environment with one BLAS thread, no ``MALLOC_*`` variable and this ``src``.

    glibc's malloc thresholds are per-process state, so a fault count is read in a
    fresh process that starts from the allocator's defaults.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    src = str(pathlib.Path(ml.__file__).resolve().parents[1])
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    return env


def _minor_faults_per_solve(setup, warmup, solves):
    """Minor page faults per ``solve()`` after ``warmup`` calls, read in a fresh process.

    ``setup`` is code that defines ``solve``; it may use np, ml, fit_initial,
    default_truth, simulate and sweep_trajectory.
    """
    script = textwrap.dedent("""
        import resource
        import numpy as np
        from magcal import ml
        from magcal.initfit import fit_initial
        from magcal.simulate import default_truth, simulate, sweep_trajectory
    """) + textwrap.dedent(setup) + textwrap.dedent(f"""
        for _ in range({warmup}):
            solve()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range({solves}):
            solve()
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / {solves})
    """)
    done = subprocess.run([sys.executable, "-c", script], env=_fresh_process_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


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


def _assemble(state, samples):
    return ml._assemble(*stacked(state, samples))


def _iterate(samples, state, opts=None):
    """solve_ml's Newton iteration from the ML state ``state``."""
    return only(ml._iterate(stacked(state, samples), opts))


def _kkt(state, samples):
    return ml_kkt_system(*_assemble(state, samples))


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
            fun = lambda v: ml_objective(state_from_vector(v, n), samples)[1]
            grad, _ = _kkt(state, samples)
            grad_fd = fd_gradient(fun, state_to_vector(state))
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
                lambda v: _kkt(state_from_vector(v, n), samples)[0], state_to_vector(state)
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
    @settings(max_examples=examples(150), deadline=None)
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
        head = _assemble(state, rng.normal(0, 1.0, (n, 3)))[3][0]
        np.testing.assert_array_equal(head, _head_kron(dirs))


class TestNewtonStep:
    @pytest.mark.parametrize("n", [5, 10, 30])
    def test_block_elimination_equals_dense(self, n):
        rng = np.random.default_rng(n)
        state = _random_state(rng, n)
        assembly = _assemble(state, rng.normal(0, 1.0, (n, 3)))
        block = ml._step_block(*assembly)[0]
        dense = step_dense(*assembly)[0]
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(block - dense)) <= 1e-9 * scale

    @settings(max_examples=examples(200), deadline=None)
    @given(
        n=st.integers(3, 12),
        seed=st.integers(0, 2**32 - 1),
        shifts=st.lists(st.sampled_from([0.0, 1e-15, -1e-12, 1e-9, -1e-6, 1e-3]), max_size=3),
    )
    def test_block_step_equals_dense_step(self, n, seed, shifts):
        # States whose bordered blocks are themselves ill-conditioned are
        # skipped: there Schur elimination loses digits that the dense solve keeps.
        assembly, block_cond = _shifted_assembly(n, seed, shifts)
        assume(block_cond < 1e6)
        _assert_block_step_equals_dense(assembly)

    def test_block_step_equals_dense_step_at_a_nearly_singular_a_k(self):
        # Row 0's A_k has |a|min/|a|max = 2e-3, where a closed form that divides by each
        # a_j cancels: such a form's step was 3.3e-8 off the dense one. This one reads
        # 4.6e-10, half the bound, from the state's conditioning (KKT condition number
        # 1.6e7), not the form: a 60-digit solve puts it 5.3e-10 and step_dense 6.9e-11
        # from the exact step, and 1.8e-10 with an exactly rounded eigendecomposition.
        # Reordering the Schur sum read 4.6e-10 to 5.8e-10; another BLAS may cross 1e-9.
        assembly, block_cond = _shifted_assembly(3, 1348488, [0.001, 0.0])
        assert block_cond < 1e6
        _assert_block_step_equals_dense(assembly)

    @pytest.mark.parametrize("ratio", [1e-1, 1e-2, 2e-3, 1e-4, 1e-8, 0.0, -0.5],
                             ids=["1e-1", "1e-2", "2e-3", "1e-4", "1e-8", "0", "mixed_signs"])
    def test_block_step_equals_dense_step_over_a_k_conditioning(self, ratio):
        # Row 0's lambda_k puts its a = 2 ev + 2 lambda_k at |a|min/|a|max = ratio, from
        # a well-conditioned A_k to a singular one; at -0.5 lambda_k lies between two ev_j,
        # so a has both signs and the terms of q do too.
        rng = np.random.default_rng(17)
        state = _random_state(rng, 10)
        ev = np.linalg.eigvalsh(state.t_matrix.T @ state.t_matrix)
        lam = state.lagrange.copy()
        spread = ev[2] - ev[0]
        lam[0] = -ev[0] + ratio * spread / (1.0 - ratio) if ratio >= 0 else -ev[0] - spread / 3.0
        a = 2.0 * (ev + lam[0])
        if ratio >= 0:
            assert np.abs(a).min() / np.abs(a).max() == pytest.approx(ratio)
        else:
            assert a.min() < 0.0 < a.max()
        state = MLState(state.t_matrix, state.offset, state.field_dirs, lam)
        _assert_block_step_equals_dense(_assemble(state, rng.normal(0, 1.0, (10, 3))))

    def test_block_step_equals_dense_step_at_a_singular_a_k(self):
        # lambda_0 = -ev_j exactly zeroes one eigenvalue of A_0; its block is still regular.
        assembly, block_cond = _shifted_assembly(10, 3, [0.0])
        assert block_cond < 1e6
        _assert_block_step_equals_dense(assembly)

    @pytest.mark.parametrize("n", [7, 8, 15, 300])
    def test_step_over_row_blocks_equals_one_block_step(self, n, monkeypatch):
        # With 7 rows a block, n = 7 is one block, 8 one past it, 15 one past two
        # blocks, and 300 is 43 blocks; by default each n here is one block.
        rng = np.random.default_rng(n)
        state = _random_state(rng, n)
        assembly = _assemble(state, rng.normal(0, 1.0, (n, 3)))
        whole = ml._step_block(*assembly)[0]
        monkeypatch.setattr(ml, "_CHUNK", 7)
        blocked = ml._step_block(*assembly)[0]
        assert np.max(np.abs(blocked - whole)) <= 1e-12 * np.max(np.abs(whole))
        _assert_block_step_equals_dense(assembly)

    @pytest.mark.parametrize("n, rows", [(12, [9]), (12, [6, 7]), (15, [6, 7, 8])])
    def test_singular_a_k_rows_in_later_row_blocks(self, n, rows, monkeypatch):
        # In blocks of 7 rows, row 9 is in the second block, and rows 6 and 7 (or
        # 6, 7 and 8) sit either side of the first edge. Back-substitution walks the
        # blocks last-first and computes every block's inverses but the last one's again.
        assembly, block_cond = _shifted_assembly(n, 3, [0.0] * len(rows), first=rows[0])
        assert block_cond < 1e6
        whole = ml._step_block(*assembly)[0]
        monkeypatch.setattr(ml, "_CHUNK", 7)
        blocked = ml._step_block(*assembly)[0]
        assert np.max(np.abs(blocked - whole)) <= 1e-12 * np.max(np.abs(whole))
        _assert_block_step_equals_dense(assembly)

    def test_stacked_step_equals_lone_steps(self):
        # Items 0 and 2 have rows with a singular A_k and item 1 has none; each
        # item's step is bit for bit its step alone.
        lone = [_shifted_assembly(12, 3, [0.0, 0.0], first=2)[0],
                _shifted_assembly(12, 4, [])[0],
                _shifted_assembly(12, 5, [0.0], first=9)[0]]
        stacked = tuple(np.concatenate(parts) for parts in zip(*lone))
        steps, singular = ml._step_block(*stacked)
        assert not singular.any()
        for i, assembly in enumerate(lone):
            np.testing.assert_array_equal(steps[i], ml._step_block(*assembly)[0][0])

    def test_singular_block_is_flagged(self):
        # m_4 = 0 zeroes the last row and column of row 4's block, so mu = 0 and q = 0
        # exactly, whatever the rounding of T'T's eigendecomposition. Its inverse is
        # then inf or NaN; the warnings that raises are silenced here as in the driver.
        rng = np.random.default_rng(5)
        state = _random_state(rng, 8)
        dirs = state.field_dirs.copy()
        dirs[4] = 0.0
        assembly = _assemble(MLState(state.t_matrix, state.offset, dirs, state.lagrange),
                             rng.normal(0, 1.0, (8, 3)))
        with np.errstate(divide="ignore", invalid="ignore"):
            step, singular = ml._step_block(*assembly)
        assert singular.tolist() == [True]
        assert np.isnan(step).all()


def _shifted_assembly(n, seed, shifts, first=0):
    """A random state whose rows from ``first`` on have lambda_k at -ev_j (1 + shift),
    and its assembly.

    Such rows make A_k (near) singular, which the adjugate form of _block_inverses
    takes as it takes every other row. Also returns the largest condition number
    of the bordered 4x4 blocks.
    """
    rng = np.random.default_rng(seed)
    state = _random_state(rng, n)
    ev = np.linalg.eigvalsh(state.t_matrix.T @ state.t_matrix)
    lam = state.lagrange.copy()
    for k, shift in enumerate(shifts, start=first):
        lam[k] = -ev[rng.integers(3)] * (1.0 + shift)
    state = MLState(state.t_matrix, state.offset, state.field_dirs, lam)
    blocks = np.zeros((n, 4, 4))
    t = state.t_matrix
    blocks[:, :3, :3] = 2.0 * t.T @ t + 2.0 * lam[:, None, None] * np.eye(3)
    blocks[:, :3, 3] = blocks[:, 3, :3] = 2.0 * state.field_dirs
    return _assemble(state, rng.normal(0, 1.0, (n, 3))), np.linalg.cond(blocks).max()


def _assert_block_step_equals_dense(assembly):
    dense = step_dense(*assembly)[0]
    assert np.max(np.abs(ml._step_block(*assembly)[0] - dense)) <= 1e-9 * np.max(np.abs(dense))


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
            state_to_vector(block.final_state), state_to_vector(dense.final_state), atol=1e-8
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
        direct = _iterate(ds.samples, initial_ml_state(init, ds.samples))
        report = solve_ml(ds, init)
        assert report.objective_history == direct.objective_history
        np.testing.assert_array_equal(state_to_vector(report.final_state),
                                      state_to_vector(direct.final_state))

    def test_final_states_of_a_stack_own_their_arrays(self, default_scene):
        # A study keeps its reports; views into the finished stack would keep the stack alive.
        samples = np.stack([simulate(default_scene["truth"], default_scene["trajectory"], seed=s)
                            .samples for s in (12, 13, 14, 15)])
        inits = [fit_initial(s)[0] for s in samples[:3]] + [CalibrationParams(np.diag([1, 0, 1]),
                                                                              np.zeros(3))]
        results = ml.solve_ml_batch(samples, inits)
        assert [r.converged for r in results[:3]] == [True] * 3
        assert isinstance(results[3], DivergenceError)
        for r in results[:3] + [results[3].report]:
            state = r.final_state
            for a in (state.t_matrix, state.offset, state.field_dirs, state.lagrange):
                assert a.base is None

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
        report = _iterate(dirs @ state.t_matrix.T + state.offset, state)
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
            _iterate(rng.normal(0, 1, (n, 3)), state)

    def test_singular_schur_complement_raises(self):
        # Every field direction is e1: each (m_k, lambda_k) block is regular,
        # but the data cannot fix T's other columns, so the 9x9 Schur
        # complement is singular.
        n = 12
        dirs = np.tile([1.0, 0.0, 0.0], (n, 1))
        state = MLState(t_matrix=np.eye(3), offset=np.zeros(3), field_dirs=dirs,
                        lagrange=np.full(n, 0.5))
        with pytest.raises(SolverFailure, match="singular Newton system") as exc_info:
            _iterate(dirs.copy(), state)
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
            _iterate(rng.normal(0, 1, (n, 3)), state)
        report = exc_info.value.report
        assert report.iterations == 0
        assert np.all(np.isnan(np.diag(report.final_params.shape)))
        np.testing.assert_array_equal(report.final_state.t_matrix, t)

    @pytest.mark.parametrize("at, value", [((1, 1), 0.0), ((0, 2), np.inf)], ids=["zero", "inf"])
    def test_start_without_finite_inverse_raises_divergence(self, default_scene, at, value):
        # A zero diagonal or non-finite R has no usable T = R^-1: a diverged start, as in nm,
        # not a LinAlgError or ValueError.
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=12)
        init = fit_initial(ds)[0]
        shape = init.shape.copy()
        shape[at] = value
        with pytest.raises(DivergenceError) as exc_info:
            solve_ml(ds, CalibrationParams(shape, init.offset))
        report = exc_info.value.report
        assert report.iterations == 0
        assert np.isnan(report.final_params.shape[np.triu_indices(3)]).all()

    def test_non_finite_step_raises_divergence(self, default_scene, monkeypatch):
        ds = simulate(default_scene["truth"], default_scene["trajectory"], seed=12)
        monkeypatch.setattr(ml, "_step_block", lambda *a: (
            np.full((1, 4 * ds.n_samples + 9), np.inf), np.zeros(1, dtype=bool)))
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
                _iterate(rng.normal(0, 1.0, (n, 3)), state, SolveOptions(max_iterations=5))
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
            _iterate(rng.normal(0, 1, (n, 3)), state)
        report = exc_info.value.report
        assert np.all(np.isnan(np.diag(report.final_params.shape)))
        assert report.warnings

    def test_step_temporaries_do_not_grow_with_n(self, default_scene, traced_peak):
        # The iterates, assembly, step and one row block's temporaries peak at about 20
        # N-vectors of 8N bytes: the solve holds neither its start nor the last step while
        # it forms the next, and back-substitution keeps only the last row block's
        # inverses (35 when it kept every block's). Eliminating all N rows at once peaked at 70.
        n = 30_000
        ds = simulate(default_scene["truth"], sweep_trajectory(n), seed=7)
        init = fit_initial(ds)[0]
        solve_ml(ds.samples[:300], init)  # numpy's first-call set-up is not the solve's
        assert traced_peak(lambda: solve_ml(ds, init)) < 26 * 8 * n

    def test_stack_of_a_study_job_stays_within_60_floats_a_row(self, default_scene, traced_peak):
        # A study job solves up to 27 default runs as one ml stack (8 100 rows). Its
        # iterates, assembly, step temporaries and the reports' final states peak at
        # about 55 floats a row, while a row block's inverses are expanded from P's six
        # entries to nine to be applied.
        data = [simulate(default_scene["truth"], default_scene["trajectory"], seed=s)
                for s in range(27)]
        samples = np.stack([d.samples for d in data])
        inits = [fit_initial(d)[0] for d in data]
        ml.solve_ml_batch(samples[:1], inits[:1])  # numpy's first-call set-up is not the solve's
        rows = samples.shape[0] * samples.shape[1]
        assert traced_peak(lambda: ml.solve_ml_batch(samples, inits)) < 60 * 8 * rows

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
    def test_repeated_study_job_solves_do_not_fault_their_memory_back_in(self):
        # Each solve frees its working set in many arrays, none large enough to raise
        # glibc's trim threshold far, so glibc trimmed the heap back to the kernel and the
        # next solve faulted it in again: over 11 000 minor faults in 10 solves. _iterate
        # frees an untouched 4 MiB block first, which raises glibc's mmap and trim
        # thresholds (mallopt(3)), and later solves reuse the heap: 15-52 in 10 solves.
        setup = """
            data = [simulate(default_truth(), sweep_trajectory(300), seed=s) for s in range(27)]
            samples = np.stack([d.samples for d in data])
            inits = [fit_initial(d)[0] for d in data]
            solve = lambda: ml.solve_ml_batch(samples, inits)
        """
        assert _minor_faults_per_solve(setup, warmup=3, solves=10) < 30  # 300 in the 10

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
    def test_repeated_30k_row_solves_do_not_fault_their_memory_back_in(self):
        # With a 0.96 MB workspace block allocated and freed in each solve, glibc trimmed
        # the heap and faulted it back in on every solve: 1 023 faults a solve. After the
        # 4 MiB block _iterate frees, the trim threshold is 8 MiB and the heap keeps its
        # pages: at most 36 faults a solve over 100 heap layouts. A 2 MiB block's 4 MiB
        # threshold sat just above the 4 MB this solve frees at the heap's top, and 5 of
        # the 100 layouts faulted 180-400 a solve.
        setup = """
            ds = simulate(default_truth(), sweep_trajectory(30_000), seed=7)
            init = fit_initial(ds)[0]
            solve = lambda: ml.solve_ml(ds, init)
        """
        assert _minor_faults_per_solve(setup, warmup=1, solves=5) < 100

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
    @pytest.mark.parametrize("runs, n", [(23, 300), (21, 300), (1, 2_049), (1, 4_097),
                                         (1, 10_000)])
    def test_repeated_solves_of_other_shapes_do_not_fault_their_memory_back_in(self, runs, n):
        # The other stacks of the benchmark ops (montecarlo-300's second job of 23 runs,
        # sensitivity-300's 21), and lone solves of two, three and five row blocks.
        # Without the 4 MiB block each faulted 410-1 150 pages a solve; with it 0-2.7,
        # from checkout directories whose names were 1 to 17 characters long.
        setup = f"""
            data = [simulate(default_truth(), sweep_trajectory({n}), seed=s)
                    for s in range({runs})]
            samples = np.stack([d.samples for d in data])
            inits = [fit_initial(d)[0] for d in data]
            solve = lambda: ml.solve_ml_batch(samples, inits)
        """
        assert _minor_faults_per_solve(setup, warmup=3, solves=10) < 30

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
    def test_sensitivity_op_does_not_fault_its_memory_back_in(self, tmp_path):
        # The benchmark's sensitivity-300 op, as tests/fault_probe.py runs it. Its stack is
        # 21 runs from perturbed starts, where the solve above is 27 from the fit. The
        # median op read 3-20 minor faults over 72 heap layouts (README), and about 600
        # with the workspace allocated after the first iterate; 1 318 without it. The
        # mean is no test: a few ops in ten can fault 50-200 pages in as the heap grows
        # or is trimmed, and it read 30 or more in 12 of those layouts, at the parent too.
        probe = pathlib.Path(__file__).with_name("fault_probe.py")
        done = subprocess.run(
            [sys.executable, str(probe), "--child", "sensitivity-300", "--workdir",
             str(tmp_path), "--warmup", "3", "--ops", "10"],
            env=_fresh_process_env(), capture_output=True, text=True, timeout=120, check=True)
        assert json.loads(done.stdout)["minflt_median"] < 30

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
