"""The Newton driver's 9x9 symmetric solve, and the warnings its solves let out."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import test_ml
import test_nm
from magcal._newton import solve_newton_system
from magcal.cli import main


def _scipy_step(hess, rhs):
    """Reference: scipy's symmetric solve, or None where it calls the system singular."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        try:
            return scipy.linalg.solve(hess, rhs, assume_a="sym", check_finite=False)
        except np.linalg.LinAlgError:
            return None


def _step(hess, rhs):
    try:
        return solve_newton_system(hess, rhs)
    except np.linalg.LinAlgError:
        return None


@st.composite
def symmetric_systems(draw):
    kind = draw(st.sampled_from(["indefinite", "near_singular", "rank_deficient"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "indefinite":
        m = rng.normal(size=(9, 9))
        hess = m + m.T
    elif kind == "near_singular":
        q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
        ev = rng.choice([-1.0, 1.0], 9) * 10.0 ** rng.uniform(-16, 3, 9)
        hess = (q * ev) @ q.T
    else:
        # Exactly rank r < 9: integer factors, so the matrix itself is exact.
        r = draw(st.integers(0, 8))
        m = rng.integers(-3, 4, (9, r)).astype(float)
        hess = (m * rng.choice([-1.0, 1.0], r)) @ m.T
    hess = np.triu(hess) + np.triu(hess, 1).T
    return hess, rng.normal(size=9)


@settings(max_examples=300, deadline=None)
@given(symmetric_systems())
def test_step_is_bit_equal_to_scipy_solve(system):
    expected, got = _scipy_step(*system), _step(*system)
    assert (got is None) == (expected is None)
    if expected is not None:
        assert got.tobytes() == expected.tobytes()


def test_exactly_singular_system_raises():
    with pytest.raises(np.linalg.LinAlgError):
        solve_newton_system(np.ones((9, 9)), np.ones(9))
    assert _scipy_step(np.ones((9, 9)), np.ones(9)) is None


@pytest.mark.parametrize("where", ["hess_nan", "hess_inf", "rhs_inf"])
def test_non_finite_system_gives_nan_step(where):
    hess, rhs = 2.0 * np.eye(9), np.ones(9)
    if where == "rhs_inf":
        rhs[4] = np.inf
    else:
        hess[2, 7] = hess[7, 2] = np.nan if where == "hess_nan" else np.inf
    step = solve_newton_system(hess, rhs)
    assert step.shape == (9,)
    assert np.all(np.isnan(step))


def test_failing_solves_and_planar_calibrate_emit_no_warnings(tmp_path):
    # The singular and overflowing Newton systems of the nm and ml tests, and a
    # tilt-0 calibrate, with every warning raised as an error.
    data, report = tmp_path / "planar.csv", tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nm_tests, ml_tests = test_nm.TestSolve(), test_ml.TestSolve()
        nm_tests.test_singular_hessian_raises_with_report()
        nm_tests.test_overflowing_newton_system_raises_divergence()
        ml_tests.test_singular_tail_block_raises()
        ml_tests.test_singular_schur_complement_raises()
        ml_tests.test_zero_t_diagonal_in_failure_report_gives_nan_shape()
        ml_tests.test_overflowing_newton_system_raises_divergence()
        assert main(["simulate", "--seed", "2", "--tilt", "0", "--out", str(data)]) == 0
        main(["calibrate", "--input", str(data), "--method", "both", "--out", str(report)])
    assert report.exists()
