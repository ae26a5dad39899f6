"""The calibration contract, stated once over a family of inputs (ROADMAP item 9).

``magcal calibrate`` either exits nonzero with a message that names the cause,
or exits 0 with a preferred estimate whose scale error against the truth is at
most 1 %. Each case where this code breaches the contract is a strict xfail
that names the ROADMAP item meant to mend it, so its fix shows as an XPASS.

Then, as ``hypothesis`` properties over random sensors on the default field and
tilt-20 sweep, both solvers recover a noise-free truth, ignore the samples' order
and follow a translation of the data with their offset alone.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from magcal import fileio
from magcal.cli import main
from magcal.initfit import fit_initial
from magcal.linalg import attitude_from_euler
from magcal.metrics import error_metrics
from magcal.ml import solve_ml
from magcal.nm import solve_nm
from magcal.simulate import default_config, default_truth, simulate, sweep_trajectory
from magcal.types import CalibrationParams, SensorTruth

SCALE_BOUND_PCT = 1.0
OUTLIER = r"outlier|row 0\b|line 2\b"  # a cause that names the shifted row
COVERAGE = r"identifiab|standard error|coverage|excitation"


def _shift_row_0(gauss):
    def shift(samples):
        samples[0] += gauss
        return samples
    return shift


def _nan_in_row_5(samples):
    samples[5, 1] = np.nan
    return samples


# id: (seed, tilt, transform of the samples, of the truth (shape, offset), method,
#      the pattern a nonzero exit's message must match (None: no exit but 0 holds), xfail reason)
CASES = {
    "tilt20_seed7": (7, 20.0, None, None, "both", None, None),
    "nan_row_5": (7, 20.0, _nan_in_row_5, None, "both", r"line 7\b", None),
    "offset_plus_1e4_gauss": (7, 20.0, lambda s: s + 1e4, lambda r, h: (r, h + 1e4), "both",
                              None, None),
    "times_1e5_nanotesla": (7, 20.0, lambda s: s * 1e5, lambda r, h: (r / 1e5, h * 1e5), "both",
                            r"rescale|units", "ROADMAP item 4: ml's absolute gradient tolerance "
                            "makes the exit depend on the data's units"),
    **{f"tilt0_seed{seed}": (seed, 0.0, None, None, "both", COVERAGE,
                             "ROADMAP item 5: an unidentifiable estimate exits 0")
       for seed in (2, 11)},
    "row_0_plus_1_gauss_nm": (7, 20.0, _shift_row_0(1.0), None, "nm", OUTLIER,
                              "ROADMAP item 8: one bad row passes as a calibration"),
    "row_0_plus_5_gauss": (7, 20.0, _shift_row_0(5.0), None, "both", OUTLIER,
                           "ROADMAP item 8: one bad row is blamed on attitude coverage"),
}


def _case(name):
    reason = CASES[name][-1]
    marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
    return pytest.param(*CASES[name][:-1], id=name, marks=marks)


def _preferred(document, method):
    if method != "both":
        return document
    preferred = document["comparison"]["preferred"]
    return document["ml" if preferred == "either" else preferred]


@pytest.mark.parametrize("seed, tilt, samples_of, truth_of, method, cause",
                         [_case(name) for name in CASES])
def test_calibrate_names_its_failure_or_stands_behind_its_estimate(
        tmp_path, capsys, seed, tilt, samples_of, truth_of, method, cause):
    data, report = tmp_path / "data.csv", tmp_path / "report.json"
    assert main(["simulate", "--seed", str(seed), "--tilt", str(tilt), "--out", str(data)]) == 0
    if samples_of is not None:
        fileio.write_samples_csv(data, samples_of(fileio.read_samples_csv(data)))
    truth = default_config().truth.calibration()
    if truth_of is not None:
        truth = CalibrationParams(*truth_of(truth.shape, truth.offset))
    capsys.readouterr()

    code = main(["calibrate", "--input", str(data), "--method", method, "--out", str(report)])
    err = capsys.readouterr().err
    if code != 0:
        assert cause is not None and re.search(cause, err), f"exit {code} without the cause: {err}"
        return
    estimate = fileio.params_from_report(_preferred(fileio.read_json(report), method))
    assert error_metrics(estimate, truth).scale_pct <= SCALE_BOUND_PCT


PROPERTY_ATOL = 1e-9  # the worst difference over 100 random sensors, at both sigmas, was 7.6e-13
_TRAJECTORY = sweep_trajectory(300)


@st.composite
def sensors(draw, sigmas=(0.0, 0.003)):
    """S = C1 diag(s) C2 with rotations C1, C2, singular values s in [0.5, 1.5], h in [-3, 3]^3."""
    angles = draw(st.lists(st.floats(-180.0, 180.0), min_size=6, max_size=6))
    singular = draw(st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3))
    soft_iron = attitude_from_euler(*angles[:3]) * singular @ attitude_from_euler(*angles[3:])
    hard_iron = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    return SensorTruth(soft_iron, hard_iron, draw(st.sampled_from(sigmas)), default_truth().field)


def _solves(samples):
    """The (nm, ml) reports from the fit of ``samples``; both must converge."""
    init, _ = fit_initial(samples)
    reports = solve_nm(samples, init), solve_ml(samples, init)
    assert all(r.converged for r in reports)
    return reports


def _assert_same_solve(report, expected, offset_shift=0.0):
    assert (report.converged, report.iterations) == (expected.converged, expected.iterations)
    np.testing.assert_allclose(report.final_params.shape, expected.final_params.shape,
                               rtol=0, atol=PROPERTY_ATOL)
    np.testing.assert_allclose(report.final_params.offset, expected.final_params.offset
                               + offset_shift, rtol=0, atol=PROPERTY_ATOL)


@settings(max_examples=examples(40), deadline=None)
@given(truth=sensors(sigmas=(0.0,)), seed=st.integers(0, 2**32 - 1))
def test_both_solvers_recover_a_noise_free_truth(truth, seed):
    expected = truth.calibration()
    for report in _solves(simulate(truth, _TRAJECTORY, seed).samples):
        np.testing.assert_allclose(report.final_params.shape, expected.shape,
                                   rtol=0, atol=PROPERTY_ATOL)
        np.testing.assert_allclose(report.final_params.offset, expected.offset,
                                   rtol=0, atol=PROPERTY_ATOL)


@settings(max_examples=examples(40), deadline=None)
@given(truth=sensors(), seed=st.integers(0, 2**32 - 1), order=st.integers(0, 2**32 - 1))
def test_permuting_the_samples_changes_nothing(truth, seed, order):
    samples = simulate(truth, _TRAJECTORY, seed).samples
    permuted = samples[np.random.default_rng(order).permutation(len(samples))]
    for report, expected in zip(_solves(permuted), _solves(samples)):
        _assert_same_solve(report, expected)


@settings(max_examples=examples(40), deadline=None)
@given(truth=sensors(), seed=st.integers(0, 2**32 - 1),
       shift=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3))
def test_translating_the_data_moves_only_the_offset(truth, seed, shift):
    samples = simulate(truth, _TRAJECTORY, seed).samples
    for report, expected in zip(_solves(samples + shift), _solves(samples)):
        _assert_same_solve(report, expected, offset_shift=np.array(shift))
