"""Study outputs and solver outcomes pinned by ``golden.json`` (see ``make_golden.py``)."""

import copy
import json

import numpy as np
import pytest

import make_golden
from magcal.simulate import DEFAULT_SIGMA

GOLDEN = json.loads(make_golden.GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def grid():
    return make_golden.grid()


def test_monte_carlo_aggregates_match_golden(monte_carlo_50):
    got = make_golden.monte_carlo_entry(monte_carlo_50[0])
    for method, want in GOLDEN["monte_carlo"].items():
        assert got[method]["failures"] == want["failures"]
        for metric, stats in want["aggregate"].items():
            for stat, value in stats.items():
                assert got[method]["aggregate"][metric][stat] == pytest.approx(value, rel=1e-10)


def test_sensitivity_counts_match_golden(sensitivity_50):
    assert make_golden.sensitivity_entry(sensitivity_50[0]) == GOLDEN["sensitivity"]


def test_grid_outcomes_match_golden(grid):
    got = make_golden.grid_entry(grid)
    assert GOLDEN["grid_seeds"] == [make_golden.GRID_SEEDS[0], make_golden.GRID_SEEDS[-1]]
    assert got.keys() == GOLDEN["grid"].keys()
    for tilt, methods in GOLDEN["grid"].items():
        for method, want in methods.items():
            assert got[tilt][method]["outcomes"] == want["outcomes"], (tilt, method)


def test_tilt_20_estimates_match_golden(grid):
    got = make_golden.grid_entry(grid)["tilt 20"]
    for method, want in GOLDEN["grid"]["tilt 20"].items():
        for seed, est, ref in zip(make_golden.GRID_SEEDS, got[method]["estimates"],
                                  want["estimates"]):
            est, ref = np.asarray(est), np.asarray(ref)
            # Shape and offset each within 1e-10 of their largest entry.
            for part in (slice(0, 6), slice(6, 9)):
                assert np.max(np.abs(est[part] - ref[part])) <= 1e-10 * np.max(np.abs(ref[part])), \
                    (method, seed)


def test_check_mode_compares_bytes_and_lists_changed_entries(monkeypatch, capsys):
    committed = make_golden.GOLDEN_PATH.read_bytes()
    monkeypatch.setattr(make_golden, "golden", lambda: GOLDEN)
    assert make_golden.main(["--check"]) == 0
    changed = copy.deepcopy(GOLDEN)
    changed["sensitivity"]["ml"][6] += 1
    changed["grid"]["tilt 5"]["ml"]["outcomes"][7] = "converged in 9"
    estimates = changed["grid"]["tilt 20"]["nm"]["estimates"]
    estimates[3][6] += 2.0 ** -40
    estimates[4][0] += 2.0 ** -45
    monkeypatch.setattr(make_golden, "golden", lambda: changed)
    assert make_golden.main(["--check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    old_estimates = GOLDEN["grid"]["tilt 20"]["nm"]["estimates"]
    assert lines[-6:] == [
        f"/grid/tilt 20/nm/estimates[3][6]: {old_estimates[3][6]!r} -> {estimates[3][6]!r}",
        f"/grid/tilt 20/nm/estimates[4][0]: {old_estimates[4][0]!r} -> {estimates[4][0]!r}",
        f"/grid/tilt 5/ml/outcomes[7]: {GOLDEN['grid']['tilt 5']['ml']['outcomes'][7]!r} "
        "-> 'converged in 9'",
        f"/sensitivity/ml[6]: {GOLDEN['sensitivity']['ml'][6]} -> {changed['sensitivity']['ml'][6]}",
        "2 outcome or count entries and 2 numeric entries changed; "
        f"largest |change| {abs(estimates[3][6] - old_estimates[3][6]):.3g} "
        "at /grid/tilt 20/nm/estimates[3][6]",
        "golden.json differs: 4 changed entries",
    ]
    assert make_golden.GOLDEN_PATH.read_bytes() == committed


def _unconverged(cells: dict) -> dict:
    return {m: sum(not o.startswith("converged") for o in cells[m]["outcomes"])
            for m in make_golden.METHODS}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: under weak attitude excitation ml's full Newton steps on the KKT system "
    "stall at the iteration cap more often than nm (tilt 5: 9 against 0; tilt 3: 31 against 14)"))
def test_ml_unconverged_no_more_often_than_nm_at_low_tilt(grid):
    # The paper's claim: ml is the more stable estimator without sufficient attitude excitation.
    for tilt in (5.0, 3.0):
        unconverged = _unconverged(grid[(tilt, DEFAULT_SIGMA)])
        assert unconverged["ml"] <= unconverged["nm"], (tilt, unconverged)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: at sigma 0.1 ml's full Newton steps on the KKT system leave the basin "
    "(tilt 20: ml ends unconverged in 47 of 50 runs, nm in 2)"))
def test_ml_unconverged_no_more_often_than_nm_at_high_noise(grid):
    # The paper's claim: ml is superior to nm in both accuracy and stability.
    unconverged = _unconverged(grid[(20.0, 0.1)])
    assert unconverged["ml"] <= unconverged["nm"], unconverged
