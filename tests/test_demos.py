"""Smoke tests: the demo scripts run to completion.

Demo 04 (the 50-run sensitivity sweep, about 11 s) is left out; it reads
only SensitivityResult, which the experiments tests cover.
"""

import os
import pathlib
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize(
    "script",
    [
        "01_simulate_and_inspect.py",
        "02_calibrate_two_ways.py",
        "03_monte_carlo_accuracy.py",
        "05_weak_coverage_cross_check.py",
    ],
)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
