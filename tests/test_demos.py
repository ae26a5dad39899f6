"""Smoke tests: the demo scripts and README's library quick start run to completion.

Demo 04 (the 50-run sensitivity sweep, about 11 s) is left out; it reads
only SensitivityResult, which the experiments tests cover.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
README = DEMOS.parent / "README.md"


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


def test_readme_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "solve_ml(data, init)" in code
    exec(compile(code, f"{README}:quick start", "exec"), {})
    assert "ErrorMetrics(scale_pct=" in capsys.readouterr().out
