import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

# Tier-1 draws the same examples on every run and keeps no example database, so its
# result depends on the code alone. `pytest --hypothesis-profile=deep` draws fresh
# examples, five times as many (see `examples`), and replays those that failed before.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("deep", max_examples=500)
settings.load_profile("derandomized")

_ACCEPTANCE = {}


def examples(count: int) -> int:
    """A property's example count: ``count`` in tier-1, five times as many under ``deep``."""
    return count * settings.default.max_examples // 100


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid and report.when in ("setup", "call"):
        name = report.nodeid.split("::")[-1]
        if report.when == "call" or report.outcome != "passed":
            _ACCEPTANCE[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _ACCEPTANCE.items():
        tag = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{tag}  {name}")


def oracle_true_params(soft_iron, hard_iron):
    """Reference shape/offset: positive-diagonal QR of inv(S), done by hand.

    Kept independent of ``SensorTruth.calibration`` so recovery tests have
    an external yardstick.
    """
    q, r = np.linalg.qr(np.linalg.inv(np.asarray(soft_iron, float)))
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    return signs[:, None] * r, np.asarray(hard_iron, float)


@pytest.fixture(scope="session")
def default_scene():
    """Default scenario objects shared across test modules."""
    from magcal.simulate import default_truth, sweep_trajectory

    truth = default_truth()
    r_true, h_true = oracle_true_params(truth.soft_iron, truth.hard_iron)
    return {
        "truth": truth,
        "trajectory": sweep_trajectory(300),
        "r_true": r_true,
        "h_true": h_true,
    }


def _timed(study):
    start = time.perf_counter()
    result = study()
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def monte_carlo_50():
    """The default 50-run Monte-Carlo study and its wall time.

    Shared by the acceptance and golden tests, so the suite runs it once.
    """
    import make_golden

    return _timed(make_golden.monte_carlo_study)


@pytest.fixture(scope="session")
def sensitivity_50():
    """The default sensitivity study (7 alphas x 50 runs) and its wall time, shared likewise."""
    import make_golden

    return _timed(make_golden.sensitivity_study)


@pytest.fixture
def traced_peak():
    """peak(fn) calls fn() and returns the peak bytes allocated meanwhile, by tracemalloc.

    numpy reports its array buffers to tracemalloc, so the count repeats exactly
    from run to run, unlike a timing.
    """
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
