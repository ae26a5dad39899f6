#!/usr/bin/env python3
"""Print the sha256 of sixteen CLI outputs, so that two checkouts compare with one ``diff``.

    PYTHONPATH=src python tests/output_digests.py > digests.txt

Runs through ``cli.main`` in a temporary directory, with one BLAS thread:
``simulate --seed 7`` (CSV and truth sidecar) with that dataset's
``calibrate --method both`` report, ``apply --method ml`` CSV and ``metrics``
JSON; ``simulate --seed 9124 --tilt 5`` (CSV and sidecar) with its report; and
the default ``montecarlo`` and ``sensitivity`` outputs with ``--workers 1`` and
``--workers 2``. Prints ``sha256  name`` per output, in name order. The two
worker counts must give the same study digests.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import tempfile

COMMANDS = (
    ["simulate", "--seed", "7", "--out", "s7.csv"],
    ["calibrate", "--input", "s7.csv", "--method", "both", "--out", "s7_report.json"],
    ["apply", "--report", "s7_report.json", "--method", "ml", "--input", "s7.csv",
     "--out", "s7_ml.csv"],
    ["metrics", "--estimate", "s7_report.json", "--method", "ml", "--truth", "s7.truth.json",
     "--out", "s7_metrics.json"],
    ["simulate", "--seed", "9124", "--tilt", "5", "--out", "t5.csv"],
    ["calibrate", "--input", "t5.csv", "--method", "both", "--out", "t5_report.json"],
    *([study, "--workers", workers, "--out-prefix", f"{study}_w{workers}"]
      for study in ("montecarlo", "sensitivity") for workers in ("1", "2")),
)


def digests() -> list:
    """(sha256, name) of every file the commands write, in name order."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: products round as on one thread
    from magcal.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    main(argv)
            return [(hashlib.sha256(path.read_bytes()).hexdigest(), path.name)
                    for path in sorted(pathlib.Path(tmp).iterdir())]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    for digest, name in digests():
        print(f"{digest}  {name}")
