#!/usr/bin/env python3
"""Print the sha256 of twenty-two CLI outputs, so that two checkouts compare with one ``diff``.

    PYTHONPATH=src python tests/output_digests.py > digests.txt

Runs through ``cli.main`` in a temporary directory, with one BLAS thread:
``simulate --seed 7`` (CSV and truth sidecar) with that dataset's
``calibrate --method both`` report, ``apply --method ml`` CSV and ``metrics``
JSON; ``simulate --seed 9124 --tilt 5`` (CSV and sidecar) with its report;
``simulate --config`` of ``default_config(n=30000)`` (CSV and sidecar) with its
``calibrate --method both`` report and ``apply --method ml`` CSV, which reach the
row blocks of ml, of the scatter matrix and of the CSV writers; ``montecarlo --config``
of ``default_config(sigma=0.1, n=12)`` with 20 runs, 11 of whose fits fail, so that a
job holds both failed and fitted runs; and the default ``montecarlo`` and
``sensitivity`` outputs with ``--workers 1`` and ``--workers 2``.
Prints ``sha256  name`` per output, in name order. The two worker counts must give
the same study digests.
"""

import contextlib
import hashlib
import io
import json
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
    ["simulate", "--config", "n30k.json", "--out", "n30k.csv"],
    ["calibrate", "--input", "n30k.csv", "--method", "both", "--out", "n30k_report.json"],
    ["apply", "--report", "n30k_report.json", "--method", "ml", "--input", "n30k.csv",
     "--out", "n30k_ml.csv"],
    ["montecarlo", "--config", "mix.json", "--runs", "20", "--seed", "3", "--out-prefix", "mix"],
    *([study, "--workers", workers, "--out-prefix", f"{study}_w{workers}"]
      for study in ("montecarlo", "sensitivity") for workers in ("1", "2")),
)


def digests() -> list:
    """(sha256, name) of every file the commands write, in name order."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: products round as on one thread
    from magcal.cli import main
    from magcal.simulate import default_config

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            configs = {"n30k.json": default_config(n=30000), "mix.json": default_config(0.1, 12)}
            for name, config in configs.items():
                pathlib.Path(name).write_text(json.dumps(config.to_dict()))
            for argv in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    main(argv)
            for name in configs:  # inputs, not outputs
                pathlib.Path(name).unlink()
            return [(hashlib.sha256(path.read_bytes()).hexdigest(), path.name)
                    for path in sorted(pathlib.Path(tmp).iterdir())]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    for digest, name in digests():
        print(f"{digest}  {name}")
