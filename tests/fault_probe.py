#!/usr/bin/env python3
"""Print the minor page faults and system time per op of the three benchmark ops.

    PYTHONPATH=src python tests/fault_probe.py [--ops 20] [--warmup 5]

The ops are those of ``perfbench/workloads.py``: the default 50-run Monte-Carlo
study (``montecarlo-300``), the 7-alpha x 3-run sensitivity sweep
(``sensitivity-300``), and ``calibrate --method both`` plus ``apply --method ml``
on a 30 000-row log that this script writes (``calibrate-30k``). Each op runs
in a fresh process with one BLAS thread and no ``MALLOC_*`` variable, so the
allocator starts from its defaults. After ``--warmup`` ops, ``resource.getrusage``
is read around ``--ops`` more. Prints one line per op: minor faults, system
milliseconds and wall milliseconds, each per op, the minor faults of the
median op, and the process's peak RSS in MB (``ru_maxrss``, as perfbench reads
it, but without perfbench's log generator and set-up probes in the process).
The log, too, is written in a child process: Linux carries ``ru_maxrss`` across
``execve``, so a child of a parent that wrote it would read the parent's peak.

A page fault here is the kernel handing the process a fresh page, typically
because the allocator returned memory to it and the next op asked for it again.
Some ops fault 50-200 pages in, as the heap grows to a new high-water mark or the
allocator trims it. Which ops, and how many, moves with the heap's layout, which
moves with anything else the process allocates: over 72 layouts of one tree, the
mean of 10 sensitivity-300 ops read 4 to 179 faults, and the median op 3 to 20.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time

OPS = ("montecarlo-300", "sensitivity-300", "calibrate-30k")
ALPHAS = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07)
LOG_ROWS = 30_000


def run_cli(*argv: str) -> None:
    """``magcal argv`` with its output dropped; a nonzero exit stops the probe."""
    from magcal.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        sys.exit(f"magcal {' '.join(argv)} exited {code}")


def make_op(name: str, workdir: pathlib.Path):
    """op(seed) of benchmark op ``name``; calibrate-30k reads ``workdir``/log.csv."""
    from magcal import experiments
    from magcal.simulate import default_config

    config = default_config()
    if name == "montecarlo-300":
        return lambda seed: experiments.run_monte_carlo(config, runs=50, seed=seed, workers=1)
    if name == "sensitivity-300":
        return lambda seed: experiments.run_sensitivity(config, ALPHAS, runs=3, seed=seed,
                                                        workers=1)
    log, report, out = (str(workdir / f) for f in ("log.csv", "report.json", "calibrated.csv"))

    def calibrate(_seed):
        run_cli("calibrate", "--method", "both", "--input", log, "--out", report)
        run_cli("apply", "--report", report, "--method", "ml", "--input", log, "--out", out)

    return calibrate


def child(name: str, workdir: pathlib.Path, warmup: int, ops: int) -> dict:
    """Per-op counts of ``ops`` ops of ``name`` after ``warmup`` ops, in this process."""
    op = make_op(name, workdir)
    for seed in range(warmup):
        op(seed)
    faults, before, start = [], resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    for seed in range(warmup, warmup + ops):
        op_start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        op(seed)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - op_start)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {"op": name, "minflt": (after.ru_minflt - before.ru_minflt) / ops,
            "minflt_median": statistics.median(faults),
            "sys_ms": 1e3 * (after.ru_stime - before.ru_stime) / ops, "wall_ms": 1e3 * wall / ops,
            "maxrss_mb": after.ru_maxrss / 1024.0}


def write_log(workdir: pathlib.Path) -> None:
    """The calibrate-30k input: a default scene of LOG_ROWS samples, through ``magcal simulate``."""
    from magcal.simulate import default_config

    config = workdir / "config.json"
    config.write_text(json.dumps(default_config(n=LOG_ROWS).to_dict()))
    run_cli("simulate", "--config", str(config), "--out", str(workdir / "log.csv"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", type=int, default=20, help="counted ops per process")
    parser.add_argument("--warmup", type=int, default=5, help="uncounted ops before them")
    parser.add_argument("--child", choices=OPS, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--write-log", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.write_log:
        write_log(pathlib.Path(args.workdir))
        return 0
    if args.child:
        print(json.dumps(child(args.child, pathlib.Path(args.workdir), args.warmup, args.ops)))
        return 0

    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        # In a child, so that this process, whose peak RSS its children inherit, stays small.
        subprocess.run([sys.executable, __file__, "--write-log", "--workdir", tmp], env=env,
                       check=True)
        print(f"{'op':16s} {'faults/op':>10s} {'sys ms/op':>10s} {'wall ms/op':>11s} "
              f"{'median op':>10s} {'peak RSS MB':>12s}")
        for name in OPS:
            done = subprocess.run(
                [sys.executable, __file__, "--child", name, "--workdir", tmp,
                 "--warmup", str(args.warmup), "--ops", str(args.ops)],
                env=env, capture_output=True, text=True, check=True)
            row = json.loads(done.stdout)
            print(f"{name:16s} {row['minflt']:10.1f} {row['sys_ms']:10.2f} {row['wall_ms']:11.1f} "
                  f"{row['minflt_median']:10.1f} {row['maxrss_mb']:12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
