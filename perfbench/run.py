"""Benchmark of magcal: three single-client, closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload calibrate-30k --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): ``calibrate-30k``,
``montecarlo-300`` and ``sensitivity-300``. One client issues its next op
only after the previous one has finished and calls magcal in-process. The
run goes through the workload's fixed cycle of per-op seeds, derived from
``--seed``, until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: latency median, p90 and
minimum of one op, set-up time and peak RSS. A set-up is one fresh process,
timed from its first statement through ``import magcal`` and one warm-up op.
The run starts SETUP_PROBES of them, spread evenly over the measured time,
and reports the slowest (see ``setup_s``). ``--trace 1`` interleaves untraced
and traced ops, one of each per seed, and reports the per-layer metrics of
the traced ones plus ``trace.overhead_ratio``.

Metric names and units come from BENCHMARK.json; the result line carries its
``end_to_end`` metrics (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``).

Both print a table, write the full record (environment, per-op latencies,
failures) under perfbench/out/, and print as the last line one JSON object
with the keys correct, attempted, failed and metrics. Exits non-zero when the
repository's ``src/magcal`` is missing.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the process's first statement

import os

# One BLAS/OpenMP thread, set before numpy loads. With default threading an op
# used 1.6-2x its wall time in CPU on two cores, so its latency depended on
# what else the machine ran.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse
import functools
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 8  # fresh-process set-ups per untraced run
# A traced run reports counts and solver ratios from its first COUNTED_OPS
# traced ops, which are the same seeds in every run, so they repeat exactly.
COUNTED_OPS = 8
PROBE_TIMEOUT_S = 60
# Printed and recorded but not in BENCHMARK.json, so not gated: they follow
# the host's speed state (README.md).
UNGATED_UNITS = {"latency_p50_s": "s", "latency_min_s": "s"}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once, print the set-up time and exit")
    parser.add_argument("--log", help="internal: input log the set-up probe reads")
    return parser.parse_args()


def load_program():
    """Put the checkout's src/ first on the path and import the benchmark modules."""
    src = ROOT / "src"
    if not (src / "magcal" / "__init__.py").is_file():
        sys.exit(f"error: no magcal package under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    return workloads, tracing


def metric_units(group: str) -> dict:
    """name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[group]}


def timed_op(workload, seed, tracer=None):
    """Run one op; returns (latency_s, failure reason or None, traced span range)."""
    block = None
    if tracer is not None:
        tracer.install()
        root = tracer.begin_op(seed)
    start = time.perf_counter()
    try:
        out = workload.op(seed)
        error = None
    except Exception:  # a failed op counts against error_ratio; the loop goes on
        error = traceback.format_exc(limit=4)
    latency = time.perf_counter() - start
    if tracer is not None:
        block = tracer.end_op(root)
        tracer.uninstall()
    if error is None:
        try:
            error = workload.check(out)
        except Exception:
            error = traceback.format_exc(limit=4)
    return latency, error, block


def run_loop(workload, seeds, seconds, tracer=None, probe=None):
    """Closed loop through ``seeds``, repeated if need be, until ``seconds`` have passed.

    With a tracer, every seed runs twice, untraced and traced, in alternating
    order, and the loop does at least COUNTED_OPS traced ops. With ``probe``,
    the loop calls it once after the first op past each of SETUP_PROBES
    evenly spaced marks; probe time does not count towards ``seconds``.
    Returns the ops and the probes' results.
    """
    ops, probes = [], []
    marks = [(k + 0.5) * seconds / SETUP_PROBES for k in range(SETUP_PROBES)] if probe else []
    start = time.perf_counter()
    for i, seed in enumerate(itertools.cycle(seeds)):
        modes = (False,) if tracer is None else (i % 2 == 0, i % 2 == 1)
        for traced in modes:
            latency, error, block = timed_op(workload, seed, tracer if traced else None)
            ops.append({"seed": seed, "traced": traced, "latency_s": latency,
                        "error": error, "spans": block})
        while marks and time.perf_counter() - start >= marks[0]:
            marks.pop(0)
            paused = time.perf_counter()
            probes.append(probe())
            start += time.perf_counter() - paused
        if (time.perf_counter() - start >= seconds and not marks
                and (tracer is None or i + 1 >= COUNTED_OPS)):
            return ops, probes


def setup_probe(args, workload_cls, seed) -> float:
    """One set-up: imports plus one warm-up op, timed from T0."""
    with tempfile.TemporaryDirectory(dir=OUT, prefix="probe-") as tmp:
        workload = workload_cls(args.seed, Path(tmp), log=Path(args.log) if args.log else None)
        workload.op(seed)
    return time.perf_counter() - T0


def child_setup(args, log) -> float:
    """Set-up time of one fresh benchmark process, which reads ``log`` if given."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    if log is not None:
        cmd += ["--log", str(log)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": THREADS}


def main() -> int:
    args = parse_args()
    workloads, tracing = load_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    seeds = workloads.op_seeds(workload_cls, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args, workload_cls, seeds[0])}))
        return 0
    import_s = time.perf_counter() - T0

    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        workload = workload_cls(args.seed, Path(tmp))
        start = time.perf_counter()
        workload.op(seeds[0])  # warm-up
        own_setup_s = import_s + time.perf_counter() - start
        tracer = probe = None
        if args.trace:
            tracer = tracing.Tracer()
        else:
            probe = functools.partial(child_setup, args, getattr(workload, "log", None))
        ops, setups = run_loop(workload, seeds, args.seconds, tracer, probe)

    failures = [op for op in ops if op["error"]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "op_seeds": seeds, "environment": environment(),
              **workload.inputs, "attempted": len(ops), "failed": len(failures),
              "error_ratio": len(failures) / len(ops),
              "failures": [op["error"] for op in failures[:5]],
              "latencies_s": [op["latency_s"] for op in ops if not op["traced"]]}
    latencies = record["latencies_s"]
    if tracer is None:
        units = metric_units("end_to_end")
        metrics = {
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10)[-1],
            "latency_min_s": min(latencies),
            # The slowest set-up. The probes are spread over the run, so, like
            # p90 for the ops, the maximum mostly sits on the host's slow
            # state; the median of back-to-back set-ups followed whichever
            # speed state held at the start of the run.
            "setup_s": max(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_samples_s"] = setups
        record["own_setup_s"] = own_setup_s
        all_units = {**UNGATED_UNITS, **units}
    else:
        units = metric_units("per_layer")
        traced = [op for op in ops if op["traced"]]
        per_op = [tracing.op_layer_metrics(tracer.spans, op["spans"]) for op in traced]
        # Each seed ran once traced and once untraced, back to back: compare
        # within those pairs, so that neither work nor host speed differs.
        overhead = statistics.median(
            (a if a["traced"] else b)["latency_s"] / (b if a["traced"] else a)["latency_s"]
            for a, b in zip(ops[0::2], ops[1::2]))
        metrics = tracing.summarize(per_op, overhead, COUNTED_OPS)
        all_units = units
        record["traced_latencies_s"] = [op["latency_s"] for op in traced]
        record["counts"] = {name: value for name, value in metrics.items()
                            if tracing.is_exact(name)}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    if set(metrics) != set(all_units):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(all_units))} are computed "
                 "but not listed in BENCHMARK.json, or listed but not computed")
    record["metrics"] = {name: {"value": value, "unit": all_units[name]}
                         for name, value in metrics.items()}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print_summary(record)
    result = {name: record["metrics"][name] for name in units}
    print(json.dumps({"correct": not failures, "attempted": len(ops), "failed": len(failures),
                      "metrics": result}))
    return 0


def print_summary(record) -> None:
    env = record["environment"]
    print(f"{record['workload']} seed {record['seed']}: {record['attempted']} ops "
          f"({len(record['latencies_s'])} untraced), {record['failed']} failed; "
          f"nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, threads {env['threads']}")
    if "input_sha256" in record:
        print(f"  input sha256 {record['input_sha256']}  gen_s {record['gen_s']:.4f} s")
    counts = record.get("counts", {})
    for name, m in record["metrics"].items():
        if name not in counts:
            print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_ratio':24s} {record['error_ratio']:.6g} ratio")
    if counts:
        print("  counts: " + ", ".join(f"{k} {v:g}" for k, v in counts.items()))
    for error in record["failures"]:
        print("  failure: " + error.strip().replace("\n", " | "))


if __name__ == "__main__":
    sys.exit(main())
