"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 degenerate data, 4 solver failure or
non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import experiments, fileio
from .errors import DegenerateDataError, InsufficientDataError, SolverFailure
from .initfit import fit_initial
from .metrics import apply_calibration, error_metrics
from .simulate import SimConfig, default_config, simulate, sweep_trajectory
from .types import SolveOptions


def _load_config(path) -> SimConfig:
    if path is None:
        return default_config()
    return SimConfig.from_dict(fileio.read_json(path))


def _truth_sidecar(out_path) -> str:
    out = str(out_path)
    stem = out[:-4] if out.endswith(".csv") else out
    return stem + ".truth.json"


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    dataset = simulate(config.truth, sweep_trajectory(config.n, args.tilt), config.seed)
    truth_params = config.truth.calibration()  # before any file is written
    fileio.write_samples_csv(args.out, dataset.samples)
    truth_path = args.truth_out or _truth_sidecar(args.out)
    truth_doc = fileio.truth_report_dict(truth_params, input_digest=fileio.file_digest(args.out))
    fileio.write_json(truth_path, truth_doc)
    print(f"wrote {dataset.n_samples} samples to {args.out}; truth to {truth_path}")
    return 0


def _comparison(nm_doc: dict, ml_doc: dict) -> dict:
    nm_shape = np.asarray(nm_doc["shape_upper"])
    ml_shape = np.asarray(ml_doc["shape_upper"])
    nm_offset = np.asarray(nm_doc["offset"])
    ml_offset = np.asarray(ml_doc["offset"])
    shape_diff = float(np.max(np.abs(nm_shape - ml_shape)))
    offset_diff = float(np.max(np.abs(nm_offset - ml_offset)))
    shape_scale = max(float(np.max(np.abs(nm_shape))), 1e-12)
    offset_scale = max(float(np.max(np.abs(nm_offset))), 1.0)
    agree = (shape_diff <= 1e-3 * shape_scale) and (offset_diff <= 1e-3 * offset_scale)
    return {
        "shape_max_abs_diff": shape_diff,
        "offset_max_abs_diff": offset_diff,
        "agree": agree,
        # The quadratic estimator stays reliable under weak excitation, so
        # it is the one to trust whenever the two disagree.
        "preferred": "either" if agree else "ml",
    }


def cmd_calibrate(args) -> int:
    samples = fileio.read_samples_csv(args.input)
    digest = fileio.file_digest(args.input)
    opts = SolveOptions(**{f.name: getattr(args, f.name)
                           for f in dataclasses.fields(SolveOptions)})
    init, min_eigenvalue = fit_initial(samples)
    failed = False
    docs = {}
    methods = ("nm", "ml") if args.method == "both" else (args.method,)
    for method in methods:
        try:
            report = experiments.solve(method, samples, init, opts)
            if not report.converged:
                print(f"{method} solver did not converge in {report.iterations} iterations",
                      file=sys.stderr)
        except SolverFailure as exc:
            print(f"{method} solver failed: {exc}", file=sys.stderr)
            report = exc.report
        # An unconverged estimate is not one to recommend or apply.
        failed = failed or not report.converged
        docs[method] = fileio.report_dict(report, min_eigenvalue, digest)

    if args.method == "both":
        document = {"format_version": fileio.FORMAT_VERSION, **docs}
        if not failed:
            document["comparison"] = _comparison(docs["nm"], docs["ml"])
    else:
        document = docs[args.method]
    fileio.write_json(args.out, document)
    print(f"wrote report to {args.out}")
    return 4 if failed else 0


def cmd_apply(args) -> int:
    report = fileio.select_report(fileio.read_json(args.report), args.method)
    if not report.get("converged", True):
        raise SolverFailure(f"the {report.get('method')} report did not converge; not applying it")
    params = fileio.params_from_report(report)
    samples = fileio.read_samples_csv(args.input)
    fileio.write_calibrated_csv(args.out, apply_calibration(params, samples))
    print(f"wrote calibrated samples to {args.out}")
    return 0


def cmd_metrics(args) -> int:
    estimate = fileio.params_from_report(
        fileio.select_report(fileio.read_json(args.estimate), args.method)
    )
    truth = fileio.params_from_report(
        fileio.select_report(fileio.read_json(args.truth), args.truth_method)
    )
    result = dataclasses.asdict(error_metrics(estimate, truth))
    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if args.out:
        fileio.write_json(args.out, result)
    return 0


def cmd_montecarlo(args) -> int:
    config = _load_config(args.config)
    result = experiments.run_monte_carlo(
        config, args.runs, args.seed, workers=args.workers
    )
    fileio.write_monte_carlo_csv(args.out_prefix + "_runs.csv", result)
    summary = fileio.monte_carlo_summary(result)
    fileio.write_json(args.out_prefix + "_summary.json", summary)
    for method in ("nm", "ml"):
        agg = summary["aggregates"][method]
        print(
            f"{method}: e_s {agg['scale_pct']['mean']:.4f}% "
            f"e_o {agg['ortho_deg']['mean']:.4f} deg "
            f"e_h {agg['hard_iron_gauss']['mean']:.5f} Gauss "
            f"({summary['failures'][method]} failures)"
        )
    return 0


def cmd_sensitivity(args) -> int:
    config = _load_config(args.config)
    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    result = experiments.run_sensitivity(
        config, alphas, args.runs, seed=args.seed, workers=args.workers
    )
    fileio.write_sensitivity_csv(args.out_prefix + "_counts.csv", result)
    fileio.write_json(args.out_prefix + "_summary.json", fileio.sensitivity_summary(result))
    for alpha, nm_c, ml_c in zip(result.alphas, result.nm_divergences, result.ml_divergences):
        print(f"alpha {alpha:.2%}: nm {nm_c}/{result.runs} ml {ml_c}/{result.runs}")
    return 0


def cmd_timing(args) -> int:
    config = _load_config(args.config)
    n_values = [int(n) for n in args.n_values.split(",") if n.strip()]
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    rows = experiments.run_timing(
        config, n_values, repeats=args.repeats, methods=methods, seed=args.seed
    )
    fileio.write_timing_csv(args.out_prefix + "_timing.csv", rows)
    fileio.write_json(args.out_prefix + "_timing.json", fileio.timing_summary(rows))
    for row in rows:
        print(
            f"N={row.n} {row.method}: {row.median_seconds * 1e3:.2f} ms "
            f"({row.iterations} iterations)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magcal",
        description="Attitude-independent three-axis magnetometer calibration.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate a synthetic dataset CSV")
    sim.add_argument("--config", help="scenario JSON (default: bundled scenario)")
    sim.add_argument("--out", required=True, help="output dataset CSV")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--tilt", type=float, default=20.0, help="trajectory tilt amplitude, degrees")
    sim.add_argument("--truth-out", help="truth sidecar JSON path")
    sim.set_defaults(func=cmd_simulate)

    cal = subs.add_parser("calibrate", help="estimate calibration from a dataset CSV")
    cal.add_argument("--input", required=True, help="dataset CSV")
    cal.add_argument("--method", choices=("nm", "ml", "both"), default="both")
    cal.add_argument("--out", required=True, help="output report JSON")
    for f in dataclasses.fields(SolveOptions):
        cal.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    cal.set_defaults(func=cmd_calibrate)

    app = subs.add_parser("apply", help="apply a calibration report to a dataset")
    app.add_argument("--report", required=True, help="report JSON")
    app.add_argument("--method", choices=("nm", "ml"), help="pick from a combined report")
    app.add_argument("--input", required=True, help="dataset CSV")
    app.add_argument("--out", required=True, help="calibrated CSV")
    app.set_defaults(func=cmd_apply)

    met = subs.add_parser("metrics", help="score one report against another")
    met.add_argument("--estimate", required=True, help="estimate report JSON")
    met.add_argument("--truth", required=True, help="reference report JSON")
    met.add_argument("--method", choices=("nm", "ml"), help="method within the estimate report")
    met.add_argument(
        "--truth-method", choices=("nm", "ml"), help="method within the reference report"
    )
    met.add_argument("--out", help="also write the metrics JSON here")
    met.set_defaults(func=cmd_metrics)

    mc = subs.add_parser("montecarlo", help="repeated-calibration accuracy study")
    mc.add_argument("--config", help="scenario JSON (default: bundled scenario)")
    mc.add_argument("--runs", type=int, default=50)
    mc.add_argument("--seed", type=int, default=experiments.DEFAULT_MC_SEED)
    mc.add_argument("--workers", type=int, default=1)
    mc.add_argument("--out-prefix", required=True)
    mc.set_defaults(func=cmd_montecarlo)

    about = ("initial-error divergence study: a run diverges when its solve fails or ends above "
             "3x the objective expected at the optimum, set by the scenario's N and sigma (> 0)")
    sens = subs.add_parser("sensitivity", help=about, description=about)
    sens.add_argument("--config", help="scenario JSON (default: bundled scenario)")
    sens.add_argument("--alphas", default="0.01,0.02,0.03,0.04,0.05,0.06,0.07")
    sens.add_argument("--runs", type=int, default=50)
    sens.add_argument("--seed", type=int, default=experiments.DEFAULT_SENSITIVITY_SEED)
    sens.add_argument("--workers", type=int, default=1)
    sens.add_argument("--out-prefix", required=True)
    sens.set_defaults(func=cmd_sensitivity)

    tim = subs.add_parser("timing", help="solver wall-clock comparison")
    tim.add_argument("--config", help="scenario JSON (default: bundled scenario)")
    tim.add_argument("--n-values", default="100,300,1000")
    tim.add_argument("--repeats", type=int, default=5)
    tim.add_argument("--methods", default="nm,ml")
    tim.add_argument("--seed", type=int, default=0)
    tim.add_argument("--out-prefix", required=True)
    tim.set_defaults(func=cmd_timing)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InsufficientDataError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
