#!/usr/bin/env python3
"""Regenerate ``golden.json``: the study outputs and solver outcomes the suite pins.

    PYTHONPATH=src python tests/make_golden.py           # rewrite golden.json
    PYTHONPATH=src python tests/make_golden.py --check   # compare, exit 1 on a change

The file holds the default Monte-Carlo aggregates, the default sensitivity
counts, and each nm and ml outcome on a grid of scenes and seeds at zero
perturbation, with the estimates at tilt 20 and the default sigma. A scene is
a trajectory tilt at the default sigma, or tilt 20 at a higher sigma.
``test_golden.py`` recomputes every entry through the functions below and
compares. A change that is meant
to move an entry regenerates the file and lists each changed entry.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
from concurrent.futures import ProcessPoolExecutor

from magcal.errors import CalibrationError, SolverFailure
from magcal.experiments import (
    DEFAULT_MC_SEED,
    DEFAULT_SENSITIVITY_SEED,
    run_monte_carlo,
    run_sensitivity,
    solve,
)
from magcal.initfit import fit_initial
from magcal.linalg import pack_upper
from magcal.simulate import DEFAULT_SIGMA, default_config, default_truth, simulate, sweep_trajectory

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")
METHODS = ("nm", "ml")
SENSITIVITY_ALPHAS = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07)
# (tilt, sigma): five tilts at the default sigma, then tilt 20 at high noise (ROADMAP item 15).
GRID_SCENES = (*((tilt, DEFAULT_SIGMA) for tilt in (20.0, 8.0, 5.0, 3.0, 0.0)),
               (20.0, 0.05), (20.0, 0.1))
GRID_SEEDS = tuple(range(1000, 1050))
ESTIMATE_SCENE = (20.0, DEFAULT_SIGMA)
GRID_WORKERS = 2  # the grid is most of the suite's added time; two cores halve it


def monte_carlo_study():
    return run_monte_carlo(default_config(), runs=50, seed=DEFAULT_MC_SEED)


def sensitivity_study():
    return run_sensitivity(default_config(), SENSITIVITY_ALPHAS, runs=50,
                           seed=DEFAULT_SENSITIVITY_SEED)


def monte_carlo_entry(result) -> dict:
    return {m: {"failures": result.failure_count(m), "aggregate": result.aggregate(m)}
            for m in METHODS}


def sensitivity_entry(result) -> dict:
    return {"nm": list(result.nm_divergences), "ml": list(result.ml_divergences)}


def grid_cell(scene_seed) -> dict:
    """Outcome of each method on one ((tilt, sigma), seed) dataset, started from the fit.

    An outcome is "converged in K", "unconverged after K", "<error> after K"
    for a SolverFailure, or "<error> in fit". The estimate is the report's
    shape_upper then offset, None when the solve raised.
    """
    (tilt, sigma), seed = scene_seed
    dataset = simulate(default_truth(sigma), sweep_trajectory(300, tilt), seed)
    try:
        init, _ = fit_initial(dataset)
    except CalibrationError as exc:
        return {m: {"outcome": f"{type(exc).__name__} in fit", "estimate": None}
                for m in METHODS}
    cell = {}
    for method in METHODS:
        try:
            report = solve(method, dataset, init)
        except SolverFailure as exc:
            outcome, estimate = f"{type(exc).__name__} after {exc.report.iterations}", None
        else:
            state = "converged in" if report.converged else "unconverged after"
            outcome = f"{state} {report.iterations}"
            params = report.final_params
            estimate = [float(v) for v in (*pack_upper(params.shape), *params.offset)]
        cell[method] = {"outcome": outcome, "estimate": estimate}
    return cell


def grid(scenes=GRID_SCENES, seeds=GRID_SEEDS) -> dict:
    """(tilt, sigma) -> method -> per-seed outcomes (and estimates), over scenes x seeds."""
    jobs = [(scene, seed) for scene in scenes for seed in seeds]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=GRID_WORKERS, mp_context=spawn) as pool:
        cells = list(pool.map(grid_cell, jobs, chunksize=5))
    out = {}
    for (scene, _), cell in zip(jobs, cells):
        for method in METHODS:
            entry = out.setdefault(scene, {}).setdefault(method, {"outcomes": [], "estimates": []})
            entry["outcomes"].append(cell[method]["outcome"])
            entry["estimates"].append(cell[method]["estimate"])
    return out


def grid_entry(cells: dict) -> dict:
    """The pinned part of ``grid()``: every outcome, and the estimates at ESTIMATE_SCENE only.

    A scene at the default sigma is keyed by its tilt alone, so its entries keep their keys.
    """
    out = {}
    for (tilt, sigma), methods in cells.items():
        key = f"tilt {tilt:g}" + ("" if sigma == DEFAULT_SIGMA else f" sigma {sigma:g}")
        out[key] = {
            m: {k: v for k, v in entry.items()
                if k == "outcomes" or (tilt, sigma) == ESTIMATE_SCENE}
            for m, entry in methods.items()
        }
    return out


def golden() -> dict:
    return {
        "grid_seeds": [GRID_SEEDS[0], GRID_SEEDS[-1]],
        "monte_carlo": monte_carlo_entry(monte_carlo_study()),
        "sensitivity": sensitivity_entry(sensitivity_study()),
        "grid": grid_entry(grid()),
    }


def changed_leaves(old, new, path="") -> list[tuple]:
    """(path, old, new) for each leaf of two golden trees that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [leaf for key in sorted(old.keys() | new.keys())
                for leaf in changed_leaves(old.get(key), new.get(key), f"{path}/{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [leaf for i, (a, b) in enumerate(zip(old, new))
                for leaf in changed_leaves(a, b, f"{path}[{i}]")]
    return [] if old == new else [(path or "/", old, new)]


def changed_entries(old, new) -> list[str]:
    """One line per leaf of two golden trees that differs, as 'path: old -> new'."""
    return [f"{path}: {a!r} -> {b!r}" for path, a, b in changed_leaves(old, new)]


def change_summary(old, new) -> str:
    """How many outcome or count entries and numeric entries differ, and the largest numeric change.

    A numeric entry is a float on both sides (an estimate or an aggregate); every
    other changed leaf is an outcome, a count or a change of structure.
    """
    leaves = changed_leaves(old, new)
    deltas = [(abs(b - a), path) for path, a, b in leaves
              if isinstance(a, float) and isinstance(b, float)]
    largest = "largest |change| {:.3g} at {}".format(*max(deltas)) if deltas else "none numeric"
    return (f"{len(leaves) - len(deltas)} outcome or count entries and {len(deltas)} numeric "
            f"entries changed; {largest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate in memory and compare byte-for-byte with golden.json; "
                             "print each changed entry and exit 1 on any difference")
    args = parser.parse_args(argv)
    text = json.dumps(golden(), indent=1, sort_keys=True) + "\n"
    if not args.check:
        GOLDEN_PATH.write_text(text)
        print(f"wrote {GOLDEN_PATH}")
        return 0
    committed = GOLDEN_PATH.read_text()
    if text == committed:
        print(f"{GOLDEN_PATH.name} unchanged")
        return 0
    old, new = json.loads(committed), json.loads(text)
    changes = changed_entries(old, new)
    for line in changes or ["(entries equal, formatting differs)"]:
        print(line)
    print(change_summary(old, new))
    print(f"{GOLDEN_PATH.name} differs: {len(changes)} changed entries")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
