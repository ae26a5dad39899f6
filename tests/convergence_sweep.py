#!/usr/bin/env python3
"""Count nm's and ml's outcomes over a range of seeds, per (tilt, sigma) scene.

    PYTHONPATH=src python tests/convergence_sweep.py                 # seeds 5000-5399
    PYTHONPATH=src python tests/convergence_sweep.py --seeds 1000 1049 --scene 5 0.003

Each run is a cell of ``make_golden.grid``: 300 samples of ``default_truth(sigma)``
on ``sweep_trajectory(300, tilt)``, both solvers started from the ellipsoid fit.
The default scenes are tilt 5 and tilt 3 at the default sigma, and tilt 20 at
sigma 0.1. Prints, per scene and method, how many runs converged, stopped
unconverged at the iteration cap, failed (a SolverFailure, divergence included)
or lost their fit, and the median iterations of the converged runs. The runs
go to make_golden's GRID_WORKERS processes. It is not part of the test suite.
"""

import argparse
import statistics

import make_golden
from magcal.simulate import DEFAULT_SIGMA

DEFAULT_SCENES = ((5.0, DEFAULT_SIGMA), (3.0, DEFAULT_SIGMA), (20.0, 0.1))
COLUMNS = ("converged", "unconverged", "failed", "fit-failed")


def tally(outcomes) -> tuple:
    """The count of each of COLUMNS among make_golden outcomes, and the median iterations
    of the converged runs (None if none converged)."""
    counts = dict.fromkeys(COLUMNS, 0)
    iterations = []
    for outcome in outcomes:
        if outcome.endswith(" in fit"):
            counts["fit-failed"] += 1
        elif outcome.startswith("converged in "):
            counts["converged"] += 1
            iterations.append(int(outcome.rsplit(" ", 1)[1]))
        elif outcome.startswith("unconverged after "):
            counts["unconverged"] += 1
        else:
            counts["failed"] += 1
    return counts, statistics.median(iterations) if iterations else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs=2, type=int, default=(5000, 5399),
                        metavar=("FIRST", "LAST"), help="inclusive seed range")
    parser.add_argument("--scene", nargs=2, type=float, action="append", metavar=("TILT", "SIGMA"),
                        help="a scene to sweep; repeat for more (default: the three above)")
    args = parser.parse_args(argv)
    scenes = [tuple(scene) for scene in args.scene] if args.scene else DEFAULT_SCENES
    cells = make_golden.grid(scenes, range(args.seeds[0], args.seeds[1] + 1))
    print(f"seeds {args.seeds[0]}-{args.seeds[1]}, N = 300")
    print(f"{'tilt':>5} {'sigma':>6} method " + " ".join(f"{c:>11}" for c in COLUMNS)
          + " median iterations")
    for scene in scenes:
        for method in make_golden.METHODS:
            counts, median = tally(cells[scene][method]["outcomes"])
            print(f"{scene[0]:5g} {scene[1]:6g} {method:>6} "
                  + " ".join(f"{counts[c]:11d}" for c in COLUMNS) + f" {median or '-':>17}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
