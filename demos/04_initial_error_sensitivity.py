#!/usr/bin/env python3
"""How far can the initial estimate be off before each solver diverges?

Every free parameter of the ellipsoid-fit estimate is scaled by (1 +/- a)
with random signs, and a run counts as diverged when the final objective
stays above 3x its value expected at the optimum, which the study works out
from the scenario's N and sigma (about 0.034 for nm, 0.0079 for ml here).
The quartic nm objective starts failing at 1-2% perturbation and is gone
by 6%; the quadratic ml formulation shrugs off 5% without a single loss.
"""

from magcal.experiments import DEFAULT_SENSITIVITY_SEED, run_sensitivity
from magcal.simulate import default_config


def main():
    alphas = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07]
    result = run_sensitivity(
        default_config(), alphas, runs=50, seed=DEFAULT_SENSITIVITY_SEED
    )

    print(f"divergences out of {result.runs} runs (master seed {result.seed})\n")
    print(f"{'perturbation':>14} {'nm':>6} {'ml':>6}")
    for alpha, nm_count, ml_count in zip(
        result.alphas, result.nm_divergences, result.ml_divergences
    ):
        bar_nm = "#" * nm_count
        print(f"{alpha:>13.0%} {nm_count:>6} {ml_count:>6}   {bar_nm}")

    print(f"\nthresholds: nm > {result.nm_threshold:.3g}  ml > {result.ml_threshold:.3g}")


if __name__ == "__main__":
    main()
