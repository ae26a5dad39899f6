#!/usr/bin/env python3
"""Run both estimators on one dataset and compare their convergence.

The norm-residual (nm) solver iterates on 9 parameters of a quartic
objective; the constrained maximum-likelihood (ml) solver iterates on the
full 4N+9 Lagrangian system. Both start from the same ellipsoid-fit
estimate and converge in a handful of Newton steps.
"""

import numpy as np

from magcal import (
    default_truth,
    error_metrics,
    fit_initial,
    simulate,
    solve_ml,
    solve_nm,
    sweep_trajectory,
)


def main():
    truth = default_truth()
    dataset = simulate(truth, sweep_trajectory(300), seed=7)
    init, _ = fit_initial(dataset)

    nm_report = solve_nm(dataset, init)
    print("norm-residual solver:")
    print(f"  converged in {nm_report.iterations} iterations")
    print("  objective per iteration:",
          "  ".join(f"{v:.6f}" for v in nm_report.objective_history))

    ml_report = solve_ml(dataset, init)
    print("\nconstrained maximum-likelihood solver:")
    print(f"  converged in {ml_report.iterations} iterations")
    print("  misfit per iteration:   ",
          "  ".join(f"{v:.6f}" for v in ml_report.objective_history))
    print("  worst unit-norm violation per iteration:",
          "  ".join(f"{v:.1e}" for v in ml_report.constraint_violation_history))

    true_params = truth.calibration()
    for name, est in (
        ("nm", nm_report.final_params),
        ("ml", ml_report.final_params),
    ):
        m = error_metrics(est, true_params)
        print(f"\n{name} errors vs truth: scale {m.scale_pct:.4f} %   "
              f"orthogonality {m.ortho_deg:.4f} deg   "
              f"hard iron {m.hard_iron_gauss:.5f} Gauss")

    diff = np.max(np.abs(nm_report.final_params.shape - ml_report.final_params.shape))
    print(f"\nlargest shape-entry disagreement between the two: {diff:.2e}")


if __name__ == "__main__":
    main()
