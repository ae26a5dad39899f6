#!/usr/bin/env python3
"""Generate the bundled scenario and see why raw data needs calibration.

The soft-iron distortion and the large hard-iron offset push raw magnitudes
far from the unit field strength. A plain linear ellipsoid fit already
brings them back to within a couple percent of 1 before any Newton
refinement runs.
"""

import numpy as np

from magcal import (
    apply_calibration,
    default_truth,
    fit_initial,
    simulate,
    sweep_trajectory,
)


def describe(name, values):
    print(f"{name:>28}: min {values.min():.4f}  mean {values.mean():.4f}  "
          f"max {values.max():.4f}")


def main():
    truth = default_truth()
    dataset = simulate(truth, sweep_trajectory(300), seed=7)

    raw_mags = np.linalg.norm(dataset.samples, axis=1)
    print("Raw three-axis samples, field strength normalized to 1:")
    describe("raw |y|", raw_mags)

    params, min_eigenvalue = fit_initial(dataset)
    cal_mags = np.linalg.norm(apply_calibration(params, dataset.samples), axis=1)
    describe("after initial estimate", cal_mags)

    print(f"\nfit normal-matrix min eigenvalue: {min_eigenvalue:.3e}")
    print("initial shape matrix (upper triangular):")
    print(np.array_str(params.shape, precision=4, suppress_small=True))
    print(f"initial hard-iron offset: {np.array_str(params.offset, precision=4)}")

    true_params = truth.calibration()
    print("\ntrue shape matrix for comparison:")
    print(np.array_str(true_params.shape, precision=4, suppress_small=True))
    print(f"true hard-iron offset:    {np.array_str(true_params.offset, precision=4)}")


if __name__ == "__main__":
    main()
