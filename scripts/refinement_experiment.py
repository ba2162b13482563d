#!/usr/bin/env python3
"""Delayed-Euler refinement experiment: how far apart are consecutive
refinements of the block delay for the mean-field gain family.

Usage: python scripts/refinement_experiment.py [N] [seed]
"""

import sys

import numpy as np

from wassinc import ParticleCloud, RateFunctions, peano_solve, refinement_study
from wassinc.catalog import mean_gain_family


def main() -> int:
    n_particles = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 42
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    start = ParticleCloud(rng.standard_normal((n_particles, 2)))
    family = mean_gain_family([0.5, 1.0], RateFunctions.constant(1.0, 1.0, 1.0, 1.0))
    print(f"N = {n_particles}, controls = {family.controls}, strategy = min_norm")
    print(f"{'n_coarse':>9s} {'n_fine':>7s} {'sup W_1':>12s}")
    curves = {n: peano_solve(family, start, n, 4, "min_norm")[0] for n in [4, 8, 16, 32, 64]}
    for a, b, v in refinement_study(curves, p=1):
        print(f"{a:9d} {b:7d} {v:12.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
