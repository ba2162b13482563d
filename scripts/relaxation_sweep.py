#!/usr/bin/env python3
"""Density sweep: realize the half/half mixture of the bang-bang family by
fast switching and report the measured deviation for a range of targets.

Usage: python scripts/relaxation_sweep.py [T] [steps]
"""

import sys

import numpy as np

from wassinc import (
    ChatteringControl,
    ControlSignal,
    ParticleCloud,
    RateFunctions,
    convexify,
    relax_approximate,
)
from wassinc.catalog import constants_family


def main() -> int:
    T = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 2000
    family = constants_family([[-1.0], [1.0]], RateFunctions.constant(1.0, 0.0, 0.0, T))
    chat = convexify(family, [ChatteringControl((0, 1), (1, 1))])
    grid = np.linspace(0.0, T, steps + 1)
    signal = ControlSignal(grid=grid, indices=np.zeros(grid.size - 1, dtype=int))
    start = ParticleCloud(np.array([[0.0]]))
    print(f"T = {T}, fine grid = {steps} steps, mixture = (1/2, 1/2) of (-1, +1)")
    print(f"{'target':>8s} {'blocks':>7s} {'measured':>12s} {'meets':>6s} {'guaranteed':>11s}")
    for delta in (0.2, 0.1, 0.05, 0.02):
        _, _, rep = relax_approximate(family, chat, signal, start, delta, p=1)
        c = rep.constants
        print(
            f"{delta:8.3f} {c['n_blocks']:7d} {c['measured_sup']:12.6e} "
            f"{str(rep.passed):>6s} {c['guaranteed_target']:11.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
