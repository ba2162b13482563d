import itertools
import json
import math

import numpy as np
import pytest

from wassinc import ChatteringControl, ControlSignal, ParticleCloud, RateFunctions, signal_field
from wassinc.cli import main as cli_main


def cloud(*points) -> ParticleCloud:
    return ParticleCloud(np.array(points, dtype=float))


def delta(*coords) -> ParticleCloud:
    return ParticleCloud(np.array([coords], dtype=float))


def random_cloud(rng, n, d, scale=2.0) -> ParticleCloud:
    return ParticleCloud(scale * rng.standard_normal((n, d)))


def assignment_cost(D, assignment) -> float:
    """Exactly rounded sum of the entries D[i, assignment[i]] (order independent),
    the total an exhaustive oracle compares with the solver's."""
    return math.fsum(D[np.arange(len(D)), list(assignment)].tolist())


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240))


def const_rates(m, l, L, T=1.0) -> RateFunctions:
    return RateFunctions.constant(m, l, L, T)


def control_field(family, k):
    """Control k of ``family`` alone, as a velocity field (a family of one control) on [0, T]."""
    return signal_field(family, ControlSignal(np.array([0.0, family.rates.duration]), [k]))


def mixtures(size, q, steps):
    """Every q-fold mixture of ``size`` controls with weights on the grid of
    1/steps: bases in any order, repeated too, and zero weights included."""
    weights = [k for k in itertools.product(range(steps + 1), repeat=q) if sum(k) == steps]
    return [ChatteringControl(b, k) for b in itertools.product(range(size), repeat=q) for k in weights]


def fast_constant_field(rates=None, **top):
    """Momentum check of a constant field of speed 5 on four particles;
    its default declared m = 0.01 is far too small, so the check fails."""
    raw = {
        "p": 1, "T": 1.0, "d": 1, "N": 4, "seed": 7,
        "initial": {"kind": "gaussian", "sigma": 1.0},
        "field": {"label": "constant", "vector": [5.0],
                  "rates": rates or {"m": 0.01, "l": 0.0, "L": 0.0}},
        "grid": {"steps": 10},
        "experiment": {"kind": "verify", "what": "momentum"},
    }
    raw.update(top)
    return raw


def run_cli(tmp_path, command, raw, *flags):
    """Write ``raw`` as a config file and run the CLI on it: (exit code, output dir)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    return cli_main([command, "--config", str(path), "--out", str(out), *flags]), out
