"""Scenario configuration: JSON schema, parsing, and initial samplers.

A scenario file is a JSON object with the fields

    p        moment order, real >= 1
    T        time horizon, real > 0
    d, N     dimension and particle count, ints >= 1
    seed     unsigned int feeding the counter-based generator
    initial  sampler spec, one of
               {"kind": "gaussian", "sigma": s}
               {"kind": "uniform", "halfwidth": h}
               {"kind": "two_clusters", "gap": g, "sigma": s}
               {"kind": "atoms", "atoms": [[...], ...]}
    field    {"label": ..., "rates": {"m": ..., "l": ..., "L": ...}, ...params}
    family   {"label": ..., "controls": [...], "rates": {...}}
    grid     {"steps": M} or {"dt": x}
    experiment  {"kind": "simulate" | "peano" | "filippov" | "relax" | "verify", ...}
    slack    relative slack for verdicts, finite in [0, 1), default 0.05

Rates must be declared explicitly (scalars for constant rates, or
{"breakpoints": [...], "values": [...]} per rate); they are never inferred
from the rule.  Each rate's breakpoints run strictly increasing from 0 to
T, with one finite, nonnegative value per segment.  Samplers draw from a
Philox counter-based generator keyed by the seed, one (N, d)
standard-normal or uniform block per cloud, so a given (config, seed) pair
reproduces byte-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import family_from_label, field_from_label
from .dynamics import NonlocalField, RateFunctions
from .errors import ConfigError
from .inclusion import ControlledFamily
from .measure import ParticleCloud

EXPERIMENT_KINDS = ("simulate", "peano", "filippov", "relax", "verify")


@dataclass(frozen=True)
class ScenarioConfig:
    p: float
    T: float
    d: int
    N: int
    seed: int
    initial: dict
    grid: dict
    experiment: dict
    field: dict | None = None
    family: dict | None = None
    slack: float = 0.05

    def __post_init__(self):
        # checked here, not in parse_config, so CLI overrides are checked too
        if not 1 <= self.p < math.inf:
            raise ConfigError(f"'p' must be finite and >= 1, got {self.p}")
        if not 0 < self.T < math.inf:
            raise ConfigError(f"'T' must be finite and positive, got {self.T}")
        if not 0 <= self.slack < 1:  # a slack of 1 accepts twice the bound
            raise ConfigError(f"'slack' must be in [0, 1), got {self.slack}")
        if self.d < 1 or self.N < 1:
            raise ConfigError("'d' and 'N' must be >= 1")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        self.steps()  # a grid without a single step would check nothing

    def steps(self) -> int:
        if "steps" in self.grid:
            steps = int(self.grid["steps"])
            if steps < 1:
                raise ConfigError(f"grid 'steps' must be >= 1, got {steps}")
            return steps
        if "dt" in self.grid:
            dt = float(self.grid["dt"])
            if not dt > 0:
                raise ConfigError(f"grid 'dt' must be positive, got {dt}")
            return max(1, int(round(self.T / dt)))
        raise ConfigError("grid needs either 'steps' or 'dt'")

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps() + 1)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing field '{key}' in {context}")
    return mapping[key]


def _check_seed(seed, name: str = "seed") -> int:
    """A seed is an integer in [0, 2^64), the range of the Philox key."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ConfigError(f"'{name}' must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def ref_seed(config: ScenarioConfig) -> int:
    """Seed of the reference curve's start: the experiment's 'ref_seed',
    by default (seed + 1) mod 2^64."""
    if "ref_seed" in config.experiment:
        return _check_seed(config.experiment["ref_seed"], "ref_seed")
    return (config.seed + 1) % 2**64


def load_config(path: str | Path) -> ScenarioConfig:
    with open(path) as fh:
        return parse_config(json.load(fh))


def parse_config(raw: dict) -> ScenarioConfig:
    p = float(_require(raw, "p", "config"))
    T = float(_require(raw, "T", "config"))
    d = int(_require(raw, "d", "config"))
    N = int(_require(raw, "N", "config"))
    seed = _require(raw, "seed", "config")
    initial = _require(raw, "initial", "config")
    _require(initial, "kind", "config.initial")
    grid = _require(raw, "grid", "config")
    experiment = _require(raw, "experiment", "config")
    kind = _require(experiment, "kind", "config.experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    return ScenarioConfig(
        p=p,
        T=T,
        d=d,
        N=N,
        seed=seed,
        initial=dict(initial),
        grid=dict(grid),
        experiment=dict(experiment),
        field=dict(raw["field"]) if raw.get("field") is not None else None,
        family=dict(raw["family"]) if raw.get("family") is not None else None,
        slack=float(raw.get("slack", 0.05)),
    )


def parse_rates(spec: dict, T: float, context: str) -> RateFunctions:
    """Rates from a config block; scalars mean constant-in-time.

    Each rate is checked on its own breakpoints, which must run strictly
    increasing from 0 to T with one finite, nonnegative value per segment;
    the three rates then share the union of their breakpoints.
    """
    if spec is None:
        raise ConfigError(f"missing field 'rates' in {context} (rates are never inferred)")
    rates = []
    for name in ("m", "l", "L"):
        where = f"{context}.rates.{name}"
        val = _require(spec, name, f"{context}.rates")
        if isinstance(val, dict):
            bp, vv = _require(val, "breakpoints", where), _require(val, "values", where)
        else:
            bp, vv = [0.0, T], [val]
        try:
            rate = RateFunctions(bp, vv, vv, vv)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if rate.duration != T:
            raise ConfigError(f"{where}: breakpoints must end at T = {T}, got {rate.duration}")
        rates.append(rate)
    # resampled as in RateFunctions.maximum: each merged segment read at its left end
    merged = np.unique(np.concatenate([rate.breakpoints for rate in rates]))
    return RateFunctions(merged, *(rate.at(name, merged[:-1]) for rate, name in zip(rates, "mlL")))


def build_field(spec: dict, T: float, context: str = "config.field") -> NonlocalField:
    label = _require(spec, "label", context)
    rates = parse_rates(spec.get("rates"), T, context)
    params = {k: v for k, v in spec.items() if k not in ("label", "rates")}
    return field_from_label(label, rates, params)


def build_family(spec: dict, T: float, context: str = "config.family") -> ControlledFamily:
    label = _require(spec, "label", context)
    controls = _require(spec, "controls", context)
    rates = parse_rates(spec.get("rates"), T, context)
    return family_from_label(label, controls, rates)


def sample_initial(spec: dict, N: int, d: int, seed: int) -> ParticleCloud:
    """Draw the initial cloud; algorithms fixed here for reproducibility.

    gaussian:      sigma * Z with one standard_normal((N, d)) block
    uniform:       one uniform(-h, h, (N, d)) block
    two_clusters:  first ceil(N/2) rows centered at +gap/2 e1, the rest at
                   -gap/2 e1, plus sigma * standard_normal((N, d))
    atoms:         explicit list, must match (N, d)
    """
    kind = _require(spec, "kind", "initial")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(_check_seed(seed))))
    if kind == "gaussian":
        sigma = float(_require(spec, "sigma", "initial(gaussian)"))
        return ParticleCloud(sigma * rng.standard_normal((N, d)))
    if kind == "uniform":
        half = float(_require(spec, "halfwidth", "initial(uniform)"))
        return ParticleCloud(rng.uniform(-half, half, (N, d)))
    if kind == "two_clusters":
        gap = float(_require(spec, "gap", "initial(two_clusters)"))
        sigma = float(_require(spec, "sigma", "initial(two_clusters)"))
        centers = np.zeros((N, d))
        n_right = (N + 1) // 2
        centers[:n_right, 0] = gap / 2.0
        centers[n_right:, 0] = -gap / 2.0
        return ParticleCloud(centers + sigma * rng.standard_normal((N, d)))
    if kind == "atoms":
        atoms = np.asarray(_require(spec, "atoms", "initial(atoms)"), dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.shape != (N, d):
            raise ConfigError(
                f"initial atoms have shape {atoms.shape}, config declares (N, d) = ({N}, {d})"
            )
        return ParticleCloud(atoms)
    raise ConfigError(f"unknown initial sampler kind {kind!r}")
