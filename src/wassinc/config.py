"""Scenario configuration: one checked schema, parsing, and initial samplers.

``parse_config`` reads a scenario's JSON object through the schema's tables
in one pass: each value is typed (an integer is never a bool or fractional,
a real is a JSON number) and range-checked, an absent key takes its
default, and the field, family and ``w`` arrive built.  A sampler, field,
family or experiment has the keys of its "kind" or "label", a ``verify``
experiment also those of its ``what``; a key that no table of its block
names is an error, and an experiment block may hold the keys of every kind
and check, so a kind given on the command line replaces its own.  A seed is an integer in [0, 2^64),
a null ``ref_seed`` (seed + 1) mod 2^64.  A grid has its ``steps``, or
round(T / dt) steps, at least 1.  A run's grid must fit ``MAX_NODES``
nodes and its largest arrays ``MAX_ENTRIES`` entries (see ``_check_sizes``).

Rates must be declared explicitly (scalars for constant rates, or
{"breakpoints": [...], "values": [...]} per rate); they are never inferred
from the rule.  Each rate's breakpoints run strictly increasing from 0 to
T, with one finite, nonnegative value per segment.  Samplers draw from a
Philox counter-based generator keyed by the seed, one (N, d)
standard-normal or uniform block per cloud, so a given (config, seed) pair
reproduces byte-identical outputs.

Every key, rendered from the schema (null: no default):

"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import catalog
from .dynamics import ControlledFamily, RateFunctions, Trajectory, integrate
from .errors import ConfigError
from .measure import ParticleCloud

_REQUIRED = object()
# Ceilings on a run's size, so that a config too large to run exits 2 before
# anything is allocated.  MAX_ENTRIES bounds the trajectory's (steps + 1) x N
# x d positions, the N x N x d of a W_p cost matrix and the kernel field's
# slab, and the 17^d x d mesh of a tracking lattice; the trajectory dominates,
# since the CSV writer holds every entry as text (about 270 bytes each at
# peak).  MAX_NODES bounds the steps + 1 grid nodes, each of which carries
# Python objects of its own (a time, per-node results).  Measured on Python
# 3.11 with numpy 2.4: a run at either ceiling peaks below 360 MiB resident and
# completes under `ulimit -v 786432` (768 MiB).  A probe sample (up to three
# report rows) counts as nodes; at that ceiling < 130 MiB.
MAX_ENTRIES = 2**20
MAX_NODES = 2**17


class Key(NamedTuple):
    """One config key.  ``kind`` "int" or "real" is a number from ``lo`` to
    ``hi``, its ends as ``ends`` shows (a real closed at inf takes "inf");
    "str" is one of ``choices`` if any, which a real also takes; "list" a
    list of ``item``; else a builder ``kind(value, path, top)``.  An absent
    key, or a null one built with a None default, takes ``default``."""

    kind: object
    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "[)"
    default: object = _REQUIRED
    choices: tuple = ()
    item: Key | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked scenario, as ``parse_config`` builds it; ``experiment``
    holds the kind's parameters with their defaults filled in."""

    p: float
    T: float
    d: int
    N: int
    seed: int
    initial: dict
    steps: int
    experiment: dict
    field: ControlledFamily | None = None
    family: ControlledFamily | None = None
    slack: float = 0.05

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    def start(self) -> ParticleCloud:
        """The initial cloud: 'initial' drawn with the config's seed."""
        return sample_initial(self.initial, self.N, self.d, self.seed)

    def reference(self) -> Trajectory:
        """The reference curve: 'w' by Euler steps from 'ref_initial' drawn with ``ref_seed``."""
        exp = self.experiment
        nu0 = sample_initial(exp["ref_initial"], self.N, self.d, ref_seed(self))
        return integrate(exp["w"], nu0, self.time_grid(), method="euler")


def _shown(value) -> str:
    """``value`` as an error message echoes it; an integer past 20 digits by its length."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and abs(value) >= 10**20:
        return f"an integer of {len(str(abs(value)))} digits"
    return repr(value)


def _check_seed(seed, name: str = "seed") -> int:
    """A seed is an integer in [0, 2^64), the range of the Philox key."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ConfigError(f"'{name}' must be an integer in [0, 2^64), got {_shown(seed)}")
    return int(seed)


def _subject(path: str) -> str:
    """How errors name the key at ``path``: config.grid.steps is "grid 'steps'"."""
    block, _, name = path.rpartition(".")
    return f"{block.partition('.')[2]} '{name}'".lstrip()


def _describe(key: Key) -> str:
    """What ``key`` accepts, in the words of its error message."""
    if callable(key.kind):
        return key.kind.__name__.strip("_")
    if key.kind == "list":
        return f"a list, each entry {_describe(key.item)}"
    choices = [f'"{c}"' for c in key.choices]
    if key.kind == "str":
        return " or ".join(choices) or "a string"
    bound = f"{'>' if key.ends[0] == '(' else '>='} {key.lo:g}"
    if key.kind == "int":
        text = f"an integer {bound}" if key.hi == math.inf else f"an integer in [{key.lo:g}, {key.hi:g}]"
    elif key.ends[1] == "]":
        text = f'{bound} or "inf"'
    elif key.hi < math.inf:
        text = f"in {key.ends[0]}{key.lo:g}, {key.hi:g}{key.ends[1]}"
    else:
        text = f"finite and {bound}" if key.lo > -math.inf else "finite"
    return " or ".join([text, *choices])


def _value(key: Key, value, path: str, subject: str, top: dict):
    """``value`` checked against ``key`` and converted to its type."""
    if callable(key.kind):
        return key.kind(value, path, top)
    if key.kind == "list" and isinstance(value, (list, tuple)):
        return tuple(_value(key.item, v, path, f"{subject}[{i}]", top) for i, v in enumerate(value))
    if key.ends[1] == "]" and value == "inf":
        value = math.inf
    if isinstance(value, str) and (value in key.choices or key.kind == "str" and not key.choices):
        return value
    number = isinstance(value, numbers.Integral if key.kind == "int" else numbers.Real)
    if key.kind == "real" and isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        number = False  # float() would overflow
    if key.kind in ("int", "real") and number and not isinstance(value, bool):
        lo_ok = value > key.lo if key.ends[0] == "(" else value >= key.lo
        if lo_ok and (value < key.hi if key.ends[1] == ")" else value <= key.hi):
            return int(value) if key.kind == "int" else float(value)
    raise ConfigError(f"{subject} must be {_describe(key)}, got {_shown(value)}")


def _check(table: dict, raw, path: str, top: dict | None = None) -> dict:
    """The keys of ``table`` read from the object ``raw`` at ``path``; a tuple
    of names shares one entry.  Top-level builders see the values so far."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{_subject(path)} must be an object, got {_shown(raw)}")
    out = {}
    for names, key in table.items():
        names = (names,) if isinstance(names, str) else names
        subject = " and ".join(_subject(f"{path}.{name}") for name in names)
        for name in names:
            if name not in raw or (raw[name] is None and key.default is None and callable(key.kind)):
                if key.default is _REQUIRED:
                    raise ConfigError(f"missing field '{name}' in {path}")
                out[name] = key.default
            else:
                out[name] = _value(key, raw[name], f"{path}.{name}", subject, out if top is None else top)
    return out


def _known(raw: dict, path: str, *tables) -> None:
    """ConfigError naming the first key of the object ``raw`` at ``path`` that no
    table of ``tables`` names (a table: a dict of keys, or an iterable of names)."""
    names = {name for table in tables for key in table for name in ([key] if isinstance(key, str) else key)}
    unknown = [key for key in raw if key not in names]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {path}")


def _tagged(raw, path: str, top: dict, tag: str, tables: dict) -> dict:
    """A block whose ``tag`` key names the table of its other keys."""
    name = _check({tag: Key("str")}, raw, path, top)[tag]
    if name not in tables:
        raise ConfigError(f"unknown {path.rpartition('.')[2]} {tag} {name!r}, not one of {list(tables)}")
    return {tag: name, **_check(tables[name], raw, path, top)}


def _seed(value, path: str, top: dict) -> int:
    return _check_seed(value, path.rpartition(".")[2])


def _sampler(raw, path: str, top: dict) -> dict:
    spec = _tagged(raw, path, top, "kind", SAMPLERS)
    _known(raw, path, ["kind"], *SAMPLERS.values())
    if spec["kind"] == "atoms" and (len(spec["atoms"]), {len(row) for row in spec["atoms"]}) != (top["N"], {top["d"]}):
        rows, entries = _shown(top["N"]), _shown(top["d"])
        raise ConfigError(f"{_subject(path + '.atoms')} must be N = {rows} rows of d = {entries} entries")
    return spec


def _grid(raw, path: str, top: dict) -> int:
    grid = _check(GRID, raw, path)
    _known(raw, path, GRID)
    if grid["steps"] is None and grid["dt"] is None:
        raise ConfigError("grid needs either 'steps' or 'dt'")
    if grid["steps"] is None and top["T"] / grid["dt"] == math.inf:
        raise ConfigError(f"grid 'dt' must leave T / dt finite, got {grid['dt']!r}")
    return grid["steps"] or max(1, round(top["T"] / grid["dt"]))


def _field(spec, path: str, top: dict) -> ControlledFamily:
    return build_field(spec, top["T"], top["d"], path)


def _family(spec, path: str, top: dict) -> ControlledFamily:
    return build_family(spec, top["T"], top["d"], path)


def _experiment(raw, path: str, top: dict) -> dict:
    exp = _tagged(raw, path, top, "kind", EXPERIMENTS)
    if exp["kind"] == "verify":
        exp.update(_tagged(raw, path, top, "what", CHECKS))
    _known(raw, path, ["kind", "what"], *EXPERIMENTS.values(), *CHECKS.values())
    name = exp.get("what", exp["kind"])
    needs = NEEDS.get(name, ("field",))
    if all(top[block] is None for block in needs):
        raise ConfigError(f"{name} needs a {' or '.join(map(repr, needs))} block")
    return exp


FINITE, NONNEGATIVE, POSITIVE = Key("real", ends="()"), Key("real", 0), Key("real", 0, ends="()")
COUNT, INDEX, RADIUS = Key("int", 1), Key("int", 0), Key("real", 0, ends="(]")
ANY = Key(lambda value, path, top: value)  # checked where it is read
TOP = {
    "p": Key("real", 1),
    "T": POSITIVE,
    ("d", "N"): COUNT,
    "seed": Key(_seed),
    "slack": Key("real", 0, 1, default=0.05),
    "initial": Key(_sampler),
    "grid": Key(_grid),
    "field": Key(_field, default=None),
    "family": Key(_family, default=None),
    "experiment": Key(_experiment),
}
GRID = {"steps": COUNT._replace(default=None), "dt": POSITIVE._replace(default=None)}
SAMPLERS = {
    "gaussian": {"sigma": NONNEGATIVE},
    "uniform": {"halfwidth": NONNEGATIVE},
    "two_clusters": {"gap": NONNEGATIVE, "sigma": NONNEGATIVE},
    "atoms": {"atoms": Key("list", item=Key("list", item=FINITE))},
}
# a field label names its catalog builder <label>_field, a family label <label>_family
FIELDS = {
    "zero": {},
    "constant": {"vector": Key("list", item=FINITE)},
    "linear_decay": {},
    "mean_attraction": {"kappa": FINITE},
    "bounded_kernel": {},
    "rotation": {},
}
FAMILIES = {
    "constants": {"controls": Key("list", item=Key("list", item=FINITE))},
    "gain": {"controls": Key("list", item=FINITE)},
    "mean_gain": {"controls": Key("list", item=FINITE)},
}
TWO_CURVES = {"w": Key(_field), "ref_initial": Key(_sampler), "ref_seed": Key(_seed, default=None)}
TRACKING = {"tol": POSITIVE._replace(default=1e-9), "max_iter": COUNT._replace(default=25)}
EXPERIMENTS = {
    "simulate": {"method": Key("str", choices=("euler", "rk4"), default="euler")},
    "peano": {
        "n": COUNT,
        "substeps": COUNT._replace(default=1),
        "strategy": Key("str", choices=("first", "min_norm", "random"), default="first"),
        "n_list": Key("list", item=COUNT, default=None),
    },
    "filippov": {**TWO_CURVES, "R": RADIUS._replace(default=math.inf), **TRACKING},
    "relax": {
        "delta": POSITIVE,
        "bases": Key("list", item=INDEX),
        "weights": Key("list", item=INDEX),
        "weight_steps": COUNT._replace(hi=MAX_NODES - 1, ends="[]"),
        "radius_policy": POSITIVE._replace(default="tail_rule", choices=("tail_rule",)),
        **TRACKING,
        "integration_substeps": COUNT._replace(default=1),
    },
    "verify": {},
}
CHECKS = {
    "momentum": {},
    "equi_integrability": {"R_list": Key("list", item=NONNEGATIVE, default=(1.0, 2.0, 5.0))},
    "abs_continuity": {},
    "gronwall_global": TWO_CURVES,
    "gronwall_local": {**TWO_CURVES, "R": RADIUS},
    "hypotheses_probe": {"samples": COUNT._replace(default=1000, hi=MAX_NODES // 3, ends="[]")},
}
# the blocks a kind or check can run on (the first one present); the others need a field
NEEDS = {
    "peano": ("family",), "filippov": ("family",), "relax": ("family",), "hypotheses_probe": ("family", "field"),
}


def _schema_rows():
    """(block, key, default, what it accepts) for every key of the schema."""
    tables = {"config": TOP, "grid": GRID, **SAMPLERS, **FIELDS, **FAMILIES, **EXPERIMENTS, **CHECKS}
    for block, table in tables.items():
        for names, key in table.items():
            default = "required" if key.default is _REQUIRED else json.dumps(key.default)
            yield block, ", ".join([names] if isinstance(names, str) else names), default, _describe(key)


if __doc__:  # None under python -OO
    __doc__ += "".join(
        "    %-19s %-20s %-16s %s\n" % row for row in [("block", "key", "default", "accepts"), *_schema_rows()]
    )


def ref_seed(config: ScenarioConfig) -> int:
    """Seed of the reference curve's start: the experiment's 'ref_seed',
    by default (seed + 1) mod 2^64."""
    seed = config.experiment["ref_seed"]
    return (config.seed + 1) % 2**64 if seed is None else seed


def load_config(path: str | Path, kind: str | None = None, **overrides) -> ScenarioConfig:
    return parse_config(json.loads(Path(path).read_text()), kind, **overrides)


def parse_config(raw: dict, kind: str | None = None, **overrides) -> ScenarioConfig:
    """Check ``raw`` against the schema in one pass and build its values.
    ``kind`` replaces the declared experiment kind, and ``overrides`` (seed,
    N, p, or steps for the whole grid; None: not given) the config's values."""
    given = {key: value for key, value in overrides.items() if value is not None}
    if "steps" in given:
        given["grid"] = {"steps": given.pop("steps")}
    if isinstance(raw, dict):
        if kind is not None and isinstance(raw.get("experiment"), dict):
            given["experiment"] = {**raw["experiment"], "kind": kind}
        raw = {**raw, **given}
    top = _check(TOP, raw, "config")
    _known(raw, "config", TOP)
    _check_sizes(top)
    return ScenarioConfig(steps=top.pop("grid"), **top)


def _check_sizes(top: dict) -> None:
    """ConfigError unless the grid fits MAX_NODES and the trajectory, the
    N x N x d arrays and the tracking lattice of a relax run or a filippov
    run with finite R fit MAX_ENTRIES (and a relax run's weights and bases
    fit its weight grid and family).
    A peano run has n * substeps steps, each n of ``n_list`` too, and its unused
    grid is checked all the same; a relax run's tracked grid up to one node per
    weight slot and substep of each step."""
    exp, N, d = top["experiment"], top["N"], top["d"]
    steps = declared = top["grid"]
    if exp["kind"] == "peano":
        ns = exp["n_list"]
        if ns is not None and (len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:]))):
            raise ConfigError("experiment 'n_list' must be strictly increasing with at least two entries")
        steps = max([exp["n"], *(ns or ())]) * exp["substeps"]
    elif exp["kind"] == "relax":
        q = len(exp["bases"])
        if len(exp["weights"]) != q or sum(exp["weights"]) != exp["weight_steps"]:
            raise ConfigError("experiment 'weights' must be one per base, summing to 'weight_steps'")
        if max(exp["bases"]) >= top["family"].size:
            raise ConfigError(f"experiment 'bases' must be control indices below {top['family'].size}")
        steps *= q * exp["integration_substeps"]
    if max(steps, declared) + 1 > MAX_NODES:
        raise ConfigError(f"steps + 1 must be at most {MAX_NODES} grid nodes")
    sizes = [("(steps + 1) x 'N' x 'd'", (steps + 1) * N * d), ("'N' x 'N' x 'd'", N * N * d)]
    if exp["kind"] == "relax" or exp["kind"] == "filippov" and exp["R"] < math.inf:
        # ball_grid(R, d, R / 8) meshes 17 points an axis; 17^5 > MAX_ENTRIES, so d > 5 needs no power
        sizes.append(("the tracking lattice's 17^'d' x 'd'", 17 ** min(d, 5) * d))
    for what, entries in sizes:
        if entries > MAX_ENTRIES:
            raise ConfigError(f"{what} must be at most {MAX_ENTRIES} array entries")


def parse_rates(spec: dict, T: float, context: str) -> RateFunctions:
    """Rates from a config block; scalars mean constant-in-time.

    Each rate is checked on its own breakpoints, which must run strictly
    increasing from 0 to T with one finite, nonnegative value per segment;
    the three rates then share the union of their breakpoints.
    """
    rates, given = [], _check(dict.fromkeys("mlL", ANY), spec, f"{context}.rates")
    _known(spec, f"{context}.rates", given)
    for name, val in given.items():
        where = f"{context}.rates.{name}"
        if isinstance(val, dict):
            bp, vv = _check({"breakpoints": ANY, "values": ANY}, val, where).values()
            _known(val, where, ["breakpoints", "values"])
        else:
            bp, vv = [0.0, T], [val]
        try:
            if any(np.asarray(x).dtype.kind not in "iuf" for x in (bp, vv)):  # no strings or bools
                raise TypeError(f"must be a number, or breakpoints and values of numbers, got {val!r}")
            rate = RateFunctions(bp, vv, vv, vv)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if rate.duration != T:
            raise ConfigError(f"{where}: breakpoints must end at T = {T}, got {rate.duration}")
        rates.append(rate)
    # resampled as in RateFunctions.maximum: each merged segment read at its left end
    merged = np.unique(np.concatenate([rate.breakpoints for rate in rates]))
    return RateFunctions(merged, *(rate.at(name, merged[:-1]) for rate, name in zip(rates, "mlL")))


def _check_dims(params: dict, context: str, d: int) -> None:
    """ConfigError unless a constant field's 'vector' and each control of a
    constants family have d entries."""
    name = {"constant": "vector", "constants": "controls"}.get(params["label"])
    for i, row in enumerate([params[name]] if name == "vector" else params.get(name, ())):
        if len(row) != d:
            where = _subject(f"{context}.{name}") + (f"[{i}]" if name == "controls" else "")
            raise ConfigError(f"{where} must have d = {d} entries, got {len(row)}")


def build_field(spec: dict, T: float, d: int, context: str = "config.field") -> ControlledFamily:
    params = _tagged(spec, context, {}, "label", FIELDS)
    _known(spec, context, ["label", "rates"], *FIELDS.values())
    _check_dims(params, context, d)
    builder = getattr(catalog, params.pop("label") + "_field")
    return builder(**params, rates=parse_rates(spec.get("rates"), T, context))


def build_family(spec: dict, T: float, d: int, context: str = "config.family") -> ControlledFamily:
    params = _tagged(spec, context, {}, "label", FAMILIES)
    _known(spec, context, ["label", "rates"], *FAMILIES.values())
    _check_dims(params, context, d)
    builder = getattr(catalog, params.pop("label") + "_family")
    return builder(**params, rates=parse_rates(spec.get("rates"), T, context))


def sample_initial(spec: dict, N: int, d: int, seed: int) -> ParticleCloud:
    """Draw the initial cloud; algorithms fixed here for reproducibility.

    gaussian:      sigma * Z with one standard_normal((N, d)) block
    uniform:       one uniform(-h, h, (N, d)) block
    two_clusters:  first ceil(N/2) rows centered at +gap/2 e1, the rest at
                   -gap/2 e1, plus sigma * standard_normal((N, d))
    atoms:         explicit list of N rows of d coordinates

    ``spec`` is checked as the config's 'initial' sampler is.
    """
    spec = _sampler(spec, "config.initial", {"N": N, "d": d})
    rng = np.random.Generator(np.random.Philox(key=np.uint64(_check_seed(seed))))
    kind = spec["kind"]
    if kind == "gaussian":
        return ParticleCloud(spec["sigma"] * rng.standard_normal((N, d)))
    if kind == "uniform":
        return ParticleCloud(rng.uniform(-spec["halfwidth"], spec["halfwidth"], (N, d)))
    if kind == "atoms":
        return ParticleCloud(np.array(spec["atoms"], dtype=float))
    centers = np.zeros((N, d))
    n_right = (N + 1) // 2
    centers[:n_right, 0] = spec["gap"] / 2.0
    centers[n_right:, 0] = -spec["gap"] / 2.0
    return ParticleCloud(centers + spec["sigma"] * rng.standard_normal((N, d)))
