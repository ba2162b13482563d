"""Per-module tracing of wassinc from outside the package.

``Tracer.install`` wraps every public function of each traced module in
every ``wassinc`` module namespace that holds it (the modules import
names directly, e.g. ``filippov.wasserstein_cost``), plus the few hooks
the per-module metrics need: the assignment solver as called from
``measure``, CSV digesting in ``runner``, ParticleCloud construction,
rate integrals, and the field / family rules returned by
``config.build_field`` / ``config.build_family``.  ``Tracer.remove``
restores every original.  Spans (operation, id, parent, name, start,
end, self time, value) are kept in memory, eight doubles each in one flat
array (a traced ``suite`` run records about 700 000), and written by
``write``.

A span's self time is its duration minus the durations of its direct
child spans.  ``op_metrics`` turns the spans and counters recorded since
the last ``install`` into the per-module metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from pathlib import Path

# Modules that get a layer of their own.  ``bounds`` is closed-form
# arithmetic and ``errors`` only holds exception types, so their time is
# charged to the calling layer.
LAYERS = (
    "measure",
    "dynamics",
    "catalog",
    "inclusion",
    "filippov",
    "relax",
    "verify",
    "runner",
    "config",
    "cli",
)

WP_SPANS = ("measure.wasserstein", "measure.wasserstein_cost")
TRACK_SPAN = "filippov.filippov_track"
CSV_SPANS = (
    "runner.write_trajectory_csv",
    "runner.write_signal_csv",
    "runner.write_report_csv",
)

# (name, unit, better) of every per-module metric, per operation.
# ``*_s`` metrics are self times; ``<layer>.s`` is a layer's total self time.
PER_LAYER = [
    ("measure.wp_calls", "count", "lower"),
    ("measure.wp_s", "s", "lower"),
    ("measure.pairwise_s", "s", "lower"),
    ("measure.pairwise_entries", "count", "lower"),
    ("measure.assign_s", "s", "lower"),
    ("measure.moment_calls", "count", "lower"),
    ("dynamics.integrate_calls", "count", "lower"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.integrate_s", "s", "lower"),
    ("dynamics.clouds_built", "count", "lower"),
    ("dynamics.dsup_calls", "count", "lower"),
    ("dynamics.dsup_s", "s", "lower"),
    ("dynamics.rate_integral_calls", "count", "lower"),
    ("catalog.rule_calls", "count", "lower"),
    ("catalog.rule_rows", "count", "lower"),
    ("catalog.rule_s", "s", "lower"),
    ("inclusion.peano_s", "s", "lower"),
    ("inclusion.residual_s", "s", "lower"),
    ("inclusion.refinement_s", "s", "lower"),
    ("filippov.track_s", "s", "lower"),
    ("filippov.mismatch_s", "s", "lower"),
    ("filippov.bound_s", "s", "lower"),
    ("filippov.iterations", "count", "lower"),
    ("filippov.wp_per_iteration", "ratio", "lower"),
    ("relax.convexify_s", "s", "lower"),
    ("relax.realize_s", "s", "lower"),
    ("relax.approximate_s", "s", "lower"),
    ("runner.csv_s", "s", "lower"),
    ("runner.csv_bytes", "bytes", "lower"),
    ("runner.digest_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("config.sample_s", "s", "lower"),
] + [(f"{layer}.s", "s", "lower") for layer in LAYERS] + [
    ("trace.overhead", "ratio", "lower"),
]

COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))
FIELDS = ("op", "id", "parent", "name", "start", "end", "self_s", "value")


class Tracer:
    """Wraps wassinc functions with spans; one instance per benchmark run."""

    def __init__(self):
        self.op = -1
        self.spans = array("d")  # FIELDS of every span, flat; names as indices
        self.names = {}  # span name -> index
        self.counters = defaultdict(int)  # (op, name) -> count
        self._stack = []  # open spans: [id, name, start, child_s]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)
        self._first = 0  # offset in spans of the current operation

    # -- spans -----------------------------------------------------------

    def _wrap(self, name, fn, value=None, post=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        index = self.names.setdefault(name, len(self.names))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, name, clock(), 0.0]
            stack.append(frame)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                v = value(result, args) if value is not None and returned else 0
                if name in WP_SPANS and any(f[1] == TRACK_SPAN for f in stack):
                    self.counters[(self.op, "filippov.wp_under_track")] += 1
                spans.extend(
                    (self.op, span_id, parent, index, frame[2], end, duration - frame[3], v)
                )
            return post(result) if post is not None else result

        return wrapper

    def _count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[(self.op, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    # -- install / remove ---------------------------------------------------

    def install(self):
        """Wrap every public function of the traced modules, everywhere it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import wassinc

        self._first = len(self.spans)
        modules = {layer: importlib.import_module(f"wassinc.{layer}") for layer in LAYERS}
        namespaces = [wassinc] + [
            importlib.import_module(f"wassinc.{m}") for m in ("bounds", "errors")
        ] + list(modules.values())

        def rule_wrapper(rule):
            return self._wrap("catalog.rule", rule, value=_rows)

        def with_traced_rule(obj):
            return dataclasses.replace(obj, rule=rule_wrapper(obj.rule))

        special = {
            "measure.pairwise_cost": dict(value=_size),
            "dynamics.integrate": dict(value=_steps),
            "filippov.filippov_track": dict(value=_iterations),
            "config.build_field": dict(post=with_traced_rule),
            "config.build_family": dict(post=with_traced_rule),
        }
        for name in CSV_SPANS:
            special[name] = dict(value=_file_bytes)

        replacements = {}
        for layer, module in modules.items():
            for attribute, obj in vars(module).items():
                if attribute.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attribute}"
                replacements[id(obj)] = self._wrap(name, obj, **special.get(name, {}))
        for namespace in namespaces:
            for attribute, obj in list(vars(namespace).items()):
                if id(obj) in replacements:
                    self._patch(namespace, attribute, replacements[id(obj)])

        measure, runner = modules["measure"], modules["runner"]
        self._patch(
            measure,
            "linear_sum_assignment",
            self._wrap("measure.linear_sum_assignment", measure.linear_sum_assignment),
        )
        self._patch(runner, "_digest", self._wrap("runner._digest", runner._digest))
        cloud = measure.ParticleCloud
        self._patch(cloud, "__post_init__", self._count("dynamics.clouds_built", cloud.__post_init__))
        rates = modules["dynamics"].RateFunctions
        self._patch(rates, "integral", self._count("dynamics.rate_integral_calls", rates.integral))

    def remove(self):
        """Restore every original, in reverse order of patching."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results ------------------------------------------------------------

    def op_metrics(self):
        """Per-module metrics of the last installed operation (all but ``trace.overhead``)."""
        import numpy as np

        rows = np.asarray(self.spans[self._first :]).reshape(-1, len(FIELDS))
        index = rows[:, FIELDS.index("name")].astype(int)

        def by_name(field=None):
            weights = None if field is None else rows[:, FIELDS.index(field)]
            sums = np.bincount(index, weights=weights, minlength=len(self.names))
            return defaultdict(float, {name: float(sums[i]) for name, i in self.names.items()})

        calls, self_s, value = by_name(), by_name("self_s"), by_name("value")
        layer_s = defaultdict(float)
        for name, own in self_s.items():
            layer_s[name.partition(".")[0]] += own

        def total(table, *names):
            return sum(table[n] for n in names)

        def counter(name):
            return self.counters.get((self.op, name), 0)

        iterations = int(value[TRACK_SPAN])
        under_track = counter("filippov.wp_under_track")
        metrics = {
            "measure.wp_calls": int(total(calls, *WP_SPANS)),
            "measure.wp_s": total(self_s, *WP_SPANS),
            "measure.pairwise_s": self_s["measure.pairwise_cost"],
            "measure.pairwise_entries": int(value["measure.pairwise_cost"]),
            "measure.assign_s": self_s["measure.linear_sum_assignment"],
            "measure.moment_calls": int(calls["measure.moment"]),
            "dynamics.integrate_calls": int(calls["dynamics.integrate"]),
            "dynamics.steps": int(value["dynamics.integrate"]),
            "dynamics.integrate_s": self_s["dynamics.integrate"],
            "dynamics.clouds_built": counter("dynamics.clouds_built"),
            "dynamics.dsup_calls": int(calls["dynamics.dsup_probe"]),
            "dynamics.dsup_s": self_s["dynamics.dsup_probe"],
            "dynamics.rate_integral_calls": counter("dynamics.rate_integral_calls"),
            "catalog.rule_calls": int(calls["catalog.rule"]),
            "catalog.rule_rows": int(value["catalog.rule"]),
            "catalog.rule_s": self_s["catalog.rule"],
            "inclusion.peano_s": self_s["inclusion.peano_solve"],
            "inclusion.residual_s": self_s["inclusion.inclusion_residual"],
            "inclusion.refinement_s": self_s["inclusion.refinement_study"],
            "filippov.track_s": self_s[TRACK_SPAN],
            "filippov.mismatch_s": self_s["filippov.mismatch"],
            "filippov.bound_s": self_s["filippov.compute_bound"],
            "filippov.iterations": iterations,
            "filippov.wp_per_iteration": under_track / iterations if iterations else 0.0,
            "relax.convexify_s": self_s["relax.convexify"],
            "relax.realize_s": self_s["relax.aumann_realize"],
            "relax.approximate_s": self_s["relax.relax_approximate"],
            "runner.csv_s": total(self_s, *CSV_SPANS),
            "runner.csv_bytes": int(total(value, *CSV_SPANS)),
            "runner.digest_s": self_s["runner._digest"],
            "config.load_s": total(self_s, "config.load_config", "config.parse_config"),
            "config.sample_s": self_s["config.sample_initial"],
        }
        for layer in LAYERS:
            metrics[f"{layer}.s"] = layer_s[layer]
        return metrics

    def write(self, path: Path):
        """Write every recorded span as CSV, one row per span."""
        names = list(self.names)
        fields = iter(self.spans)
        with open(path, "w") as fh:
            fh.write(",".join(FIELDS) + "\n")
            for op, span_id, parent, name, start, end, own, v in zip(*[fields] * len(FIELDS)):
                fh.write(
                    f"{op:.0f},{span_id:.0f},{parent:.0f},{names[int(name)]},"
                    f"{start!r},{end!r},{own!r},{v:.0f}\n"
                )


def _rows(result, args):
    return int(result.shape[0])


def _size(result, args):
    return int(result.size)


def _steps(result, args):
    return int(result.grid.size - 1)


def _iterations(result, args):
    return int(result[2].iterations)


def _file_bytes(result, args):
    return Path(args[0]).stat().st_size
