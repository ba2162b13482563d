"""The benchmark's workloads: seeded inputs, the operation each runs, and
independent checks of its outputs.

One operation is one or more ``wassinc.cli.main`` calls writing into a
fresh output directory.  ``track``, ``kernel`` and ``gronwall1d`` write
their configs from the seed; ``suite`` runs the committed
``scenarios/*.json`` as they are, in file-name order; its seed is unused
(scenario order alone moved the pass time by up to 9 %).

Checks never reuse wassinc code: initial clouds are redrawn from the
documented samplers, reference curves are re-integrated with plain
Euler steps, and W_p is recomputed independently (sorting in 1-d,
scipy's assignment solver otherwise).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

DEFAULT_SEED = 0

# Parameters per size.  ``smoke`` exists for the benchmark's own tests.
# The assignment solver's time depends on the data: with one config per
# operation, track's and gronwall1d's cost moved by about 7 % from seed to
# seed.  An operation therefore runs ``configs`` configs, with config seeds
# seed * configs + j, which averages that out.  The kernel rule's cost does
# not depend on the data.
SIZES = {
    "full": {
        "track": {"configs": 4, "N": 128, "steps": 20, "max_iter": 10},
        "kernel": {"configs": 1, "N": 384, "steps": 30},
        "gronwall1d": {"configs": 4, "N": 256, "steps": 20},
    },
    "smoke": {
        "track": {"configs": 2, "N": 12, "steps": 8, "max_iter": 3},
        "kernel": {"configs": 1, "N": 16, "steps": 10},
        "gronwall1d": {"configs": 2, "N": 16, "steps": 20},
    },
}

REL_TOL = 1e-9
# Rows per block in the checks' N x N computations, so that the checks'
# memory stays well below the program's and peak_rss_mb measures wassinc.
CHECK_BLOCK = 32
REFERENCE = Path(__file__).parent / "reference_digests.json"


def track_config(seed, N, steps, max_iter):
    """Filippov tracking, d = 2, p = 2, finite R; tol is below any reachable
    gap so every one of ``max_iter`` iterations runs."""
    return {
        "p": 2,
        "T": 1.0,
        "d": 2,
        "N": N,
        "seed": seed,
        "initial": {"kind": "gaussian", "sigma": 1.0},
        "family": {
            "label": "mean_gain",
            "controls": [0.5, 1.0, 2.0],
            "rates": {"m": 2.0, "l": 2.0, "L": 2.0},
        },
        "grid": {"steps": steps},
        "experiment": {
            "kind": "filippov",
            "R": 2.5,
            "tol": 1e-300,
            "max_iter": max_iter,
            "w": {
                "label": "mean_attraction",
                "kappa": 1.25,
                "rates": {"m": 1.25, "l": 1.25, "L": 1.25},
            },
            "ref_initial": {"kind": "uniform", "halfwidth": 1.5},
        },
    }


def kernel_config(seed, N, steps):
    """``simulate`` of the saturating pairwise kernel, d = 2, Euler."""
    return {
        "p": 2,
        "T": 1.0,
        "d": 2,
        "N": N,
        "seed": seed,
        "initial": {"kind": "uniform", "halfwidth": 2.0},
        "field": {"label": "bounded_kernel", "rates": {"m": 1.0, "l": 1.0, "L": 1.0}},
        "grid": {"steps": steps},
        "experiment": {"kind": "simulate", "method": "euler"},
    }


def gronwall1d_config(seed, N, steps):
    """``verify gronwall_local`` in 1-d, p = 1: two clusters attracted to
    their mean against a gaussian under linear decay."""
    return {
        "p": 1,
        "T": 1.0,
        "d": 1,
        "N": N,
        "seed": seed,
        "initial": {"kind": "two_clusters", "gap": 4.0, "sigma": 0.5},
        "field": {"label": "mean_attraction", "kappa": 1.0, "rates": {"m": 1.0, "l": 1.0, "L": 1.0}},
        "grid": {"steps": steps},
        "experiment": {
            "kind": "verify",
            "what": "gronwall_local",
            "R": 2.0,
            "w": {"label": "linear_decay", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}},
            "ref_initial": {"kind": "gaussian", "sigma": 1.0},
        },
    }


GENERATED = {
    "track": ("filippov", track_config),
    "kernel": ("simulate", kernel_config),
    "gronwall1d": ("verify", gronwall1d_config),
}


@dataclass
class Call:
    """One ``wassinc.cli.main`` call and the config it was generated from."""

    argv: list
    config_path: Path
    out: Path
    config: dict
    stem: str


class Workload:
    """Inputs and checks of one workload in one benchmark run."""

    def __init__(self, name, seed, root: Path, work: Path, size="full"):
        if name != "suite" and name not in GENERATED:
            raise ValueError(f"unknown workload {name!r}")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.name = name
        self.seed = seed
        self.size = size
        self.out = work / "out"
        self.calls = []
        if name == "suite":
            paths = sorted((root / "scenarios").glob("*.json"))
            if not paths:
                raise FileNotFoundError(f"no scenarios under {root / 'scenarios'}")
            for path in paths:
                config = json.loads(path.read_text())
                kind = config["experiment"]["kind"]
                self._add(kind, path, config, path.stem)
        else:
            kind, make = GENERATED[name]
            params = dict(SIZES[size][name])
            configs = params.pop("configs")
            for j in range(configs):
                config = make(seed * configs + j, **params)
                path = work / f"{name}-{j}.json"
                path.write_text(json.dumps(config, indent=1) + "\n")
                self._add(kind, path, config, path.stem)

    def _add(self, kind, path, config, stem):
        out = self.out / stem
        argv = [kind, "--config", str(path), "--out", str(out)]
        self.calls.append(Call(argv, path, out, config, stem))

    def reference(self):
        """Committed digests this run's operations must reproduce, or None.

        Recorded at ``DEFAULT_SEED`` and full size; ``suite`` always has
        them, since its inputs are the committed scenarios.
        """
        if self.name != "suite" and (self.seed != DEFAULT_SEED or self.size != "full"):
            return None
        return json.loads(REFERENCE.read_text())[self.name]

    def config_paths(self):
        return [call.config_path for call in self.calls]

    def check(self):
        """Problems found in the outputs of the last operation (empty if none)."""
        problems = []
        for call in self.calls:
            try:
                problems += _manifest_problems(call.out)
                if self.name in CHECKS:
                    problems += CHECKS[self.name](call)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"{call.stem}: unreadable output ({exc!r})")
        return problems

    def digests(self):
        """sha256 of every file the last operation left, by relative path."""
        return {
            str(path.relative_to(self.out)): _sha256(path)
            for path in sorted(self.out.rglob("*"))
            if path.is_file()
        }


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_problems(out: Path):
    manifest = json.loads((out / "manifest.json").read_text())
    problems = [
        f"{out.name}/{name}: manifest digest differs from the file"
        for name, digest in manifest["files"].items()
        if _sha256(out / name) != digest
    ]
    problems += [f"{out.name}: verdict {k} failed" for k, ok in manifest["verdicts"].items() if not ok]
    return problems


# -- independent reference computations ------------------------------------


def sample(spec, N, d, seed):
    """The documented samplers of ``wassinc.config.sample_initial``."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    kind = spec["kind"]
    if kind == "gaussian":
        return spec["sigma"] * rng.standard_normal((N, d))
    if kind == "uniform":
        return rng.uniform(-spec["halfwidth"], spec["halfwidth"], (N, d))
    if kind == "two_clusters":
        centers = np.zeros((N, d))
        centers[: (N + 1) // 2, 0] = spec["gap"] / 2.0
        centers[(N + 1) // 2 :, 0] = -spec["gap"] / 2.0
        return centers + spec["sigma"] * rng.standard_normal((N, d))
    raise ValueError(f"no reference sampler for {kind!r}")


def euler(X, config, velocity):
    """Every node of a plain Euler integration on the config's grid."""
    grid = np.linspace(0.0, config["T"], config["grid"]["steps"] + 1)
    nodes = [X]
    for k in range(grid.size - 1):
        X = X + (grid[k + 1] - grid[k]) * velocity(X)
        nodes.append(X)
    return nodes


def attraction(kappa):
    return lambda X: kappa * (X.mean(axis=0)[None, :] - X)


def kernel_velocity(X):
    """The saturating kernel's velocity, in row blocks of CHECK_BLOCK."""
    V = np.empty_like(X)
    for i in range(0, X.shape[0], CHECK_BLOCK):
        diff = X[i : i + CHECK_BLOCK, None, :] - X[None, :, :]
        V[i : i + CHECK_BLOCK] = (-diff / (1.0 + np.linalg.norm(diff, axis=2, keepdims=True))).mean(axis=1)
    return V


def wasserstein(a, b, p):
    """Exact W_p between equal-size uniform clouds."""
    if a.shape[1] == 1 and p == 1:
        return float(np.mean(np.abs(np.sort(a[:, 0]) - np.sort(b[:, 0]))))
    D = np.empty((a.shape[0], b.shape[0]))
    for i in range(0, a.shape[0], CHECK_BLOCK):
        D[i : i + CHECK_BLOCK] = np.linalg.norm(a[i : i + CHECK_BLOCK, None, :] - b[None, :, :], axis=2) ** p
    rows, cols = linear_sum_assignment(D)
    return (math.fsum(D[rows, cols].tolist()) / a.shape[0]) ** (1.0 / p)


def trajectory_nodes(path: Path, N, nodes):
    """Positions of the given node indices (negative ones count from the
    end) from a trajectory.csv, and its row count.  The file is streamed
    twice, so only the requested nodes are held."""
    with path.open() as f:
        n_rows = sum(1 for _ in f) - 1
    starts = {(k if k >= 0 else n_rows // N + k) * N: k for k in nodes}
    out = {k: [] for k in nodes}
    with path.open() as f:
        next(f)
        for i, line in enumerate(f):
            start = i - i % N
            if start in starts:
                out[starts[start]].append([float(v) for v in line.split(",")[2:]])
    return {k: np.array(rows) for k, rows in out.items()}, n_rows


def report_column(path: Path, column="measured"):
    with path.open() as f:
        idx = next(f).rstrip("\n").split(",").index(column)
        return np.array([float(line.split(",")[idx]) for line in f])


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_track(call: Call):
    cfg = call.config
    exp = cfg["experiment"]
    N, d, p = cfg["N"], cfg["d"], cfg["p"]
    problems = []
    manifest = json.loads((call.out / "manifest.json").read_text())
    if manifest["constants"]["iterations"] != exp["max_iter"]:
        problems.append(f"track: {manifest['constants']['iterations']} iterations, expected {exp['max_iter']}")
    mu0 = sample(cfg["initial"], N, d, cfg["seed"])
    nu = euler(sample(exp["ref_initial"], N, d, cfg["seed"] + 1), cfg, attraction(exp["w"]["kappa"]))
    nodes, n_rows = trajectory_nodes(call.out / "trajectory.csv", N, [0, -1])
    if n_rows != (cfg["grid"]["steps"] + 1) * N:
        problems.append(f"track: trajectory.csv has {n_rows} rows")
    if not np.array_equal(nodes[0], mu0):
        problems.append("track: trajectory does not start at the seeded initial cloud")
    measured = report_column(call.out / "report.csv")
    for k, mu in ((0, mu0), (-1, nodes[-1])):
        expected = wasserstein(mu, nu[k], p)
        if not _close(measured[k], expected):
            problems.append(f"track: W_p at node {k} is {measured[k]!r}, independent {expected!r}")
    return problems


def check_kernel(call: Call):
    cfg = call.config
    N, d = cfg["N"], cfg["d"]
    steps = cfg["grid"]["steps"]
    problems = []
    X0 = sample(cfg["initial"], N, d, cfg["seed"])
    nodes, n_rows = trajectory_nodes(call.out / "trajectory.csv", N, [0, 1, -1])
    if n_rows != (steps + 1) * N:
        problems.append(f"kernel: trajectory.csv has {n_rows} rows")
    if not np.array_equal(nodes[0], X0):
        problems.append("kernel: trajectory does not start at the seeded initial cloud")
    X1 = X0 + (cfg["T"] / steps) * kernel_velocity(X0)
    if not np.allclose(nodes[1], X1, rtol=REL_TOL, atol=1e-12):
        problems.append("kernel: first Euler step differs from the independent kernel step")
    # the kernel is odd in x - y, so the mean is invariant
    if not np.allclose(nodes[-1].mean(axis=0), X0.mean(axis=0), rtol=0.0, atol=1e-9):
        problems.append("kernel: cloud mean drifted")
    return problems


def check_gronwall1d(call: Call):
    cfg = call.config
    exp = cfg["experiment"]
    N, d, p = cfg["N"], cfg["d"], cfg["p"]
    mu = euler(sample(cfg["initial"], N, d, cfg["seed"]), cfg, attraction(cfg["field"]["kappa"]))
    nu = euler(sample(exp["ref_initial"], N, d, cfg["seed"] + 1), cfg, lambda X: -X)
    measured = report_column(call.out / "report.csv")
    if measured.size != len(mu):
        return [f"gronwall1d: report.csv has {measured.size} rows, expected {len(mu)}"]
    problems = []
    for k, (m, a, b) in enumerate(zip(measured, mu, nu)):
        expected = wasserstein(a, b, p)
        if not _close(m, expected):
            problems.append(f"gronwall1d: W_1 at node {k} is {m!r}, independent {expected!r}")
    return problems


CHECKS = {"track": check_track, "kernel": check_kernel, "gronwall1d": check_gronwall1d}
