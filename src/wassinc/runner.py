"""Execute a scenario end to end and emit CSV artifacts plus a manifest.

File formats (all numbers printed with 17 significant digits so doubles
round-trip losslessly):

* trajectory.csv   ``t,particle,x1,..,xd``, one row per (node, particle)
* signal.csv       ``t_start,t_end,control_index``
* report.csv       ``t,measured,bound,margin``
* velocity.csv     same columns as report.csv (tracking runs only)
* refinement.csv   ``n_coarse,n_fine,sup_wp`` (delayed-Euler studies only)
* manifest.json    file digests, verdicts, constants

Each experiment handler maps a config to its outputs by file name (a
``Trajectory``, ``ControlSignal``, ``bounds.BoundReport`` or refinement
rows) and its constants, and writes nothing.  ``run_scenario`` alone
writes: each output in the format of its type, then the manifest, whose
``files`` are the outputs' digests and whose ``verdicts`` are each
report's ``kind`` and ``passed``.  Scenarios are deterministic: the same
(config, seed) reproduces every file byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np

from .bounds import BoundReport
from .config import ScenarioConfig
from .dynamics import Trajectory, integrate
from .filippov import filippov_track
from .inclusion import ControlSignal, inclusion_residual, peano_solve, refinement_study
from .relax import ChatteringControl, convexify, relax_approximate
from .verify import verify


def _write_rows(path: Path, header: str, template: str, rows) -> None:
    """Write ``header`` and then ``template % row`` for every row, one line
    each.  ``%.17g`` prints the same text as ``format(x, ".17g")``."""
    path.write_text("\n".join([header, *(template % row for row in rows)]) + "\n")


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    _, n, d = traj.points.shape
    times = [format(t, ".17g") for t in traj.times]
    coords = traj.points.reshape(-1, d).tolist()
    rows = ((t, i, *x) for (t, i), x in zip(itertools.product(times, range(n)), coords))
    header = "t,particle," + ",".join(f"x{c + 1}" for c in range(d))
    _write_rows(path, header, "%s,%d" + ",%.17g" * d, rows)


def write_signal_csv(path: Path, signal: ControlSignal) -> None:
    grid = signal.grid.tolist()
    rows = zip(grid[:-1], grid[1:], signal.indices.tolist())
    _write_rows(path, "t_start,t_end,control_index", "%.17g,%.17g,%d", rows)


def write_report_csv(path: Path, report: BoundReport) -> None:
    columns = (report.times, report.measured, report.bound, report.margins)
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    _write_rows(path, "t,measured,bound,margin", "%.17g,%.17g,%.17g,%.17g", rows)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _write(path: Path, output) -> None:
    """Write ``output`` in the format of its type.  Each writer is looked up by
    its module-level name at call time, so a wrapper set on that name sees it."""
    if isinstance(output, Trajectory):
        write_trajectory_csv(path, output)
    elif isinstance(output, ControlSignal):
        write_signal_csv(path, output)
    elif isinstance(output, BoundReport):
        write_report_csv(path, output)
    else:
        _write_rows(path, "n_coarse,n_fine,sup_wp", "%d,%d,%.17g", output)


def run_scenario(config: ScenarioConfig, out_dir: str | Path) -> dict:
    """Run the configured experiment, then write each of its outputs under
    its file name and the manifest; return the manifest.  A stale manifest
    is removed first and the new one written last, and nothing is written
    before the experiment has returned: a failed run writes no file, and
    leaves no ``out_dir`` if it made it."""
    out = Path(out_dir)
    (out / "manifest.json").unlink(missing_ok=True)
    kind = config.experiment["kind"]
    handler = {
        "simulate": _run_simulate,
        "peano": _run_peano,
        "filippov": _run_filippov,
        "relax": _run_relax,
        "verify": _run_verify,
    }[kind]
    outputs, constants = handler(config)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        for name, output in outputs.items():
            _write(out / name, output)
    except BaseException:
        if made:
            shutil.rmtree(out)
        raise
    manifest = {
        "experiment": kind,
        "seed": config.seed,
        "files": {name: _digest(out / name) for name in sorted(outputs)},
        "verdicts": {o.kind: o.passed for o in outputs.values() if isinstance(o, BoundReport)},
        "constants": _jsonable(constants),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def _run_simulate(config: ScenarioConfig):
    method = config.experiment["method"]
    traj = integrate(config.field, config.start(), config.time_grid(), method=method)
    return {"trajectory.csv": traj}, {"method": method, "field": config.field.label}


def _run_peano(config: ScenarioConfig):
    exp, family = config.experiment, config.family
    n, substeps, strategy, n_list = exp["n"], exp["substeps"], exp["strategy"], exp["n_list"]
    start = config.start()
    # each n solved once, at one call site: the convexity warning shows once
    solves = {k: peano_solve(family, start, k, substeps, strategy, seed=config.seed)
              for k in sorted({n, *(n_list or ())})}
    traj, signal = solves[n]
    residual = inclusion_residual(traj, signal, family, delay=config.T / n)
    report = BoundReport("delayed_membership", signal.grid[:-1], residual, np.zeros_like(residual),
                         config.slack)
    outputs = {"trajectory.csv": traj, "signal.csv": signal, "report.csv": report}
    constants = {"n": n, "substeps": substeps, "strategy": strategy}
    if n_list is not None:
        rows = refinement_study({k: solves[k][0] for k in n_list}, config.p)
        outputs["refinement.csv"] = rows
        constants["refinement_max"] = max(v for _, _, v in rows)
    return outputs, constants


def _run_filippov(config: ScenarioConfig):
    exp = config.experiment
    traj, signal, cert = filippov_track(
        config.family, config.reference(), exp["w"], config.start(), exp["R"], exp["tol"], exp["max_iter"], config.p
    )
    reports = cert.reports(config.slack)
    outputs = {"trajectory.csv": traj, "signal.csv": signal,
               "report.csv": reports["distance_bound"], "velocity.csv": reports["velocity_bound"]}
    constants = {**cert.constants, "iterations": cert.iterations, "converged": cert.converged,
                 "flags": list(cert.flags)}
    return outputs, constants


def _run_relax(config: ScenarioConfig):
    exp, family = config.experiment, config.family
    delta = exp["delta"]
    chat = convexify(family, [ChatteringControl(exp["bases"], exp["weights"], exp["weight_steps"])])
    grid = config.time_grid()
    relaxed_signal = ControlSignal(grid=grid, indices=np.zeros(grid.size - 1, dtype=int))
    relaxed_traj = integrate(chat, config.start(), grid)  # a family of one control is a field
    tracked, signal, report = relax_approximate(
        family,
        relaxed_traj,
        relaxed_signal,
        chat,
        delta,
        config.p,
        radius_policy=exp["radius_policy"],
        tol=exp["tol"],
        max_iter=exp["max_iter"],
        integration_substeps=exp["integration_substeps"],
    )
    constants = {
        "delta": delta,
        "measured_sup": report.measured_sup,
        "guaranteed_target": report.guaranteed_target,
        "amplification": report.amplification,
        "radius": report.radius,
        "n_blocks": report.n_blocks,
        "metadata": report.metadata,
    }
    return {"trajectory.csv": tracked, "signal.csv": signal, "report.csv": report.density}, constants


def _run_verify(config: ScenarioConfig):
    report = verify(config.experiment["what"], config)
    return {"report.csv": report}, {**report.constants, "slack": report.slack}
