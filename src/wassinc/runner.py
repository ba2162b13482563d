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
import json
import math
import shutil
from pathlib import Path

import numpy as np

from .bounds import BoundReport
from .config import ScenarioConfig
from .dynamics import Trajectory, integrate, node_blocks
from .filippov import filippov_track
from .inclusion import ControlSignal, inclusion_residual, peano_solve, refinement_study
from .relax import ChatteringControl, convexify, relax_approximate
from .verify import verify


def _stream(path: Path, header: str, node_template: str, nodes: int, per_node: int, columns) -> None:
    """Write ``header`` and then the rows of ``nodes`` nodes, one slice ``b``
    of ``node_blocks(nodes, per_node)`` at a time: ``columns(b)`` gives the
    block's columns (one entry per row, row by row), and the block's text is
    one ``%`` pass of ``node_template`` repeated once per node of ``b``, written
    before the next block is formatted.  So write memory is bounded by a
    block.  ``%.17g`` prints the same text as ``format(x, ".17g")``."""
    templates = {}  # nodes per block -> its template: the full size and the last block's
    with path.open("w") as f:
        f.write(header + "\n")
        for b in node_blocks(nodes, per_node):
            k = b.stop - b.start
            if k not in templates:
                templates[k] = node_template * k
            cols = columns(b)
            args = [None] * (len(cols) * len(cols[0]))
            for j, col in enumerate(cols):
                args[j :: len(cols)] = col
            f.write(templates[k] % tuple(args))


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    nodes, n, d = traj.points.shape
    # the particle index is fixed text of the template, and each node time is formatted once
    node_template = "".join(f"%s,{i}" + ",%.17g" * d + "\n" for i in range(n))

    def columns(b):
        times = [format(t, ".17g") for t in traj.times[b]]
        return [[t for t in times for _ in range(n)], *traj.points[b].reshape(-1, d).T.tolist()]

    header = "t,particle," + ",".join(f"x{c + 1}" for c in range(d))
    _stream(path, header, node_template, nodes, n * d, columns)


def write_signal_csv(path: Path, signal: ControlSignal) -> None:
    def columns(b):
        grid = signal.grid[b.start : b.stop + 1].tolist()
        return [grid[:-1], grid[1:], signal.indices[b].tolist()]

    _stream(path, "t_start,t_end,control_index", "%.17g,%.17g,%d\n", len(signal.indices), 3, columns)


def write_report_csv(path: Path, report: BoundReport) -> None:
    series = (report.times, report.measured, report.bound, report.margins)
    _stream(path, "t,measured,bound,margin", "%.17g,%.17g,%.17g,%.17g\n", len(report.times), 4,
            lambda b: [c[b].tolist() for c in series])


def _digest(path: Path) -> str:
    """The file's sha256, read in 64 KiB chunks."""
    digest = hashlib.sha256()
    with path.open("rb") as f:
        while chunk := f.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer, np.ndarray)):
        value = value.tolist()  # Python numbers, which the inf rule below reads
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
        _stream(path, "n_coarse,n_fine,sup_wp", "%d,%d,%.17g\n", len(output), 3, lambda b: list(zip(*output[b])))


def run_scenario(config: ScenarioConfig, out_dir: str | Path) -> dict:
    """Run the configured experiment, then write each of its outputs under
    its file name and the manifest; return the manifest.  A stale manifest
    is removed first and the new one written last, and nothing is written
    before the experiment has returned: a failed run, or a verify run whose
    report checked nothing (``_refuse_unchecked``), writes no file, and
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


def _refuse_unchecked(report: BoundReport, p: float) -> None:
    """ValueError if ``report`` has rows past t = 0 and none of them a finite bound: an inf
    bound passes any value, and a row at t = 0 compares only C_p w0 with w0, so such a report
    checked nothing.  The error names the check, p and the first time its bound is inf.  A
    verify run's report is its one result, so it is refused there; a filippov run's result is
    its tracked curve, whose certificate is written as it is even where it saturates."""
    later = report.bound[report.times > 0.0]
    if later.size and not np.isfinite(later).any():
        t = report.times[np.argmin(np.isfinite(report.bound))]
        raise ValueError(f"{report.kind} checked nothing at p = {p:g}: its bound is inf from t = {t:.6g} on")


def _run_simulate(config: ScenarioConfig):
    traj = integrate(config.field, config.start(), config.time_grid())
    return {"trajectory.csv": traj}, {"method": "euler", "field": config.field.label}


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
    chat = convexify(family, [ChatteringControl(exp["bases"], exp["weights"])])
    grid = config.time_grid()
    relaxed_signal = ControlSignal(grid=grid, indices=np.zeros(grid.size - 1, dtype=int))
    tracked, signal, report = relax_approximate(
        family, chat, relaxed_signal, config.start(), exp["delta"], config.p, tol=exp["tol"], max_iter=exp["max_iter"]
    )
    return {"trajectory.csv": tracked, "signal.csv": signal, "report.csv": report}, report.constants


def _run_verify(config: ScenarioConfig):
    report = verify(config.experiment["what"], config)
    _refuse_unchecked(report, config.p)
    return {"report.csv": report}, {**report.constants, "slack": report.slack}
