import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wassinc import BoundReport, run_scenario, runner
from wassinc.config import parse_config, sample_initial
from wassinc.dynamics import BLOCK_ENTRIES, Trajectory
from wassinc.errors import ShapeMismatchError
from wassinc.inclusion import ControlSignal, peano_solve, refinement_study
from wassinc.runner import write_report_csv, write_signal_csv, write_trajectory_csv

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SPECIAL = [-0.0, 5e-324, 1e300, 0.1, -1e-300, 1.0 / 3.0, 2.0**53 + 2, 0.0]


def _fmt(x):
    return format(float(x), ".17g")


def reference_trajectory(traj):
    """Per-row, per-coordinate ``format(x, ".17g")``."""
    lines = ["t,particle," + ",".join(f"x{i + 1}" for i in range(traj.points.shape[2]))]
    for k, t in enumerate(traj.grid):
        for i, row in enumerate(traj.points[k]):
            lines.append(f"{_fmt(t)},{i}," + ",".join(_fmt(c) for c in row))
    return ("\n".join(lines) + "\n").encode()


def reference_report(times, measured, bound):
    lines = ["t,measured,bound,margin"]
    for t, m, b in zip(times, measured, bound):
        lines.append(f"{_fmt(t)},{_fmt(m)},{_fmt(b)},{_fmt(b - m)}")
    return ("\n".join(lines) + "\n").encode()


def special_trajectory(nodes, n, d, rng):
    grid = np.cumsum(np.r_[0.0, np.full(nodes - 1, 0.1)])
    pts = rng.standard_normal((nodes, n, d)) * rng.choice([1e-9, 1.0, 1e9], size=(nodes, n, d))
    flat = pts.reshape(-1)
    flat[: min(len(SPECIAL), flat.size)] = SPECIAL[: flat.size]
    return Trajectory(grid=grid, points=pts)


def reference_signal(grid, indices):
    lines = ["t_start,t_end,control_index"]
    for k, u in enumerate(indices):
        lines.append(f"{_fmt(grid[k])},{_fmt(grid[k + 1])},{int(u)}")
    return ("\n".join(lines) + "\n").encode()


# rows per block: a report row holds 4 entries and a signal row 3
REPORT_ROWS, SIGNAL_ROWS = BLOCK_ENTRIES // 4, BLOCK_ENTRIES // 3


class TestWritersMatchPerRowFormat:
    """Every writer's bytes equal the per-row references, at block
    boundaries too: a node per block, full blocks and a partial last one."""

    @pytest.mark.parametrize("nodes, n, d", [
        (1001, 1, 3), (4, 5, 3), (7, 3, 1), (3, 2, 2),
        (3, BLOCK_ENTRIES // 2 + 1, 2),  # N d > BLOCK_ENTRIES: one node per block
        (BLOCK_ENTRIES + 7, 1, 2),  # two full blocks of one-atom nodes and a partial one
    ])
    def test_trajectory(self, tmp_path, rng, nodes, n, d):
        traj = special_trajectory(nodes, n, d, rng)
        write_trajectory_csv(tmp_path / "t.csv", traj)
        assert (tmp_path / "t.csv").read_bytes() == reference_trajectory(traj)

    @pytest.mark.parametrize("rows", [4, 2 * SIGNAL_ROWS + 2])
    def test_signal(self, tmp_path, rng, rows):
        middle = 1.0 + np.cumsum(rng.uniform(1e-3, 1.0, rows - 4))
        grid = np.r_[0.0, 5e-324, 0.1, 0.30000000000000004, middle, 1e300]
        indices = rng.integers(0, 13, rows)
        write_signal_csv(tmp_path / "s.csv", ControlSignal(grid=grid, indices=indices))
        assert (tmp_path / "s.csv").read_bytes() == reference_signal(grid, indices)

    @pytest.mark.parametrize("rows", [10, 2 * REPORT_ROWS + 3])
    def test_report(self, tmp_path, rng, rows):
        measured = np.r_[SPECIAL + [np.inf, 1.0], rng.standard_normal(rows - 10)]
        bound = np.r_[[0.1, -0.0, 1e300, 5e-324, 0.2, 1.0, 3.0, -0.0, np.inf, np.inf], rng.uniform(0, 2, rows - 10)]
        times = np.linspace(0.0, 1.0, measured.size)
        with np.errstate(invalid="ignore"):  # the inf - inf margin
            write_report_csv(tmp_path / "r.csv", BoundReport("r", times, measured, bound, slack=0.0))
            expected = reference_report(times, measured, bound)
        text = (tmp_path / "r.csv").read_bytes()
        assert text == expected
        assert b"nan" in text and b"-0," in text  # inf - inf and -0.0 kept

    def test_refinement(self, tmp_path):
        raw = json.loads((SCENARIOS / "peano_mean_gain.json").read_text())
        config = parse_config(raw)
        run_scenario(config, tmp_path)
        exp = config.experiment
        start = sample_initial(config.initial, config.N, config.d, config.seed)
        curves = {n: peano_solve(config.family, start, n, exp["substeps"], exp["strategy"], seed=config.seed)[0]
                  for n in exp["n_list"]}
        rows = refinement_study(curves, config.p)
        expected = ["n_coarse,n_fine,sup_wp"] + [f"{a},{b},{_fmt(v)}" for a, b, v in rows]
        assert (tmp_path / "refinement.csv").read_text() == "\n".join(expected) + "\n"


def test_trajectory_write_memory_is_bounded_by_a_block(tmp_path, rng):
    """A trajectory of 2^17 entries is written in a few MB at most; holding
    every row string and then the joined text takes about 22 MB."""
    traj = Trajectory(grid=np.linspace(0.0, 1.0, 2**15), points=rng.standard_normal((2**15, 2, 2)))
    tracemalloc.start()
    try:
        write_trajectory_csv(tmp_path / "t.csv", traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_report_series_are_one_dimensional_and_of_one_length():
    """A bound of another length would broadcast in the verdict while the
    CSV dropped rows, so it is refused; an empty series is kept."""
    for times, measured, bound in [
        (np.arange(3.0), [0.5, 2.0, 0.1], [1.0]),
        (np.arange(2.0), [0.5, 2.0, 0.1], [1.0, 1.0, 1.0]),
        (np.arange(4.0).reshape(2, 2), np.ones((2, 2)), np.ones((2, 2))),
        (0.0, 0.5, 1.0),
    ]:
        with pytest.raises(ShapeMismatchError):
            BoundReport("x", times, measured, bound, 0.0)
    report = BoundReport("x", [0.0, 1.0], [0.5, 2.0], [1.0, 1.0], 0.0)
    assert report.measured.dtype == float and not report.passed
    assert BoundReport("x", [], [], [], 0.0).times.shape == (0,)


def test_traced_writers_are_called_by_name(monkeypatch, tmp_path):
    """The benchmark's tracer measures the CSV writers by wrapping the
    ``wassinc.runner`` attributes named in its ``CSV_SPANS``, so
    ``run_scenario`` must look each one up by name."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    calls = []
    for span in tracing.CSV_SPANS:
        module, name = span.split(".")
        assert module == "runner"
        original = getattr(runner, name)
        monkeypatch.setattr(runner, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    run_scenario(parse_config(json.loads((SCENARIOS / "peano_mean_gain.json").read_text())), tmp_path)
    assert sorted(set(calls)) == sorted(span.split(".")[1] for span in tracing.CSV_SPANS)
