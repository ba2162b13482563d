import json
from pathlib import Path

import numpy as np
import pytest

from wassinc import BoundReport, run_scenario
from wassinc.config import parse_config, sample_initial
from wassinc.dynamics import Trajectory
from wassinc.inclusion import ControlSignal, peano_solve, refinement_study
from wassinc.runner import write_report_csv, write_signal_csv, write_trajectory_csv

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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


class TestWritersMatchPerRowFormat:
    @pytest.mark.parametrize("nodes, n, d", [(1001, 1, 3), (4, 5, 3), (7, 3, 1), (3, 2, 2)])
    def test_trajectory(self, tmp_path, rng, nodes, n, d):
        traj = special_trajectory(nodes, n, d, rng)
        write_trajectory_csv(tmp_path / "t.csv", traj)
        assert (tmp_path / "t.csv").read_bytes() == reference_trajectory(traj)

    def test_signal(self, tmp_path):
        grid = np.array([0.0, 5e-324, 0.1, 0.30000000000000004, 1e300])
        signal = ControlSignal(grid=grid, indices=np.array([0, 3, 1, 12]))
        write_signal_csv(tmp_path / "s.csv", signal)
        expected = ["t_start,t_end,control_index"] + [
            f"{_fmt(grid[k])},{_fmt(grid[k + 1])},{int(signal.indices[k])}" for k in range(4)
        ]
        assert (tmp_path / "s.csv").read_text() == "\n".join(expected) + "\n"

    def test_report(self, tmp_path):
        measured = np.array(SPECIAL + [np.inf, 1.0])
        bound = np.array([0.1, -0.0, 1e300, 5e-324, 0.2, 1.0, 3.0, -0.0, np.inf, np.inf])
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
