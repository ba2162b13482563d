"""Smoke runs of the experiment scripts at small sizes: each exits 0 and
prints its table's header and one row per target; the suite script prints
one row per bundled scenario."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("script, args, header, rows", [
    ("relaxation_sweep.py", ("0.25", "400"), ["target", "blocks", "measured", "meets", "guaranteed"], 4),
])
def test_script_prints_its_table(script, args, header, rows):
    lines = run_script(script, *args)
    assert lines[1] == header
    assert len(lines) == 2 + rows and all(len(line) == len(lines[2]) for line in lines[2:])
    assert all(float(cell) >= 0.0 for line in lines[2:] for cell in line if cell not in ("True", "False"))


def test_run_suite_prints_a_row_per_bundled_scenario(tmp_path):
    lines = run_script("run_suite.py", str(tmp_path))
    names = sorted(path.stem for path in (ROOT / "scenarios").glob("*.json"))
    assert [line[0] for line in lines] == [*names, "total"]
    assert all(line[1] == "pass" for line in lines[:-1])
    assert sorted(path.name for path in tmp_path.iterdir()) == names
