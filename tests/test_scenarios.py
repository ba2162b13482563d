"""The bundled scenario suite must pass end to end, every verdict must be
the pass rule recomputed from its CSV, and the verify kinds must stay
green when the grid is refined (the bounds are continuum statements, so
halving the step only removes discretization slack).  Every scenario
also passes at a general order p, where no exact p = 1 / p = 2 path of
the powers and roots applies."""

import csv
import dataclasses
import json
import math
from pathlib import Path

import pytest

from wassinc import load_config, parse_config, run_scenario, verify

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))


# the CSV each verdict is written to, and the slack its rule takes
CSV = {"velocity_bound": "velocity.csv"}
SLACK = {"density_raw_target": 0.0}


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_scenario_passes(path, tmp_path):
    config = load_config(path)
    manifest = run_scenario(config, tmp_path)
    assert all(manifest["verdicts"].values()), manifest["verdicts"]
    assert (tmp_path / "manifest.json").exists()
    for name in manifest["files"]:
        assert (tmp_path / name).exists()
    # every verdict is the pass rule recomputed from the rows of its CSV
    assert manifest["verdicts"] or config.experiment["kind"] == "simulate"
    for verdict, passed in manifest["verdicts"].items():
        name = CSV.get(verdict, "report.csv")
        assert name in manifest["files"]
        with open(tmp_path / name, newline="") as f:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]
        assert rows, name
        slack = SLACK.get(verdict, config.slack)
        assert all(r["margin"] == r["bound"] - r["measured"] for r in rows)
        assert passed == all(r["margin"] >= -slack * r["bound"] - 1e-15 for r in rows), verdict


VERIFY_SCENARIOS = [p for p in SCENARIOS if p.stem.startswith("verify_")]


@pytest.mark.parametrize("path", VERIFY_SCENARIOS, ids=[p.stem for p in VERIFY_SCENARIOS])
def test_verify_pass_stable_under_refinement(path):
    config = load_config(path)
    what = config.experiment["what"]
    assert verify(what, config).passed
    refined = dataclasses.replace(config, steps=2 * config.steps)
    assert verify(what, refined).passed


@pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_scenario_passes_at_a_general_order(path, tmp_path, p):
    # the digests pin p in {1, 2} only; pyproject turns any RuntimeWarning into an error
    manifest = run_scenario(parse_config({**json.loads(path.read_text()), "p": p}), tmp_path)
    assert all(manifest["verdicts"].values()), manifest["verdicts"]
    for name in manifest["files"]:
        with open(tmp_path / name, newline="") as f:
            rows = list(csv.DictReader(f))
        if "bound" in (rows[0] if rows else {}):
            assert any(math.isfinite(float(r["bound"])) for r in rows[1:]), name
