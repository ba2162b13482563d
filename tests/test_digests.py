"""The behaviour contract: every bundled scenario reproduces its committed
output files byte for byte (sha256 in ``scenario_digests.json``)."""

import hashlib
import json
from pathlib import Path

import pytest

from wassinc import load_config, run_scenario

TESTS = Path(__file__).resolve().parent
SCENARIOS = sorted((TESTS.parent / "scenarios").glob("*.json"))
DIGESTS = json.loads((TESTS / "scenario_digests.json").read_text())


def test_every_scenario_has_digests():
    assert {key.split("/")[0] for key in DIGESTS} == {p.stem for p in SCENARIOS}


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_outputs_match_digests(path, tmp_path):
    run_scenario(load_config(path), tmp_path)
    produced = {
        f"{path.stem}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(tmp_path.iterdir())
    }
    expected = {k: v for k, v in DIGESTS.items() if k.startswith(f"{path.stem}/")}
    assert produced == expected
