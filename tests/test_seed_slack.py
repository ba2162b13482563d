"""The reference seed is derived in one place, and the verdict slack is
bounded: both are checked like the other scalars of a config."""

import json
import math
from pathlib import Path

import pytest

from wassinc import parse_config
from wassinc.config import ref_seed
from wassinc.errors import ConfigError

from conftest import fast_constant_field, run_cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TWO_CURVE_SCENARIOS = [("filippov", "filippov_gain.json"), ("verify", "verify_gronwall_global_decay.json")]


def scenario(name):
    return json.loads((SCENARIOS / name).read_text())


@pytest.mark.parametrize("seed, expected", [(0, 1), (7, 8), (2**64 - 1, 0)])
def test_default_ref_seed_is_next_seed_mod_2_64(seed, expected):
    raw = scenario("filippov_gain.json")
    raw["seed"] = seed
    assert ref_seed(parse_config(raw)) == expected


def test_explicit_ref_seed_kept():
    raw = scenario("filippov_gain.json")
    raw["experiment"]["ref_seed"] = 2**64 - 1
    assert ref_seed(parse_config(raw)) == 2**64 - 1


@pytest.mark.parametrize("command, name", TWO_CURVE_SCENARIOS)
def test_largest_seed_runs_to_a_verdict(tmp_path, capsys, command, name):
    code, out = run_cli(tmp_path, command, scenario(name), "--seed", str(2**64 - 1))
    verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
    assert code == (0 if all(verdicts.values()) else 1)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, name", TWO_CURVE_SCENARIOS)
@pytest.mark.parametrize("value", [2.7, -1, 2**64, "3", True])
def test_bad_ref_seed_exits_two(tmp_path, capsys, command, name, value):
    raw = scenario(name)
    raw["experiment"]["ref_seed"] = value
    assert run_cli(tmp_path, command, raw)[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'ref_seed' must be an integer") and err.count("\n") == 1


BAD_SLACKS = [math.inf, math.nan, -0.1, 1.0, 1e300]


@pytest.mark.parametrize("slack", BAD_SLACKS)
def test_slack_bounded(slack):
    raw = scenario("verify_momentum_mean_attraction.json")
    raw["slack"] = slack
    with pytest.raises(ConfigError, match="'slack'"):
        parse_config(raw)


def test_slack_in_range_accepted():
    raw = scenario("verify_momentum_mean_attraction.json")
    for slack in (0.0, 0.5, 0.999):
        raw["slack"] = slack
        assert parse_config(raw).slack == slack


@pytest.mark.parametrize("slack", BAD_SLACKS)
def test_slack_cannot_pass_a_failing_check(tmp_path, capsys, slack):
    # at the default slack the check fails (test_rates.test_small_declared_rate_fails_honestly)
    assert run_cli(tmp_path, "verify", fast_constant_field(slack=slack))[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'slack' must be in [0, 1)") and err.count("\n") == 1
