"""The CLI's exit-code contract under mutated bundled scenarios.

Each example takes a bundled scenario with its grid shortened, and drops
one key or replaces one value (a key's or a list entry's) by a wrong type,
a fractional or huge (10^400) integer, NaN, inf or a negative number.
Whatever the mutation, exit 1 means the written manifest holds a False
verdict; exit 2 means one ``error:`` line and no output directory; exit 0
reruns byte for byte.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from wassinc.cli import main as cli_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NAMES = sorted(path.stem for path in SCENARIOS.glob("*.json"))
# short grids keep each run in milliseconds; relax's delta needs 80 intervals
STEPS = {"relax_bangbang": 100}


def shortened(name):
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    raw["grid"]["steps"] = STEPS.get(name, 12)
    return raw


def paths(node, prefix=()):
    """The path of every value below ``node``: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def replacements(value):
    """The mutations of one value, as (label, new value)."""
    out = [("wrong type", 7 if isinstance(value, str) else "7"), ("null", None), ("nan", math.nan),
           ("inf", math.inf)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out.append(("negative", -value if value else -1))
        if isinstance(value, int):
            out += [("fraction", value + 0.5), ("huge", 10**400)]
    return out


@st.composite
def mutated_scenarios(draw):
    name = draw(st.sampled_from(NAMES))
    raw = shortened(name)
    path = draw(st.sampled_from(list(paths(raw))))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    options = replacements(parent[path[-1]]) + ([("drop", None)] if isinstance(parent, dict) else [])
    label, value = draw(st.sampled_from(options))
    if label == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return name, raw


def run(kind, raw, work, name):
    config = work / f"{name}.json"
    config.write_text(json.dumps(raw))
    out, err = work / name, io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([kind, "--config", str(config), "--out", str(out)])
    return code, err.getvalue(), out


def contents(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutated_scenarios())
def test_exit_codes_follow_the_contract(case):
    name, raw = case
    kind = json.loads((SCENARIOS / f"{name}.json").read_text())["experiment"]["kind"]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        code, err, out = run(kind, raw, work, "a")
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not out.exists(), err
            return
        assert err == ""
        verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
        assert code == (0 if all(verdicts.values()) else 1)
        if code == 0:
            rerun, _, again = run(kind, raw, work, "b")
            assert rerun == 0 and contents(again) == contents(out)
