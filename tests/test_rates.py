"""Declared rates take one path: each rate is checked on its own
breakpoints and read on the union of them, each merged segment at its
left end, as ``RateFunctions.maximum`` reads two families of rates.  The
reference loops written out here are the two-branch ``parse_rates`` and
the per-point loops the array paths replaced."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wassinc import RateFunctions
from wassinc.config import build_family, build_field, parse_rates
from wassinc.errors import ConfigError
from wassinc.relax import _equal_mass_boundaries

from conftest import fast_constant_field, run_cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SEEDS = st.integers(0, 2**32 - 1)


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def two_branch_parse_rates(spec, T):
    """Shared breakpoints pass straight through; otherwise each rate is read
    at the midpoints of the merged breakpoints."""
    pieces = {}
    for name in ("m", "l", "L"):
        val = spec[name]
        if isinstance(val, (int, float)):
            pieces[name] = (np.array([0.0, T]), np.array([float(val)]))
        else:
            pieces[name] = (np.asarray(val["breakpoints"], dtype=float),
                            np.asarray(val["values"], dtype=float))
    bps = [bp for bp, _ in pieces.values()]
    if all(np.array_equal(bps[0], b) for b in bps[1:]):
        return bps[0], [pieces[name][1] for name in ("m", "l", "L")]
    merged = np.unique(np.concatenate(bps))

    def resample(bp, vv):
        out = []
        for t in 0.5 * (merged[:-1] + merged[1:]):
            k = min(max(int(np.searchsorted(bp, t, "right")) - 1, 0), vv.size - 1)
            out.append(vv[k])
        return np.array(out)

    return merged, [resample(*pieces[name]) for name in ("m", "l", "L")]


def random_rates(rng, segments, T, zero_share=0.2):
    inner = np.sort(rng.choice(np.arange(1, 64), segments - 1, replace=False)) * (T / 64)
    values = rng.uniform(0.0, 3.0, (3, segments))
    values[rng.random((3, segments)) < zero_share] = 0.0
    return RateFunctions(np.concatenate([[0.0], inner, [T]]), *values)


VALUES = st.one_of(st.just(0.0), st.integers(0, 5), st.floats(0.0, 5.0))


@st.composite
def rate_specs(draw):
    T = draw(st.sampled_from([0.3, 1.0, 1.7, 10.0]))

    def breakpoints():
        inner = sorted(draw(st.lists(st.integers(1, 63), max_size=4, unique=True)))
        return [0.0] + [k * T / 64 for k in inner] + [T]

    shared = breakpoints() if draw(st.booleans()) else None
    spec = {}
    for name in ("m", "l", "L"):
        if shared is None and draw(st.booleans()):
            spec[name] = draw(VALUES)
        else:
            bp = shared or breakpoints()
            spec[name] = {"breakpoints": bp,
                          "values": [draw(VALUES) for _ in range(len(bp) - 1)]}
    return T, spec


@settings(max_examples=150, deadline=None)
@given(rate_specs())
def test_valid_specs_parse_as_the_two_branch_reader(case):
    T, spec = case
    rates = parse_rates(spec, T, "config.field")
    breakpoints, values = two_branch_parse_rates(spec, T)
    assert_bitwise(rates.breakpoints, breakpoints)
    for got, expected in zip((rates.m_values, rates.l_values, rates.L_values), values):
        assert_bitwise(got, expected)


BAD_RATES = {
    "unsorted": {"m": {"breakpoints": [0, 0.7, 0.3, 1], "values": [1, 2, 3]}, "l": 0.0, "L": 0.0},
    "too_few_values": {"m": {"breakpoints": [0, 0.5, 1], "values": [1]}, "l": 0.0, "L": 0.0},
    "stops_before_T": {r: {"breakpoints": [0, 0.25], "values": [1.0]} for r in "mlL"},
    "starts_after_0": {r: {"breakpoints": [0.2, 1], "values": [1.0]} for r in "mlL"},
    "nan": {"m": math.nan, "l": 0.0, "L": 0.0},
    "inf": {"m": math.inf, "l": 0.0, "L": 0.0},
}


@pytest.mark.parametrize("case", sorted(BAD_RATES))
def test_bad_rates_rejected_with_their_name(case):
    with pytest.raises(ConfigError, match=r"^config\.field\.rates\.m: "):
        build_field({"label": "zero", "rates": BAD_RATES[case]}, 1.0, 1)
    with pytest.raises(ConfigError, match=r"^config\.family\.rates\.m: "):
        build_family({"label": "constants", "controls": [[1.0]], "rates": BAD_RATES[case]}, 1.0, 1)


@pytest.mark.parametrize("name", ["l", "L"])
def test_bad_rate_named_on_every_rate(name):
    spec = {"m": 1.0, "l": 1.0, "L": 1.0, name: {"breakpoints": [0, 0.5, 1], "values": [-1.0, 1.0]}}
    with pytest.raises(ConfigError, match=rf"^config\.experiment\.w\.rates\.{name}: "):
        parse_rates(spec, 1.0, "config.experiment.w")


@pytest.mark.parametrize("case", sorted(BAD_RATES))
def test_bad_rates_exit_two(tmp_path, capsys, case):
    assert run_cli(tmp_path, "verify", fast_constant_field(BAD_RATES[case]))[0] == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config.field.rates.m: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_small_declared_rate_fails_honestly(tmp_path, capsys):
    assert run_cli(tmp_path, "verify", fast_constant_field())[0] == 1
    assert capsys.readouterr().out == "momentum: FAIL\n"


def test_short_rates_do_not_shorten_the_peano_horizon(tmp_path, capsys):
    raw = json.loads((SCENARIOS / "peano_mean_gain.json").read_text())
    raw["family"]["rates"] = BAD_RATES["stops_before_T"]
    assert run_cli(tmp_path, "peano", raw)[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.family.rates.m: breakpoints must end at T") and err.count("\n") == 1


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 5), st.sampled_from(["m", "l", "L"]))
def test_array_at_equals_scalar_calls(seed, segments, which):
    rng = np.random.Generator(np.random.Philox(key=seed))
    rates = random_rates(rng, segments, T=2.0)
    t = np.concatenate([rng.uniform(-0.5, 2.5, 30), rates.breakpoints, np.linspace(0.0, 2.0, 41)])
    got = rates.at(which, t)
    assert_bitwise(got, [rates.at(which, float(x)) for x in t])
    assert_bitwise(rates.at(which, t[:72].reshape(-1, 4)), got[:72].reshape(-1, 4))
    assert type(rates.at(which, float(t[0]))) is float


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(1, 5), st.integers(1, 5))
def test_maximum_equals_midpoint_loop(seed, segments_a, segments_b):
    rng = np.random.Generator(np.random.Philox(key=seed))
    a, b = random_rates(rng, segments_a, T=1.5), random_rates(rng, segments_b, T=1.5)
    joint = a.maximum(b)
    bp = np.unique(np.concatenate([a.breakpoints, b.breakpoints]))
    mids = 0.5 * (bp[:-1] + bp[1:])
    assert_bitwise(joint.breakpoints, bp)
    for which, got in zip("mlL", (joint.m_values, joint.l_values, joint.L_values)):
        assert_bitwise(got, [max(a.at(which, t), b.at(which, t)) for t in mids])


def equal_mass_loop(rates, n_blocks, cum):
    """The boundary loop on a given cumulative table of m."""
    T = rates.duration
    total = rates.integral("m", 0.0, T)
    if total == 0.0 or n_blocks <= 1:
        return np.linspace(0.0, T, max(n_blocks, 1) + 1)
    bp, vals = rates.breakpoints, rates.m_values
    out = [0.0]
    for tgt in np.linspace(0.0, total, n_blocks + 1)[1:-1]:
        seg = min(max(int(np.searchsorted(cum, tgt, side="right")) - 1, 0), vals.size - 1)
        v = vals[seg]
        out.append(float(bp[seg] + ((tgt - cum[seg]) / v if v > 0 else 0.0)))
    out.append(T)
    return np.array(out)


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(1, 5), st.sampled_from([0.3, 1.0, 2.0, 1.7]), st.integers(1, 12))
def test_equal_mass_boundaries_equal_cumsum_loop(seed, segments, T, n_blocks):
    rng = np.random.Generator(np.random.Philox(key=seed))
    rates = random_rates(rng, segments, T, zero_share=0.4)
    rates = RateFunctions(rates.breakpoints, rates.m_values * 10.0 ** rng.uniform(-6, 0, segments),
                          rates.l_values, rates.L_values)
    got = _equal_mass_boundaries(rates, n_blocks)
    table = rates.integral("m", 0.0, rates.breakpoints)
    total = rates.integral("m", 0.0, T)
    assert table[-1] == total
    assert_bitwise(got, equal_mass_loop(rates, n_blocks, table))
    cumsum = np.concatenate([[0.0], np.cumsum(rates.m_values * np.diff(rates.breakpoints))])
    expected = equal_mass_loop(rates, n_blocks, cumsum)
    if np.array_equal(cumsum, table):
        assert_bitwise(got, expected)
    # a running cumsum can round a partial sum one way and the exactly
    # rounded integral the other: the boundaries then split the same mass
    # up to the rounding of the table and of each boundary time (across a
    # zero segment they may move further)
    mass_gap = np.abs(rates.integral("m", 0.0, got) - rates.integral("m", 0.0, expected))
    assert np.all(mass_gap <= 8 * np.spacing(total) + 4 * rates.m_values.max() * np.spacing(T))
    assert np.all(np.diff(got) >= 0.0) and got[0] == 0.0 and got[-1] == T
