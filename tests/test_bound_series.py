"""Rate integrals over arrays and the one Gronwall-type series behind
``compute_bound``, the gronwall checks and ``momentum_bound_series``,
against the per-node formulas written out here; and the one pass rule,
``BoundReport.passed``, at its edges."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wassinc import BoundReport, RateFunctions, bounds, compute_bound, parse_config, run_scenario, tail_norm
from wassinc import relax
from wassinc.verify import momentum_bound_series

from conftest import cloud, run_cli

SEEDS = st.integers(0, 2**32 - 1)


def scalar_integral(rates, which, a, b):
    """Integral over [a, b] ∩ [0, T], one fsum over the segments."""
    bp = rates.breakpoints
    vals = {"m": rates.m_values, "l": rates.l_values, "L": rates.L_values}[which]
    a, b = max(a, bp[0]), min(b, bp[-1])
    if b <= a:
        return 0.0
    overlap = np.clip(np.minimum(bp[1:], b) - np.maximum(bp[:-1], a), 0.0, None)
    return float(math.fsum((vals * overlap).tolist()))


def random_rates(rng, segments, T):
    inner = np.sort(rng.choice(np.arange(1, 64), segments - 1, replace=False)) * (T / 64)
    values = rng.uniform(0.0, 3.0, (3, segments))
    values[rng.random((3, segments)) < 0.2] = 0.0
    return RateFunctions(np.concatenate([[0.0], inner, [T]]), *values)


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 4), st.sampled_from(["m", "l", "L"]))
def test_array_integral_equals_scalar_calls(seed, segments, which):
    rng = np.random.Generator(np.random.Philox(key=seed))
    rates = random_rates(rng, segments, T=2.0)
    a = np.concatenate([rng.uniform(-0.5, 2.5, 30), rates.breakpoints])
    b = a + np.concatenate([rng.uniform(0.0, 1.0, 30), np.zeros(segments + 1)])
    got = rates.integral(which, a, b)
    assert_bitwise(got, [scalar_integral(rates, which, x, y) for x, y in zip(a, b)])
    grid = np.linspace(0.0, 2.0, 1001)
    assert_bitwise(rates.integral(which, 0.0, grid), [scalar_integral(rates, which, 0.0, t) for t in grid])
    assert_bitwise(rates.integral(which, grid[:-1], grid[1:]),
                   [scalar_integral(rates, which, x, y) for x, y in zip(grid[:-1], grid[1:])])
    scalar = rates.integral(which, float(a[0]), float(b[0]))
    assert type(scalar) is float and scalar == got[0]


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(2, 6))
def test_multi_segment_integral_is_the_per_row_fsum(seed, segments):
    # magnitudes 1 to 1e-17 apart: a row across segments sums otherwise than fsum in any
    # fixed order, so only fsum keeps its bits; one-term rows take the plain sum
    rng = np.random.Generator(np.random.Philox(key=seed))
    T = 2.0
    inner = np.sort(rng.choice(np.arange(1, 64), segments - 1, replace=False)) * (T / 64)
    rates = RateFunctions(np.concatenate([[0.0], inner, [T]]),
                          *(rng.uniform(0.5, 1.0, (3, segments)) * 10.0 ** rng.uniform(-17.0, 0.0, (3, segments))))
    a = np.concatenate([rng.uniform(-0.5, 2.5, 40), rates.breakpoints, [-1.0, 3.0], rng.uniform(0.0, T, 5)])
    b = a + np.concatenate([rng.uniform(0.0, 2.5, 40), np.zeros(segments + 8)])  # zero-length intervals last
    for which in "mlL":
        expected = [scalar_integral(rates, which, x, y) for x, y in zip(a, b)]
        assert_bitwise(rates.integral(which, a, b), expected)
        assert_bitwise(rates.integral(which, a[:, None], b[:, None]), np.reshape(expected, (-1, 1)))
        scalars = [rates.integral(which, x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert all(type(v) is float for v in scalars)
        assert_bitwise(scalars, expected)
        assert all(v == 0.0 for v in scalars[-(segments + 8):])


def test_array_integral_rejects_reversed_bounds():
    rates = RateFunctions.constant(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        rates.integral("m", np.array([0.0, 0.5]), np.array([0.2, 0.4]))


def loop_compute_bound(grid, eta, rates, p, tail, script_ct, w0):
    """The per-node D_p loop: (D, chi, E)."""
    cp, cpp = bounds.C_p(p), bounds.C_p_prime(p)
    D, chi, E = np.empty(grid.size), np.empty(grid.size), np.empty(grid.size)
    eta_int = 0.0
    for k in range(grid.size):
        t = float(grid[k])
        if k > 0:
            eta_int += float(eta[k - 1]) * float(grid[k] - grid[k - 1])
        l_int = scalar_integral(rates, "l", 0.0, t)
        growth = bounds.exp_power(cpp, l_int, p)
        chi[k] = bounds.product(cp, scalar_integral(rates, "L", 0.0, t), growth)
        E[k] = bounds.product(2.0, scalar_integral(rates, "m", 0.0, t), 1.0 + script_ct, tail)
        D[k] = bounds.product(cp, w0 + eta_int + E[k], bounds.saturating_exp(bounds._scaled_power(cpp, l_int, p) + chi[k]))
    return D, chi, E


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 4), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       st.sampled_from([math.inf, 0.5, 3.0]))
def test_compute_bound_equals_node_loop(seed, segments, p, R):
    rng = np.random.Generator(np.random.Philox(key=seed))
    rates = random_rates(rng, segments, T=1.0)
    grid = np.linspace(0.0, 1.0, int(rng.integers(2, 30)))
    eta = rng.uniform(0.0, 2.0, grid.size) * (rng.random(grid.size) < 0.8)
    nu0 = cloud(*rng.standard_normal((5, 2)).tolist())
    w0 = float(rng.uniform(0.0, 1.0))
    out = compute_bound(grid=grid, eta=eta, rates=rates, p=p, R=R, nu0=nu0, w0_dist=w0,
                        moment_mu0=0.3, moment_nu0=0.7)
    ct = out["constants"]["horizon_factor"]
    threshold = 0.0 if math.isinf(ct) else max(0.0, R / ct - 1.0)
    tail = 0.0 if math.isinf(R) else tail_norm(nu0, threshold, p, shifted=True)
    D, chi, E = loop_compute_bound(grid, eta, rates, p, tail, ct, w0)
    assert_bitwise(out["D_p"], D)
    assert_bitwise(out["chi_p"], chi)
    assert_bitwise(out["E_term"], E)


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(1, 4), st.sampled_from([1.0, 2.0, 2.5]), st.booleans())
def test_momentum_series_equals_node_loop(seed, segments, p, measure_dependent):
    rng = np.random.Generator(np.random.Philox(key=seed))
    rates = random_rates(rng, segments, T=1.0)
    grid = np.linspace(0.0, 1.0, int(rng.integers(2, 30)))
    measured = rng.uniform(0.0, 3.0, grid.size)
    cp, cpp = bounds.C_p(p), bounds.C_p_prime(p)
    envelope = np.maximum.accumulate(measured) if measure_dependent else np.zeros_like(measured)
    expected = np.empty_like(measured)
    growth_int = 0.0
    for k, t in enumerate(grid):
        if k > 0:
            seg = scalar_integral(rates, "m", float(grid[k - 1]), float(t))
            growth_int += (1.0 + envelope[k - 1]) * seg
        m_int = scalar_integral(rates, "m", 0.0, float(t))
        expected[k] = bounds.product(cp, measured[0] + growth_int, bounds.exp_power(cpp, m_int, p))
    assert_bitwise(momentum_bound_series(grid, measured, rates, p, measure_dependent), expected)


def loop_gronwall_series(*, p, w0, increments, l_int, L_int=0.0, m_int=0.0, horizon=0.0, tail=0.0):
    """The node loop of scalar calls that ``bounds.gronwall_series`` replaced: Python floats,
    one ``product`` and two ``saturating_exp`` a node."""
    cp, cpp = bounds.C_p(p), bounds.C_p_prime(p)
    rows = zip(*(np.broadcast_to(a, np.shape(l_int)).tolist() for a in (l_int, L_int, m_int)))
    increments = np.asarray(increments).tolist()
    D, chi, E = (np.empty(np.shape(l_int)) for _ in range(3))
    total, w0 = 0.0, float(w0)
    for k, (l, L, m) in enumerate(rows):
        if k > 0:
            total += increments[k - 1]
        growth = bounds._scaled_power(cpp, l, p)
        chi_k, E_k = bounds.product(cp, L, bounds.saturating_exp(growth)), bounds.product(2.0, m, 1.0 + horizon, tail)
        chi[k], E[k], D[k] = chi_k, E_k, bounds.product(cp, w0 + total + E_k, bounds.saturating_exp(growth + chi_k))
    return D, chi, E


# rate integrals and increments with zeros, values whose p-th power underflows
# (1e-300 from p = 2, 0.6 at p = 2000) or overflows, and values near 1
SERIES_VALUES = st.one_of(st.sampled_from([0.0, 1e-300, 1e-6, 0.6, 1.0, 1.5, 700.0, 1e200]),
                          st.floats(0.0, 10.0))


@settings(max_examples=400, deadline=None)
@given(p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 64.0, 1025.0, 2000.0]), nodes=st.integers(1, 12),
       scalar_L=st.booleans(), data=st.data())
def test_gronwall_series_equals_the_node_loop(p, nodes, scalar_L, data):
    # p >= 1025 saturates C_p' to inf, beside l = 0 and l^p that underflows
    def values(size):
        return np.array(data.draw(st.lists(SERIES_VALUES, min_size=size, max_size=size)))

    kwargs = dict(
        p=p, w0=data.draw(SERIES_VALUES), increments=values(nodes - 1),
        l_int=np.sort(values(nodes)), L_int=data.draw(SERIES_VALUES) if scalar_L else values(nodes),
        m_int=values(nodes), horizon=data.draw(SERIES_VALUES), tail=data.draw(SERIES_VALUES),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # saturation raises no numpy warning
        got = bounds.gronwall_series(**kwargs)
    for actual, expected in zip(got, loop_gronwall_series(**kwargs)):
        assert_bitwise(actual, expected)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_long_gronwall_series_equals_the_node_loop(rng, p):
    # libm's l ** 2.0 is not l * l on every l: about one l in a thousand of these differs in the last bit
    l_int = np.sort(rng.uniform(0.0, 10.0, 20000))
    kwargs = dict(p=p, w0=0.5, increments=rng.uniform(0.0, 1e-3, l_int.size - 1), l_int=l_int,
                  L_int=l_int / 7.0, m_int=l_int / 3.0, horizon=2.0, tail=0.25)
    for actual, expected in zip(bounds.gronwall_series(**kwargs), loop_gronwall_series(**kwargs)):
        assert_bitwise(actual, expected)


@pytest.mark.parametrize("p", [1.0, 2.0, 64.0, 2000.0])
def test_gronwall_series_zero_factors_beside_saturated_ones(p):
    # L = 0, tail = 0 and w0 = 0 beside an inf exp; 1e-300^p underflows beside a saturated C_p'
    kwargs = dict(p=p, w0=0.0, increments=[0.0, 0.0, 1e308, 1e308], l_int=np.array([0.0, 1e-300, 0.6, 1e3, 1e200]),
                  L_int=np.array([0.0, 0.0, 1.0, 0.0, 1.0]), m_int=1.0, horizon=1e308, tail=0.0)
    got = bounds.gronwall_series(**kwargs)
    for actual, expected in zip(got, loop_gronwall_series(**kwargs)):
        assert_bitwise(actual, expected)
    assert np.all(got[2] == 0.0) and not np.isnan(np.concatenate(got)).any()


def test_gronwall_series_saturates_to_inf():
    D, chi, E = bounds.gronwall_series(
        p=4.0, w0=1.0, increments=[0.5], l_int=np.array([0.0, 1e100]), L_int=np.array([0.0, 1.0])
    )
    assert D[0] == bounds.C_p(4.0) and chi[0] == 0.0 and D[1] == math.inf
    assert not np.any(np.isnan(E)) and np.all(E == 0.0)


def test_gronwall_series_overflows_without_a_numpy_warning():
    # w0, E and chi are Python floats in the loop, so a D past the float
    # range is a silent inf; momentum_bound_series passes a numpy w0
    for w0 in (1e200, np.float64(1e200)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D, _, _ = bounds.gronwall_series(
                p=1.0, w0=w0, increments=[0.0], l_int=np.array([0.0, 400.0]),
                m_int=np.array([1.0, 1.0]), horizon=1.0, tail=1.0,
            )
        assert D[1] == math.inf


def report(measured, bound, slack):
    measured, bound = np.asarray(measured, dtype=float), np.asarray(bound, dtype=float)
    return BoundReport("edge", np.zeros(measured.size), measured, bound, slack)


# bounds tiny next to ATOL, so that the margin can sit exactly on the allowance
@pytest.mark.parametrize("slack, bound", [(0.0, 0.0), (0.05, 4e-17), (0.5, 4e-17)])
def test_margin_at_the_allowance_passes_and_one_ulp_lower_fails(slack, bound):
    edge = -slack * bound - bounds.ATOL
    measured = bound - edge
    assert bound - measured == edge
    assert report([0.0, measured], [bound, bound], slack).passed
    lower = np.nextafter(measured, math.inf)
    assert bound - lower == np.nextafter(edge, -math.inf)
    assert not report([0.0, lower], [bound, bound], slack).passed
    if slack:  # the slack's share of the allowance counts
        assert not report([measured], [bound], 0.0).passed


@pytest.mark.parametrize("slack", [0.0, 0.05])
def test_inf_bound_passes(slack):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0 * inf on the way
        assert report([0.0, 1e300], [math.inf, math.inf], slack).passed


@pytest.mark.parametrize("slack", [0.0, 0.05])
def test_nan_measured_fails(slack):
    assert not report([0.0, math.nan], [1.0, 1.0], slack).passed


def test_empty_series_fails():
    assert not report([], [], 0.05).passed


def test_relax_raw_target_ignores_the_config_slack(tmp_path, monkeypatch):
    raw = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / "relax_bangbang.json").read_text())
    config = parse_config({**raw, "slack": 0.05})
    over = config.experiment["delta"] * (1.0 + 1e-9)
    monkeypatch.setattr(relax, "wasserstein_costs", lambda a, b, p: np.full(len(a), over))
    manifest = run_scenario(config, tmp_path)
    assert manifest["verdicts"] == {"density_raw_target": False}
    assert report([over], [config.experiment["delta"]], config.slack).passed  # what a 0.05 slack would allow


def test_C_p_prime_saturates_to_inf():
    assert bounds.C_p_prime(1024.0) == 2.0**1023 / 1024.0
    assert bounds.C_p_prime(1025.0) == math.inf and bounds.C_p_prime(2000.0) == math.inf


@settings(max_examples=300, deadline=None)
@given(c=st.floats(0.0, 1e3), x=st.floats(0.0, 1e3), p=st.floats(1.0, 8.0), shift=st.floats(-10.0, 10.0))
def test_exp_power_keeps_the_bits_of_finite_inputs(c, x, p, shift):
    def saturating(f):
        try:
            return f()
        except OverflowError:
            return math.inf

    assert bounds.exp_power(c, x, p) == saturating(lambda: math.exp(c * x**p))
    shifted = bounds.saturating_exp(bounds._scaled_power(c, x, p) + shift)  # a D_p node's exp(C_p' l^p + chi_p)
    assert shifted == saturating(lambda: math.exp(c * x**p + shift))


def test_exp_power_with_a_saturated_factor():
    assert bounds.exp_power(math.inf, 0.0, 2000.0) == 1.0  # inf * 0 would be NaN
    assert bounds.saturating_exp(bounds._scaled_power(math.inf, 0.0, 2000.0) + 0.5) == math.exp(0.5)
    assert bounds.exp_power(math.inf, 0.6, 2000.0) == math.inf  # 0.6^2000 underflows to 0
    assert bounds.exp_power(math.inf, 1.0, 2000.0) == math.inf


def test_gronwall_series_at_a_saturated_C_p_prime():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        D, chi, E = bounds.gronwall_series(
            p=2000.0, w0=1.0, increments=[0.0, 0.0], l_int=np.array([0.0, 0.6, 1.0]),
            L_int=np.array([0.0, 1.0, 1.0]),
        )
    assert D[0] == bounds.C_p(2000.0) and chi[0] == 0.0
    assert np.all(D[1:] == math.inf) and not np.any(np.isnan(chi))


# the bundled scenarios whose bounds read C_p', which once overflowed at p >= 1025
C_P_PRIME_SCENARIOS = [
    "filippov_constants", "filippov_gain", "relax_bangbang", "verify_abs_continuity_bounded_kernel",
    "verify_gronwall_global_decay", "verify_gronwall_local_far_atom", "verify_momentum_mean_attraction",
]


# the verify reports whose every bound past t = 0 is inf at p = 2000: each run checked nothing
UNCHECKED_AT_P_2000 = {
    "verify_abs_continuity_bounded_kernel":
        "abs_continuity checked nothing at p = 2000: its bound is inf from t = 0.00666667 on",
    "verify_gronwall_global_decay": "gronwall_global checked nothing at p = 2000: its bound is inf from t = 0.001 on",
    "verify_momentum_mean_attraction": "momentum checked nothing at p = 2000: its bound is inf from t = 0.005 on",
}


@pytest.mark.parametrize("name", C_P_PRIME_SCENARIOS)
def test_large_p_ends_with_an_exit_code(tmp_path, capsys, name):
    raw = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json").read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the measured moments overflow at p = 2000
        code, out = run_cli(tmp_path, raw["experiment"]["kind"], raw, "--p", "2000")
    err = capsys.readouterr().err
    if name == "relax_bangbang":  # its saturated moment envelope asks for inf blocks
        assert code == 2 and err.startswith("error: delta = 0.1 needs inf blocks") and err.count("\n") == 1
        assert not out.exists()
    elif name in UNCHECKED_AT_P_2000:
        assert code == 2 and err == f"error: {UNCHECKED_AT_P_2000[name]}\n"
        assert not out.exists()
    else:
        verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
        assert code == (0 if all(verdicts.values()) else 1) and err == ""


def abs_continuity_scenario():
    return json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                       / "verify_abs_continuity_bounded_kernel.json").read_text())


def test_a_report_with_no_finite_bound_past_t0_exits_two(tmp_path, capsys):
    # c_p saturates at p = 64: every abs_continuity bound is inf, which any measured value meets
    code, out = run_cli(tmp_path, "verify", abs_continuity_scenario(), "--p", "64")
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == (
        "error: abs_continuity checked nothing at p = 64: its bound is inf from t = 0.00666667 on\n")


def test_one_finite_row_past_t0_is_a_check(tmp_path, capsys):
    # abs_continuity's rows start at dt: a one-step run has no row at t = 0 and one finite row
    code, out = run_cli(tmp_path, "verify", abs_continuity_scenario(), "--steps", "1")
    rows = (out / "report.csv").read_text().split()[1:]
    assert code == 0 and capsys.readouterr().out == "abs_continuity: pass\n"
    assert len(rows) == 1 and float(rows[0].split(",")[0]) > 0.0 and math.isfinite(float(rows[0].split(",")[2]))


def test_a_report_with_a_finite_row_past_t0_keeps_its_verdict(monkeypatch, tmp_path):
    # inf bounds beside one finite row past t = 0 are checked on that row; a report whose one
    # row is at t = 0 has no row past it, so it is not refused either
    config = parse_config(abs_continuity_scenario())
    for k, (times, bound, passed) in enumerate([([0.0, 0.5, 1.0], [1.0, math.inf, 2.0], True),
                                                ([0.0, 0.5, 1.0], [math.inf, 0.5, math.inf], False),
                                                ([0.0], [math.inf], True)]):
        checked = BoundReport("abs_continuity", times, np.ones(len(times)), bound, 0.0)
        monkeypatch.setattr("wassinc.runner.verify", lambda what, config: checked)
        assert run_scenario(config, tmp_path / str(k))["verdicts"] == {"abs_continuity": passed}
