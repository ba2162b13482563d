"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (visible with ``pytest tests/test_acceptance.py -s``).

Desk scale throughout: N <= 512 particles, d <= 3, every criterion well
under a minute.
"""

import itertools
import math

import numpy as np

from wassinc import (
    ChatteringControl,
    ControlSignal,
    convexify,
    filippov_track,
    inclusion_residual,
    integrate,
    moment,
    parse_config,
    peano_solve,
    refinement_study,
    relax_approximate,
    run_scenario,
    verify,
)
from wassinc.catalog import constants_family, gain_family, linear_decay_field, mean_gain_family, zero_field
from wassinc.measure import ParticleCloud, pairwise_cost, wasserstein_cost
from wassinc.verify import momentum_bound_series

from conftest import assignment_cost, delta, random_cloud, const_rates


def record(number, name, ok, detail=""):
    line = f"criterion {number:02d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_ot_oracle():
    rng = np.random.Generator(np.random.Philox(key=1))
    exact = 0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        a, b = random_cloud(rng, n, d), random_cloud(rng, n, d)
        D = pairwise_cost(a.points, b.points, p)
        best = min(
            assignment_cost(D, perm) for perm in itertools.permutations(range(n))
        )
        oracle = best / n if p == 1.0 else math.sqrt(best / n)
        exact += wasserstein_cost(a, b, p) == oracle
    axioms = True
    for _ in range(200):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        a, b, c = (random_cloud(rng, n, d) for _ in range(3))
        ab = wasserstein_cost(a, b, p)
        axioms &= abs(ab - wasserstein_cost(b, a, p)) <= 1e-9
        axioms &= ab <= wasserstein_cost(a, c, p) + wasserstein_cost(c, b, p) + 1e-9
        perm = rng.permutation(n)
        axioms &= wasserstein_cost(a, ParticleCloud(a.points[perm]), p) <= 1e-9
    record(1, "optimal transport oracle", exact == 200 and axioms,
           f"{exact}/200 exact matches")


def test_criterion_02_integrator_order():
    field = linear_decay_field(const_rates(1.0, 1.0, 0.0))
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        steps = int(round(1.0 / dt))
        traj = integrate(field, delta(1.0), np.linspace(0, 1, steps + 1))
        errs.append(abs(traj.points[-1, 0, 0] - math.exp(-1)))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    rk4 = integrate(field, delta(1.0), np.linspace(0, 1, 101), method="rk4")
    rk4_err = abs(rk4.points[-1, 0, 0] - math.exp(-1))
    ok = all(1.8 <= r <= 2.2 for r in ratios) and rk4_err < 1e-10
    record(2, "integrator order", ok,
           f"euler ratios {ratios[0]:.3f}, {ratios[1]:.3f}; rk4 err {rk4_err:.2e}")


FIELDS_50 = [
    ({"label": "zero", "rates": {"m": 0.0, "l": 0.0, "L": 0.0}}, None),
    ({"label": "constant", "vector": [0.5], "rates": {"m": 0.5, "l": 0.0, "L": 0.0}}, 1),
    ({"label": "linear_decay", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}}, None),
    ({"label": "mean_attraction", "kappa": 1.0, "rates": {"m": 1.0, "l": 1.0, "L": 1.0}}, None),
    ({"label": "bounded_kernel", "rates": {"m": 1.0, "l": 1.0, "L": 1.0}}, None),
    ({"label": "rotation", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}}, 2),
]
SAMPLERS = [
    {"kind": "gaussian", "sigma": 1.0},
    {"kind": "uniform", "halfwidth": 1.0},
    {"kind": "two_clusters", "gap": 4.0, "sigma": 0.5},
]


def test_criterion_03_momentum_bound():
    combos = list(itertools.product(FIELDS_50, SAMPLERS, (1.0, 2.0)))
    failures = []
    for seed in range(50):
        (field_spec, fixed_d), sampler, p = combos[seed % len(combos)]
        field_spec = dict(field_spec)
        if field_spec["label"] == "constant" and fixed_d == 1:
            d = 1
        else:
            d = fixed_d if fixed_d else 1 + seed % 3
        config = parse_config(
            {
                "p": p, "T": 1.0, "d": d, "N": 16, "seed": seed,
                "initial": sampler,
                "field": field_spec,
                "grid": {"steps": 100},
                "experiment": {"kind": "verify", "what": "momentum"},
            }
        )
        if not verify("momentum", config).passed:
            failures.append((seed, field_spec["label"], p))
    record(3, "momentum bound over catalog", not failures, f"{50 - len(failures)}/50 scenarios")


def test_criterion_04_equi_integrability():
    ok = True
    for p in (1.0, 2.0):
        config = parse_config(
            {
                "p": p, "T": 1.0, "d": 1, "N": 64, "seed": 11,
                "initial": {"kind": "two_clusters", "gap": 6.0, "sigma": 0.5},
                "field": {"label": "mean_attraction", "kappa": 1.0,
                          "rates": {"m": 1.0, "l": 1.0, "L": 1.0}},
                "grid": {"steps": 200},
                "experiment": {"kind": "verify", "what": "equi_integrability",
                               "R_list": [1.0, 2.0, 5.0]},
            }
        )
        ok &= verify("equi_integrability", config).passed
    record(4, "equi-integrability tails", ok)


def test_criterion_05_gronwall_global():
    config = parse_config(
        {
            "p": 1, "T": 1.0, "d": 1, "N": 1, "seed": 0,
            "initial": {"kind": "atoms", "atoms": [[1.0]]},
            "field": {"label": "linear_decay", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}},
            "grid": {"steps": 1000},
            "experiment": {"kind": "verify", "what": "gronwall_global",
                           "w": {"label": "linear_decay",
                                  "rates": {"m": 1.0, "l": 1.0, "L": 0.0}},
                           "ref_initial": {"kind": "atoms", "atoms": [[0.0]]}},
        }
    )
    report = verify("gronwall_global", config)
    closed_err = float(np.max(np.abs(report.measured - np.exp(-report.times))))
    under_bound = bool(np.all(report.measured <= report.bound + 1e-12))
    record(5, "global stability estimate", closed_err <= 1e-3 and under_bound,
           f"closed-form error {closed_err:.2e}")


def test_criterion_06_gronwall_local():
    config = parse_config(
        {
            "p": 1, "T": 1.0, "d": 1, "N": 1, "seed": 0,
            "initial": {"kind": "atoms", "atoms": [[5.0]]},
            "field": {"label": "constant", "vector": [1.0],
                      "rates": {"m": 1.0, "l": 0.0, "L": 0.0}},
            "grid": {"steps": 500},
            "experiment": {"kind": "verify", "what": "gronwall_local", "R": 1.0,
                           "w": {"label": "zero", "rates": {"m": 0.0, "l": 0.0, "L": 0.0}},
                           "ref_initial": {"kind": "atoms", "atoms": [[5.0]]}},
        }
    )
    report = verify("gronwall_local", config)
    tail_positive = bool(report.extras["E_term"][-1] > 0)
    load_bearing = bool(
        np.any(report.measured > report.extras["bound_without_tail"] + 1e-12)
    )
    record(6, "localised estimate with tail term", report.passed and tail_positive and load_bearing,
           "dropping the tail term breaks the bound" if load_bearing else "tail term inert")


def test_criterion_07_peano_scheme():
    rng = np.random.Generator(np.random.Philox(key=7))
    fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
    start = random_cloud(rng, 16, 2)
    residual_zero = True
    momentum_ok = True
    for n in (4, 8, 16, 32):
        traj, signal = peano_solve(fam, start, n=n, substeps=4, strategy="min_norm")
        res = inclusion_residual(traj, signal, fam, delay=1.0 / n)
        residual_zero &= bool(np.all(res == 0.0))
        for p in (1.0, 2.0):
            measured = np.array([moment(traj.at(t), p) for t in traj.times])
            bound = momentum_bound_series(traj.grid, measured, fam.rates, p, True)
            momentum_ok &= bool(np.all(measured <= bound * 1.05 + 1e-12))
    curves = {n: peano_solve(fam, start, n=n, substeps=4, strategy="min_norm")[0] for n in (4, 8, 16, 32)}
    rows = refinement_study(curves, p=1)
    finite = all(math.isfinite(v) for _, _, v in rows)
    record(7, "delayed Euler scheme", residual_zero and momentum_ok and finite,
           "refinement distances " + ", ".join(f"{v:.2e}" for _, _, v in rows))


def test_criterion_08_filippov_certificate():
    grid = np.linspace(0.0, 1.0, 1001)
    # constants family: measured distance and bound both equal t
    fam = constants_family([[-1.0], [1.0]], const_rates(1.0, 0.0, 0.0))
    w = zero_field(const_rates(1.0, 0.0, 0.0))
    ref = integrate(w, delta(0.0), grid)
    _, _, cert = filippov_track(fam, ref, w, delta(0.0), math.inf, 1e-9, 20, p=1)
    tight = float(np.max(np.abs(cert.D_p - grid)))
    attained = float(np.max(np.abs(cert.measured_W_p - grid)))
    constants_ok = tight <= 1e-6 and attained <= 1e-6 and cert.reports(0.05)["velocity_bound"].passed

    rates = const_rates(1.0, 1.0, 0.0)
    gain = gain_family([1.0], rates)
    wg = linear_decay_field(rates)
    refg = integrate(wg, delta(0.0), grid)
    _, _, certg = filippov_track(gain, refg, wg, delta(1.0), math.inf, 1e-9, 20, p=1)
    gain_ok = (
        bool(np.all(certg.measured_W_p <= np.exp(grid) + 1e-12))
        and abs(certg.measured_W_p[-1] - math.exp(-1)) < 5e-4
        and all(report.passed for report in certg.reports(0.05).values())
    )
    record(8, "tracking certificate", constants_ok and gain_ok,
           f"|D - t| <= {tight:.2e}, |W - t| <= {attained:.2e}")


def test_criterion_09_relaxation_density():
    T = 0.25
    fam = constants_family([[-1.0], [1.0]], const_rates(1.0, 0.0, 0.0, T))
    chat = convexify(fam, [ChatteringControl((0, 1), (1, 1))])
    grid = np.linspace(0.0, T, 2001)
    sig = ControlSignal(grid=grid, indices=np.zeros(grid.size - 1, dtype=int))
    relaxed = integrate(chat, delta(0.0), grid)
    density_ok = True
    sups = []
    for target in (0.2, 0.1, 0.05):
        _, _, report = relax_approximate(fam, relaxed, sig, chat, target, p=1)
        sups.append(report.constants["measured_sup"])
        density_ok &= report.passed and report.constants["measured_sup"] <= target

    # block-average identity for time-constant base fields
    blocks = np.linspace(0.0, T, 6)
    from wassinc import aumann_realize

    realized, _ = aumann_realize(sig, chat, blocks)
    x = np.array([[0.4]])
    c = delta(0.0).points
    identity_gap = 0.0
    for a, b in zip(blocks[:-1], blocks[1:]):
        mix = (b - a) * chat.rule(a, c, [0], x)[0]
        total = np.zeros_like(x)
        for k in range(realized.n_intervals):
            lo, hi = realized.grid[k], realized.grid[k + 1]
            ov = max(0.0, min(hi, b) - max(lo, a))
            if ov > 0:
                total += ov * fam.rule(lo, c, [realized.indices[k]], x)[0]
        identity_gap = max(identity_gap, abs(float(total[0, 0]) - float(mix[0, 0])))
    record(9, "relaxation density", density_ok and identity_gap <= 1e-12,
           "sup deviations " + ", ".join(f"{s:.2e}" for s in sups)
           + f"; block-average gap {identity_gap:.1e}")


def test_criterion_10_determinism(tmp_path):
    scenarios = {
        "gronwall": {
            "p": 1, "T": 1.0, "d": 2, "N": 8, "seed": 123,
            "initial": {"kind": "gaussian", "sigma": 1.0},
            "field": {"label": "mean_attraction", "kappa": 1.0,
                      "rates": {"m": 1.0, "l": 1.0, "L": 1.0}},
            "grid": {"steps": 64},
            "experiment": {"kind": "verify", "what": "momentum"},
        },
        "peano": {
            "p": 1, "T": 1.0, "d": 1, "N": 4, "seed": 9,
            "initial": {"kind": "uniform", "halfwidth": 1.0},
            "family": {"label": "mean_gain", "controls": [0.5, 1.0],
                       "rates": {"m": 1.0, "l": 1.0, "L": 1.0}},
            "grid": {"steps": 32},
            "experiment": {"kind": "peano", "n": 8, "substeps": 4, "strategy": "random"},
        },
    }
    ok = True
    for name, raw in scenarios.items():
        config = parse_config(raw)
        out_a, out_b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        man_a = run_scenario(config, out_a)
        man_b = run_scenario(config, out_b)
        ok &= man_a["files"] == man_b["files"]
        for fname in man_a["files"]:
            ok &= (out_a / fname).read_bytes() == (out_b / fname).read_bytes()
        ok &= (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()
    record(10, "byte-identical reruns", ok)
