"""The stacked family contract: ``rule(t, points, idx, X)[i]`` is control
``idx[i]`` alone, a block call over K nodes is the K one-node calls
stacked, and every selection over a stack equals a per-control loop, ties
going to the lowest index.  The oracles below are the
one-control formulas and loops, written out here."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wassinc import ParticleCloud, Trajectory, convexify, integrate, peano_solve, signal_field
from wassinc import bounds, config as config_module, dynamics
from wassinc.catalog import constants_family, gain_family, mean_gain_family
from wassinc.config import parse_config
from wassinc.dynamics import ControlledFamily, ball_grid
from wassinc.filippov import filippov_track
from wassinc.inclusion import ControlSignal, ball_gaps, inclusion_residual
from wassinc.measure import moment, wasserstein_cost
from wassinc.verify import verify_gronwall_local, verify_hypotheses_probe

from conftest import const_rates, control_field, mixtures

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.sampled_from([1, 2, 3])
# few distinct values, so stacks repeat controls and selections tie exactly
GAINS = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.0]), min_size=1, max_size=4)
KINDS = st.sampled_from(["constants", "gain", "mean_gain"])


def one_control(kind, u, cloud, X):
    """The per-control rule of each catalog family."""
    if kind == "constants":
        return np.broadcast_to(np.asarray(u, dtype=float), X.shape).copy()
    if kind == "gain":
        return -float(u) * X
    return float(u) * (cloud.points.mean(axis=0)[None, :] - X)


def make_family(kind, gains, d):
    rates = const_rates(2.0, 2.0, 2.0)
    if kind == "constants":
        controls = [np.full(d, g) * np.arange(1, d + 1) for g in gains]
        return constants_family(controls, rates), controls
    build = gain_family if kind == "gain" else mean_gain_family
    return build(gains, rates), gains


def oracle(kind, controls, k, cloud, X):
    return one_control(kind, controls[k], cloud, X)


def mixture_oracle(kind, controls, chat_control, cloud, X):
    """The skip-zero mixture loop: sum of k_j v_{b_j} over nonzero k_j, / den."""
    acc = np.zeros_like(X)
    for b, k in zip(chat_control.base_indices, chat_control.weight_numerators):
        if k:
            acc += k * one_control(kind, controls[b], cloud, X)
    return acc / chat_control.weight_den


def sup_gap(a, b):
    return float(np.max(np.linalg.norm(a - b, axis=1)))


def loop_argmin(values):
    best = 0
    for i, v in enumerate(values):
        if v < values[best]:
            best = i
    return best


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def draw(seed, n, d):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng, ParticleCloud(2.0 * rng.standard_normal((n, d))), 3.0 * rng.standard_normal((n + 2, d))


@settings(max_examples=60, deadline=None)
@given(KINDS, GAINS, DIMS, st.integers(1, 5), SEEDS)
def test_catalog_stack_equals_one_control(kind, gains, d, n, seed):
    rng, cloud, X = draw(seed, n, d)
    family, controls = make_family(kind, gains, d)
    idx = rng.integers(family.size, size=int(rng.integers(1, 2 * family.size + 1)))
    stack = family.rule(0.3, cloud.points, idx, X)
    assert stack.shape == (idx.size,) + X.shape
    for i, k in enumerate(idx):
        assert_bitwise(stack[i], oracle(kind, controls, k, cloud, X))
    for k in range(family.size):
        assert_bitwise(family.rule(0.3, cloud.points, [k], X)[0], oracle(kind, controls, k, cloud, X))


@settings(max_examples=60, deadline=None)
@given(KINDS, GAINS, DIMS, st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 4]), SEEDS)
def test_convexify_stack_equals_mixture_loop(kind, gains, d, q, steps, seed):
    rng, cloud, X = draw(seed, 3, d)
    family, controls = make_family(kind, gains, d)
    chat = convexify(family, mixtures(family.size, q, steps))
    if q > 1:  # the mixtures repeat bases and carry zero weights
        assert any(len(set(c.base_indices)) < q for c in chat.controls)
        assert any(0 in c.weight_numerators for c in chat.controls)
    idx = np.concatenate([np.arange(chat.size), rng.integers(chat.size, size=3)])
    stack = chat.rule(0.7, cloud.points, idx, X)
    for i, k in enumerate(idx):
        assert_bitwise(stack[i], mixture_oracle(kind, controls, chat.controls[k], cloud, X))


def test_convexify_zero_weight_skips_an_infinite_velocity():
    controls = [np.array([np.inf, 1.0]), np.array([1.0, -np.inf]), np.array([0.5, 0.0])]
    family = constants_family(controls, const_rates(1.0, 0.0, 0.0))
    chat = convexify(family, mixtures(3, 2, 2))
    cloud, X = ParticleCloud(np.zeros((1, 2))), np.zeros((3, 2))
    every = np.arange(chat.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0 * inf on the way
        stack = chat.rule(0.0, cloud.points, every, X)
        nodes = chat.rule(np.array([0.0, 1.0]), np.stack([cloud.points] * 2), np.stack([every, every[::-1]]),
                          np.stack([X] * 2))
    assert_bitwise(nodes[0], stack)
    assert_bitwise(nodes[1], stack[::-1])
    for i, c in enumerate(chat.controls):
        with np.errstate(invalid="ignore"):  # the oracle may add inf and -inf
            assert_bitwise(stack[i], mixture_oracle("constants", controls, c, cloud, X))


def clouds(traj):
    """The checked cloud of every node of ``traj``, the per-node loops' measure."""
    return [traj.at(t) for t in traj.times]


def reference(d, n, seed, steps=6):
    rng = np.random.Generator(np.random.Philox(key=seed))
    w = control_field(mean_gain_family([1.25], const_rates(1.25, 1.25, 1.25)), 0)
    nu0 = ParticleCloud(rng.standard_normal((n, d)))
    start = ParticleCloud(rng.standard_normal((n, d)))
    return w, integrate(w, nu0, np.linspace(0.0, 1.0, steps + 1)), start


@settings(max_examples=30, deadline=None)
@given(KINDS, GAINS, DIMS, st.integers(1, 4), SEEDS, st.sampled_from([math.inf, 1.0]))
def test_mismatch_equals_control_loop(kind, gains, d, n, seed, R):
    family, controls = make_family(kind, gains, d)
    w, ref, start = reference(d, n, seed)
    expected = []
    for t, nu in zip(ref.grid.tolist(), clouds(ref)):
        pts = nu.points if math.isinf(R) else nu.points[np.linalg.norm(nu.points, axis=1) <= R]
        if pts.shape[0] == 0:
            expected.append(0.0)
            continue
        target = w.rule(t, nu.points, [0], pts)[0]
        expected.append(min(sup_gap(target, oracle(kind, controls, k, nu, pts))
                            for k in range(family.size)))
    _, _, cert = filippov_track(family, ref, w, start, R, tol=1e-300, max_iter=1, p=2.0)
    assert_bitwise(cert.eta_R, np.array(expected))


@settings(max_examples=30, deadline=None)
@given(KINDS, GAINS, DIMS, st.integers(2, 5), SEEDS)
def test_ball_gaps_equal_control_loop(kind, gains, d, n, seed):
    # the masked gaps of every node against the parent's per-node loop over the atoms inside the ball
    family, controls = make_family(kind, gains, d)
    w, ref, measure = reference(d, n, seed)
    mu = integrate(control_field(family, 0), measure, ref.grid)
    norms = np.linalg.norm(ref.points, axis=-1)
    field = control_field(family, family.size - 1)
    for R in (0.5 * norms.min(), 0.5 * (norms.min() + norms.max()), norms.max(), math.inf):  # empty ... full
        expected = []
        for t, mu_k, nu in zip(ref.times, clouds(mu), clouds(ref)):
            pts = nu.points[np.linalg.norm(nu.points, axis=1) <= R]
            expected.append([sup_gap(w.rule(t, nu.points, [0], pts)[0], oracle(kind, controls, k, mu_k, pts)) if pts.size
                             else 0.0 for k in range(family.size)])
        expected = np.array(expected)
        assert_bitwise(ball_gaps(family, ref.grid, mu.points, w, ref.points, R), expected)
        assert_bitwise(ball_gaps(field, ref.grid, mu.points, w, ref.points, R), expected[:, -1:])
    assert (norms <= 0.5 * norms.min()).sum() == 0  # the first ball is empty at every node


@settings(max_examples=30, deadline=None)
@given(KINDS, GAINS, DIMS, st.integers(1, 4), SEEDS, st.sampled_from([math.inf, 1.0]))
def test_one_iteration_velocity_gap_is_the_mismatch(kind, gains, d, n, seed, R):
    # the first iterate steps with the mismatch argmin and the reference's measure
    family, _ = make_family(kind, gains, d)
    w, ref, start = reference(d, n, seed)
    _, _, cert = filippov_track(family, ref, w, start, R, tol=1e-300, max_iter=1, p=2.0)
    assert_bitwise(cert.velocity_gap[:-1], cert.eta_R[:-1])
    assert cert.velocity_gap[-1] >= cert.eta_R[-1]  # node M keeps the last interval's control


@settings(max_examples=30, deadline=None)
@given(GAINS, DIMS, st.integers(1, 4), SEEDS)
def test_one_iteration_is_the_euler_loop_on_the_reference_measure(gains, d, n, seed):
    family, controls = make_family("mean_gain", gains, d)
    w, ref, start = reference(d, n, seed)
    traj, signal, _ = filippov_track(family, ref, w, start, math.inf, tol=1e-300, max_iter=1, p=2.0)
    X, nu = [start.points], clouds(ref)  # X_{k+1} = X_k + h f_{sigma_k}(t_k, ref_k, X_k)
    for k, (t0, t1) in enumerate(zip(ref.times, ref.times[1:])):
        X.append(X[k] + (t1 - t0) * oracle("mean_gain", controls, signal.indices[k], nu[k], X[k]))
    assert_bitwise(traj.points, np.array(X))


@settings(max_examples=30, deadline=None)
@given(KINDS, GAINS, DIMS, st.integers(1, 4), SEEDS, st.sampled_from([1, 2]))
def test_min_norm_selection_equals_control_loop(kind, gains, d, n, seed, substeps):
    family, controls = make_family(kind, gains, d)
    rng = np.random.Generator(np.random.Philox(key=seed))
    start = ParticleCloud(rng.standard_normal((n, d)))
    traj, signal = peano_solve(family, start, 3, substeps, "min_norm")
    nodes = clouds(traj)
    for k in range(signal.n_intervals):
        delayed = nodes[max(0, k - substeps)]
        probes = np.concatenate((delayed.points, nodes[k].points))
        norms = [sup_gap(oracle(kind, controls, i, delayed, probes), 0.0)
                 for i in range(family.size)]
        assert signal.indices[k] == loop_argmin(norms)


@settings(max_examples=30, deadline=None)
@given(KINDS, GAINS, GAINS, DIMS, st.integers(1, 4), SEEDS)
def test_inclusion_residual_equals_control_loop(kind, gains, used_gains, d, n, seed):
    family, controls = make_family(kind, gains, d)
    used, _ = make_family(kind, used_gains, d)
    rng = np.random.Generator(np.random.Philox(key=seed))
    start = ParticleCloud(rng.standard_normal((n, d)))
    grid = np.linspace(0.0, 1.0, 5)
    traj = integrate(signal_field(used, ControlSignal(grid=grid, indices=rng.integers(used.size, size=4))), start, grid)
    signal = ControlSignal(grid=grid, indices=rng.integers(family.size, size=4))
    delay = 0.25
    expected = []  # the delayed Euler step replayed with the recorded control, one control at a time
    for k in range(signal.n_intervals):
        t0, t1 = float(grid[k]), float(grid[k + 1])
        X = traj.at(t0).points
        step = X + (t1 - t0) * oracle(kind, controls, signal.indices[k], traj.at(t0 - delay), X)
        expected.append(sup_gap(traj.at(t1).points, step) / (t1 - t0))
    assert_bitwise(inclusion_residual(traj, signal, family, delay), np.array(expected))


@settings(max_examples=30, deadline=None)
@given(KINDS, GAINS, DIMS, st.integers(1, 4), SEEDS, st.sampled_from([math.inf, 1.5]))
def test_tracking_reselection_equals_control_loop(kind, gains, d, n, seed, R):
    family, controls = make_family(kind, gains, d)
    w, ref, start = reference(d, n, seed)
    grid = ref.grid
    # first selection: the mismatch argmin along the reference, as a loop
    first = []
    for t, nu in zip(grid[:-1].tolist(), clouds(ref)):
        pts = nu.points if math.isinf(R) else nu.points[np.linalg.norm(nu.points, axis=1) <= R]
        gaps = [sup_gap(w.rule(t, nu.points, [0], pts)[0], oracle(kind, controls, i, nu, pts)) if pts.size else 0.0
                for i in range(family.size)]
        first.append(loop_argmin(gaps))
    sig = ControlSignal(grid=grid, indices=first)
    cur = integrate(signal_field(family, sig, ref), start, grid)
    # one re-selection against the previous slice, on the current measure
    second, mu, nu = [], clouds(cur), clouds(ref)
    for j, t in enumerate(grid[:-1].tolist()):
        pieces = [mu[j].points, nu[j].points]
        if not math.isinf(R):
            pieces.append(ball_grid(R, d, R / 8.0))
        probes = np.concatenate(pieces)
        prev = oracle(kind, controls, first[j], nu[j], probes)
        second.append(loop_argmin([sup_gap(prev, oracle(kind, controls, i, mu[j], probes))
                                   for i in range(family.size)]))
    _, signal, cert = filippov_track(family, ref, w, start, R, tol=1e-300, max_iter=2, p=2.0)
    assert list(signal.indices) == (second if cert.iterations == 2 else first)


def signed_zeros(rng, values):
    """``values`` with about a fifth of its entries set to +0.0 or -0.0."""
    zeros = np.copysign(0.0, rng.standard_normal(values.shape))
    return np.where(rng.random(values.shape) < 0.2, zeros, values)


def catalog_entries(d, gains):
    """Every catalog field and family, by label, as the config builds it: the rotation field needs d = 2."""
    rates = {"m": 1.0, "l": 1.0, "L": 1.0}
    vector = [float(g) for g in (gains * d)[:d]]
    fields = {"zero": {}, "constant": {"vector": vector}, "linear_decay": {}, "mean_attraction": {"kappa": -1.5},
              "bounded_kernel": {}, "rotation": {}}
    families = {"constants": {"controls": [vector, [-v for v in vector]]}, "gain": {"controls": gains},
                "mean_gain": {"controls": gains}}
    assert set(fields) == set(config_module.FIELDS) and set(families) == set(config_module.FAMILIES)
    out = {label: config_module.build_field({"label": label, **spec, "rates": rates}, 1.0, d)
           for label, spec in fields.items() if label != "rotation" or d == 2}
    out.update((label, config_module.build_family({"label": label, **spec, "rates": rates}, 1.0, d))
               for label, spec in families.items())
    return out


def stacked(family, times, points, idx, X):
    """The one-node rule at every node, stacked: the reference of a block call."""
    return np.stack([family.rule(t, c, u, x) for t, c, u, x in zip(times.tolist(), points, idx, X)])


@settings(max_examples=60, deadline=None)
@given(GAINS, DIMS, st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]),
       st.sampled_from([2, 3]), SEEDS)
def test_block_call_equals_per_node_calls(gains, d, K, n, q, steps, seed):
    # every catalog label (bounded_kernel too), each as a signal field with and without a
    # measure curve, and each convexified: the block gathers are what this reaches
    rng = np.random.Generator(np.random.Philox(key=seed))
    times = np.sort(rng.uniform(0.0, 1.0, K))
    points = signed_zeros(rng, rng.standard_normal((K, n, d)))
    X = signed_zeros(rng, 2.0 * rng.standard_normal((K, n + 1, d)))
    grid = np.linspace(0.0, 1.0, 4)
    curve = Trajectory(grid, signed_zeros(rng, rng.standard_normal((grid.size, n, d))))
    entries = catalog_entries(d, gains + [float(rng.uniform(-2.0, 2.0))])  # a gain whose mixtures round
    assert set(entries) == {*config_module.FIELDS, *config_module.FAMILIES} - ({"rotation"} if d != 2 else set())
    for label, family in list(entries.items()):
        signal = ControlSignal(grid, rng.integers(family.size, size=grid.size - 1))
        entries[f"{label}|signal"] = signal_field(family, signal)
        entries[f"{label}|signal|curve"] = signal_field(family, signal, curve)
        entries[f"{label}|chattering"] = convexify(family, mixtures(family.size, q, steps))
    for label, family in entries.items():
        # a field evaluates its one control; a family a stack of repeated indices
        idx = rng.integers(family.size, size=(K, 1 if family.size == 1 else family.size + 2))
        block = family.rule(times, points, idx, X)
        assert block.shape == (K, idx.shape[1], n + 1, d), label
        assert_bitwise(block, stacked(family, times, points, idx, X))


def test_gaps_of_a_rule_over_the_node_axis_equal_per_node_loop():
    def rule(t, points, idx, X):  # v_u = u (X - t mean(mu)), written once over an optional node axis
        drift = X - np.asarray(t)[..., None, None] * points.mean(axis=-2)[..., None, :]
        return np.asarray(idx, dtype=float)[..., None, None] * drift[..., None, :, :]

    family = ControlledFamily(controls=(0, 1, 2), rule=rule, rates=const_rates(1.0, 1.0, 1.0))
    rng = np.random.Generator(np.random.Philox(key=5))
    times, points, X = np.array([0.0, 0.5, 1.0]), rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 2, 2))
    idx = np.array([[2, 0, 2], [1, 1, 0], [0, 2, 1]])
    assert_bitwise(family.rule(times, points, idx, X), stacked(family, times, points, idx, X))
    target = rng.standard_normal((3, 2, 2))
    expected = [[sup_gap(target[k], rule(t, points[k], [u], X[k])[0]) for u in range(3)]
                for k, t in enumerate(times.tolist())]
    assert_bitwise(family.gaps(times, points, target, X), np.array(expected))


def parent_probe(config):
    """The per-sample loop of ``verify_hypotheses_probe`` before its rule uses were batched:
    one checked ParticleCloud and 1-row rule calls per sample, in the same draw order."""
    n_samples = max(1000, config.experiment["samples"])
    family = config.family or config.field
    rates = family.rates
    rng = np.random.Generator(np.random.Philox(key=np.uint64(config.seed)))
    base = config.start().points

    def jitter_cloud():
        scale = rng.uniform(0.5, 2.0)
        shift = rng.normal(0.0, 0.5, config.d)
        return ParticleCloud(scale * base + shift)

    def ratio(num, den):
        return 0.0 if num <= 1e-15 else num / den if den > 0 else math.inf

    samples = []
    for _ in range(n_samples):
        t = float(rng.uniform(0.0, config.T))
        cloud = jitter_cloud()
        u = [int(rng.integers(family.size))]
        x = cloud.points[int(rng.integers(cloud.n))][None, :]
        vx = family.rule(t, cloud.points, u, x)[0]
        den = rates.at("m", t) * (1.0 + float(np.linalg.norm(x)) + moment(cloud, config.p))
        samples.append((t, "m", ratio(float(np.linalg.norm(vx)), den)))
        y = x + rng.normal(0.0, 0.3, config.d)
        num = float(np.linalg.norm(vx - family.rule(t, cloud.points, u, y)[0]))
        samples.append((t, "l", ratio(num, rates.at("l", t) * float(np.linalg.norm(x - y)))))
        if family.measure_dependent:
            other = jitter_cloud()
            probes = np.concatenate((cloud.points, other.points))
            used = family.rule(t, cloud.points, u, probes)
            gaps = np.linalg.norm(used - family.rule(t, other.points, np.arange(family.size), probes), axis=-1).max(axis=-1)
            samples.append((t, "L", ratio(float(gaps.min()), rates.at("L", t) * wasserstein_cost(cloud, other, config.p))))
    times, labels, measured = (np.array(column) for column in zip(*samples))
    constants = {f"max_ratio_{k}": max([0.0] + [r for _, rate, r in samples if rate == k]) for k in "mlL"}
    return times, labels, measured, constants


PROBED = {
    "field": {"label": "mean_attraction", "kappa": 1.5, "rates": {"m": 1.5, "l": 1.5, "L": 1.5}},
    "measure-free field": {"label": "linear_decay", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}},
    "family": {"label": "mean_gain", "controls": [0.5, -1.0, 2.0], "rates": {"m": 2.0, "l": 2.0, "L": 2.0}},
    "measure-free family": {"label": "constants", "controls": [[1.0, -0.5], [0.0, 2.0]],
                            "rates": {"m": 2.0, "l": 0.0, "L": 0.0}},
}


@pytest.mark.parametrize("seed", [0, 21, 2**32 - 1])
@pytest.mark.parametrize("subject", PROBED)
def test_batched_probe_equals_per_sample_loop(subject, seed):
    block = "field" if "field" in subject else "family"
    raw = {"p": 2, "T": 1.0, "d": 2, "N": 5, "seed": seed, "initial": {"kind": "gaussian", "sigma": 1.0},
           block: PROBED[subject], "grid": {"steps": 10},
           "experiment": {"kind": "verify", "what": "hypotheses_probe", "samples": 1000}}
    config = parse_config(raw)
    result = verify_hypotheses_probe(config)
    times, labels, measured, constants = parent_probe(config)
    assert_bitwise(result["times"], times)
    assert_bitwise(result["measured"], measured)
    np.testing.assert_array_equal(result["extras"]["rate"], labels)
    assert result["constants"] == {**constants, "n_triples": 1000}
    assert (labels == "L").any() == (subject in ("field", "family"))


def test_node_blocks_split_the_node_axis(monkeypatch):
    monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", 10)
    for nodes, per_node in [(0, 3), (1, 100), (7, 3), (9, 3), (5, 0)]:
        blocks = dynamics.node_blocks(nodes, per_node)
        assert [k for b in blocks for k in range(b.start, b.stop)] == list(range(nodes))
        assert all(b.stop - b.start == max(1, 10 // max(per_node, 1)) for b in blocks[:-1])


@pytest.mark.parametrize("entries", [1, 40])
def test_sweeps_in_node_blocks_keep_the_bits(monkeypatch, entries):
    # one node or a few per block, against the one block every bundled sweep fits in
    family, _ = make_family("mean_gain", [0.5, -0.0, 2.0], 2)
    w, ref, start = reference(2, 3, 11)
    probe = parse_config({"p": 2, "T": 1.0, "d": 2, "N": 3, "seed": 4, "initial": {"kind": "gaussian", "sigma": 1.0},
                          "family": PROBED["family"], "grid": {"steps": 10},
                          "experiment": {"kind": "verify", "what": "hypotheses_probe", "samples": 1000}})

    def sweeps():
        traj, signal, cert = filippov_track(family, ref, w, start, 1.5, tol=1e-300, max_iter=3, p=2.0)
        return [traj.points, signal.indices, cert.eta_R, cert.velocity_gap, verify_hypotheses_probe(probe)["measured"]]

    whole = sweeps()
    monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", entries)
    for blocked, expected in zip(sweeps(), whole):
        assert_bitwise(blocked, expected)


@pytest.mark.parametrize("R", [0.5, math.inf])
def test_gronwall_gap_series_equals_per_node_loop(monkeypatch, R):
    # a measure-dependent field reads its own curve mu, the reference field w the reference curve nu
    increments, series = [], bounds.gronwall_series
    monkeypatch.setattr(bounds, "gronwall_series", lambda **kw: increments.append(kw["increments"]) or series(**kw))
    config = parse_config({
        "p": 2, "T": 1.0, "d": 2, "N": 6, "seed": 3, "initial": {"kind": "gaussian", "sigma": 1.0},
        "field": {"label": "mean_attraction", "kappa": 1.5, "rates": {"m": 1.5, "l": 1.5, "L": 1.5}},
        "grid": {"steps": 12},
        "experiment": {"kind": "verify", "what": "gronwall_local", "R": R, "ref_initial": {"kind": "uniform", "halfwidth": 1.0},
                       "w": {"label": "linear_decay", "rates": {"m": 1.0, "l": 1.0, "L": 0.0}}},
    })
    verify_gronwall_local(config)
    v, w, grid = config.field, config.experiment["w"], config.time_grid()
    mu, nu = integrate(v, config.start(), grid), config.reference()
    gaps = []
    for t, mu_k, nu_k in zip(grid[:-1].tolist(), clouds(mu), clouds(nu)):
        pts = nu_k.points[np.linalg.norm(nu_k.points, axis=1) <= R]
        gaps.append(sup_gap(w.rule(t, nu_k.points, [0], pts)[0], v.rule(t, mu_k.points, [0], pts)[0]) if pts.size else 0.0)
    assert_bitwise(increments[0], np.array(gaps) * np.diff(grid))
