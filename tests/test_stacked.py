"""The stacked family contract: ``rule(t, cloud, idx, X)[i]`` is control
``idx[i]`` alone, and every selection over a stack equals a per-control
loop, ties going to the lowest index.  The oracles below are the
one-control formulas and loops, written out here."""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from wassinc import ParticleCloud, convexify, integrate, peano_solve, signal_field
from wassinc.catalog import constants_family, gain_family, mean_gain_family
from wassinc.dynamics import ball_grid
from wassinc.filippov import filippov_track
from wassinc.inclusion import ControlSignal, ball_gaps, inclusion_residual

from conftest import const_rates, control_field

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
    return float(u) * (cloud.mean()[None, :] - X)


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
    stack = family.rule(0.3, cloud, idx, X)
    assert stack.shape == (idx.size,) + X.shape
    for i, k in enumerate(idx):
        assert_bitwise(stack[i], oracle(kind, controls, k, cloud, X))
    for k in range(family.size):
        assert_bitwise(family.rule(0.3, cloud, [k], X)[0], oracle(kind, controls, k, cloud, X))


@settings(max_examples=60, deadline=None)
@given(KINDS, GAINS, DIMS, st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 4]), SEEDS)
def test_convexify_stack_equals_mixture_loop(kind, gains, d, q, steps, seed):
    rng, cloud, X = draw(seed, 3, d)
    family, controls = make_family(kind, gains, d)
    chat = convexify(family, q=q, weight_steps=steps)
    if q > 1:  # the mixtures repeat bases and carry zero weights
        assert any(len(set(c.base_indices)) < q for c in chat.controls)
        assert any(0 in c.weight_numerators for c in chat.controls)
    idx = np.concatenate([np.arange(chat.size), rng.integers(chat.size, size=3)])
    stack = chat.rule(0.7, cloud, idx, X)
    for i, k in enumerate(idx):
        assert_bitwise(stack[i], mixture_oracle(kind, controls, chat.controls[k], cloud, X))


def test_convexify_zero_weight_skips_an_infinite_velocity():
    controls = [np.array([np.inf, 1.0]), np.array([1.0, -np.inf]), np.array([0.5, 0.0])]
    family = constants_family(controls, const_rates(1.0, 0.0, 0.0))
    chat = convexify(family, q=2, weight_steps=2)
    cloud, X = ParticleCloud(np.zeros((1, 2))), np.zeros((3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0 * inf on the way
        stack = chat.rule(0.0, cloud, np.arange(chat.size), X)
    for i, c in enumerate(chat.controls):
        with np.errstate(invalid="ignore"):  # the oracle may add inf and -inf
            assert_bitwise(stack[i], mixture_oracle("constants", controls, c, cloud, X))


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
    for t, nu in zip(ref.grid.tolist(), ref.clouds):
        pts = nu.points if math.isinf(R) else nu.points[np.linalg.norm(nu.points, axis=1) <= R]
        if pts.shape[0] == 0:
            expected.append(0.0)
            continue
        target = w.rule(t, nu, [0], pts)[0]
        expected.append(min(sup_gap(target, oracle(kind, controls, k, nu, pts))
                            for k in range(family.size)))
    _, _, cert = filippov_track(family, ref, w, start, R, tol=1e-300, max_iter=1, p=2.0)
    assert_bitwise(cert.eta_R, np.array(expected))


@settings(max_examples=30, deadline=None)
@given(KINDS, GAINS, DIMS, st.integers(2, 5), SEEDS)
def test_ball_gaps_equal_control_loop(kind, gains, d, n, seed):
    family, controls = make_family(kind, gains, d)
    w, ref, measure = reference(d, n, seed)
    t, nu = ref.times[2], ref.clouds[2]
    norms = np.linalg.norm(nu.points, axis=1)
    field = control_field(family, family.size - 1)
    for R in (0.5 * norms.min(), 0.5 * (norms.min() + norms.max()), math.inf):  # empty, partial, full ball
        pts = nu.points[norms <= R]
        expected = np.array([sup_gap(w.rule(t, nu, [0], pts)[0], oracle(kind, controls, k, measure, pts)) if pts.size else 0.0
                             for k in range(family.size)])
        assert_bitwise(ball_gaps(family, t, measure, w, nu, R), expected)
        assert_bitwise(ball_gaps(field, t, measure, w, nu, R), expected[-1:])


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
    X = [start.points]  # X_{k+1} = X_k + h f_{sigma_k}(t_k, ref_k, X_k)
    for k, (t0, t1) in enumerate(zip(ref.times, ref.times[1:])):
        X.append(X[k] + (t1 - t0) * oracle("mean_gain", controls, signal.indices[k], ref.clouds[k], X[k]))
    assert_bitwise(traj.points, np.array(X))


@settings(max_examples=30, deadline=None)
@given(KINDS, GAINS, DIMS, st.integers(1, 4), SEEDS, st.sampled_from([1, 2]))
def test_min_norm_selection_equals_control_loop(kind, gains, d, n, seed, substeps):
    family, controls = make_family(kind, gains, d)
    rng = np.random.Generator(np.random.Philox(key=seed))
    start = ParticleCloud(rng.standard_normal((n, d)))
    traj, signal = peano_solve(family, start, 3, substeps, "min_norm")
    for k in range(signal.n_intervals):
        delayed = traj.clouds[max(0, k - substeps)]
        probes = np.concatenate((delayed.points, traj.clouds[k].points))
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
    for t, nu in zip(grid[:-1].tolist(), ref.clouds):
        pts = nu.points if math.isinf(R) else nu.points[np.linalg.norm(nu.points, axis=1) <= R]
        gaps = [sup_gap(w.rule(t, nu, [0], pts)[0], oracle(kind, controls, i, nu, pts)) if pts.size else 0.0
                for i in range(family.size)]
        first.append(loop_argmin(gaps))
    sig = ControlSignal(grid=grid, indices=first)
    cur = integrate(signal_field(family, sig, ref), start, grid)
    # one re-selection against the previous slice, on the current measure
    second = []
    for j, t in enumerate(grid[:-1].tolist()):
        pieces = [cur.clouds[j].points, ref.clouds[j].points]
        if not math.isinf(R):
            pieces.append(ball_grid(R, d, R / 8.0))
        probes = np.concatenate(pieces)
        prev = oracle(kind, controls, first[j], ref.clouds[j], probes)
        second.append(loop_argmin([sup_gap(prev, oracle(kind, controls, i, cur.clouds[j], probes))
                                   for i in range(family.size)]))
    _, signal, cert = filippov_track(family, ref, w, start, R, tol=1e-300, max_iter=2, p=2.0)
    assert list(signal.indices) == (second if cert.iterations == 2 else first)
