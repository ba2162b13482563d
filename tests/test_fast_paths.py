"""Each fast path of the step loops against the exact path it replaces.

* N = 1 W_p skips the assignment solver: bitwise equal to the solver path,
  including the inf cost the solver rejects.
* A per-node W_p series over two (K, N, d) stacks runs on a thread per
  usable core for N >= 64: bitwise equal to one ``wasserstein_cost`` per
  node, in input order, with the checks before any solve and the solver's
  error from a worker.
* Scalar time lookups of curves and signals bisect a Python list: equal
  to the ``np.searchsorted`` formula they replace, on nodes, one ulp
  either side and outside [0, T]; a rate's scalar lookup is its array
  lookup, as a float.
* A Trajectory is one read-only array: ``at(t)`` is a checked copy of a
  row, equal bit for bit to it, the array equals the per-step loop that
  built one cloud per step, no step can write it, and the public
  constructors keep their checks.
* A signal field bound to a curve (``signal_field(family, signal,
  measure)``): integrating it equals, bit for bit, the per-step loop that
  hands the unbound field ``measure.at(t)``, and its rule returns the same
  bits whatever cloud it is handed.
"""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from wassinc import ControlledFamily, ParticleCloud, RateFunctions, Trajectory, convexify, integrate, signal_field
from wassinc import measure
from wassinc.catalog import bounded_kernel_field, gain_family, mean_attraction_field, mean_gain_family, rotation_field
from wassinc.dynamics import march, snapped_index, time_axis
from wassinc.errors import ShapeMismatchError
from wassinc.inclusion import ControlSignal, peano_solve
from wassinc.measure import assignment_cost, pairwise_cost, wasserstein_cost, wasserstein_costs

from conftest import mixtures

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -2.5]


def bits(x) -> bytes:
    return np.float64(x).tobytes()


# -- N = 1 W_p without the solver ---------------------------------------------


def solver_cost(a, b, p):
    """The solver path: assignment on the cost matrix, exactly rounded total."""
    D = pairwise_cost(a.points, b.points, p)
    _, sigma = linear_sum_assignment(D)
    return measure._root(assignment_cost(D, sigma) / a.n, p), sigma


coordinate = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]), data=st.data())
def test_single_atom_wp_equals_the_solver_path(d, p, data):
    a, b = (ParticleCloud(np.array([data.draw(st.lists(coordinate, min_size=d, max_size=d))]))
            for _ in range(2))
    try:
        expected, sigma = solver_cost(a, b, p)
    except ValueError as exc:  # an inf cost: the solver finds no finite assignment
        with pytest.raises(ValueError, match=str(exc)):
            wasserstein_cost(a, b, p)
        return
    assert bits(wasserstein_cost(a, b, p)) == bits(expected)
    assert measure._solve(a.points, b.points, p)[1].tolist() == sigma.tolist() == [0]


def test_single_atom_wp_calls_no_solver(monkeypatch):
    def refuse(D):
        raise AssertionError(f"solver called on a {D.shape} matrix")

    monkeypatch.setattr(measure, "linear_sum_assignment", refuse)
    assert wasserstein_cost(ParticleCloud([[3.0, 0.0]]), ParticleCloud([[0.0, 4.0]]), 2.0) == 5.0
    assert wasserstein_cost(ParticleCloud([[1.0]]), ParticleCloud([[-1.0]]), 1.0) == 2.0
    with pytest.raises(AssertionError, match=r"\(2, 2\) matrix"):
        wasserstein_cost(ParticleCloud([[0.0], [1.0]]), ParticleCloud([[1.0], [0.0]]), 1.0)


# -- a per-node W_p series on every usable core --------------------------------------


def series_stacks(rng, n, d, count=3):
    """Two (count, n, d) stacks of n-point clouds with coincident atoms and +-0.0."""
    a, b = rng.standard_normal((2, count, n, d))
    a[:, : n // 3] = a[:, :1]  # coincident atoms: many cost-equal assignments
    a[:, n // 3 : n // 2] = rng.choice([0.0, -0.0], (count, n // 2 - n // 3, d))
    b[:, : n // 4] = -0.0
    return a, b


def one_solve_per_node(a, b, p):
    return [wasserstein_cost(ParticleCloud(x), ParticleCloud(y), p) for x, y in zip(a, b)]


@pytest.fixture
def cores(monkeypatch):
    """Set the usable-core count the series sees."""
    def set_cores(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    return set_cores


@pytest.fixture
def solver_threads(monkeypatch):
    """The thread of every assignment solve, in call order."""
    seen, solve = [], measure.linear_sum_assignment
    monkeypatch.setattr(measure, "linear_sum_assignment", lambda D: seen.append(threading.get_ident()) or solve(D))
    return seen


@pytest.mark.parametrize("n", [1, 63, 64, 256])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_series_is_bitwise_equal_to_one_solve_per_pair(rng, cores, n, d, p):
    cores(2)  # serial below N = 64, pooled from it
    a, b = series_stacks(rng, n, d)
    series = wasserstein_costs(a, b, p)
    assert series.dtype == np.float64 and series.shape == (len(a),)
    assert [bits(x) for x in series] == [bits(x) for x in one_solve_per_node(a, b, p)]


def test_series_under_more_threads_than_cores_and_fast_switching(rng, cores):
    cores(8)
    a, b = series_stacks(rng, 64, 2, 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        series = wasserstein_costs(a, b, 1.5)
    finally:
        sys.setswitchinterval(interval)
    assert [bits(x) for x in series] == [bits(x) for x in one_solve_per_node(a, b, 1.5)]


@pytest.mark.parametrize("count, n, usable, pooled", [
    (2, 64, 2, True), (5, 256, 4, True),  # the pool: >= 2 nodes, N >= 64, > 1 core
    (1, 256, 2, False), (2, 63, 2, False), (2, 64, 1, False),
])
def test_pool_only_for_two_pairs_of_64_on_two_cores(rng, cores, solver_threads, count, n, usable, pooled):
    cores(usable)
    assert wasserstein_costs(*series_stacks(rng, n, 1, count), 2.0).shape == (count,)
    main = threading.get_ident()
    assert len(solver_threads) == count
    assert main not in solver_threads if pooled else set(solver_threads) <= {main}


def bad_stacks(rng):
    """Pairs of stacks each series must reject, with the error and its message."""
    a, b = series_stacks(rng, 64, 2, 4)
    nan, inf = a.copy(), b.copy()
    nan[3, 5, 1], inf[0, 63, 0] = np.nan, -np.inf
    mismatch = (ShapeMismatchError, "need two nonempty")
    return [
        ((a, b[..., :1]), mismatch),
        ((a, b[:3]), mismatch),
        ((a[:, :0], b[:, :0]), mismatch),
        ((a[:0], b[:0]), mismatch),
        ((a[0], b[0]), mismatch),
        ((nan, b), (ValueError, "must be finite")),
        ((a, inf), (ValueError, "must be finite")),
    ]


@pytest.mark.parametrize("series", [wasserstein_costs, measure.sup_wasserstein_cost])
def test_series_checks_both_stacks_before_any_solve(rng, cores, solver_threads, series):
    cores(2)
    for stacks, (error, message) in bad_stacks(rng):
        with pytest.raises(error, match=message):
            series(*stacks, 1.0)
    with pytest.raises(ValueError, match="order p must satisfy p >= 1"):
        series(*series_stacks(rng, 64, 2, 2), 0.5)
    assert solver_threads == []


def test_solver_error_raised_from_a_worker(cores, solver_threads):
    cores(2)
    # |1e300 - (-1e300)|^2 overflows: every entry of the last cost matrix is inf
    a = np.stack([np.zeros((64, 1)), np.full((64, 1), 1e300)])
    b = np.stack([np.ones((64, 1)), np.full((64, 1), -1e300)])
    with pytest.raises(ValueError) as expected:
        linear_sum_assignment(pairwise_cost(a[1], b[1], 2.0))
    with pytest.raises(ValueError, match=str(expected.value)):
        wasserstein_costs(a, b, 2.0)
    assert len(solver_threads) == 2 and threading.get_ident() not in solver_threads


def test_series_keeps_input_order(rng, cores, monkeypatch):
    cores(2)
    # a random pair first and translations after; the first node's solve is held
    # back, so the workers finish out of input order
    start = rng.standard_normal((64, 1))
    a = np.stack([rng.standard_normal((64, 1))] + [start] * 4)
    b = np.stack([rng.standard_normal((64, 1))] + [start + shift for shift in (3.0, 2.0, 1.0, 0.0)])
    expected = one_solve_per_node(a, b, 1.0)
    costs, finished, solve = [pairwise_cost(x, y, 1.0) for x, y in zip(a, b)], [], measure.linear_sum_assignment

    def held_solve(D):
        node = next(k for k, C in enumerate(costs) if np.array_equal(C, D))
        if node == 0:
            time.sleep(0.1)
        solved = solve(D)
        finished.append(node)
        return solved

    monkeypatch.setattr(measure, "linear_sum_assignment", held_solve)
    series = wasserstein_costs(a, b, 1.0)
    assert sorted(finished) == list(range(5)) and finished != sorted(finished)
    assert series.tolist() == expected
    assert series[1:].tolist() == [3.0, 2.0, 1.0, 0.0]


# -- scalar lookups by bisection ---------------------------------------------------


def searchsorted_index(grid, t, snap):
    """The lookup formula bisection replaces."""
    return max(int(np.searchsorted(grid, t + snap, side="right")) - 1, 0)


def searchsorted_rate(rates, which, t):
    vals = getattr(rates, f"{which}_values")
    return float(vals[np.clip(np.searchsorted(rates.breakpoints, t, side="right") - 1, 0, vals.size - 1)])


def probe_times(grid, rng):
    """Every node, one ulp either side of it, random points, and times outside [0, T]."""
    T = float(grid[-1])
    ts = [*grid.tolist(), *np.nextafter(grid, -np.inf).tolist(), *np.nextafter(grid, np.inf).tolist()]
    return ts + rng.uniform(-0.5 * T, 1.5 * T, 50).tolist() + [-1e300, 1e300, -math.inf, math.inf]


def random_grid(rng, nodes, T=None):
    steps = rng.uniform(1e-3, 1.0, nodes - 1) * rng.choice([1e-6, 1.0, 1e3], nodes - 1)
    grid = np.concatenate([[0.0], np.cumsum(steps)])
    return grid if T is None else grid * (T / grid[-1])


@pytest.mark.parametrize("nodes", [1, 2, 3, 17, 200])
def test_snapped_index_equals_searchsorted(rng, nodes):
    for _ in range(5):
        grid, tolerance, times = time_axis(random_grid(rng, nodes))
        for snap in (tolerance, -tolerance, 0.0):
            for t in probe_times(grid, rng):
                assert snapped_index(times, t, snap) == searchsorted_index(grid, t, snap), (t, snap)


def test_lookups_through_trajectory_and_signal(rng):
    grid = random_grid(rng, 40)
    traj = Trajectory(grid=grid, points=rng.standard_normal((40, 2, 1)))
    signal = ControlSignal(grid=grid, indices=rng.integers(0, 5, 39))
    for t in probe_times(grid, rng):
        k = searchsorted_index(grid, t, traj.snap)
        assert traj.node_index(t) == k and traj.at(t).points.tobytes() == traj.points[k].tobytes()
        assert signal.index_at(t) == signal.indices[min(searchsorted_index(grid, t, signal.snap), 38)]


@pytest.mark.parametrize("segments", [1, 2, 9])
def test_rate_lookup_equals_searchsorted(rng, segments):
    for _ in range(5):
        T = float(rng.uniform(0.1, 10.0))
        bp = random_grid(rng, segments + 1, T)
        rates = RateFunctions(bp, *(rng.uniform(0.0, 5.0, segments) for _ in range(3)))
        times = probe_times(bp, rng) + [0, 1, int(T) + 1, np.float64(0.5 * T)]
        for which in "mlL":
            got = [rates.at(which, t) for t in times]
            assert got == [searchsorted_rate(rates, which, t) for t in times]
            assert all(type(v) is float for v in got)
            assert rates.at(which, np.array(times)).tolist() == got


# -- a Trajectory is one array ------------------------------------------------------


def test_at_is_a_checked_copy_of_its_row(rng):
    pts = rng.standard_normal((6, 4, 3)) * rng.choice([1e-300, 1.0, 1e300], (6, 4, 3))
    pts[0, 0] = [-0.0, 5e-324, -5e-324]
    traj = Trajectory(grid=np.linspace(0.0, 1.0, 6), points=pts)
    pts[1, 1, 1] = 7.0  # the trajectory holds its own copy
    assert not traj.points.flags.writeable
    with pytest.raises(ValueError):
        traj.points[0, 0, 0] = 1.0
    for k, t in enumerate(traj.times):
        cloud = traj.at(t)
        assert not np.shares_memory(cloud.points, traj.points) and not cloud.points.flags.writeable
        assert cloud.points.tobytes() == traj.points[k].tobytes()
        assert (cloud.n, cloud.d) == traj.points.shape[1:]


def test_a_step_writing_its_rows_raises():
    def step(k, t0, t1, rows):
        rows[k][0, 0] = 5.0
        return rows[k]

    with pytest.raises(ValueError, match="read-only"):
        march(ParticleCloud([[1.0], [2.0]]), np.linspace(0.0, 1.0, 3), step)


@pytest.mark.parametrize("points, error", [
    (np.zeros((3, 1, 2)), None),
    (np.zeros((3, 2)), ShapeMismatchError),
    (np.zeros((2, 1, 2)), ShapeMismatchError),
    (np.zeros((3, 0, 2)), ShapeMismatchError),
    (np.zeros((3, 1, 0)), ShapeMismatchError),
    (np.full((3, 1, 2), np.nan), ValueError),
    (np.full((3, 1, 2), np.inf), ValueError),
])
def test_trajectory_constructor_checks_the_array(points, error):
    grid = np.linspace(0.0, 1.0, 3)
    if error is None:
        assert Trajectory(grid=grid, points=points).points.shape == (3, 1, 2)
    else:
        with pytest.raises(error):
            Trajectory(grid=grid, points=points)


@pytest.mark.parametrize("points, error", [
    ([[np.nan]], ValueError),
    ([[1.0, -np.inf]], ValueError),
    (np.zeros((0, 2)), ShapeMismatchError),
    (np.zeros((2, 0)), ShapeMismatchError),
    (np.zeros((2, 2, 2)), ShapeMismatchError),
])
def test_public_cloud_constructor_keeps_its_checks(points, error):
    with pytest.raises(error):
        ParticleCloud(np.asarray(points, dtype=float))


def per_step_loop(field, start, grid, method="euler", measure=None):
    """The loop the buffer replaced: one checked ParticleCloud per step.
    Given a ``measure`` curve, the rule is handed ``measure.at(t)`` instead."""
    X = start.points.copy()
    clouds = [ParticleCloud(X)]
    for k in range(len(grid) - 1):
        t0, t1 = float(grid[k]), float(grid[k + 1])
        dt = t1 - t0
        if method == "euler":
            X = X + dt * field.rule(t0, measure.at(t0).points if measure else clouds[-1].points, [0], X)[0]
        else:
            def stage(t, Y):
                return field.rule(t, measure.at(t).points if measure else ParticleCloud(Y).points, [0], Y)[0]
            k1 = stage(t0, X)
            k2 = stage(t0 + 0.5 * dt, X + 0.5 * dt * k1)
            k3 = stage(t0 + 0.5 * dt, X + 0.5 * dt * k2)
            k4 = stage(t0 + dt, X + dt * k3)
            X = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        clouds.append(ParticleCloud(X))
    return np.stack([c.points for c in clouds])


FIELDS = {
    "mean_attraction": lambda: mean_attraction_field(1.5, RateFunctions.constant(1.5, 1.5, 1.5, 1.0)),
    "bounded_kernel": lambda: bounded_kernel_field(RateFunctions.constant(1, 1, 1, 1.0)),
    "rotation": lambda: rotation_field(RateFunctions.constant(1, 1, 0, 1.0)),
}


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("name", list(FIELDS))
def test_buffer_loop_equals_per_step_loop(rng, name, method):
    field = FIELDS[name]()
    start = ParticleCloud(rng.standard_normal((5, 2)))
    grid = random_grid(rng, 25, 1.0)
    traj = integrate(field, start, grid, method=method)
    assert traj.points.tobytes() == per_step_loop(field, start, grid, method).tobytes()


def test_rules_see_read_only_rows():
    """Own and bound measure, euler and rk4, and the delayed scheme: a rule
    writing its arguments in place would change the stored trajectory."""
    seen = []

    def rule(t, points, idx, X):
        seen.append((X.flags.writeable, points.flags.writeable))
        return np.stack([-X] * len(idx))

    field = ControlledFamily(controls=(0,), rule=rule, rates=RateFunctions.constant(1, 1, 0, 1.0))
    family = ControlledFamily(controls=(0, 1), rule=rule, rates=field.rates)
    start, grid = ParticleCloud([[1.0], [2.0]]), np.linspace(0.0, 1.0, 4)
    signal = ControlSignal(grid=grid, indices=[1, 0, 1])
    trajectories = []
    for method in ("euler", "rk4"):
        traj = integrate(field, start, grid, method=method)
        trajectories += [traj, integrate(signal_field(family, signal, traj), start, grid, method=method)]
    trajectories.append(peano_solve(family, start, 3, 2, "first")[0])
    assert len(seen) == 2 * 3 + 2 * 12 + 6 and not any(flag for pair in seen for flag in pair)
    assert not any(traj.points.flags.writeable for traj in trajectories)


# -- a signal field bound to a curve ------------------------------------------


FAMILIES = {
    "gain": lambda rates: gain_family([0.5, -1.0, 2.0], rates),
    "mean_gain": lambda rates: mean_gain_family([0.5, 1.0, -0.0], rates),
    "mixtures": lambda rates: convexify(mean_gain_family([0.5, 2.0], rates), mixtures(2, 2, 3)),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(list(FAMILIES)), method=st.sampled_from(["euler", "rk4"]),
       n=st.integers(1, 6), d=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       nodes=st.tuples(st.integers(2, 12), st.integers(2, 12), st.integers(1, 12)))
def test_a_bound_signal_field_reads_only_its_curve(name, method, n, d, seed, nodes):
    """The signal, the integration and the curve each have a grid of their
    own, the curve's possibly shorter than [0, T], as in relaxation."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    family = FAMILIES[name](RateFunctions.constant(2, 2, 2, 1.0))
    signal_nodes, step_nodes, curve_nodes = nodes
    signal = ControlSignal(grid=random_grid(rng, signal_nodes, 1.0),
                           indices=rng.integers(family.size, size=signal_nodes - 1))
    curve = Trajectory(grid=random_grid(rng, curve_nodes) * rng.uniform(0.2, 1.5),
                       points=rng.standard_normal((curve_nodes, n, d)))
    start, grid = ParticleCloud(rng.standard_normal((n, d))), random_grid(rng, step_nodes, 1.0)
    bound, free = signal_field(family, signal, curve), signal_field(family, signal)

    traj = integrate(bound, start, grid, method=method)
    assert traj.points.tobytes() == per_step_loop(free, start, grid, method, curve).tobytes()

    for t in [*grid.tolist(), *rng.uniform(-0.5, 1.5, 4).tolist()]:
        X = rng.standard_normal((3, d))
        expected = free.rule(t, curve.at(t).points, [0], X).tobytes()
        for points in (curve.at(t).points, start.points, rng.standard_normal((n + 2, d)) * 1e3):
            assert bound.rule(t, points, [0], X).tobytes() == expected
