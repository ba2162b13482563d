"""Each fast path of the step loops against the exact path it replaces.

* A series of one-atom (N = 1) W_p is one array pass with no solver:
  each node bitwise equal to the solver on its 1 x 1 cost matrix, for d
  up to 9, including the inf cost the solver rejects.
* A per-node W_p series over two (K, N, d) stacks runs on a thread per
  usable core for N >= 64: bitwise equal to one ``wasserstein_cost`` per
  node, in input order, with the checks before any solve and the solver's
  error from a worker.  Below N = 64 it runs in node blocks, each block's
  cost matrices from one ``pairwise_cost`` call on the block's stacks:
  bitwise equal to each node's own ``cdist`` and solve for N up to 63, d
  up to 24 and coincident atoms, in blocks of one node or several.  Every
  W_p entry point, serial, pooled, one-atom or the sup, raises the
  solver's error on an overflowing cost, with no RuntimeWarning.
* Every time lookup of curves, signals and rates is one ``searchsorted``
  pass (``snapped_index``): a float's index is the bisection of the grid's
  list that it replaces, and an array of times gives each float's index,
  on nodes, one ulp either side and outside [0, T]; a rate's scalar
  lookup is its array lookup, as a float.
* A Trajectory is one read-only array: ``at(t)`` is a checked copy of a
  row, equal bit for bit to it, the array equals the per-step loop that
  built one cloud per step, no step can write it, and the public
  constructors keep their checks.
* ``march`` checks a node finite by its sum: a blow-up raises the
  per-entry check's BlowUpError at the same step, and a node whose sum
  overflows while its entries are finite passes.
* The mixture rule gathers every slot at once: bitwise equal to the slot
  loop it replaces, for q up to 9, one node or a block, -0.0 parent
  velocities and an inf parent under a zero weight.
* A signal field bound to a curve (``signal_field(family, signal,
  measure)``): integrating it equals, bit for bit, the per-step loop that
  hands the unbound field ``measure.at(t)``, and its rule returns the same
  bits whatever cloud it is handed; over a family that reads no measure it
  looks up no node and gives the unbound field's curve.
* A state-free family's Euler curve (``euler_curve``) is a running sum:
  bitwise equal to ``march`` over ``delayed_step``, with the same
  BlowUpError and no RuntimeWarning, one block at a time; only a family
  whose flags say it reads neither positions nor measure takes it, and
  the catalog's flags are truthful.
* Every norm adds its squares coordinate by coordinate
  (``measure.squared_norms``): bitwise ``np.linalg.norm`` for d < 8 and
  ``cdist`` for d up to 64, with inf, nan, subnormal and overflowing
  coordinates; ``pairwise_cost`` of two stacks is the stack of each
  pair's own cost matrix, for d up to 64; ``sup_norm`` is the sqrt of the
  max squared norm, with or without a mask, and the screen's
  identity-coupling total is the fsum of the solver's diagonal costs.
  The power means of moments and tails take every row's max in one
  reduction, bit for bit the row-by-row loop.  The catalog's cloud mean
  is ``mean``'s own reduction.
"""

import dataclasses
import math
import os
import sys
import threading
import time
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from wassinc import (ChatteringControl, ControlledFamily, ParticleCloud, RateFunctions, Trajectory, convexify, dynamics,
                     integrate, signal_field)
from wassinc import catalog, measure
from wassinc.catalog import (bounded_kernel_field, constant_field, constants_family, gain_family, linear_decay_field,
                             mean_attraction_field, mean_gain_family, rotation_field, zero_field)
from wassinc.dynamics import march, snapped_index, sup_norm, time_axis
from wassinc.errors import BlowUpError, ShapeMismatchError
from wassinc.inclusion import ControlSignal, peano_solve
from wassinc.measure import pairwise_cost, wasserstein_cost, wasserstein_costs

from conftest import assignment_cost, const_rates, mixtures

SEED = st.integers(0, 2**32 - 1)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -2.5]


def bits(x) -> bytes:
    return np.float64(x).tobytes()


# -- N = 1 W_p without the solver ---------------------------------------------


def solver_cost(a, b, p):
    """The solver path: assignment on the cost matrix, exactly rounded total."""
    D = pairwise_cost(a, b, p)
    _, sigma = linear_sum_assignment(D)
    return measure._root(assignment_cost(D, sigma) / len(a), p)


coordinate = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 9), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]), nodes=st.integers(1, 4), data=st.data())
def test_single_atom_wp_equals_the_solver_path(d, p, nodes, data):
    # d >= 8 too, where np.linalg.norm would sum the squares pairwise and cdist does not
    a, b = (np.array(data.draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=nodes,
                                        max_size=nodes)))[:, None] for _ in range(2))
    try:
        expected = [solver_cost(x, y, p) for x, y in zip(a, b)]
    except ValueError as exc:  # an inf cost: the solver finds no finite assignment
        for series in (wasserstein_costs, measure.sup_wasserstein_cost):
            with pytest.raises(ValueError, match=str(exc)):
                series(a, b, p)
        return
    assert [bits(x) for x in wasserstein_costs(a, b, p)] == [bits(x) for x in expected]
    assert bits(measure.sup_wasserstein_cost(a, b, p)) == bits(max(expected))


@pytest.mark.parametrize("d", range(1, 10))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_single_atom_series_of_random_nodes(rng, d, p):
    # rounded coordinates: about one node in five tells a pairwise sum of squares (d >= 8) from cdist's
    a, b = rng.uniform(-1e3, 1e3, (2, 200, 1, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, 200, 1, d))
    assert [bits(x) for x in wasserstein_costs(a, b, p)] == [bits(solver_cost(x, y, p)) for x, y in zip(a, b)]


def test_single_atom_wp_calls_no_solver(monkeypatch):
    def refuse(D):
        raise AssertionError(f"solver called on a {D.shape} matrix")

    monkeypatch.setattr(measure, "linear_sum_assignment", refuse)
    # a cost matrix of each pair, from two clouds or two stacks of them
    monkeypatch.setattr(measure, "pairwise_cost", lambda a, b, p: refuse(np.empty(a.shape[-2:-1] + b.shape[-2:-1])))
    assert wasserstein_cost(ParticleCloud([[3.0, 0.0]]), ParticleCloud([[0.0, 4.0]]), 2.0) == 5.0
    assert wasserstein_cost(ParticleCloud([[1.0]]), ParticleCloud([[-1.0]]), 1.0) == 2.0
    assert measure.sup_wasserstein_cost(np.zeros((3, 1, 2)), np.ones((3, 1, 2)), 2.0) == math.sqrt(2.0)
    with pytest.raises(AssertionError, match=r"\(2, 2\) matrix"):
        wasserstein_cost(ParticleCloud([[0.0], [1.0]]), ParticleCloud([[1.0], [0.0]]), 1.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_single_atom_overflow_raises_the_solver_error(p):
    # |1e300 - (-1e300)| overflows for every p; so does 1e300^2 inside the distance
    a = np.array([[[0.0]], [[1e300]], [[0.0]]])
    for far in (np.array([[[1.0]], [[-1e300]], [[2.0]]]), np.array([[[1.0]], [[0.0]], [[2.0]]])):
        with pytest.raises(ValueError) as expected:
            linear_sum_assignment(pairwise_cost(a[1], far[1], p))
        for series in (wasserstein_costs, measure.sup_wasserstein_cost):
            with pytest.raises(ValueError, match=str(expected.value)):
                series(a, far, p)


def test_matched_total_overflow_raises_the_solver_error():
    # every |x - y|^2 = 1.44e308 of the second node is finite, their matched total is not: the
    # one overflow rule, at both series and the sup, with no numpy warning
    a = np.zeros((2, 2, 1))
    b = np.stack([np.ones((2, 1)), np.full((2, 1), 1.2e154)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stacks in ((a, b), (a[1:], b[1:])):
            for series in (wasserstein_costs, measure.sup_wasserstein_cost):
                with pytest.raises(ValueError, match="cost matrix is infeasible"):
                    series(*stacks, 2.0)
        assert wasserstein_costs(a[:1], b[:1], 2.0).tolist() == [1.0]


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


def solve_root(x, y, p):
    """The per-node solver path the batched small-cloud series replaced: its own
    ``cdist``, power, solve and exactly rounded total."""
    D = measure._pow(cdist(x, y), p)
    sigma = linear_sum_assignment(D)[1]
    return measure._root(math.fsum(D[np.arange(len(x)), sigma].tolist()) / len(x), p)


def small_cloud_stacks(rng, nodes, n, d):
    """Two (nodes, n, d) stacks with coincident atoms within a cloud and across the two, and +-0.0."""
    a, b = rng.standard_normal((2, nodes, n, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
    a[:, : n // 3] = a[:, :1]
    b[:, n // 3 : n // 2] = a[:, n // 3 : n // 2]
    b[:, n // 2 : n // 2 + n // 5] = rng.choice([0.0, -0.0], (nodes, n // 5, d))
    return a, b


@settings(max_examples=150, deadline=None)
@given(SEED, st.integers(2, 63), st.integers(1, 24), st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.integers(1, 4))
def test_small_cloud_series_is_each_nodes_solve(seed, n, d, p, nodes):
    a, b = small_cloud_stacks(np.random.Generator(np.random.Philox(key=seed)), nodes, n, d)
    assert [bits(x) for x in wasserstein_costs(a, b, p)] == [bits(solve_root(x, y, p)) for x, y in zip(a, b)]


@pytest.mark.parametrize("nodes_a_block", [1, 2, 5])
def test_small_cloud_series_in_node_blocks_keeps_the_bits(rng, monkeypatch, nodes_a_block):
    # 7-point clouds over eleven nodes; a block holds four (nodes, 7, 7) arrays
    a, b = small_cloud_stacks(rng, 11, 7, 3)
    expected = [bits(solve_root(x, y, 1.5)) for x, y in zip(a, b)]
    blocks, split = [], dynamics.node_blocks

    def recorded(nodes, per_node):
        out = split(nodes, per_node)
        blocks.extend(out)
        return out

    monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", nodes_a_block * 4 * 7 * 7)
    monkeypatch.setattr(dynamics, "node_blocks", recorded)
    assert [bits(x) for x in wasserstein_costs(a, b, 1.5)] == expected
    assert len(blocks) == math.ceil(11 / nodes_a_block)


def test_small_cloud_cost_overflow_is_the_solvers():
    # every |x - y|^p inf: the solver's error; some inf beside a finite assignment: its value
    infeasible = (np.full((2, 3, 1), 1e200), np.full((2, 3, 1), -1e200))
    feasible = (np.array([[[0.0], [1e200]]] * 2), np.array([[[1e200], [0.0]]] * 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the per-node path warns on the overflowing power
        with pytest.raises(ValueError) as expected:
            solve_root(infeasible[0][0], infeasible[1][0], 2.0)
        finite = [bits(solve_root(x, y, 2.0)) for x, y in zip(*feasible)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the batched path leaves the inf to the solver, quietly
        with pytest.raises(ValueError, match=str(expected.value)):
            wasserstein_costs(*infeasible, 2.0)
        assert [bits(x) for x in wasserstein_costs(*feasible, 2.0)] == finite == [bits(0.0)] * 2


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("series", [wasserstein_costs, measure.sup_wasserstein_cost])
@pytest.mark.parametrize("p, gap", [(2000.0, 2.0), (2.0, 2e200)])
def test_every_entry_point_has_one_overflow_rule(cores, n, series, p, gap):
    # every |x - y|^p is past the float range: a 2^2000 power, or a 2e200 distance's square;
    # pyproject turns a RuntimeWarning into an error, so a warning on any path fails too
    cores(2)  # three nodes of N = 64: the pooled series
    a = np.full((3, n, 1), -gap / 2)
    with pytest.raises(ValueError, match="cost matrix is infeasible"):
        series(a, -a, p)


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


# -- time lookups: one searchsorted pass, a float or an array --------------------


def searchsorted_index(grid, t, snap):
    """The scalar lookup formula."""
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
            ts = probe_times(grid, rng)
            expected = [searchsorted_index(grid, t, snap) for t in ts]
            assert expected == [max(bisect_right(times, t + snap) - 1, 0) for t in ts]  # the list rule it replaced
            scalars = [snapped_index(grid, t, snap) for t in ts]
            assert scalars == expected and all(type(k) is int for k in scalars)
            assert snapped_index(grid, np.array(ts), snap).tolist() == expected  # one call, ±inf included


def test_lookups_through_trajectory_and_signal(rng):
    grid = random_grid(rng, 40)
    traj = Trajectory(grid=grid, points=rng.standard_normal((40, 2, 1)))
    signal = ControlSignal(grid=grid, indices=rng.integers(0, 5, 39))
    for t in probe_times(grid, rng):
        k = searchsorted_index(grid, t, traj.snap)
        assert traj.node_index(t) == k and traj.at(t).points.tobytes() == traj.points[k].tobytes()
        assert signal.index_at(t) == signal.indices[min(searchsorted_index(grid, t, signal.snap), 38)]
    ts = probe_times(grid, rng)
    assert traj.node_index(np.array(ts)).tolist() == [traj.node_index(t) for t in ts]
    stacked = np.stack([traj.at(t).points for t in ts]).tobytes()
    assert traj.rows_at(ts).tobytes() == traj.rows_at(np.array(ts)).tobytes() == stacked
    assert signal.index_at(np.array(ts)).tolist() == [signal.index_at(t) for t in ts]


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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("node, particle", [(1, 0), (3, 2)])
def test_a_blow_up_is_the_per_entry_report(bad, node, particle):
    grid = np.linspace(0.0, 1.0, 6)
    nodes = [np.full((3, 2), float(k)) for k in range(6)]
    nodes[node][particle, 1] = nodes[node + 1][0, 0] = bad
    with pytest.raises(BlowUpError) as expected:  # the reference: every entry checked at every node
        for k in range(1, 6):
            dynamics._check_finite(nodes[k], nodes[k - 1], k, float(grid[k]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning besides the error
        with pytest.raises(BlowUpError) as info:
            march(ParticleCloud(nodes[0]), grid, lambda k, t0, t1, rows: nodes[k + 1])
    assert str(info.value) == str(expected.value)
    assert f"after step {node} " in str(info.value)


@pytest.mark.parametrize("node", [
    [[1e308, 1e308], [1.0, 2.0]],  # the sum overflows to inf
    [[1e308, 1e308], [-1e308, -1e308], [0.0, 0.0], [0.0, 0.0]],  # summed pairwise: inf + -inf is nan
])
def test_a_finite_node_whose_sum_overflows_passes(node):
    node = np.array(node)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(node.sum())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = march(ParticleCloud(np.zeros_like(node)), np.linspace(0.0, 1.0, 3), lambda k, t0, t1, rows: node)
    assert traj.points[1:].tobytes() == np.stack([node, node]).tobytes()


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


def per_step_loop(field, start, grid, measure=None):
    """The loop the buffer replaced: one checked ParticleCloud per step.
    Given a ``measure`` curve, the rule is handed ``measure.at(t)`` instead."""
    X = start.points.copy()
    clouds = [ParticleCloud(X)]
    for k in range(len(grid) - 1):
        t0, t1 = float(grid[k]), float(grid[k + 1])
        X = X + (t1 - t0) * field.rule(t0, measure.at(t0).points if measure else clouds[-1].points, [0], X)[0]
        clouds.append(ParticleCloud(X))
    return np.stack([c.points for c in clouds])


FIELDS = {
    "mean_attraction": lambda: mean_attraction_field(1.5, RateFunctions.constant(1.5, 1.5, 1.5, 1.0)),
    "bounded_kernel": lambda: bounded_kernel_field(RateFunctions.constant(1, 1, 1, 1.0)),
    "rotation": lambda: rotation_field(RateFunctions.constant(1, 1, 0, 1.0)),
}


@pytest.mark.parametrize("name", list(FIELDS))
def test_buffer_loop_equals_per_step_loop(rng, name):
    field = FIELDS[name]()
    start = ParticleCloud(rng.standard_normal((5, 2)))
    grid = random_grid(rng, 25, 1.0)
    traj = integrate(field, start, grid)
    assert traj.points.tobytes() == per_step_loop(field, start, grid).tobytes()


def test_rules_see_read_only_rows():
    """Own and bound measure, and the delayed scheme: a rule
    writing its arguments in place would change the stored trajectory."""
    seen = []

    def rule(t, points, idx, X):
        seen.append((X.flags.writeable, points.flags.writeable))
        return np.stack([-X] * len(idx))

    field = ControlledFamily(controls=(0,), rule=rule, rates=RateFunctions.constant(1, 1, 0, 1.0))
    family = ControlledFamily(controls=(0, 1), rule=rule, rates=field.rates)
    start, grid = ParticleCloud([[1.0], [2.0]]), np.linspace(0.0, 1.0, 4)
    signal = ControlSignal(grid=grid, indices=[1, 0, 1])
    traj = integrate(field, start, grid)
    trajectories = [traj, integrate(signal_field(family, signal, traj), start, grid),
                    peano_solve(family, start, 3, 2, "first")[0]]
    assert len(seen) == 2 * 3 + 6 and not any(flag for pair in seen for flag in pair)
    assert not any(traj.points.flags.writeable for traj in trajectories)


# -- the mixture rule in one gather --------------------------------------------------


def slot_loop(family, given):
    """The mixture rule as one gather per slot, summed in slot order: the
    reference the one-gather rule of ``convexify`` keeps bit for bit."""
    bases = np.array([c.base_indices for c in given]).T
    numerators = np.array([c.weight_numerators for c in given]).T
    parents = np.arange(family.size)

    def rule(t, points, idx, X):
        idx = np.asarray(idx)
        node = (np.arange(len(idx))[:, None],) if idx.ndim > 1 else ()
        vels = family.rule(t, points, np.zeros(idx.shape[:-1] + (1,), dtype=int) + parents, X)
        acc = np.zeros(idx.shape + X.shape[-2:])
        for b, k in zip(bases[:, idx], numerators[:, idx]):
            k = k[..., None, None]
            acc += k * np.where(k != 0, vels[node + (b,)], 0.0)
        return acc / given[0].weight_den

    return rule


velocity = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -2.5]), st.floats(-1e3, 1e3))


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([1, 2, 9]), d=st.sampled_from([1, 2]), den=st.integers(1, 12), data=st.data())
def test_mixture_rule_equals_the_slot_loop(q, d, den, data):
    finite = data.draw(st.lists(st.lists(velocity, min_size=d, max_size=d), min_size=1, max_size=3))
    # the last parent is inf, and every mixture gives it weight 0
    family = constants_family(finite + [[math.inf] * d], const_rates(1.0, 0.0, 0.0))

    def mixture():
        bases = [data.draw(st.integers(0, len(finite) - 1))] + data.draw(
            st.lists(st.integers(0, len(finite)), min_size=q - 1, max_size=q - 1))
        live = [j for j, b in enumerate(bases) if b < len(finite)]
        cuts = sorted(data.draw(st.lists(st.integers(0, den), min_size=len(live) - 1, max_size=len(live) - 1)))
        weights = [0] * q
        for j, lo, hi in zip(live, [0] + cuts, cuts + [den]):
            weights[j] = hi - lo
        return ChatteringControl(tuple(bases), tuple(weights))

    given_mixtures = [mixture() for _ in range(data.draw(st.integers(1, 3)))]
    chat, reference = convexify(family, given_mixtures), slot_loop(family, given_mixtures)
    K, U, P = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    idx = np.array(data.draw(st.lists(st.integers(0, chat.size - 1), min_size=K * U, max_size=K * U))).reshape(K, U)
    X, points = np.zeros((K, P, d)), np.zeros((K, 1, d))
    times = np.linspace(0.0, 0.5, K)
    for args in [(0.25, points[0], idx[0], X[0]), (times, points, idx, X)]:  # one node, a block
        assert chat.rule(*args).tobytes() == reference(*args).tobytes()


# -- a signal field bound to a curve ------------------------------------------


FAMILIES = {
    "gain": lambda rates: gain_family([0.5, -1.0, 2.0], rates),
    "mean_gain": lambda rates: mean_gain_family([0.5, 1.0, -0.0], rates),
    "mixtures": lambda rates: convexify(mean_gain_family([0.5, 2.0], rates), mixtures(2, 2, 3)),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(list(FAMILIES)), n=st.integers(1, 6), d=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1), nodes=st.tuples(st.integers(2, 12), st.integers(2, 12), st.integers(1, 12)))
def test_a_bound_signal_field_reads_only_its_curve(name, n, d, seed, nodes):
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

    traj = integrate(bound, start, grid)
    assert traj.points.tobytes() == per_step_loop(free, start, grid, curve).tobytes()

    for t in [*grid.tolist(), *rng.uniform(-0.5, 1.5, 4).tolist()]:
        X = rng.standard_normal((3, d))
        expected = free.rule(t, curve.at(t).points, [0], X).tobytes()
        for points in (curve.at(t).points, start.points, rng.standard_normal((n + 2, d)) * 1e3):
            assert bound.rule(t, points, [0], X).tobytes() == expected


@pytest.mark.parametrize("name", ["gain", "constants"])
def test_a_measure_free_family_bound_to_a_curve_is_its_unbound_field(rng, monkeypatch, name):
    """A family that does not read its measure is handed the cloud it is
    given: the bound field looks up no node and gives the unbound curve."""
    rates = RateFunctions.constant(2, 2, 2, 1.0)
    family = {"gain": gain_family([0.5, -1.0, 2.0], rates),
              "constants": constants_family([[0.5, 1.0], [-2.0, 0.0]], rates)}[name]
    grid = random_grid(rng, 40, 1.0)
    signal = ControlSignal(grid=grid, indices=rng.integers(family.size, size=39))
    curve = Trajectory(grid=grid, points=rng.standard_normal((40, 3, 2)))
    start = ParticleCloud(rng.standard_normal((5, 2)))
    free = integrate(signal_field(family, signal), start, grid)
    monkeypatch.setattr(Trajectory, "node_index", None)  # a lookup would raise
    bound = integrate(signal_field(family, signal, curve), start, grid)
    assert bound.points.tobytes() == free.points.tobytes()


# -- state-free Euler curves as running sums ------------------------------------


def stepped_curve(family, start, grid, controls, measure=None):
    """The loop a state-free curve replaces: ``march`` over ``delayed_step``,
    node k + 1 from node k with controls[k] and measure[k] (or node k)."""
    return march(start, grid, lambda k, t0, t1, rows: dynamics.delayed_step(
        family, t0, t1, rows[k] if measure is None else measure[k], int(controls[k]), rows[k]))


def outcome(build):
    """The curve's bytes, or the text of the BlowUpError building it raised."""
    try:
        return build().points.tobytes()
    except BlowUpError as exc:
        return str(exc)


def state_free_family(kind, d, data):
    """A state-free family of ``kind`` in dimension d with drawn velocities."""
    rates = const_rates(1.0, 0.0, 0.0)
    vector = st.lists(st.one_of(velocity, st.sampled_from([1e300, -1e300])), min_size=d, max_size=d)
    if kind == "zero":
        return zero_field(rates)
    if kind == "constant":
        return constant_field(data.draw(vector), rates)
    family = constants_family(data.draw(st.lists(vector, min_size=1, max_size=4)), rates)
    if kind == "mixture":
        return convexify(family, mixtures(family.size, 2, data.draw(st.integers(1, 3))))
    return family


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["zero", "constant", "constants", "mixture", "signal", "bound signal"]),
       n=st.integers(1, 64), d=st.integers(1, 3), nodes=st.integers(1, 80), uniform=st.booleans(),
       entries=st.sampled_from([1, 50, 2**14]), own=st.booleans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_a_state_free_curve_is_the_stepped_curve(kind, n, d, nodes, uniform, entries, own, seed, data):
    """Block sizes down to one node per block, so every block boundary is
    crossed; a measure curve given or not, read or not."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    family = state_free_family(kind.split()[-1] if "signal" not in kind else "constants", d, data)
    grid = np.linspace(0.0, rng.uniform(0.1, 10.0), nodes) if uniform else random_grid(rng, nodes)
    curve = Trajectory(grid=grid, points=rng.standard_normal((nodes, n + 1, d)))
    if "signal" in kind:
        signal = ControlSignal(grid=random_grid(rng, 7, max(grid[-1], 1.0)), indices=rng.integers(family.size, size=6))
        family = signal_field(family, signal, curve if kind == "bound signal" else None)
    assert not (family.position_dependent or family.measure_dependent)
    start = ParticleCloud(rng.standard_normal((n, d)))
    controls = rng.integers(family.size, size=nodes - 1)
    measure = None if own else curve.points
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "BLOCK_ENTRIES", entries)
        fast = outcome(lambda: dynamics.euler_curve(family, start, grid, controls, measure))
    assert fast == outcome(lambda: stepped_curve(family, start, grid, controls, measure))


def catalog_families(d):
    """Every catalog builder in dimension d (rotation only for d = 2), by name."""
    rates = const_rates(2.0, 2.0, 2.0)
    built = {
        "zero": zero_field(rates),
        "constant": constant_field(np.linspace(-1.0, 2.0, d), rates),
        "linear_decay": linear_decay_field(rates),
        "mean_attraction": mean_attraction_field(1.5, rates),
        "bounded_kernel": bounded_kernel_field(rates),
        "constants": constants_family([np.full(d, 0.5), np.full(d, -2.0)], rates),
        "gain": gain_family([0.5, -1.0], rates),
        "mean_gain": mean_gain_family([0.5, 2.0], rates),
    }
    return built | ({"rotation": rotation_field(rates)} if d == 2 else {})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_flags_are_truthful(rng, d):
    """A rule that declares it reads no positions (no measure) gives the same
    bits for any positions (any cloud), at one node and at a block."""
    state_free = set()
    for name, family in catalog_families(d).items():
        idx = np.arange(family.size)
        cloud, X = rng.standard_normal((5, d)), rng.standard_normal((3, d))
        one = (0.25, cloud, idx, X)
        block = (np.array([0.0, 0.5]), np.stack([cloud, cloud + 1.0]), np.stack([idx, idx[::-1]]),
                 np.stack([X, X - 2.0]))
        for t, points, index, positions in (one, block):
            expected = family.rule(t, points, index, positions).tobytes()
            if not family.position_dependent:
                assert family.rule(t, points, index, 1e3 * rng.standard_normal(positions.shape)).tobytes() == expected
            if not family.measure_dependent:
                assert family.rule(t, rng.standard_normal(points.shape), index, positions).tobytes() == expected
        if not (family.position_dependent or family.measure_dependent):
            state_free.add(name)
    assert state_free == {"zero", "constant", "constants"}


def fields_of_families(d):
    """Each catalog field built from a family, with that family given a second control after the field's."""
    rates, c = const_rates(2.0, 2.0, 2.0), np.linspace(-1.0, 2.0, d)
    return {
        "zero": (zero_field(rates), constants_family([np.zeros(d), c], rates)),
        "constant": (constant_field(c, rates), constants_family([c, np.zeros(d)], rates)),
        "linear_decay": (linear_decay_field(rates), gain_family([1.0, 0.5], rates)),
        "mean_attraction": (mean_attraction_field(1.5, rates), mean_gain_family([1.5, 2.0], rates)),
    }


def inherited(family):
    """Every field a derived family keeps from its parent: all but its controls, rule, label and ``alone``."""
    return {f.name: getattr(family, f.name) for f in dataclasses.fields(family)
            if f.name not in ("controls", "rule", "label", "alone")}


@pytest.mark.parametrize("name", [*catalog_families(2), *(f"{name} field" for name in fields_of_families(2))])
def test_derived_families_copy_both_flags(rng, name):
    """``convexify`` and ``signal_field``, bound to a curve or not, keep every
    field of their parent but the controls, rule and label, the rates as the
    same object; so does a catalog field built from a family, whose rule at
    one node and at a block gives the bits of the family's control 0."""
    if name.endswith(" field"):
        field, family = fields_of_families(2)[name.removesuffix(" field")]
        derived = [field]
        cloud, X = rng.standard_normal((5, 2)), rng.standard_normal((3, 2))
        one = (0.25, cloud, field.alone[0], X)
        block = (np.array([0.0, 0.5]), np.stack([cloud, cloud + 1.0]), np.zeros((2, 1), dtype=int),
                 np.stack([X, X - 2.0]))
        assert field.controls == (0,)
        for args in (one, block):
            assert field.rule(*args).tobytes() == family.rule(*args).tobytes()
    else:
        family = catalog_families(2)[name]
        signal = ControlSignal(grid=[0.0, 0.5, 1.0], indices=[0, family.size - 1])
        curve = Trajectory(grid=[0.0, 1.0], points=np.zeros((2, 3, 2)))
        derived = [convexify(family, [ChatteringControl((0, family.size - 1), (1, 2))]),
                   signal_field(family, signal), signal_field(family, signal, curve)]
    expected = inherited(family)
    rates = expected.pop("rates")
    for other in derived:
        got = inherited(other)
        assert got.pop("rates") is rates and got == expected


def test_only_a_state_free_family_skips_the_loop(monkeypatch):
    """A family that leaves ``position_dependent`` at its default marches,
    even when its rule reads nothing; a catalog constant field does not."""
    marched = []
    monkeypatch.setattr(dynamics, "march", lambda *args: marched.append(args) or march(*args))
    lambda_field = ControlledFamily(controls=(0,), rule=lambda t, points, idx, X: np.ones(np.shape(idx) + X.shape[-2:]),
                                    rates=const_rates(1.0, 0.0, 0.0))
    constant = constant_field([1.0], const_rates(1.0, 0.0, 0.0))
    start, grid = ParticleCloud([[0.0], [2.0]]), np.linspace(0.0, 1.0, 9)
    curves = [integrate(field, start, grid) for field in (lambda_field, constant)]
    assert len(marched) == 1 and marched[0][0] is start
    assert curves[0].points.tobytes() == curves[1].points.tobytes()


@pytest.mark.parametrize("n, d, at", [(1, 1, 0), (3, 2, 2)])
def test_a_state_free_blow_up_is_the_loop_report(n, d, at):
    """A control of 1e308 takes the particle starting at 1e308 out of the
    finite range at the second step: the same BlowUpError text as the
    loop, and no RuntimeWarning."""
    vectors = [np.zeros(d), np.full(d, 1e308)]
    family = constants_family(vectors, const_rates(1e308, 0.0, 0.0))
    points = np.zeros((n, d))
    points[at, -1] = 1e308
    start = ParticleCloud(points)
    grid, controls = np.linspace(0.0, 4.0, 5), np.array([0, 1, 1, 0])
    with pytest.raises(BlowUpError) as expected:
        stepped_curve(family, start, grid, controls)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as info:
            dynamics.euler_curve(family, start, grid, controls)
    assert str(info.value) == str(expected.value)
    assert str(info.value).startswith(f"non-finite coordinate after step 2 (t = 2): particle {at}, ")


def test_a_state_free_curve_holds_one_curve_array():
    """With N d = 8192 entries a node a block is two nodes: every rule call
    reads at most one block, and the peak beyond the curve is a few blocks."""
    import tracemalloc

    shapes = []
    family = constants_family([[1.0, -1.0], [0.5, 2.0]], const_rates(2.0, 0.0, 0.0))
    recorded = dataclasses.replace(family, rule=lambda *args: shapes.append(args[3].shape) or family.rule(*args))
    start, grid = ParticleCloud(np.zeros((4096, 2))), np.linspace(0.0, 1.0, 41)
    controls = np.arange(40) % 2
    block = dynamics.node_blocks(40, start.points.size)[0]
    tracemalloc.start()
    try:
        traj = dynamics.euler_curve(recorded, start, grid, controls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.stop == 2 and shapes == [(2, 4096, 2)] * 20
    assert peak < traj.points.nbytes + 4 * block.stop * start.points.nbytes
    assert traj.points.tobytes() == stepped_curve(family, start, grid, controls).points.tobytes()


def test_controls_must_cover_every_interval():
    family = constants_family([[1.0]], const_rates(1.0, 0.0, 0.0))
    for controls in ([0, 0], [[0, 0, 0]]):
        with pytest.raises(ShapeMismatchError, match="one control per interval"):
            dynamics.euler_curve(family, ParticleCloud([[0.0]]), np.linspace(0.0, 1.0, 4), controls)


# -- one norm convention: squares added coordinate by coordinate ---------------

EXTREME = [math.inf, -math.inf, math.nan, 5e-324, -2.5e-320, 1e-160, 1e200, -1.5e300]
wide_coordinate = st.one_of(st.sampled_from(SPECIAL + EXTREME), st.floats(-1e3, 1e3))


finite_coordinate = st.one_of(st.sampled_from(SPECIAL + EXTREME[3:]), st.floats(-1e3, 1e3))


def stacks(data, d, shape=st.tuples(st.integers(1, 3), st.integers(1, 5)), coordinate=wide_coordinate):
    lead = data.draw(shape)
    size = int(np.prod(lead)) * d
    return np.array(data.draw(st.lists(coordinate, min_size=size, max_size=size))).reshape(lead + (d,))


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 7), data=st.data())
def test_squared_norms_are_linalg_norm_below_eight_coordinates(d, data):
    x = stacks(data, d)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.sqrt(measure.squared_norms(x)).tobytes() == np.linalg.norm(x, axis=-1).tobytes()


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 64), data=st.data())
def test_squared_norms_are_cdist_at_every_dimension(d, data):
    x = stacks(data, d, st.tuples(st.integers(1, 6)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.sqrt(measure.squared_norms(x)).tobytes() == cdist(x, np.zeros((1, d)))[:, 0].tobytes()


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 64), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]), data=st.data())
def test_pairwise_cost_of_stacks_is_each_pairs_matrix(d, p, data):
    # finite coordinates, as a W_p cost reads; the powers may overflow to inf
    lead = data.draw(st.sampled_from([(), (1,), (3,)]))
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    x = stacks(data, d, st.just(lead + (n,)), finite_coordinate)
    y = stacks(data, d, st.just(lead + (m,)), finite_coordinate)
    with np.errstate(over="ignore"):
        costs = pairwise_cost(x, y, p)
        assert costs.shape == lead + (n, m)
        for k in np.ndindex(lead):
            assert costs[k].tobytes() == measure._pow(cdist(x[k], y[k]), p).tobytes()


def test_overflowing_squares_warn_as_numpy_does():
    with pytest.raises(RuntimeWarning, match="overflow"):
        measure.squared_norms(np.array([[1e200, 0.0]]))


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 7), masked=st.booleans(), data=st.data())
def test_sup_norm_is_the_max_of_linalg_norms(d, masked, data):
    diff = stacks(data, d, st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)))
    inside = np.array(data.draw(st.lists(st.booleans(), min_size=diff.shape[0] * diff.shape[2],
                                         max_size=diff.shape[0] * diff.shape[2]))).reshape(diff.shape[0], 1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        if masked:
            expected = np.linalg.norm(np.where(inside[..., None], diff, 0.0), axis=-1).max(axis=-1)
            assert sup_norm(diff, inside).tobytes() == expected.tobytes()
        else:
            assert sup_norm(diff).tobytes() == np.linalg.norm(diff, axis=-1).max(axis=-1).tobytes()
            assert sup_norm(diff[0, 0]).tobytes() == np.linalg.norm(diff[0, 0], axis=-1).max().tobytes()


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from([(1, 1), (5, 2), (7, 3), (2, 9, 2), (3, 1, 4), (4, 33, 1)]), data=st.data())
def test_cloud_mean_is_numpy_mean(shape, data):
    size = int(np.prod(shape))
    points = np.array(data.draw(st.lists(coordinate, min_size=size, max_size=size))).reshape(shape)
    with np.errstate(over="ignore"):
        assert catalog._mean(points).tobytes() == points.mean(axis=-2).tobytes()


def power_means_row_by_row(values, p, n):
    """The per-row loop ``measure._power_means`` replaced: each row's max read on its own."""
    out = []
    for row, total in zip(values, measure.exact_sums(measure._pow(values, p)).tolist()):
        top = float(row.max())
        if total < math.inf and not (total < sys.float_info.min and top > 0.0):
            out.append(measure._root(total / n, p))
        else:
            out.append(top * measure._root(math.fsum(measure._pow(row / top, p).tolist()) / n, p) if top < math.inf else top)
    return out


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 2000.0]), data=st.data())
def test_power_means_are_the_row_by_row_loop(p, data):
    # norms as the moments read them: zeros, subnormals, huge and inf values, so both the direct and the scaled rows
    norm = st.sampled_from([0.0, 5e-324, 1e-160, 0.5, 1.0, 1e200, 1.5e300, math.inf]) | st.floats(0.0, 1e3)
    values = np.array(data.draw(st.lists(st.lists(norm, min_size=3, max_size=3), min_size=1, max_size=5)))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert [bits(x) for x in measure._power_means(values, p, 3)] == [bits(x) for x in power_means_row_by_row(values, p, 3)]


@pytest.mark.parametrize("d", range(1, 10))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_screen_total_is_the_solver_diagonal(rng, d, p):
    # before its 1e-9 inflation the identity-coupling bound is the solver's own total of the
    # diagonal: d >= 8 too, where np.linalg.norm's pairwise sum would differ on some pairs
    a, b = rng.uniform(-1e3, 1e3, (2, 30, 7, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, 30, 7, d))
    totals = measure.exact_sums(measure._pow(np.sqrt(measure.squared_norms(a - b)), p))
    expected = [math.fsum(np.diag(pairwise_cost(x, y, p)).tolist()) for x, y in zip(a, b)]
    assert [bits(t) for t in totals] == [bits(t) for t in expected]
