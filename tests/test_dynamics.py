import math

import numpy as np
import pytest

from wassinc import (
    ControlledFamily,
    ParticleCloud,
    RateFunctions,
    Trajectory,
    ball_grid,
    integrate,
    moment,
    wasserstein_cost,
)
from wassinc.bounds import abs_continuity_constant, horizon_factor
from wassinc.catalog import (
    bounded_kernel_field,
    gain_family,
    constant_field,
    linear_decay_field,
    mean_attraction_field,
    rotation_field,
    zero_field,
)
from wassinc.dynamics import time_axis
from wassinc.errors import BlowUpError, ShapeMismatchError
from wassinc.inclusion import ControlSignal

from conftest import cloud, delta, random_cloud, const_rates


def decay_field(T=1.0):
    return linear_decay_field(const_rates(1.0, 1.0, 0.0, T))


class TestRateFunctions:
    def test_exact_integrals(self):
        r = RateFunctions(
            breakpoints=np.array([0.0, 0.5, 1.0]),
            m_values=np.array([2.0, 4.0]),
            l_values=np.array([0.0, 1.0]),
            L_values=np.array([0.0, 0.0]),
        )
        assert r.integral("m", 0.0, 1.0) == 3.0
        assert r.integral("m", 0.25, 0.75) == 0.25 * 2.0 + 0.25 * 4.0
        assert r.integral("l", 0.0, 0.5) == 0.0

    def test_additivity(self):
        r = RateFunctions(
            breakpoints=np.array([0.0, 0.3, 0.9, 1.0]),
            m_values=np.array([1.0, 0.5, 3.0]),
            l_values=np.array([1.0, 1.0, 1.0]),
            L_values=np.array([0.2, 0.0, 0.1]),
        )
        for a, b, c in [(0.0, 0.4, 1.0), (0.1, 0.3, 0.95)]:
            whole = r.integral("m", a, c)
            split = r.integral("m", a, b) + r.integral("m", b, c)
            assert whole == pytest.approx(split, abs=1e-12)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            RateFunctions(
                breakpoints=np.array([0.0, 1.0]),
                m_values=np.array([-1.0]),
                l_values=np.array([0.0]),
                L_values=np.array([0.0]),
            )


class TestIntegrate:
    def test_zero_field_constant_trajectory(self, rng):
        start = random_cloud(rng, 6, 2)
        traj = integrate(zero_field(const_rates(0, 0, 0)), start, np.linspace(0, 1, 11))
        for row in traj.points:
            np.testing.assert_array_equal(row, start.points)

    def test_linear_decay_endpoint(self):
        traj = integrate(decay_field(), delta(1.0), np.linspace(0, 1, 1001))
        assert abs(traj.points[-1, 0, 0] - math.exp(-1)) < 2e-4

    def test_mean_field_symmetric_decay(self):
        field = mean_attraction_field(1.0, const_rates(1.0, 1.0, 1.0))
        traj = integrate(field, cloud([-1.0], [1.0]), np.linspace(0, 1, 1001))
        final = traj.points[-1]
        # the mean stays exactly zero by symmetry of the arithmetic
        assert final[0, 0] == -final[1, 0]
        assert abs(final[1, 0] - math.exp(-1)) < 5e-4

    def test_euler_first_order(self):
        errors = []
        for steps in (100, 200, 400):
            traj = integrate(decay_field(), delta(1.0), np.linspace(0, 1, steps + 1))
            errors.append(abs(traj.points[-1, 0, 0] - math.exp(-1)))
        assert 1.8 <= errors[0] / errors[1] <= 2.2
        assert 1.8 <= errors[1] / errors[2] <= 2.2

    def test_rk4_tight(self):
        traj = integrate(decay_field(), delta(1.0), np.linspace(0, 1, 101), method="rk4")
        assert abs(traj.points[-1, 0, 0] - math.exp(-1)) < 1e-10

    def test_a_family_of_two_controls_is_no_field(self):
        family = gain_family([1.0, 2.0], const_rates(2.0, 2.0, 0.0))
        with pytest.raises(ValueError, match="^integrate needs a field, a family of one control; got 2 controls$"):
            integrate(family, delta(1.0), np.linspace(0, 1, 3))

    def test_empty_grid_rejected(self):
        with pytest.raises(ShapeMismatchError):
            integrate(decay_field(), delta(1.0), np.array([]))

    def test_blow_up_named_step(self):
        bad = ControlledFamily(
            controls=(0,), rule=lambda t, c, idx, X: X[None] * 1e308, rates=const_rates(1, 0, 0), label="explode"
        )
        with np.errstate(over="ignore"), pytest.raises(BlowUpError, match="step"):
            integrate(bad, delta(1.0), np.linspace(0, 1, 5))

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_pushforward_matches_per_particle(self, rng, method):
        # measure-independent field: whole-cloud integration must equal
        # per-particle integration bit for bit
        field = rotation_field(const_rates(1.0, 1.0, 0.0))
        start = random_cloud(rng, 5, 2)
        grid = np.linspace(0, 1, 21)
        whole = integrate(field, start, grid, method=method)
        for i in range(start.n):
            single = integrate(field, ParticleCloud(start.points[i : i + 1]), grid, method=method)
            np.testing.assert_array_equal(
                whole.points[-1, i], single.points[-1, 0]
            )

    def test_a_closure_reads_a_delayed_curve(self):
        # field = mean of the base curve half a unit earlier, bound by a
        # closure; with left lookup the first half reads the initial cloud
        base = integrate(
            constant_field([1.0], const_rates(1.0, 0.0, 0.0)), delta(0.0), np.linspace(0, 1, 11)
        )
        field = ControlledFamily(
            controls=(0,),
            rule=lambda t, points, idx, X: np.broadcast_to(base.at(t - 0.5).points.mean(axis=0), (1,) + X.shape).copy(),
            rates=const_rates(1.0, 0.0, 0.0),
            measure_dependent=True,
        )
        traj = integrate(field, delta(0.0), np.linspace(0, 1, 11))
        # velocity at t < 0.5 is base(t - 0.5 < 0) = initial = 0
        assert traj.points[5, 0, 0] == 0.0
        assert traj.points[-1, 0, 0] > 0.0


class TestTrajectoryLookup:
    def test_left_constant_and_snap(self):
        grid = np.linspace(0.0, 1.0, 5)
        clouds = tuple(delta(float(k)) for k in range(5))
        traj = Trajectory(grid=grid, points=[c.points for c in clouds])
        assert traj.node_index(0.3) == 1
        assert traj.node_index(0.25) == 1
        assert traj.node_index(0.25 - 1e-13) == 1  # snaps up to the node
        assert traj.node_index(-0.4) == 0
        assert traj.node_index(2.0) == 4


class TestTimeAxis:
    """Every grid is checked, copied and frozen by ``time_axis`` alone."""

    def test_a_read_only_copy_its_tolerance_and_times(self):
        grid = np.array([0.0, 0.5, 0.75, 2.0])
        axis, tolerance, times = time_axis(grid)
        grid[1] = 0.6
        assert axis.tolist() == times == [0.0, 0.5, 0.75, 2.0] and not axis.flags.writeable
        assert tolerance == 1e-9 * 0.25 and time_axis([3])[1:] == (0.0, [3.0])

    @pytest.mark.parametrize("grid", [[], [[0.0, 1.0]], 1.0, [0.0, 0.0], [1.0, 0.5], [0.0, math.inf],
                                      [-math.inf, 0.0], [0.0, math.nan, 1.0]])
    def test_every_owner_rejects_a_bad_grid(self, grid):
        for owner in (time_axis, lambda g: Trajectory(grid=g, points=np.zeros((np.size(g), 1, 1))),
                      lambda g: integrate(zero_field(const_rates(0, 0, 0)), delta(0.0), g),
                      lambda g: ControlSignal(grid=g, indices=np.zeros(max(np.size(g) - 1, 0), dtype=int)),
                      lambda g: RateFunctions(g, *[np.ones(max(np.size(g) - 1, 0))] * 3)):
            with pytest.raises(ShapeMismatchError, match="^need a one-dimensional, finite, strictly increasing"):
                owner(grid)

    def test_signals_and_rates_need_two_nodes(self):
        with pytest.raises(ShapeMismatchError, match="grid of >= 2 nodes$"):
            ControlSignal(grid=[0.0], indices=np.zeros(0, dtype=int))
        with pytest.raises(ShapeMismatchError, match="grid of >= 2 nodes$"):
            RateFunctions([0.0], [], [], [])

    def test_an_infinite_node_is_no_node(self):
        with pytest.raises(ShapeMismatchError):
            Trajectory(grid=[0.0, math.inf], points=np.zeros((2, 1, 1)))
        with pytest.raises(ShapeMismatchError):
            integrate(zero_field(const_rates(0, 0, 0)), delta(0.0), [0.0, 1.0, math.inf])

    def test_no_owner_holds_its_callers_array(self):
        grid, points = np.linspace(0.0, 1.0, 5), np.zeros((5, 1, 1))
        bp, m = np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0])
        held = [Trajectory(grid=grid, points=points), integrate(decay_field(), delta(1.0), grid),
                ControlSignal(grid=grid, indices=np.arange(4))]
        rates = RateFunctions(bp, m, m, m)
        grid[1], bp[1], m[1] = 0.3, 0.7, 5.0
        for owner in held:
            assert owner.grid.tolist() == owner.times == [0.0, 0.25, 0.5, 0.75, 1.0]
            assert not owner.grid.flags.writeable and owner.snap == 1e-9 * 0.25
        assert [held[0].node_index(0.26), held[2].index_at(0.26)] == [1, 1]
        assert rates.at("m", 0.6) == rates.at("m", [0.6])[0] == 2.0 and rates.integral("m", 0.0, 1.0) == 1.5
        assert not any(a.flags.writeable for a in (rates.breakpoints, rates.m_values, rates.l_values))

    def test_controls_between_two_nodes(self):
        signal = ControlSignal(grid=np.linspace(0.0, 1.0, 6), indices=[3, 1, 4, 1, 5])
        for a, b, expected in [(0.0, 1.0, [3, 1, 4, 1, 5]), (0.2, 0.6, [1, 4]), (0.4, 0.6, [4]),
                               (0.2 - 1e-15, 0.6 + 1e-15, [1, 4]), (0.2 + 1e-15, 0.6 - 1e-15, [1, 4])]:
            assert signal.controls_between(a, b).tolist() == expected


class TestCertifiedEnvelopes:
    FIELDS = [
        ("zero", lambda: zero_field(const_rates(0, 0, 0))),
        ("constant", lambda: constant_field([0.7], const_rates(0.7, 0, 0))),
        ("linear_decay", lambda: decay_field()),
        ("mean_attraction", lambda: mean_attraction_field(1.0, const_rates(1, 1, 1))),
        ("bounded_kernel", lambda: bounded_kernel_field(const_rates(1, 1, 1))),
    ]

    @pytest.mark.parametrize("name,make", FIELDS, ids=[n for n, _ in FIELDS])
    def test_step_displacement_bound(self, rng, name, make):
        field = make()
        start = random_cloud(rng, 12, 1)
        traj = integrate(field, start, np.linspace(0, 1, 101))
        p = 2.0
        m_total = field.rates.integral("m", 0, 1)
        c_p = abs_continuity_constant(p, moment(start, p), m_total)
        # random grid pairs, not only consecutive nodes
        for _ in range(20):
            j, k = sorted(rng.integers(0, 101, size=2).tolist())
            if j == k:
                continue
            lhs = wasserstein_cost(traj.at(traj.times[j]), traj.at(traj.times[k]), p)
            rhs = c_p * field.rates.integral("m", float(traj.grid[j]), float(traj.grid[k]))
            assert lhs <= rhs * 1.05 + 1e-12

    @pytest.mark.parametrize("name,make", FIELDS, ids=[n for n, _ in FIELDS])
    def test_particle_travel_envelope(self, rng, name, make):
        field = make()
        start = random_cloud(rng, 12, 1)
        traj = integrate(field, start, np.linspace(0, 1, 101))
        ct = horizon_factor(field.rates.integral("m", 0, 1))
        paths = traj.points  # (nodes, N, d)
        max_norm = np.linalg.norm(paths, axis=2).max(axis=0)
        start_norm = np.linalg.norm(start.points, axis=1)
        assert np.all(max_norm <= ct * (1.0 + start_norm) * 1.05)


class TestProbeMetrics:
    def test_ball_grid_includes_extremes(self):
        pts = ball_grid(2.0, 2, 0.5)
        norms = np.linalg.norm(pts, axis=1)
        assert norms.max() <= 2.0 * (1 + 1e-12)
        assert any(np.array_equal(q, [2.0, 0.0]) for q in pts)

    def test_ball_grid_spacing_in_one_dimension(self):
        pts = ball_grid(1.0, 1, 0.3)
        assert pts.shape[1] == 1
        assert pts[0, 0] == -1.0 and pts[-1, 0] == 1.0
        assert np.all(np.diff(pts[:, 0]) <= 0.3)

    @pytest.mark.parametrize("radius,spacing", [(0.0, 0.5), (1.0, 0.0)])
    def test_ball_grid_rejects_nonpositive(self, radius, spacing):
        with pytest.raises(ValueError):
            ball_grid(radius, 2, spacing)



class TestCatalogRateProbes:
    """Sampled sublinearity / Lipschitz checks for every catalog entry."""

    @pytest.mark.parametrize("name,make", TestCertifiedEnvelopes.FIELDS,
                             ids=[n for n, _ in TestCertifiedEnvelopes.FIELDS])
    def test_sublinearity_ratio(self, rng, name, make):
        field = make()
        for _ in range(50):
            c = random_cloud(rng, 8, 1)
            x = 3.0 * rng.standard_normal((1, 1))
            v = field.rule(0.5, c.points, [0], x)[0]
            m = field.rates.at("m", 0.5)
            bound = m * (1.0 + float(np.linalg.norm(x)) + moment(c, 2))
            assert float(np.linalg.norm(v)) <= bound + 1e-12

    def test_lipschitz_ratio(self, rng):
        field = bounded_kernel_field(const_rates(1, 1, 1))
        c = random_cloud(rng, 8, 2)
        for _ in range(50):
            x = 2.0 * rng.standard_normal((1, 2))
            y = 2.0 * rng.standard_normal((1, 2))
            gap = float(np.linalg.norm(field.rule(0.1, c.points, [0], x)[0] - field.rule(0.1, c.points, [0], y)[0]))
            assert gap <= field.rates.at("l", 0.1) * float(np.linalg.norm(x - y)) + 1e-12
