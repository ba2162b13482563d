import numpy as np
import pytest

from wassinc import (
    ChatteringControl,
    ControlSignal,
    aumann_realize,
    convexify,
    integrate,
    relax_approximate,
)
from wassinc.bounds import BoundReport
from wassinc.catalog import constants_family, mean_gain_family
from wassinc.errors import ResolutionError

from conftest import delta, mixtures, random_cloud, const_rates


def bang_bang(T=1.0):
    return constants_family([[-1.0], [1.0]], const_rates(1.0, 0.0, 0.0, T))


def mixture_setup(T=0.25, steps=2000, bases=(0, 1), weights=(1, 1)):
    """The bang-bang family, its one mixture, that mixture's constant signal
    and its curve from a point mass at 0 (a family of one control is a field)."""
    fam = bang_bang(T)
    chat = convexify(fam, [ChatteringControl(bases, weights)])
    grid = np.linspace(0.0, T, steps + 1)
    sig = ControlSignal(grid=grid, indices=np.zeros(grid.size - 1, dtype=int))
    traj = integrate(chat, delta(0.0), grid)
    return fam, chat, sig, traj


class TestConvexify:
    def test_lists_the_mixtures_given_in_order(self):
        given = mixtures(2, 2, 2)[::-1]
        chat = convexify(bang_bang(), given)
        assert chat.controls == tuple(given)
        velocities = chat.rule(0.0, delta(0.0).points, np.arange(len(given)), np.array([[0.3]]))
        for c, v in zip(given, velocities):  # the bang-bang controls are -1 and +1
            assert v[0, 0] == sum(k * (2 * b - 1) for b, k in zip(c.base_indices, c.weight_numerators)) / 2

    def test_contains_zero_mixture(self):
        fam, chat, _, _ = mixture_setup(T=1.0, steps=4)
        vals = chat.rule(0.0, delta(0.0).points, [0], np.array([[0.3]]))[0]
        assert vals[0, 0] == 0.0

    @pytest.mark.parametrize("given", [
        [],
        [ChatteringControl((0, 1), (1, 1)), ChatteringControl((0,), (2,))],
        [ChatteringControl((0, 1), (1, 1)), ChatteringControl((0, 1), (2, 2))],
        [ChatteringControl((0, 2), (1, 1))],
        [ChatteringControl((-1, 0), (1, 1))],
    ], ids=["none", "two_q", "two_dens", "base_past_family", "negative_base"])
    def test_rejects_mixtures_it_cannot_stack(self, given):
        with pytest.raises(ValueError):
            convexify(bang_bang(), given)

    @pytest.mark.parametrize("bases, weights", [((0,), (0,)), ((0, 1), (0, 0)), ((0, 1), (2, -1))])
    def test_a_mixture_needs_a_positive_den(self, bases, weights):
        # all-zero weights would read 0/0 = nan as the mixture's velocity
        with pytest.raises(ValueError, match="nonnegative with a sum of at least 1"):
            ChatteringControl(bases, weights)

    @pytest.mark.parametrize("weights", [(1,), (1, 1), (3, 0, 2)])
    def test_the_denominator_is_the_weight_sum(self, weights):
        chat = ChatteringControl(tuple(range(len(weights))), weights)
        assert chat.weight_den == sum(chat.weight_numerators) == sum(weights)

    def test_rates_preserved_exactly(self):
        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        chat = convexify(fam, mixtures(2, 2, 4))
        assert chat.rates is fam.rates
        # a listed set is not its hull; one mixture is a convex set
        assert chat.size > 1 and convexify(fam, chat.controls[:1]).size == 1

    def test_mixture_respects_parent_bounds(self, rng):
        # sampled sublinearity and Lipschitz probes at the parent rates
        from wassinc import moment

        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        chat = convexify(fam, mixtures(2, 2, 4))
        c = random_cloud(rng, 6, 2)
        for _ in range(30):
            u = [int(rng.integers(chat.size))]
            x = 2.0 * rng.standard_normal((1, 2))
            y = 2.0 * rng.standard_normal((1, 2))
            vx = chat.rule(0.3, c.points, u, x)[0]
            m = chat.rates.at("m", 0.3)
            assert np.linalg.norm(vx) <= m * (1 + np.linalg.norm(x) + moment(c, 2)) + 1e-12
            gap = np.linalg.norm(vx - chat.rule(0.3, c.points, u, y)[0])
            assert gap <= chat.rates.at("l", 0.3) * np.linalg.norm(x - y) + 1e-12


class TestAumannRealize:
    def test_half_half_split(self):
        fam, chat, sig, _ = mixture_setup(T=1.0, steps=4)
        realized, meta = aumann_realize(sig, chat, np.array([0.0, 1.0]))
        np.testing.assert_allclose(realized.grid, [0.0, 0.5, 1.0])
        assert list(realized.indices) == [0, 1]
        assert meta["majority_reblocked"] == 0

    def test_pure_weight_passthrough(self):
        fam, chat, sig, _ = mixture_setup(T=1.0, steps=4, weights=(2, 0))
        realized, _ = aumann_realize(sig, chat, np.array([0.0, 1.0]))
        # weight 0 on the second base: a single pure segment of the first
        np.testing.assert_allclose(realized.grid, [0.0, 1.0])
        assert list(realized.indices) == [0]

    def test_block_average_identity(self):
        # for fields constant in time, the realized block average equals the
        # mixture exactly at every fixed spatial point
        fam, chat, sig, _ = mixture_setup(T=1.0, steps=64, weights=(1, 3))
        blocks = np.linspace(0.0, 1.0, 9)
        realized, _ = aumann_realize(sig, chat, blocks)
        x = np.array([[0.37]])
        c = delta(0.0).points
        for a, b in zip(blocks[:-1], blocks[1:]):
            mix = (b - a) * chat.rule(0.5 * (a + b), c, [sig.index_at(a)], x)[0]
            seg_nodes = realized.grid
            total = np.zeros_like(x)
            for k in range(realized.n_intervals):
                lo, hi = seg_nodes[k], seg_nodes[k + 1]
                ov = max(0.0, min(hi, b) - max(lo, a))
                if ov > 0:
                    total += ov * fam.rule(lo, c, [realized.indices[k]], x)[0]
            assert abs(total[0, 0] - mix[0, 0]) <= 1e-12

    def test_a_block_whose_signal_changes_takes_its_majority_mixture(self):
        # mixture 0 is all control 0, mixture 1 half and half; three blocks of four intervals:
        # a 1:3 majority for mixture 1, a 2:2 tie that goes to mixture 0, and a constant block
        fam = bang_bang()
        chat = convexify(fam, [ChatteringControl((0, 1), (2, 0)), ChatteringControl((0, 1), (1, 1))])
        sig = ControlSignal(grid=np.linspace(0.0, 1.0, 13), indices=[0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1])
        realized, meta = aumann_realize(sig, chat, np.linspace(0.0, 1.0, 4))
        assert meta == {"snapped_boundaries": 0, "majority_reblocked": 2}
        assert list(realized.indices) == [0, 1, 0, 0, 1]
        np.testing.assert_allclose(realized.grid, [0.0, 1 / 6, 1 / 3, 2 / 3, 5 / 6, 1.0], rtol=0, atol=1e-15)

    def test_boundaries_snap_to_grid(self):
        fam, chat, sig, _ = mixture_setup(T=1.0, steps=10)
        realized, meta = aumann_realize(sig, chat, np.array([0.0, 0.333, 1.0]))
        assert meta["snapped_boundaries"] == 1
        # nearest node of the 0.1-spaced grid
        assert np.any(np.isclose(realized.grid, 0.3, atol=1e-12))

    def test_collapsing_blocks_rejected(self):
        fam, chat, sig, _ = mixture_setup(T=1.0, steps=4)
        with pytest.raises(ResolutionError):
            aumann_realize(sig, chat, np.array([0.0, 0.01, 0.02, 1.0]))


class TestRelaxApproximate:
    @pytest.mark.parametrize("delta_target", [0.2, 0.1, 0.05])
    def test_bang_bang_density(self, delta_target):
        fam, chat, sig, traj = mixture_setup()
        tracked, _, report = relax_approximate(fam, traj, sig, chat, delta_target, p=1)
        assert report.passed
        assert report.constants["measured_sup"] <= delta_target
        assert report.extras["certificate"].converged
        assert report.measured.shape == tracked.grid.shape
        assert report.constants["measured_sup"] == report.measured.max()

    def test_pure_signal_returns_input(self):
        fam, chat, sig, traj = mixture_setup(T=0.25, steps=64, weights=(2, 0))
        _, _, report = relax_approximate(fam, traj, sig, chat, delta=0.2, p=1)
        assert report.constants["measured_sup"] == 0.0

    def test_coarse_delta_passes(self):
        fam, chat, sig, traj = mixture_setup(T=0.25, steps=64)
        # delta >= horizon * field magnitude: any realization passes
        _, _, report = relax_approximate(fam, traj, sig, chat, delta=0.3, p=1)
        assert report.passed

    def test_resolution_error_names_remedy(self):
        fam, chat, sig, traj = mixture_setup(T=0.25, steps=20)
        with pytest.raises(ResolutionError, match="finer"):
            relax_approximate(fam, traj, sig, chat, delta=0.01, p=1)

    def test_amplification_saturates_past_float_range(self):
        # (l T)^p = (2.5e199)^2 overflows as a float power
        fam = constants_family([[-1.0], [1.0]], const_rates(1.0, 1e200, 0.0, 0.25))
        chat = convexify(fam, [ChatteringControl((0, 1), (1, 1))])
        grid = np.linspace(0.0, 0.25, 257)
        sig = ControlSignal(grid=grid, indices=np.zeros(grid.size - 1, dtype=int))
        traj = integrate(chat, delta(0.0), grid)
        _, _, report = relax_approximate(fam, traj, sig, chat, delta=0.3, p=2)
        assert report.constants["amplification"] == report.constants["guaranteed_target"] == np.inf

    def test_report_carries_both_targets(self):
        fam, chat, sig, traj = mixture_setup()
        _, _, report = relax_approximate(fam, traj, sig, chat, 0.1, p=1)
        c = report.constants
        assert c["guaranteed_target"] == c["delta"] * c["amplification"]
        assert c["amplification"] >= 1.0

    def test_report_is_the_raw_target_bound_report(self):
        # the one result type of every check: delta at every tracked node, slack 0,
        # the manifest's seven constants and the tracking certificate
        fam, chat, sig, traj = mixture_setup()
        tracked, _, report = relax_approximate(fam, traj, sig, chat, 0.1, p=1)
        assert isinstance(report, BoundReport) and report.kind == "density_raw_target" and report.slack == 0.0
        np.testing.assert_array_equal(report.times, tracked.grid)
        assert (report.bound == 0.1).all()
        assert set(report.constants) == {
            "delta", "measured_sup", "guaranteed_target", "amplification", "radius", "n_blocks", "metadata"}
        assert report.constants["metadata"] == {"snapped_boundaries": 0, "majority_reblocked": 0}
        assert set(report.extras) == {"certificate"}
