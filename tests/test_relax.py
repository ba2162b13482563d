import numpy as np
import pytest

from wassinc import (
    ChatteringControl,
    ControlSignal,
    aumann_realize,
    convexify,
    integrate,
    relax_approximate,
    signal_field,
)
from wassinc.catalog import constants_family, mean_gain_family
from wassinc.errors import ResolutionError

from conftest import cloud, delta, random_cloud, const_rates


def bang_bang(T=1.0):
    return constants_family([[-1.0], [1.0]], const_rates(1.0, 0.0, 0.0, T))


def mixture_setup(T=0.25, steps=2000, weight_steps=2, bases=(0, 1), weights=(1, 1)):
    fam = bang_bang(T)
    chat = convexify(fam, q=len(bases), weight_steps=weight_steps)
    idx = chat.controls.index(ChatteringControl(bases, weights, weight_steps))
    grid = np.linspace(0.0, T, steps + 1)
    sig = ControlSignal(grid=grid, indices=np.full(grid.size - 1, idx, dtype=int))
    traj = integrate(signal_field(chat, sig), delta(0.0), grid)
    return fam, chat, sig, traj


class TestConvexify:
    def test_q1_order_isomorphic(self):
        fam = bang_bang()
        chat = convexify(fam, q=1, weight_steps=3)
        assert chat.size == fam.size
        for k, c in enumerate(chat.controls):
            assert c.base_indices == (k,) and c.weight_numerators == (3,) and c.weight_den == 3

    def test_contains_zero_mixture(self):
        fam = bang_bang()
        chat = convexify(fam, q=2, weight_steps=2)
        target = ChatteringControl((0, 1), (1, 1), 2)
        idx = chat.controls.index(target)
        vals = chat.rule(0.0, delta(0.0).points, [idx], np.array([[0.3]]))[0]
        assert vals[0, 0] == 0.0

    def test_weight_steps_one_gives_vertices(self):
        fam = bang_bang()
        chat = convexify(fam, q=2, weight_steps=1)
        for c in chat.controls:
            assert c.weight_den == 1 and set(c.weight_numerators) <= {0, 1}

    def test_rates_preserved_exactly(self):
        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        chat = convexify(fam, q=2, weight_steps=4)
        assert chat.rates is fam.rates
        assert chat.convex_images

    def test_mixture_respects_parent_bounds(self, rng):
        # sampled sublinearity and Lipschitz probes at the parent rates
        from wassinc import moment

        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        chat = convexify(fam, q=2, weight_steps=4)
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
        fam = bang_bang()
        chat = convexify(fam, q=2, weight_steps=2)
        pure = chat.controls.index(ChatteringControl((0, 1), (2, 0), 2))
        grid = np.linspace(0, 1, 5)
        sig = ControlSignal(grid=grid, indices=np.full(4, pure, dtype=int))
        realized, _ = aumann_realize(sig, chat, np.array([0.0, 1.0]))
        # weight 0 on the second base: a single pure segment of the first
        np.testing.assert_allclose(realized.grid, [0.0, 1.0])
        assert list(realized.indices) == [0]

    def test_block_average_identity(self):
        # for fields constant in time, the realized block average equals the
        # mixture exactly at every fixed spatial point
        fam, chat, sig, _ = mixture_setup(T=1.0, steps=64, weight_steps=4, weights=(1, 3))
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
        assert report.density.passed
        assert report.measured_sup <= delta_target
        assert report.certificate.converged
        assert report.density.measured.shape == tracked.grid.shape
        assert report.measured_sup == report.density.measured.max()

    def test_pure_signal_returns_input(self):
        fam, chat, _, _ = mixture_setup(T=0.25, steps=64)
        pure = chat.controls.index(ChatteringControl((0, 1), (2, 0), 2))
        grid = np.linspace(0, 0.25, 65)
        sig = ControlSignal(grid=grid, indices=np.full(64, pure, dtype=int))
        traj = integrate(signal_field(chat, sig), delta(0.0), grid)
        tracked, _, report = relax_approximate(
            fam, traj, sig, chat, delta=0.2, p=1, radius_policy=3.0
        )
        assert report.measured_sup == 0.0

    def test_coarse_delta_passes(self):
        fam, chat, sig, traj = mixture_setup(T=0.25, steps=64)
        # delta >= horizon * field magnitude: any realization passes
        _, _, report = relax_approximate(fam, traj, sig, chat, delta=0.3, p=1)
        assert report.density.passed

    def test_resolution_error_names_remedy(self):
        fam, chat, sig, traj = mixture_setup(T=0.25, steps=20)
        with pytest.raises(ResolutionError, match="finer"):
            relax_approximate(fam, traj, sig, chat, delta=0.01, p=1)

    def test_amplification_saturates_past_float_range(self):
        # (l T)^p = (2.5e199)^2 overflows as a float power
        fam = constants_family([[-1.0], [1.0]], const_rates(1.0, 1e200, 0.0, 0.25))
        chat = convexify(fam, q=2, weight_steps=2)
        idx = chat.controls.index(ChatteringControl((0, 1), (1, 1), 2))
        grid = np.linspace(0.0, 0.25, 257)
        sig = ControlSignal(grid=grid, indices=np.full(grid.size - 1, idx, dtype=int))
        traj = integrate(signal_field(chat, sig), delta(0.0), grid)
        _, _, report = relax_approximate(fam, traj, sig, chat, delta=0.3, p=2)
        assert report.amplification == np.inf and report.guaranteed_target == np.inf

    def test_report_carries_both_targets(self):
        fam, chat, sig, traj = mixture_setup()
        _, _, report = relax_approximate(fam, traj, sig, chat, 0.1, p=1)
        assert report.guaranteed_target == report.delta * report.amplification
        assert report.amplification >= 1.0
