import numpy as np
import pytest

from wassinc import (
    inclusion_residual,
    integrate,
    moment,
    peano_solve,
    refinement_study,
    wasserstein_cost,
)
from wassinc.catalog import constants_family, gain_family, mean_gain_family
from wassinc.verify import momentum_bound_series

from conftest import cloud, control_field, delta, random_cloud, const_rates


def bang_bang(T=1.0):
    return constants_family([[-1.0], [1.0]], const_rates(1.0, 0.0, 0.0, T))


class TestPeanoSolve:
    def test_first_strategy_follows_first_control(self):
        # controls listed (-1, +1); 'first' drives delta_0 to delta_{-t}
        traj, signal = peano_solve(bang_bang(), delta(0.0), n=4, substeps=2, strategy="first")
        assert np.all(signal.indices == 0)
        np.testing.assert_allclose(
            traj.points[:, 0, 0], -traj.grid, rtol=0, atol=0
        )

    def test_singleton_family_constant_trajectory(self):
        fam = constants_family([[0.0]], const_rates(0.0, 0.0, 0.0))
        traj, signal = peano_solve(fam, delta(0.7), n=3, substeps=3)
        assert np.all(signal.indices == 0)
        for c in traj.clouds:
            assert c.points[0, 0] == 0.7

    def test_min_norm_picks_idle_gain(self):
        fam = gain_family([0.0, 1.0], const_rates(1.0, 1.0, 0.0))
        traj, signal = peano_solve(fam, delta(1.0), n=4, substeps=2, strategy="min_norm")
        assert np.all(signal.indices == 0)
        for c in traj.clouds:
            assert c.points[0, 0] == 1.0

    def test_deterministic_random_strategy(self):
        fam = bang_bang()
        out1 = peano_solve(fam, delta(0.0), n=4, substeps=4, strategy="random", seed=99)
        out2 = peano_solve(fam, delta(0.0), n=4, substeps=4, strategy="random", seed=99)
        np.testing.assert_array_equal(out1[1].indices, out2[1].indices)
        np.testing.assert_array_equal(
            out1[0].points, out2[0].points
        )

    def test_empty_controls_rejected(self):
        with pytest.raises(ValueError):
            constants_family([], const_rates(1, 0, 0))

    def test_random_needs_seed(self):
        with pytest.raises(ValueError):
            peano_solve(bang_bang(), delta(0.0), n=2, strategy="random")

    def test_nonconvex_family_warns_but_runs(self):
        with pytest.warns(UserWarning, match="convex"):
            traj, _ = peano_solve(bang_bang(), delta(0.0), n=2, substeps=2)
        assert traj.grid.size == 5


class TestInclusionResidual:
    def test_delayed_membership_exact(self, rng):
        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        start = random_cloud(rng, 6, 2)
        for strategy, seed in (("first", None), ("min_norm", None), ("random", 5)):
            traj, signal = peano_solve(fam, start, n=5, substeps=3, strategy=strategy, seed=seed)
            res = inclusion_residual(traj, signal, fam, delay=fam.rates.duration / 5)
            assert np.all(res == 0.0)

    def test_member_signal_zero_residual(self):
        fam = bang_bang()
        traj, signal = peano_solve(fam, delta(0.0), n=2, substeps=2, strategy="first")
        res = inclusion_residual(traj, signal, fam, delay=0.5)
        assert np.all(res == 0.0)

    def test_foreign_drive_measures_gap(self):
        # trajectory driven by the constant field +2, checked against {-1, +1}
        driver = constants_family([[2.0]], const_rates(2.0, 0.0, 0.0))
        grid = np.linspace(0.0, 1.0, 9)
        traj = integrate(control_field(driver, 0), delta(0.0), grid)
        signal_idx = np.zeros(grid.size - 1, dtype=int)
        from wassinc import ControlSignal

        signal = ControlSignal(grid=grid, indices=signal_idx)
        res = inclusion_residual(
            traj, signal, bang_bang(), delay=0.0, used_family=driver
        )
        np.testing.assert_array_equal(res, np.ones_like(res))


class TestRefinementStudy:
    def test_measure_independent_family_identical(self, rng):
        fam = bang_bang()
        rows = refinement_study(fam, delta(0.0), [2, 4, 8], substeps=4, strategy="first", p=1)
        assert all(v == 0.0 for _, _, v in rows)

    def test_mean_gain_distances_recorded(self, rng):
        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        start = random_cloud(rng, 8, 2)
        rows = refinement_study(
            fam, start, [4, 8, 16, 32], substeps=4, strategy="min_norm", p=1
        )
        values = [v for _, _, v in rows]
        assert all(np.isfinite(values))
        assert [r[:2] for r in rows] == [(4, 8), (8, 16), (16, 32)]

    def test_short_n_list_rejected(self):
        with pytest.raises(ValueError):
            refinement_study(bang_bang(), delta(0.0), [4], substeps=2, strategy="first", p=1)
        with pytest.raises(ValueError):
            refinement_study(bang_bang(), delta(0.0), [4, 4], substeps=2, strategy="first", p=1)


class TestPeanoEstimates:
    def test_momentum_envelope_along_solutions(self, rng):
        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        start = random_cloud(rng, 8, 2)
        for p in (1.0, 2.0):
            traj, _ = peano_solve(fam, start, n=8, substeps=4, strategy="min_norm")
            measured = np.array([moment(c, p) for c in traj.clouds])
            bound = momentum_bound_series(traj.grid, measured, fam.rates, p, True)
            assert np.all(measured <= bound * 1.05 + 1e-12)

    def test_uniform_moment_constant_dominates(self, rng):
        from wassinc.bounds import uniform_moment

        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        start = random_cloud(rng, 8, 2)
        p = 2.0
        mp0 = moment(start, p)
        script_c = uniform_moment(p, mp0, mp0, fam.rates.integral("m", 0, 1))
        traj, _ = peano_solve(fam, start, n=8, substeps=4, strategy="min_norm")
        assert all(moment(c, p) <= script_c * 1.05 for c in traj.clouds)

    def test_equicontinuity_along_solutions(self, rng):
        from wassinc.bounds import abs_continuity_constant

        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        start = random_cloud(rng, 8, 2)
        p = 2.0
        traj, _ = peano_solve(fam, start, n=8, substeps=4, strategy="min_norm")
        c_p = abs_continuity_constant(p, moment(start, p), fam.rates.integral("m", 0, 1))
        for _ in range(15):
            j, k = sorted(rng.integers(0, traj.grid.size, size=2).tolist())
            if j == k:
                continue
            lhs = wasserstein_cost(traj.clouds[j], traj.clouds[k], p)
            rhs = c_p * fam.rates.integral("m", float(traj.grid[j]), float(traj.grid[k]))
            assert lhs <= rhs * 1.05 + 1e-12

    def test_bitwise_determinism(self, rng):
        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        start = random_cloud(rng, 4, 1)
        a = peano_solve(fam, start, n=6, substeps=2, strategy="min_norm")
        b = peano_solve(fam, start, n=6, substeps=2, strategy="min_norm")
        np.testing.assert_array_equal(a[0].points, b[0].points)
        np.testing.assert_array_equal(a[1].indices, b[1].indices)
