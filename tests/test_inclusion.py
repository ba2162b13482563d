import warnings

import numpy as np
import pytest

from wassinc import (
    ControlledFamily,
    ControlSignal,
    ParticleCloud,
    Trajectory,
    inclusion_residual,
    integrate,
    moment,
    peano_solve,
    refinement_study,
    signal_field,
    wasserstein_cost,
)
from wassinc.bounds import ATOL, BoundReport
from wassinc.catalog import constants_family, gain_family, linear_decay_field, mean_gain_family
from wassinc.verify import momentum_bound_series

from conftest import cloud, control_field, delta, random_cloud, const_rates


def bang_bang(T=1.0):
    return constants_family([[-1.0], [1.0]], const_rates(1.0, 0.0, 0.0, T))


def mean_drive():
    """v = k mean(mu), k in {0.5, 1}: unlike ``mean_gain``, the measure term
    moves the mean, so reading the wrong cloud shows in the positions."""
    gains = np.array([0.5, 1.0])

    def rule(t, points, idx, X):
        drive = np.broadcast_to(points.mean(axis=-2)[..., None, :], X.shape)
        return gains[np.asarray(idx)][..., None, None] * drive[..., None, :, :]

    return ControlledFamily(controls=(0.5, 1.0), rule=rule, rates=const_rates(1.0, 1.0, 1.0), measure_dependent=True)


def delayed_euler(family, start, n, substeps, stepped, h_scale=1.0, undelayed=False):
    """The delayed Euler scheme written out: on sub-interval k, control
    ``stepped[k]`` read at the cloud one block earlier (the current one if
    ``undelayed``), over ``h_scale`` times the step."""
    times = np.linspace(0.0, family.rates.duration, n * substeps + 1).tolist()
    pts = [start.points]
    for k in range(n * substeps):
        delayed = pts[k if undelayed else max(0, k - substeps)]
        pts.append(pts[k] + h_scale * (times[k + 1] - times[k]) * family.rule(times[k], delayed, [stepped[k]], pts[k])[0])
    return Trajectory(grid=np.array(times), points=np.stack(pts))


def membership(traj, indices, family, delay):
    signal = ControlSignal(grid=traj.grid, indices=indices)
    res = inclusion_residual(traj, signal, family, delay)
    return res, BoundReport("delayed_membership", signal.grid[:-1], res, np.zeros_like(res), 0.05)


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
        for row in traj.points:
            assert row[0, 0] == 0.7

    def test_min_norm_picks_idle_gain(self):
        fam = gain_family([0.0, 1.0], const_rates(1.0, 1.0, 0.0))
        traj, signal = peano_solve(fam, delta(1.0), n=4, substeps=2, strategy="min_norm")
        assert np.all(signal.indices == 0)
        for row in traj.points:
            assert row[0, 0] == 1.0

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

    def test_one_control_is_convex_valued(self):
        # one velocity is a convex set: a field, or a family of one control, warns nothing
        field = linear_decay_field(const_rates(1.0, 1.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            peano_solve(field, ParticleCloud([[1.0]]), 4)
            peano_solve(constants_family([[0.5]], const_rates(0.5, 0.0, 0.0)), delta(0.0), 2)
        assert field.size == 1 and control_field(bang_bang(), 1).size == 1


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
        # trajectory driven by the constant field +2, replayed against {-1, +1}:
        # every step is 2h, the replay moves -h or +h
        driver = constants_family([[2.0]], const_rates(2.0, 0.0, 0.0))
        grid = np.linspace(0.0, 1.0, 9)
        traj = integrate(control_field(driver, 0), delta(0.0), grid)
        for index, expected in ((0, 3.0), (1, 1.0)):
            res, report = membership(traj, np.full(grid.size - 1, index), bang_bang(), delay=0.0)
            np.testing.assert_array_equal(res, np.full_like(res, expected))
            assert not report.passed

    def test_written_out_scheme_replays_to_zero(self, rng):
        fam, start = mean_drive(), ParticleCloud(random_cloud(rng, 6, 2).points + [1.0, -0.5])
        stepped = rng.integers(2, size=8)
        res, report = membership(delayed_euler(fam, start, 4, 2, stepped), stepped, fam, delay=0.25)
        assert np.all(res == 0.0) and report.passed

    @pytest.mark.parametrize("mutation", ["step_length", "recorded_index", "undelayed", "moved_node"])
    def test_every_mutation_fails_the_verdict(self, rng, mutation):
        fam, start = mean_drive(), ParticleCloud(random_cloud(rng, 6, 2).points + [1.0, -0.5])
        stepped = rng.integers(2, size=8)
        recorded = 1 - stepped if mutation == "recorded_index" else stepped
        traj = delayed_euler(fam, start, 4, 2, stepped, h_scale=1.01 if mutation == "step_length" else 1.0,
                             undelayed=mutation == "undelayed")
        if mutation == "moved_node":
            pts = traj.points.copy()
            pts[5, 3, 1] += 1e-9
            traj = Trajectory(grid=traj.grid, points=pts)
        res, report = membership(traj, recorded, fam, delay=0.25)
        assert res.max() > 1e6 * ATOL and not report.passed


def test_signal_field_rejects_an_index_outside_the_family():
    grid = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="^signal index 3 outside family of size 2$"):
        signal_field(bang_bang(), ControlSignal(grid=grid, indices=[1, 3, 0]))
    field = signal_field(bang_bang(), ControlSignal(grid=grid, indices=[1, 1, 0]))
    assert field.size == 1 and field.rule(0.5, delta(0.0).points, [0], np.zeros((1, 1))).tolist() == [[[1.0]]]


def refinements(family, start, n_list, substeps, strategy):
    """The peano curve of each n, as ``refinement_study`` takes them."""
    return {n: peano_solve(family, start, n, substeps, strategy)[0] for n in n_list}


class TestRefinementStudy:
    def test_measure_independent_family_identical(self, rng):
        rows = refinement_study(refinements(bang_bang(), delta(0.0), [2, 4, 8], 4, "first"), p=1)
        assert all(v == 0.0 for _, _, v in rows)

    def test_mean_gain_distances_recorded(self, rng):
        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        start = random_cloud(rng, 8, 2)
        rows = refinement_study(refinements(fam, start, [4, 8, 16, 32], 4, "min_norm"), p=1)
        values = [v for _, _, v in rows]
        assert all(np.isfinite(values))
        assert [r[:2] for r in rows] == [(4, 8), (8, 16), (16, 32)]

    def test_short_n_list_rejected(self):
        curves = refinements(bang_bang(), delta(0.0), [4, 8], 2, "first")
        with pytest.raises(ValueError):
            refinement_study({4: curves[4]}, p=1)
        with pytest.raises(ValueError):
            refinement_study({8: curves[8], 4: curves[4]}, p=1)


class TestPeanoEstimates:
    def test_momentum_envelope_along_solutions(self, rng):
        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        start = random_cloud(rng, 8, 2)
        for p in (1.0, 2.0):
            traj, _ = peano_solve(fam, start, n=8, substeps=4, strategy="min_norm")
            measured = np.array([moment(traj.at(t), p) for t in traj.times])
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
        assert all(moment(traj.at(t), p) <= script_c * 1.05 for t in traj.times)

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
            lhs = wasserstein_cost(traj.at(traj.times[j]), traj.at(traj.times[k]), p)
            rhs = c_p * fam.rates.integral("m", float(traj.grid[j]), float(traj.grid[k]))
            assert lhs <= rhs * 1.05 + 1e-12

    def test_bitwise_determinism(self, rng):
        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        start = random_cloud(rng, 4, 1)
        a = peano_solve(fam, start, n=6, substeps=2, strategy="min_norm")
        b = peano_solve(fam, start, n=6, substeps=2, strategy="min_norm")
        np.testing.assert_array_equal(a[0].points, b[0].points)
        np.testing.assert_array_equal(a[1].indices, b[1].indices)
