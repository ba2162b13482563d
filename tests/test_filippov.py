import math

import numpy as np
import pytest

from wassinc import bounds, compute_bound, filippov, filippov_track, integrate, measure, moment
from wassinc.inclusion import ball_gaps
from wassinc.catalog import constants_family, gain_family, linear_decay_field, zero_field

from conftest import cloud, control_field, delta, random_cloud, const_rates

INF = math.inf


def bang_bang(T=1.0):
    return constants_family([[-1.0], [1.0]], const_rates(1.0, 0.0, 0.0, T))


def mismatch(fam, ref, w, R):
    """The mismatch series eta_R of a tracking run along ``ref``."""
    return filippov_track(fam, ref, w, ref.at(0.0), R, 1e-9, 1, p=1)[2].eta_R


class TestMismatch:
    def test_member_field_zero(self):
        fam = bang_bang()
        w = control_field(fam, 1)
        ref = integrate(w, delta(0.0), np.linspace(0, 1, 11))
        assert np.all(mismatch(fam, ref, w, INF) == 0.0)

    def test_origin_against_constants(self):
        fam = bang_bang()
        w = zero_field(const_rates(0, 0, 0))
        ref = integrate(w, delta(0.0), np.linspace(0, 1, 11))
        np.testing.assert_array_equal(mismatch(fam, ref, w, 5.0), np.ones(11))

    def test_empty_ball_convention(self):
        fam = bang_bang()
        w = zero_field(const_rates(0, 0, 0))
        ref = integrate(w, delta(5.0), np.linspace(0, 1, 11))
        assert np.all(mismatch(fam, ref, w, 1.0) == 0.0)

    def test_nonpositive_radius_rejected(self):
        fam = bang_bang()
        w = zero_field(const_rates(0, 0, 0))
        ref = integrate(w, delta(0.0), np.linspace(0, 1, 3))
        with pytest.raises(ValueError):
            mismatch(fam, ref, w, 0.0)


class TestComputeBound:
    def test_all_terms_vanish(self):
        # no growth, equal starts, reference supported inside the safe ball
        grid = np.linspace(0, 1, 6)
        out = compute_bound(
            grid=grid,
            eta=np.zeros(6),
            rates=const_rates(0.0, 0.0, 0.0),
            p=2,
            R=10.0,
            nu0=delta(0.0),
            w0_dist=0.0,
            moment_mu0=0.0,
            moment_nu0=0.0,
        )
        np.testing.assert_array_equal(out["D_p"], np.zeros(6))
        np.testing.assert_array_equal(out["E_term"], np.zeros(6))

    def test_constants_exact_p2(self):
        out = compute_bound(
            grid=np.linspace(0, 1, 3),
            eta=np.zeros(3),
            rates=const_rates(1.0, 0.0, 0.0),
            p=2,
            R=INF,
            nu0=delta(0.0),
            w0_dist=1.0,
            moment_mu0=1.0,
            moment_nu0=0.0,
        )
        assert out["constants"]["C_p"] == math.sqrt(2.0)
        assert out["constants"]["C_p_prime"] == 1.0
        np.testing.assert_allclose(out["D_p"], math.sqrt(2.0) * np.ones(3))

    def test_overflow_saturates_without_nan(self):
        # exp(C_p' (l t)^p) leaves the float range; L = 0 and a zero
        # distance term must still give 0, not 0 * inf = nan
        out = compute_bound(
            grid=np.linspace(0, 10, 5),
            eta=np.zeros(5),
            rates=const_rates(0.0, 100.0, 0.0, T=10.0),
            p=2,
            R=INF,
            nu0=delta(0.0),
            w0_dist=0.0,
            moment_mu0=0.0,
            moment_nu0=0.0,
        )
        np.testing.assert_array_equal(out["chi_p"], np.zeros(5))
        np.testing.assert_array_equal(out["D_p"], np.zeros(5))

    def test_power_overflow_saturates_without_nan(self):
        # (l t)^p itself leaves the float range, before exp sees it
        out = compute_bound(
            grid=np.linspace(0, 10, 5),
            eta=np.zeros(5),
            rates=const_rates(0.0, 1e100, 1.0, T=10.0),
            p=4,
            R=INF,
            nu0=delta(0.0),
            w0_dist=1.0,
            moment_mu0=0.0,
            moment_nu0=0.0,
        )
        assert out["D_p"][0] == bounds.C_p(4.0)
        np.testing.assert_array_equal(out["D_p"][1:], np.full(4, INF))
        np.testing.assert_array_equal(out["chi_p"][1:], np.full(4, INF))

    def test_moment_envelopes_saturate(self):
        assert bounds.moment_bound(4.0, 1.0, 1e100) == INF
        assert bounds.uniform_moment(4.0, 1.0, 1.0, 1e100) == INF
        assert bounds.exp_power(1.0, 1e100, 4.0) == INF
        assert bounds.exp_power(1.0, 0.0, 4.0) == 1.0

    def test_constants_exact_p1(self):
        from wassinc import bounds as bnd

        assert bnd.C_p(1.0) == 1.0 and bnd.C_p_prime(1.0) == 1.0
        assert bnd.C_p(2.0) == math.sqrt(2.0) and bnd.C_p_prime(2.0) == 1.0

    def test_monotone_in_time(self, rng):
        grid = np.linspace(0, 1, 50)
        eta = np.abs(rng.standard_normal(50))
        out = compute_bound(
            grid=grid,
            eta=eta,
            rates=const_rates(0.2, 0.5, 0.3),
            p=1,
            R=4.0,
            nu0=random_cloud(rng, 6, 1, scale=0.5),
            w0_dist=0.2,
            moment_mu0=0.5,
            moment_nu0=0.5,
        )
        assert np.all(np.isfinite(out["D_p"]))
        assert np.all(np.diff(out["D_p"]) >= -1e-12)


class TestTracking:
    def test_member_reference_converges_immediately(self):
        fam = bang_bang()
        w = control_field(fam, 0)
        grid = np.linspace(0, 1, 101)
        ref = integrate(w, delta(0.0), grid)
        traj, signal, cert = filippov_track(fam, ref, w, delta(0.0), INF, 1e-9, 10, p=1)
        assert cert.iterations == 1 and cert.converged
        assert np.all(cert.measured_W_p == 0.0)
        np.testing.assert_array_equal(traj.points, ref.points)

    def test_initial_distance_is_the_first_measured_node(self, rng, monkeypatch):
        # W_p(mu0, nu0) is measured once, at node 0, and the bound reuses it;
        # calls holds the node count of each per-node series
        calls = []
        solve, series = measure.wasserstein_cost, filippov.wasserstein_costs
        monkeypatch.setattr(filippov, "wasserstein_costs", lambda a, b, p: calls.append(len(a)) or series(a, b, p))
        fam = bang_bang()
        w = zero_field(const_rates(1.0, 0.0, 0.0))
        grid = np.linspace(0, 1, 11)
        ref = integrate(w, random_cloud(rng, 5, 1), grid)
        start = random_cloud(rng, 5, 1)
        _, _, cert = filippov_track(fam, ref, w, start, INF, 1e-9, 10, p=2)
        assert calls == [grid.size]
        assert cert.measured_W_p[0] == solve(start, ref.at(0.0), 2)
        assert cert.D_p[0] == bounds.C_p(2.0) * cert.measured_W_p[0]

    def test_constants_scenario_tight(self):
        fam = bang_bang()
        w = zero_field(const_rates(1.0, 0.0, 0.0))
        grid = np.linspace(0, 1, 1001)
        ref = integrate(w, delta(0.0), grid)
        traj, signal, cert = filippov_track(fam, ref, w, delta(0.0), INF, 1e-9, 10, p=1)
        # eta == 1, l == L == 0: the bound integrates to t and the tracked
        # curve attains it
        np.testing.assert_allclose(cert.eta_R, np.ones_like(cert.eta_R))
        assert np.max(np.abs(cert.D_p - grid)) < 1e-12
        assert np.max(np.abs(cert.measured_W_p - grid)) < 1e-12
        assert np.all(signal.indices == 0)  # tie broken to the lower index
        assert all(report.passed for report in cert.reports(0.05).values())

    def test_gain_scenario_bound(self):
        rates = const_rates(1.0, 1.0, 0.0)
        fam = gain_family([1.0], rates)
        w = linear_decay_field(rates)
        grid = np.linspace(0, 1, 1001)
        ref = integrate(w, delta(0.0), grid)
        traj, signal, cert = filippov_track(fam, ref, w, delta(1.0), INF, 1e-9, 10, p=1)
        assert abs(cert.measured_W_p[-1] - math.exp(-1)) < 5e-4
        np.testing.assert_allclose(cert.D_p, np.exp(grid), rtol=1e-12)
        assert all(report.passed for report in cert.reports(0.05).values())

    def test_velocity_gap_attains_estimate(self):
        fam = bang_bang()
        w = zero_field(const_rates(1.0, 0.0, 0.0))
        grid = np.linspace(0, 1, 201)
        ref = integrate(w, delta(0.0), grid)
        _, _, cert = filippov_track(fam, ref, w, delta(0.0), INF, 1e-9, 10, p=1)
        # |selected - w| = 1 on the reference atom, eta + L D = 1
        np.testing.assert_allclose(cert.velocity_gap, np.ones_like(cert.velocity_gap))
        assert cert.reports(0.0)["velocity_bound"].passed

    def test_velocity_bound_is_eta_plus_lipschitz_distance(self):
        rates = const_rates(1.0, 1.0, 0.5)
        fam = gain_family([1.0], rates)
        w = linear_decay_field(rates)
        ref = integrate(w, delta(0.0), np.linspace(0, 1, 51))
        _, _, cert = filippov_track(fam, ref, w, delta(1.0), INF, 1e-9, 10, p=1)
        np.testing.assert_array_equal(
            cert.velocity_bound, cert.eta_R + cert.L_at_nodes * cert.D_p
        )
        assert np.all(cert.velocity_bound >= cert.L_at_nodes * cert.D_p)

    def test_eta_is_gap_table_minimum(self):
        fam = bang_bang()
        w = zero_field(const_rates(1.0, 0.0, 0.0))
        ref = integrate(w, delta(0.5), np.linspace(0, 1, 11))
        table = ball_gaps(fam, ref.grid, ref.points, w, ref.points, 5.0)
        assert table.shape == (ref.grid.size, fam.size)
        np.testing.assert_array_equal(mismatch(fam, ref, w, 5.0), table.min(axis=1))

    def test_iterate_gaps_summable(self):
        # measure-coupled family so several iterations are needed
        from wassinc.catalog import mean_gain_family

        fam = mean_gain_family([0.5, 1.0], const_rates(1.0, 1.0, 1.0))
        w = control_field(fam, 1)
        grid = np.linspace(0, 1, 201)
        start = cloud([0.5], [1.5])
        ref = integrate(w, cloud([0.0], [1.0]), grid)
        _, _, cert = filippov_track(fam, ref, w, start, INF, 1e-12, 12, p=1)
        gaps = cert.iterate_gaps
        chi_bar = float(np.max(cert.chi_p))
        for k in range(1, len(gaps)):
            if gaps[k - 1] <= 1e-14:
                continue
            assert gaps[k] / gaps[k - 1] <= 2.0 * chi_bar / (k + 1) + 1e-12

    def test_finite_radius_with_ball_probes(self):
        # exercise the ball-grid probe path and the clamped tail threshold
        fam = bang_bang()
        w = zero_field(const_rates(1.0, 0.0, 0.0))
        grid = np.linspace(0, 1, 101)
        ref = integrate(w, delta(0.0), grid)
        traj, _, cert = filippov_track(fam, ref, w, delta(0.0), 2.0, 1e-9, 10, p=1)
        assert cert.converged
        np.testing.assert_allclose(cert.measured_W_p, grid, atol=1e-12)
        # the tail threshold clamps to zero, charging the full shifted
        # moment of delta_0, so the bound is loose but finite or infinite,
        # never nan
        assert not np.any(np.isnan(cert.D_p))
        assert cert.reports(0.05)["distance_bound"].passed
        # L = 0: the velocity bound is eta_R, even where D_p is inf
        assert np.isinf(cert.D_p[-1])
        np.testing.assert_array_equal(cert.velocity_bound, cert.eta_R)
        assert cert.reports(0.0)["velocity_bound"].passed

    def test_non_convergence_is_flagged_not_raised(self):
        fam = bang_bang()
        w = zero_field(const_rates(1.0, 0.0, 0.0))
        grid = np.linspace(0, 1, 51)
        ref = integrate(w, delta(0.0), grid)
        # tol far below the attainable gap and a budget of one iteration
        _, _, cert = filippov_track(fam, ref, w, delta(3.0), INF, 1e-15, 1, p=1)
        assert not cert.converged
        assert "iteration_not_converged" in cert.flags
