"""Executable inequality checks: measured series against certified bounds.

Each check runs the simulations a scenario declares (the field's curve
from ``ScenarioConfig.start``, the reference curve from
``ScenarioConfig.reference``), evaluates a closed-form bound at every grid
time, and returns its series, constants and extras.  ``verify`` makes them
the ``bounds.BoundReport`` of the check's kind with the config slack,
whose verdict passes when every margin bound - measured is at least
-slack * bound - ``bounds.ATOL``.  The bounds are continuum statements,
so refining the grid only tightens the comparison; the default 5 percent
slack absorbs first-order integration error.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds
from .bounds import BoundReport
from .config import ScenarioConfig
from .dynamics import Trajectory, integrate
from .errors import ConfigError
from .inclusion import ball_gaps
from .measure import ParticleCloud, localisation_tail, moment, tail_norm, wasserstein_cost, wasserstein_costs


def verify(kind: str, config: ScenarioConfig) -> BoundReport:
    """The report of check ``kind`` on ``config``, with the config's slack."""
    try:
        check = _KINDS[kind]
    except KeyError:
        raise ConfigError(f"unknown verify kind {kind!r}") from None
    return BoundReport(kind=kind, slack=config.slack, **check(config))


def _simulate(config: ScenarioConfig) -> Trajectory:
    return integrate(config.field, config.start(), config.time_grid(), method="euler")


def momentum_bound_series(
    grid: np.ndarray,
    measured: np.ndarray,
    rates,
    p: float,
    measure_dependent: bool,
) -> np.ndarray:
    """Bound series C_p (M_p(mu0) + int_0^t m (1 + M)) exp(C_p' ||m||_{1,[0,t]}^p).

    For measure-independent fields M = 0; for measure-dependent ones M(s)
    is the running maximum of the measured moment, the a priori envelope
    the velocity growth actually saw (it dominates the moment of any
    current or delayed measure argument).
    """
    envelope = np.maximum.accumulate(measured) if measure_dependent else np.zeros_like(measured)
    growth = (1.0 + envelope[:-1]) * rates.integral("m", grid[:-1], grid[1:])
    m_int = rates.integral("m", 0.0, grid)
    return bounds.gronwall_series(p=p, w0=measured[0], increments=growth, l_int=m_int)[0]


def verify_momentum(config: ScenarioConfig) -> dict:
    """Moment growth of the evolved cloud against its certified envelope."""
    traj, field = _simulate(config), config.field
    p = config.p
    measured = np.array([moment(c, p) for c in traj.clouds])
    bound = momentum_bound_series(traj.grid, measured, field.rates, p, field.measure_dependent)
    constants = {"C_p": bounds.C_p(p), "C_p_prime": bounds.C_p_prime(p), "measure_dependent": field.measure_dependent}
    return dict(times=traj.grid, measured=measured, bound=bound, constants=constants)


def verify_equi_integrability(config: ScenarioConfig) -> dict:
    """Tail mass of the evolved cloud against the shifted tail of the start."""
    traj, field = _simulate(config), config.field
    p = config.p
    radii = config.experiment["R_list"]
    m_total = field.rates.integral("m", 0.0, config.T)
    ct = bounds.horizon_factor(m_total)
    start = traj.clouds[0]
    times, measured, bound, r_col = [], [], [], []
    for R in radii:
        level = ct * localisation_tail(start, R, ct, p)
        for k, t in enumerate(traj.grid):
            times.append(float(t))
            measured.append(tail_norm(traj.clouds[k], R, p))
            bound.append(level)
            r_col.append(R)
    return dict(times=np.array(times), measured=np.array(measured), bound=np.array(bound),
                constants={"C_T": ct, "R_list": radii}, extras={"R": np.array(r_col)})


def verify_abs_continuity(config: ScenarioConfig) -> dict:
    """Per-step W_p displacement against c_p int m; by the triangle
    inequality consecutive steps also certify every grid pair."""
    traj, field = _simulate(config), config.field
    p = config.p
    m_total = field.rates.integral("m", 0.0, config.T)
    c_p = bounds.abs_continuity_constant(p, moment(traj.clouds[0], p), m_total)
    grid = traj.grid
    measured = wasserstein_costs(zip(traj.clouds, traj.clouds[1:]), p)
    bound = c_p * field.rates.integral("m", grid[:-1], grid[1:])
    return dict(times=grid[1:], measured=measured, bound=bound, constants={"c_p": c_p})


def _gronwall(config: ScenarioConfig, R: float, local: bool) -> dict:
    """W_p between the curve of the field and the reference curve of ``w``
    against ``bounds.gronwall_series`` with L = 0; its tail term E vanishes
    for R = inf.  A local check also records C_T, R and the tail."""
    v, w = config.field, config.experiment["w"]
    mu, nu = _simulate(config), config.reference()
    p = config.p
    joint = v.rates.maximum(w.rates)
    ct = bounds.horizon_factor(joint.integral("m", 0.0, config.T))
    tail = localisation_tail(nu.clouds[0], R, ct, p)
    grid = mu.grid
    measured = wasserstein_costs(zip(mu.clouds, nu.clouds), p)
    w0 = float(measured[0])
    gaps = [ball_gaps(v, t, mu.clouds[k], w, nu.clouds[k], R)[0] for k, t in enumerate(grid[:-1].tolist())]
    l_int, m_int = v.rates.integral("l", 0.0, grid), joint.integral("m", 0.0, grid)

    def series(tail):
        return bounds.gronwall_series(
            p=p, w0=w0, increments=np.array(gaps) * np.diff(grid), l_int=l_int, m_int=m_int,
            horizon=ct, tail=tail,
        )

    bound, _, e_term = series(tail)
    constants = {"C_p": bounds.C_p(p), "C_p_prime": bounds.C_p_prime(p), "W_p_initial": w0}
    extras = {}
    if local:
        constants.update(C_T=ct, R=R)
        extras = {"E_term": e_term, "bound_without_tail": series(0.0)[0]}
    return dict(times=grid, measured=measured, bound=bound, constants=constants, extras=extras)


def verify_gronwall_global(config: ScenarioConfig) -> dict:
    """W_p between two curves against the global stability estimate."""
    return _gronwall(config, math.inf, local=False)


def verify_gronwall_local(config: ScenarioConfig) -> dict:
    """Localised stability estimate: ball-restricted discrepancy plus the
    tail error term, which is what keeps the bound valid when the curves
    separate outside the observation ball."""
    return _gronwall(config, config.experiment["R"], local=True)


def _ratio(num: float, den: float) -> float:
    """num / den for a hypothesis ratio: 0 for a vanishing numerator, inf
    for a nonzero one over a zero declared rate (the hypothesis fails)."""
    if num <= bounds.ATOL:
        return 0.0
    return num / den if den > 0 else math.inf


def verify_hypotheses_probe(config: ScenarioConfig) -> dict:
    """Sampled growth / Lipschitz / measure-Lipschitz ratios against 1.

    Draws at least 1000 (t, cloud, x) triples from jittered versions of
    the scenario's initial sampler and reports each observed ratio against
    the declared rate; the bound row is the constant 1.
    """
    n_samples = max(1000, config.experiment["samples"])
    family = config.family or config.field
    rates = family.rates

    rng = np.random.Generator(np.random.Philox(key=np.uint64(config.seed)))
    p = config.p
    base = config.start().points

    def jitter_cloud():
        scale = rng.uniform(0.5, 2.0)
        shift = rng.normal(0.0, 0.5, config.d)
        return ParticleCloud(scale * base + shift)

    samples = []  # (t, rate, ratio)
    for _ in range(n_samples):
        t = float(rng.uniform(0.0, config.T))
        cloud = jitter_cloud()
        u = [int(rng.integers(family.size))]
        x = cloud.points[int(rng.integers(cloud.n))][None, :]
        vx = family.rule(t, cloud, u, x)[0]
        den = rates.at("m", t) * (1.0 + float(np.linalg.norm(x)) + moment(cloud, p))
        samples.append((t, "m", _ratio(float(np.linalg.norm(vx)), den)))

        y = x + rng.normal(0.0, 0.3, config.d)
        num = float(np.linalg.norm(vx - family.rule(t, cloud, u, y)[0]))
        samples.append((t, "l", _ratio(num, rates.at("l", t) * float(np.linalg.norm(x - y)))))

        if family.measure_dependent:
            other = jitter_cloud()
            probes = np.concatenate((cloud.points, other.points))
            used = family.rule(t, cloud, u, probes)
            best = float(family.gaps(t, other, used, probes).min())
            den = rates.at("L", t) * wasserstein_cost(cloud, other, p)
            samples.append((t, "L", _ratio(best, den)))

    times, labels, measured = (np.array(column) for column in zip(*samples))
    constants = {
        f"max_ratio_{k}": max([0.0] + [r for _, rate, r in samples if rate == k]) for k in "mlL"
    }
    constants["n_triples"] = n_samples
    return dict(
        times=times, measured=measured, bound=np.ones_like(measured), constants=constants, extras={"rate": labels}
    )


_KINDS = {
    "momentum": verify_momentum,
    "equi_integrability": verify_equi_integrability,
    "abs_continuity": verify_abs_continuity,
    "gronwall_global": verify_gronwall_global,
    "gronwall_local": verify_gronwall_local,
    "hypotheses_probe": verify_hypotheses_probe,
}
