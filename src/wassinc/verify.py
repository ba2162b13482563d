"""Executable inequality checks: measured series against certified bounds.

Each check runs the simulations a scenario declares (the field's curve
from ``ScenarioConfig.start``, the reference curve from
``ScenarioConfig.reference``), evaluates a closed-form bound at every grid
time, and returns its series, constants and extras.  ``verify`` makes them
the ``bounds.BoundReport`` of the check's kind with the config slack,
whose verdict passes when every margin bound - measured is at least
-slack * bound - ``bounds.ATOL``.  The bounds are continuum statements,
so refining the grid only tightens the comparison; the default 5 percent
slack absorbs first-order integration error.  Both stability kinds are one
check, ``verify_gronwall``: ``gronwall_global`` is its radius R = inf, as
in tracking.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds
from .bounds import BoundReport
from .config import ScenarioConfig
from .dynamics import Trajectory, integrate, node_blocks
from .errors import ConfigError
from .inclusion import ball_gaps
from .measure import localisation_tail, moment, moments, tail_norms, wasserstein_costs


def verify(kind: str, config: ScenarioConfig) -> BoundReport:
    """The report of check ``kind`` on ``config``, with the config's slack."""
    try:
        check = _KINDS[kind]
    except KeyError:
        raise ConfigError(f"unknown verify kind {kind!r}") from None
    return BoundReport(kind=kind, slack=config.slack, **check(config))


def _simulate(config: ScenarioConfig) -> Trajectory:
    return integrate(config.field, config.start(), config.time_grid())


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
    growth = bounds.products(1.0 + envelope[:-1], rates.integral("m", grid[:-1], grid[1:]))
    m_int = rates.integral("m", 0.0, grid)
    return bounds.gronwall_series(p=p, w0=measured[0], increments=growth, l_int=m_int)[0]


def verify_momentum(config: ScenarioConfig) -> dict:
    """Moment growth of the evolved cloud against its certified envelope."""
    traj, field = _simulate(config), config.field
    p = config.p
    measured = moments(traj.points, p)
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
    start, nodes = traj.at(traj.times[0]), len(traj.grid)
    levels = [ct * localisation_tail(start, R, ct, p) for R in radii]
    measured = np.array([tail_norms(traj.points, R, p) for R in radii]).ravel()
    return dict(times=np.tile(traj.grid, len(radii)), measured=measured, bound=np.repeat(levels, nodes),
                constants={"C_T": ct, "R_list": radii}, extras={"R": np.repeat(radii, nodes)})


def verify_abs_continuity(config: ScenarioConfig) -> dict:
    """Per-step W_p displacement against c_p int m; by the triangle
    inequality consecutive steps also certify every grid pair."""
    traj, field = _simulate(config), config.field
    p = config.p
    m_total = field.rates.integral("m", 0.0, config.T)
    c_p = bounds.abs_continuity_constant(p, moment(traj.at(traj.times[0]), p), m_total)
    grid = traj.grid
    measured = wasserstein_costs(traj.points[:-1], traj.points[1:], p)
    bound = bounds.products(c_p, field.rates.integral("m", grid[:-1], grid[1:]))  # 0 * inf reads 0
    return dict(times=grid[1:], measured=measured, bound=bound, constants={"c_p": c_p})


def verify_gronwall(config: ScenarioConfig) -> dict:
    """W_p between the curve of the field and the reference curve of ``w``
    against the stability estimate ``bounds.gronwall_series`` with L = 0:
    the discrepancy on the ball of radius R plus the tail term E, which
    keeps the bound valid when the curves separate outside the ball.  An
    experiment with no ``R`` (``gronwall_global``) reads R = inf, where E
    vanishes; one with an ``R`` (``gronwall_local``) also records C_T, R,
    E and the bound without it."""
    exp = config.experiment
    v, w, R = config.field, exp["w"], exp.get("R", math.inf)
    mu, nu = _simulate(config), config.reference()
    p = config.p
    joint = v.rates.maximum(w.rates)
    ct = bounds.horizon_factor(joint.integral("m", 0.0, config.T))
    tail = localisation_tail(nu.at(nu.times[0]), R, ct, p)
    grid = mu.grid
    measured = wasserstein_costs(mu.points, nu.points, p)
    w0 = float(measured[0])
    gaps = ball_gaps(v, grid[:-1], mu.points[:-1], w, nu.points[:-1], R)[:, 0]
    l_int, m_int = v.rates.integral("l", 0.0, grid), joint.integral("m", 0.0, grid)

    def series(tail):
        return bounds.gronwall_series(p=p, w0=w0, increments=gaps * np.diff(grid), l_int=l_int, m_int=m_int,
                                      horizon=ct, tail=tail)

    bound, _, e_term = series(tail)
    constants = {"C_p": bounds.C_p(p), "C_p_prime": bounds.C_p_prime(p), "W_p_initial": w0}
    extras = {}
    if "R" in exp:
        constants.update(C_T=ct, R=R)
        extras = {"E_term": e_term, "bound_without_tail": series(0.0)[0]}
    return dict(times=grid, measured=measured, bound=bound, constants=constants, extras=extras)


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den of each hypothesis ratio: 0 for a vanishing numerator, inf
    for a nonzero one over a zero declared rate (the hypothesis fails)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(num <= bounds.ATOL, 0.0, np.where(den > 0, num / den, math.inf))


def _row_norms(v: np.ndarray) -> np.ndarray:
    """|v_i| of every row of an (S, d) array as ``np.linalg.norm`` of one row,
    the root of its dot product (a sum of squares may differ in the last bit)."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def verify_hypotheses_probe(config: ScenarioConfig) -> dict:
    """Sampled growth / Lipschitz / measure-Lipschitz ratios against 1.

    Draws ``samples`` (t, cloud, x) triples from jittered versions of
    the scenario's initial sampler and reports each observed ratio against
    the declared rate; the bound row is the constant 1.  The draws run one
    sample at a time, then each rule use is one block ``rule`` call.
    """
    n_samples = config.experiment["samples"]
    family = config.family or config.field
    rates, d, coupled = family.rates, config.d, family.measure_dependent

    rng = np.random.Generator(np.random.Philox(key=np.uint64(config.seed)))
    p = config.p
    base = config.start().points

    # per sample: t, the jitter (scale, shift) of its cloud and of the other cloud, control, atom, step to y
    t, scale, shift = np.empty(n_samples), np.empty((2, n_samples)), np.empty((2, n_samples, d))
    u, atom, step = np.empty((n_samples, 1), dtype=int), np.empty(n_samples, dtype=int), np.empty((n_samples, d))
    for s in range(n_samples):
        t[s], scale[0, s], shift[0, s] = rng.uniform(0.0, config.T), rng.uniform(0.5, 2.0), rng.normal(0.0, 0.5, d)
        u[s], atom[s], step[s] = rng.integers(family.size), rng.integers(len(base)), rng.normal(0.0, 0.3, d)
        if coupled:
            scale[1, s], shift[1, s] = rng.uniform(0.5, 2.0), rng.normal(0.0, 0.5, d)

    def jittered(k, b):  # jitter k of the samples b, checked finite
        with np.errstate(over="ignore"):  # the check below reports it
            points = scale[k, b, None, None] * base + shift[k, b, None, :]
        if not np.isfinite(points).all():
            raise ValueError("cloud coordinates must be finite")
        return points

    kinds = "mlL" if coupled else "ml"
    measured = np.empty((n_samples, len(kinds)))  # each sample's ratios in the order of ``kinds``
    for b in node_blocks(n_samples, family.size * 2 * base.size):
        points, tb = jittered(0, b), t[b]
        x = points[np.arange(len(points)), atom[b]]
        y = x + step[b]
        vx, vy = (family.rule(tb, points, u[b], z[:, None])[:, 0, 0] for z in (x, y))
        growth = 1.0 + _row_norms(x) + moments(points, p)
        measured[b, 0] = _ratios(_row_norms(vx), bounds.products(rates.at("m", tb), growth))
        measured[b, 1] = _ratios(_row_norms(vx - vy), bounds.products(rates.at("l", tb), _row_norms(x - y)))
        if coupled:
            other = jittered(1, b)
            probes = np.concatenate((points, other), axis=1)
            used = family.rule(tb, points, u[b], probes)[:, 0]
            best = family.gaps(tb, other, used, probes).min(axis=1)
            measured[b, 2] = _ratios(best, bounds.products(rates.at("L", tb), wasserstein_costs(points, other, p)))

    constants = {f"max_ratio_{k}": max([0.0, *measured[:, kinds.index(k)].tolist()]) if k in kinds else 0.0
                 for k in "mlL"}
    constants["n_triples"] = n_samples
    return dict(
        times=np.repeat(t, len(kinds)), measured=measured.ravel(), bound=np.ones(measured.size), constants=constants,
        extras={"rate": np.tile(np.array(list(kinds)), n_samples)},
    )


_KINDS = {
    "momentum": verify_momentum,
    "equi_integrability": verify_equi_integrability,
    "abs_continuity": verify_abs_continuity,
    "gronwall_global": verify_gronwall,
    "gronwall_local": verify_gronwall,
    "hypotheses_probe": verify_hypotheses_probe,
}
