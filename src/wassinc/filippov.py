"""Tracking of a reference curve by admissible trajectories, with a
fully explicit certified distance bound.

Given a reference trajectory driven by some field w and a finite control
family, the tracking iteration first selects, at every grid time, the
admissible control closest to w along the reference atoms inside a ball
of radius R (the mismatch), then alternates integration and re-selection
until consecutive iterates agree in W_p up to a tolerance.  The returned
certificate evaluates the closed-form bound

    D_p(t) = C_p (W_p(mu0, nu(0)) + int_0^t eta_R + E(t, R))
             exp(C_p' ||l||_{1,[0,t]}^p + chi_p(t))

with chi_p(t) = C_p ||L||_{1,[0,t]} exp(C_p' ||l||_{1,[0,t]}^p) and a tail
error E(t, R) that vanishes in the global variant R = inf, and compares
it against the measured distances and velocity gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .dynamics import ControlledFamily, RateFunctions, Trajectory, ball_grid, euler_curve, node_blocks
from .inclusion import ControlSignal, ball_gaps
from .measure import ParticleCloud, localisation_tail, moment, sup_wasserstein_cost, wasserstein_costs


@dataclass(frozen=True, eq=False)
class FilippovCertificate:
    """Measured quantities and certified bounds of one tracking run.

    All series live on ``grid``; ``L_at_nodes`` is the rate L there.
    ``constants`` records C_p, C_p', the uniform moment bound, the inflated
    travel envelope, the radius used and ||m||_1, so alternative
    instantiations of the implicit constants can be compared.
    Non-convergence is recorded in ``flags``, not raised; ``iterations``
    and ``flags`` follow from ``iterate_gaps`` and ``converged``.
    """

    grid: np.ndarray
    eta_R: np.ndarray
    D_p: np.ndarray
    chi_p: np.ndarray
    E_term: np.ndarray
    L_at_nodes: np.ndarray
    measured_W_p: np.ndarray
    velocity_gap: np.ndarray
    constants: dict
    iterate_gaps: tuple
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.iterate_gaps)

    @property
    def flags(self) -> tuple:
        return () if self.converged else ("iteration_not_converged",)

    @property
    def velocity_bound(self) -> np.ndarray:
        """eta_R + L(t) D_p(t), the bound on the velocity gap at every node;
        L = 0 drops D_p even where it saturated to inf, as ``bounds.product`` does."""
        L = self.L_at_nodes
        return self.eta_R + L * np.where(L == 0.0, 0.0, self.D_p)

    def reports(self, slack: float) -> dict:
        """The distance check (measured W_p against D_p) and the velocity
        check (velocity gap against ``velocity_bound``), by verdict name."""
        series = {"distance_bound": (self.measured_W_p, self.D_p),
                  "velocity_bound": (self.velocity_gap, self.velocity_bound)}
        return {kind: bounds.BoundReport(kind, self.grid, m, b, slack) for kind, (m, b) in series.items()}


def compute_bound(
    *,
    grid: np.ndarray,
    eta: np.ndarray,
    rates: RateFunctions,
    p: float,
    R: float,
    nu0: ParticleCloud,
    w0_dist: float,
    moment_mu0: float,
    moment_nu0: float,
) -> dict:
    """Evaluate the certified bound series, L at the nodes and the
    constants, by their ``FilippovCertificate`` field names.

    Rate integrals are exact for the piecewise-constant rates; the
    mismatch series is integrated by the left-endpoint rule on the grid,
    matching left-constant selection semantics.  A finite R whose tail
    threshold R/C_T - 1 falls below zero clamps to zero, so the full
    shifted moment of the reference start is charged.
    """
    m_total = rates.integral("m", 0.0, rates.duration)
    script_c = bounds.uniform_moment(p, moment_mu0, moment_nu0, m_total)
    script_ct = bounds.script_horizon_factor(script_c, m_total)
    if not R > 0:
        raise ValueError(f"radius R must be positive (or inf), got {R}")
    tail = localisation_tail(nu0, R, script_ct, p)

    l_int, L_int, m_int = (rates.integral(r, 0.0, grid) for r in ("l", "L", "m"))
    D, chi, E = bounds.gronwall_series(
        p=p, w0=w0_dist, increments=eta[:-1] * np.diff(grid), l_int=l_int, L_int=L_int,
        m_int=m_int, horizon=script_ct, tail=tail,
    )
    return {
        "D_p": D,
        "chi_p": chi,
        "E_term": E,
        "L_at_nodes": rates.at("L", grid),
        "constants": {
            "C_p": bounds.C_p(p),
            "C_p_prime": bounds.C_p_prime(p),
            "uniform_moment": script_c,
            "horizon_factor": script_ct,
            "R": R,
            "m_total": m_total,
        },
    }


def filippov_track(
    family: ControlledFamily,
    ref: Trajectory,
    w: ControlledFamily,
    start: ParticleCloud,
    R: float,
    tol: float,
    max_iter: int,
    p: float,
) -> tuple[Trajectory, ControlSignal, FilippovCertificate]:
    """Iteratively track the reference curve inside the admissible set.

    The first selection minimizes the mismatch objective along the
    reference; each further selection minimizes, per grid time, the probe
    sup distance to the previous iterate's velocity slice, evaluated on the
    current iterate's measure; its probes are the atoms of both clouds
    plus, for finite R, a lattice of spacing R/8 on the ball of radius R.
    Each iterate is the ``euler_curve`` of peano's ``delayed_step`` over
    the grid, with control sigma_k and the previous curve's node k as
    measure; the next re-selection and the velocity gap (node M with
    sigma_{M-1}) read that same slice.  Stops when consecutive iterates are within ``tol`` in
    sup-W_p or after ``max_iter`` iterations, in which case the certificate
    is flagged ``iteration_not_converged`` (the last iterate is still an
    admissible trajectory).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not R > 0:
        raise ValueError(f"radius R must be positive (or inf), got {R}")
    grid = ref.grid
    n_int = grid.size - 1
    # initial selection: mismatch argmin along the reference, from the (nodes x controls) gaps
    table = ball_gaps(family, grid, ref.points, w, ref.points, R)
    sel = table[:n_int].argmin(axis=1)
    lattice = np.empty((0, start.d)) if math.isinf(R) else ball_grid(R, start.d, R / 8.0)

    prior, gaps = ref, []
    while True:  # each iterate steps with the measure of the curve before it
        cur = euler_curve(family, start, grid, sel, prior.points)
        gaps.append(sup_wasserstein_cost(cur.points, prior.points, p))
        if not (gaps[-1] > tol and len(gaps) < max_iter):
            break
        last, sel = sel, np.empty(n_int, dtype=int)
        for b in node_blocks(n_int, family.size * (2 * start.n + len(lattice)) * start.d):
            # the probes of a block of nodes: the atoms of both clouds, then the lattice
            probes = np.concatenate([cur.points[b], ref.points[b], np.broadcast_to(
                lattice, (b.stop - b.start,) + lattice.shape)], axis=1)
            used = family.rule(grid[b], prior.points[b], last[b, None], probes)[:, 0]
            sel[b] = family.gaps(grid[b], cur.points[b], used, probes).argmin(axis=1)
        prior = cur
    converged = gaps[-1] <= tol
    sig = ControlSignal(grid=grid, indices=sel)

    eta = table.min(axis=1)
    measured = wasserstein_costs(cur.points, ref.points, p)
    nu0 = ref.at(ref.times[0])
    bound = compute_bound(
        grid=grid,
        eta=eta,
        rates=family.rates,
        p=p,
        R=R,
        nu0=nu0,
        w0_dist=float(measured[0]),  # cur starts at ``start``
        moment_mu0=moment(start, p),
        moment_nu0=moment(nu0, p),
    )
    # the last iterate's velocity against w on the reference atoms; node M reuses the last control
    vel_gap = ball_gaps(family, grid, prior.points, w, ref.points, R)[np.arange(grid.size), np.append(sel, sel[-1])]

    cert = FilippovCertificate(
        grid=grid,
        eta_R=eta,
        measured_W_p=measured,
        velocity_gap=vel_gap,
        **bound,
        iterate_gaps=tuple(gaps),
        converged=converged,
    )
    return cur, sig, cert
