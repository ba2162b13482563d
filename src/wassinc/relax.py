"""Mixtures of a finite control family and their realization by fast switching.

``convexify`` builds the family of the weighted mixtures it is given,
each a ``ChatteringControl``: a convex combination of parent controls
with integer weights over their sum.  ``aumann_realize`` converts a
signal over such a mixture family back into pure controls by splitting
each time block into consecutive sub-segments whose lengths are
proportional to the weights, so the block time-average of the realized
field matches the mixture exactly for fields constant in time.
``relax_approximate`` chains the tail-rule radius, the block-size choice,
realization, integration, and a tracking run into the end-to-end density
experiment: how closely can pure-control trajectories follow a mixture
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .dynamics import ControlledFamily, Trajectory, integrate
from .errors import ResolutionError
from .filippov import filippov_track
from .inclusion import ControlSignal, signal_field
from .measure import moment, tail_norm, wasserstein_costs


@dataclass(frozen=True)
class ChatteringControl:
    """Weighted mixture of q parent controls.

    Weights are the rationals ``weight_numerators[j] / weight_den``, where
    ``weight_den`` is the numerators' sum, so they sum to one exactly; the
    induced field is the corresponding convex combination of the parent
    fields.
    """

    base_indices: tuple
    weight_numerators: tuple

    def __post_init__(self):
        if len(self.base_indices) != len(self.weight_numerators) or not self.base_indices:
            raise ValueError("need one weight per base index")
        if any(k < 0 for k in self.weight_numerators) or sum(self.weight_numerators) < 1:
            raise ValueError("weight numerators must be nonnegative with a sum of at least 1")

    @property
    def weight_den(self) -> int:
        return sum(self.weight_numerators)


def convexify(family: ControlledFamily, mixtures) -> ControlledFamily:
    """Family of the given ``ChatteringControl`` mixtures, in the order given.

    Every mixture has the same number q of bases and the same
    ``weight_den`` (ValueError otherwise).  The parent rates carry over
    unchanged (convex combinations preserve the growth, Lipschitz, and
    measure-Lipschitz bounds).  A listed set of mixtures is not the hull,
    so only a family of one mixture is convex-valued.
    """
    controls = tuple(mixtures)
    if len({(len(c.base_indices), c.weight_den) for c in controls}) != 1:
        raise ValueError("need at least one mixture, all with one q and one weight_den")
    if not all(0 <= b < family.size for c in controls for b in c.base_indices):
        raise ValueError(f"mixture bases must be control indices below {family.size}")
    q, weight_den = len(controls[0].base_indices), controls[0].weight_den
    bases = np.array([c.base_indices for c in controls]).T  # (q, M): slot j of every mixture
    numerators = np.array([c.weight_numerators for c in controls]).T  # (q, M)
    parents = np.arange(family.size)

    def rule(t, points, idx, X):
        idx = np.asarray(idx)
        node = (np.arange(len(idx))[:, None],) if idx.ndim > 1 else ()  # a block node reads its own parents
        vels = family.rule(t, points, np.zeros(idx.shape[:-1] + (1,), dtype=int) + parents, X)
        k = numerators[:, idx][..., None, None]  # one gather of every slot: terms are (q, ..., U, P, d)
        terms = k * np.where(k != 0, vels[node + (bases[:, idx],)], 0.0)  # a zero weight never meets an inf
        acc = np.zeros(terms.shape[1:])
        for term in terms:  # in slot order from +0.0: np.add.reduce may sum a one-entry block pairwise
            acc += term
        return acc / weight_den

    return ControlledFamily(
        controls=controls,
        rule=rule,
        rates=family.rates,
        label=f"{family.label}|chattering(q={q},steps={weight_den})",
        measure_dependent=family.measure_dependent,
        position_dependent=family.position_dependent,
    )


def aumann_realize(
    chattering_signal: ControlSignal,
    chattering_family: ControlledFamily,
    blocks: np.ndarray,
) -> tuple[ControlSignal, dict]:
    """Realize a mixture signal by pure switching within each block.

    Block boundaries are snapped to the nearest node of the signal grid
    (recorded in the metadata); a block whose signal is not constant is
    re-blocked by majority, ties to the smallest index (also recorded).
    Within a block of length h carrying weights (w_1..w_q), consecutive
    pure sub-segments of lengths w_j h are emitted in the order of the
    mixture's bases.
    """
    grid = chattering_signal.grid
    raw = np.asarray(blocks, dtype=float)
    if raw.ndim != 1 or raw.size < 2:
        raise ValueError("blocks must list at least two boundary times")
    snapped = np.array([float(grid[np.argmin(np.abs(grid - b))]) for b in raw])
    n_snap = int(np.sum(np.abs(snapped - raw) > 1e-12 * max(1.0, float(grid[-1]))))
    if not np.all(np.diff(snapped) > 0):
        raise ResolutionError(
            "block boundaries collapse onto the same grid node; use a finer signal grid"
        )

    out_times = [snapped[0]]
    out_indices = []
    n_majority = 0
    for a, b in zip(snapped[:-1], snapped[1:]):
        values, counts = np.unique(chattering_signal.controls_between(a, b), return_counts=True)
        if values.size > 1:
            n_majority += 1
        chat_index = int(values[np.argmax(counts)])
        chat = chattering_family.controls[chat_index]
        if not isinstance(chat, ChatteringControl):
            raise TypeError("signal does not address a chattering family")
        h, den = b - a, chat.weight_den
        cum = 0
        for base, k in zip(chat.base_indices, chat.weight_numerators):
            if k == 0:
                continue
            cum += k
            seg_end = b if cum == den else a + h * (cum / den)
            out_indices.append(base)
            out_times.append(seg_end)
    realized = ControlSignal(grid=np.array(out_times), indices=np.array(out_indices, dtype=int))
    meta = {"snapped_boundaries": n_snap, "majority_reblocked": n_majority}
    return realized, meta


def _equal_mass_boundaries(rates, n_blocks: int) -> np.ndarray:
    """Block boundaries splitting the integral of m into equal parts."""
    T = rates.duration
    total = rates.integral("m", 0.0, T)
    if total == 0.0 or n_blocks <= 1:
        return np.linspace(0.0, T, max(n_blocks, 1) + 1)
    targets = np.linspace(0.0, total, n_blocks + 1)[1:-1]
    bp = rates.breakpoints
    vals = rates.m_values
    cum = rates.integral("m", 0.0, bp)  # cum[-1] == total
    out = [0.0]
    for tgt in targets:
        seg = int(np.searchsorted(cum, tgt, side="right")) - 1
        seg = min(max(seg, 0), vals.size - 1)
        v = vals[seg]
        t = bp[seg] + ((tgt - cum[seg]) / v if v > 0 else 0.0)
        out.append(float(t))
    out.append(T)
    return np.array(out)


def relax_approximate(
    family: ControlledFamily,
    relaxed_traj: Trajectory,
    relaxed_signal: ControlSignal,
    chattering_family: ControlledFamily,
    delta: float,
    p: float,
    tol: float = 1e-9,
    max_iter: int = 25,
) -> tuple[Trajectory, ControlSignal, bounds.BoundReport]:
    """Approximate a mixture trajectory by pure controls within delta.

    The radius R is chosen so the shifted tail of the start cloud beyond
    R/C_T - 1 is below delta / (2 (1+C) (1+C_T) (1+||m||_1)); blocks split
    the integral of m into parts of at most delta / (2 (1+C) (1+R)); the
    realized signal is integrated against the mixture curve's measures and
    tracked back into the pure solution set.

    The report is the ``density_raw_target`` BoundReport: W_p between the
    mixture curve and the returned pure-control one at every node of the
    latter's grid against delta, with slack 0 (only ``bounds.ATOL``).  Its
    ``constants`` are ``delta``, ``measured_sup``, the ``guaranteed_target``
    the closed-form constants certify (delta times their ``amplification``),
    ``radius``, ``n_blocks`` and the realization's ``metadata``; its
    ``extras`` hold the tracking ``certificate``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    rates = family.rates
    mu0 = relaxed_traj.at(relaxed_traj.times[0])
    mp0 = moment(mu0, p)
    m_total = rates.integral("m", 0.0, rates.duration)
    script_c = bounds.uniform_moment(p, mp0, mp0, m_total)
    script_ct = bounds.script_horizon_factor(script_c, m_total)

    tail_cap = delta / (2.0 * (1.0 + script_c) * (1.0 + script_ct) * (1.0 + m_total))
    norms = np.unique(mu0.norms())
    for threshold in [0.0] + [float(nm) * (1.0 + 1e-12) + 1e-300 for nm in norms]:
        if tail_norm(mu0, threshold, p, shifted=True) <= tail_cap:
            radius = script_ct * (1.0 + threshold)
            break
    else:  # tail past the largest atom is exactly zero
        radius = script_ct * (1.0 + float(norms[-1]) * (1.0 + 1e-9) + 1e-12)

    block_cap = delta / (2.0 * (1.0 + script_c) * (1.0 + radius))
    ratio = m_total / block_cap if block_cap > 0 else math.inf  # block_cap is 0 once C overflows
    n_blocks = 1 if m_total == 0.0 else math.ceil(ratio) if ratio < math.inf else ratio
    if n_blocks > relaxed_signal.n_intervals:
        raise ResolutionError(
            f"delta = {delta} needs {n_blocks} blocks but the signal grid has only "
            f"{relaxed_signal.n_intervals} intervals; rebuild the signal on a finer grid"
        )
    boundaries = _equal_mass_boundaries(rates, n_blocks)
    realized_sig, meta = aumann_realize(relaxed_signal, chattering_family, boundaries)

    w_realized = signal_field(family, realized_sig, relaxed_traj)  # reads the mixture curve's measure

    nu_real = integrate(w_realized, mu0, realized_sig.grid, "euler")

    tracked, signal, cert = filippov_track(
        family, nu_real, w_realized, mu0, radius, tol, max_iter, p
    )

    # the tracked grid carries every realized switch point, where the
    # deviation from the mixture curve peaks
    on_tracked = relaxed_traj.rows_at(tracked.times)
    measured = wasserstein_costs(on_tracked, tracked.points, p)
    l_total = rates.integral("l", 0.0, rates.duration)
    growth = bounds.exp_power(bounds.C_p_prime(p), l_total, p)
    chi_bar = bounds.product(bounds.C_p(p), rates.integral("L", 0.0, rates.duration), growth)
    chi_growth = bounds.saturating_exp(chi_bar)
    amplification = bounds.product(
        bounds.C_p(p),
        (3.0 + l_total) * (1.0 + bounds.product(chi_bar, chi_growth)) + chi_growth,
        growth,
    )
    constants = {
        "delta": delta,
        "measured_sup": float(measured.max()),
        "guaranteed_target": delta * amplification,
        "amplification": amplification,
        "radius": radius,
        "n_blocks": n_blocks,
        "metadata": meta,
    }
    report = bounds.BoundReport("density_raw_target", tracked.grid, measured, np.full_like(measured, delta),
                                slack=0.0, constants=constants, extras={"certificate": cert})
    return tracked, signal, report
