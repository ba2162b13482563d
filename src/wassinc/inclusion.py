"""Set-valued dynamics over finite control sets and the delayed Euler scheme.

An admissible-velocity set is discretized as a ``dynamics.ControlledFamily``:
a finite list of controls plus one rule (t, points, idx, X) -> velocities
sharing one set of rate functions.  The rule evaluates a stack of control
indices at once, at one node or at a block of nodes (see
``ControlledFamily``); every selection takes the argmin of
``ControlledFamily.gaps`` over every control at every node (ties to the
lowest index), and ``ball_gaps`` is every velocity gap on the atoms of a
ball along a whole curve, a field being the family of one control.  A
measurable velocity selection becomes a piecewise-constant control index
per sub-interval of a fine grid, and ``signal_field`` is the field that
follows it.

``peano_solve`` builds a trajectory-selection pair by splitting the
horizon into n blocks and, on every euler sub-interval, choosing a
control against the delayed cloud, the node at or before t_k - T/n (the
start cloud stands in for negative times), and taking
``dynamics.delayed_step``: the particles advance with that same delayed
cloud as the measure argument.  ``inclusion_residual`` replays that step
by the same rule from the trajectory's own nodes and the signal's
recorded controls, so it reads 0 for a pair the scheme built and more
wherever trajectory and signal disagree.  A ``ControlSignal`` reads its
control at a time and the controls between two nodes
(``controls_between``, which ``relax.aumann_realize`` reads block by
block)."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Mapping

import numpy as np

from .dynamics import ControlledFamily, Trajectory, delayed_step, march, snapped_index, sup_norm, time_axis
from .errors import ShapeMismatchError
from .measure import ParticleCloud, squared_norms, sup_wasserstein_cost


def ball_gaps(family: ControlledFamily, times, measure: np.ndarray, w: ControlledFamily, nu: np.ndarray,
              R: float) -> np.ndarray:
    """Max over the atoms x of ``nu[k]`` with |x| <= R of |w(t_k, nu_k, x) - f_u(t_k, measure_k, x)|,
    shape (K, U) for K nodes (clouds ``measure`` and ``nu`` (K, N, d)) and the controls u of
    ``family``, for a field ``w``; 0 where the ball holds no atom.  The ball is a mask: max is
    exact, so zeroing the atoms outside it gives the bits of the max over the atoms inside."""
    target = w.rule(times, nu, np.zeros((len(nu), 1), dtype=int), nu)[:, 0]
    return family.gaps(times, measure, target, nu, None if math.isinf(R) else np.sqrt(squared_norms(nu)) <= R)


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """Piecewise-constant control index per interval [t_k, t_{k+1})."""

    grid: np.ndarray
    indices: np.ndarray
    snap: float = dc_field(init=False, repr=False)
    times: list = dc_field(init=False, repr=False)

    def __post_init__(self):
        axis = time_axis(self.grid, min_nodes=2)
        idx = np.array(self.indices, dtype=int)
        if idx.shape != (axis[0].size - 1,):
            raise ShapeMismatchError("need one control index per grid interval")
        if np.any(idx < 0):
            raise ValueError("control indices must be nonnegative")
        idx.setflags(write=False)
        for name, value in zip(("grid", "snap", "times", "indices"), (*axis, idx)):
            object.__setattr__(self, name, value)

    @property
    def n_intervals(self) -> int:
        return self.indices.size

    def index_at(self, t: float) -> int:
        k = snapped_index(self.times, t, self.snap)
        return int(self.indices[min(k, self.indices.size - 1)])

    def controls_between(self, a: float, b: float) -> np.ndarray:
        """The controls of the intervals from the node at a to the node at b
        (each snapped within 1e-9 of the smallest step), a read-only view."""
        return self.indices[snapped_index(self.times, a, self.snap) : snapped_index(self.times, b, -self.snap) + 1]


def signal_field(family: ControlledFamily, signal: ControlSignal,
                 measure: Trajectory | None = None) -> ControlledFamily:
    """Velocity field (a family of one control) that follows the signal's
    control on each interval; given a ``measure`` Trajectory, its rule reads
    that curve's node at t in place of the cloud it is handed.  A family
    that does not read its measure (``measure_dependent`` False) is handed
    that cloud as it is, with no lookup: its rule gives the same bits for
    any cloud."""
    if signal.indices.max() >= family.size:
        raise ValueError(f"signal index {signal.indices.max()} outside family of size {family.size}")
    if not family.measure_dependent:
        measure = None

    def rule(t, points, idx, X):
        block = getattr(t, "ndim", 0) > 0  # one node (a float t), or a block (times (K,))
        times = t.tolist() if block else [t]
        u = [signal.index_at(s) for s in times]
        if measure is not None:
            k = [measure.node_index(s) for s in times]
            points = measure.points[k if block else k[0]]  # one node: a read-only view, no copy
        return family.rule(t, points, family.alone[u if block else u[0]], X)

    return ControlledFamily(
        controls=(0,),
        rule=rule,
        rates=family.rates,
        label=f"{family.label}|signal",
        measure_dependent=family.measure_dependent,
        position_dependent=family.position_dependent,
    )


def _select_control(
    family: ControlledFamily,
    t: float,
    delayed: np.ndarray,
    current: np.ndarray,
    strategy: str,
    rng,
) -> int:
    if strategy == "first":
        return 0
    if strategy == "min_norm":
        probes = np.concatenate((delayed, current))[None]
        return int(family.gaps([t], delayed[None], np.zeros_like(probes), probes)[0].argmin())
    if strategy == "random":
        return int(rng.integers(family.size))
    raise ValueError(f"unknown strategy {strategy!r}")


def peano_solve(
    family: ControlledFamily,
    start: ParticleCloud,
    n: int,
    substeps: int = 1,
    strategy: str = "first",
    seed: int | None = None,
) -> tuple[Trajectory, ControlSignal]:
    """Delayed semi-discrete Euler construction of a trajectory-selection pair.

    [0, T] is split into n blocks of ``substeps`` euler sub-intervals.  On
    each sub-interval the control is chosen by ``strategy`` against the
    cloud one block earlier (the start cloud before time T/n) and the
    particles advance with that delayed cloud as the measure argument, so
    the returned signal satisfies the delayed inclusion exactly at every
    sub-interval.

    Strategies: ``first`` picks index 0, ``min_norm`` the control whose
    field is smallest in sup norm over the probe atoms, ``random`` a
    seeded uniform draw.  Ties break to the lowest index.
    """
    if n < 1 or substeps < 1:
        raise ValueError("n and substeps must be at least 1")
    if strategy == "random" and seed is None:
        raise ValueError("random strategy needs a seed")
    if family.size > 1:
        warnings.warn(
            "control family is not flagged convex-valued; the delayed scheme "
            "still runs but its existence guarantee may fail",
            UserWarning,
            stacklevel=2,
        )
    rng = np.random.Generator(np.random.Philox(key=seed)) if strategy == "random" else None

    T = family.rates.duration
    grid, snap, times = time_axis(np.linspace(0.0, T, n * substeps + 1))
    indices = np.empty(n * substeps, dtype=int)

    def step(k, t0, t1, rows):
        delayed, X = rows[snapped_index(times, t0 - T / n, snap)], rows[k]  # as inclusion_residual replays it
        indices[k] = u = _select_control(family, t0, delayed, X, strategy, rng)
        return delayed_step(family, t0, t1, delayed, u, X)

    return march(start, grid, step), ControlSignal(grid=grid, indices=indices)


def inclusion_residual(traj: Trajectory, signal: ControlSignal, family: ControlledFamily, delay: float) -> np.ndarray:
    """Velocity-unit defect of a trajectory-selection pair against the delayed
    Euler scheme over ``family``.

    For every signal sub-interval [t_k, t_{k+1}) of length h_k, replays
    the delayed Euler step from ``traj.at(t_k)`` with the recorded control
    and the cloud ``traj.at(t_k - delay)``, all in one block ``rule`` call,
    and returns max_i |x_{k+1,i} - step_i| / h_k against ``traj.at(t_{k+1})``.
    A pair from ``peano_solve`` (delay T/n) replays to exactly 0; a wrong
    step length, control, delay or node reads above 0.
    """
    t0, t1 = signal.grid[:-1], signal.grid[1:]
    delayed, X, after = (traj.rows_at(times.tolist()) for times in (t0 - delay, t0, t1))
    h = (t1 - t0)[:, None, None]
    step = X + h * family.rule(t0, delayed, signal.indices[:, None], X)[:, 0]
    return sup_norm(after - step) / (t1 - t0)


def refinement_study(curves: Mapping[int, Trajectory], p: float) -> list[tuple[int, int, float]]:
    """Distances between consecutive delayed-Euler refinements.

    ``curves`` maps each n, strictly increasing with at least two entries,
    to its ``peano_solve`` trajectory.  Reports, per consecutive pair, the
    sup over the coarsest curve's grid of W_p between the two
    trajectories.  The reported numbers are recorded observations, not a
    convergence guarantee.
    """
    ns = list(curves)
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing with at least two entries")
    solutions = list(curves.values())
    common = solutions[0].times
    on_common = [c.rows_at(common) for c in solutions]
    return [
        (n_a, n_b, sup_wasserstein_cost(a, b, p))
        for n_a, n_b, a, b in zip(ns, ns[1:], on_common, on_common[1:])
    ]
