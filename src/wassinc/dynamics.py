"""Velocity families, the delayed Euler step and the characteristics integrator.

A ``ControlledFamily`` is a finite control set plus one velocity rule
(t, points, idx, X) -> velocities, read at one node or at a block of
nodes, sharing one set of declared rate functions: a growth rate m, a
spatial Lipschitz rate l, and a measure-Lipschitz rate L, all piecewise
constant in time with exact interval integrals.  A velocity field is the
family of one control, ``controls=(0,)``.  Moving every particle of a
cloud along a field's characteristics advances the empirical measure
itself; a curve is its positions, one read-only (nodes, N, d) array,
which every step and sweep reads, and ``Trajectory.at`` makes one node a
cloud.  Every time grid, a curve's, a signal's or a rate set's, is a
``time_axis``: a finite, strictly increasing, read-only copy, so none
holds its caller's array, and ``snapped_index``, one ``searchsorted`` of
a time or an array of times, is every lookup of the node at or before a
time.  A rate integral's total is ``measure.exact_sums``.  ``march`` is
the loop that writes a curve's nodes one step at a time, each checked
finite.  Every Euler curve is ``euler_curve``: ``delayed_step`` with a
control per interval and, as measure argument, the curve's own node
(``integrate``) or an earlier curve's (every tracking iterate).  A state-free family, whose rule
reads neither positions nor measure, has every velocity before the first
step, so its curve is a running sum over ``node_blocks`` with the same
bits and checks as the loop; peano's scheme selects its control step by
step, so it marches.  A field bound to a curve is
``inclusion.signal_field``.  Once a curve is built, ``rule`` and
``gaps`` sweep all its nodes at once, in blocks of ``node_blocks``."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError, ShapeMismatchError
from .measure import ParticleCloud, exact_sums, squared_norms


@dataclass(frozen=True, eq=False)
class RateFunctions:
    """Piecewise-constant nonnegative rates m, l, L on [0, T].

    ``breakpoints`` has K + 1 strictly increasing entries spanning [0, T];
    each rate holds K segment values, constant on [t_k, t_{k+1}).  An interval
    integral is the exactly rounded sum of its segment terms, inf past the
    float range.
    """

    breakpoints: np.ndarray
    m_values: np.ndarray
    l_values: np.ndarray
    L_values: np.ndarray

    def __post_init__(self):
        bp = time_axis(self.breakpoints, min_nodes=2)[0]
        if bp[0] != 0.0:
            raise ValueError(f"breakpoints must start at 0, got {bp[0]}")
        object.__setattr__(self, "breakpoints", bp)
        for name in ("m_values", "l_values", "L_values"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (bp.size - 1,):
                raise ValueError(f"need one value per segment ({bp.size - 1}), got {v.tolist()}")
            if not np.all((v >= 0) & (v < np.inf)):
                raise ValueError(f"values must be finite and nonnegative, got {v.tolist()}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @classmethod
    def constant(cls, m: float, l: float, L: float, T: float) -> "RateFunctions":
        return cls(
            breakpoints=np.array([0.0, float(T)]),
            m_values=np.array([float(m)]),
            l_values=np.array([float(l)]),
            L_values=np.array([float(L)]),
        )

    @property
    def duration(self) -> float:
        return float(self.breakpoints[-1])

    def at(self, which: str, t):
        """Left-constant evaluation, clamped to [0, T]: a float for a scalar
        t, for an array t an array of the same values."""
        vals = getattr(self, f"{which}_values")
        out = vals[np.minimum(snapped_index(self.breakpoints, t, 0.0), vals.size - 1)]
        return out if np.ndim(t) else float(out)

    def integral(self, which: str, a, b):
        """Exact integral of the chosen rate over [a, b] ∩ [0, T]; for arrays
        a, b (broadcast together) an array with each entry as a scalar call."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        if np.any(b < a):
            raise ValueError("integration bounds must satisfy a <= b")
        bp = self.breakpoints
        vals = getattr(self, f"{which}_values")
        a = np.maximum(a, bp[0])[..., None]
        b = np.minimum(b, bp[-1])[..., None]
        overlap = np.clip(np.minimum(bp[1:], b) - np.maximum(bp[:-1], a), 0.0, None)
        with np.errstate(over="ignore"):  # a term past the float range reads inf, as its sum does
            sums = exact_sums((vals * overlap).reshape(-1, vals.size)) + 0.0  # a -0.0 rate integrates to 0.0
        return float(sums[0]) if a.ndim == 1 else sums.reshape(a.shape[:-1])

    def maximum(self, other: "RateFunctions") -> "RateFunctions":
        """Pointwise max of the m/l/L rates of two families of rates, on the
        union of their breakpoints (each segment read at its left end)."""
        bp = np.union1d(self.breakpoints, other.breakpoints)
        left = bp[:-1]
        return RateFunctions(bp, *(np.maximum(self.at(r, left), other.at(r, left)) for r in "mlL"))


def time_axis(grid, min_nodes: int = 1) -> tuple[np.ndarray, float, list]:
    """The one check of a time grid: a read-only float copy of ``grid``, its
    lookup tolerance (1e-9 of its smallest step, 0 for a single node) and its
    times as a list.  ShapeMismatchError unless the grid is one-dimensional,
    finite and strictly increasing, with at least ``min_nodes`` nodes."""
    g = np.array(grid, dtype=float)
    if g.ndim != 1 or g.size < min_nodes or not (np.isfinite(g).all() and np.all(np.diff(g) > 0)):
        raise ShapeMismatchError(f"need a one-dimensional, finite, strictly increasing grid of >= {min_nodes} nodes")
    g.setflags(write=False)
    return g, 1e-9 * float(np.min(np.diff(g))) if g.size > 1 else 0.0, g.tolist()


def snapped_index(grid: np.ndarray, t, snap):
    """Index of the last entry of the increasing ``grid`` at or before t + snap, at least 0: an
    int for a float t, for an array t (or list) an array of the indices, one ``searchsorted``."""
    k = np.maximum(np.searchsorted(grid, np.add(t, snap), side="right") - 1, 0)
    return k if np.ndim(t) else int(k)


BLOCK_ENTRIES = 2**14  # 128 KiB of doubles per block array: a sweep's temporaries stay in cache
FamilyRule = Callable[[float | np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class ControlledFamily:
    """Finite control set U with a shared rule and rate functions.

    ``rule(t, points, idx, X)`` reads the velocities of the controls
    ``idx`` at positions X, with the cloud ``points`` as measure argument,
    at one node or at a block of K nodes:

    * one node: a time t, points (N, d), a 1-d integer array (or list)
      ``idx`` of U control indices and X (P, d) give (U, P, d);
    * K nodes: times (K,), points (K, N, d), idx (K, U) and X (K, P, d)
      give (K, U, P, d), node k equal bit for bit to the one-node call
      with the k-th entry of each.

    Entry i must not depend on the other entries of ``idx``, nor a
    velocity row on the other rows of ``X``.  Each fixed-control slice is
    a valid velocity field under the shared rates, and a velocity field is
    a family with ``controls=(0,)``.  A family built from another, such
    as a catalog field from the family whose control 0 it is, or
    ``inclusion.signal_field`` and ``relax.convexify``, is its
    ``dataclasses.replace`` with new controls, rule or label, so it
    inherits the rates and every flag.  ``rule`` must be pure: given the
    same arguments it returns the same array, with no hidden state; the
    integrators pass it read-only positions.  ``measure_dependent``
    records whether the rule actually reads its ``points`` argument;
    measure-independent fields admit the tighter moment bounds.
    ``position_dependent`` records whether it reads ``X`` beyond its
    shape; a family with neither flag set is state-free, and
    ``euler_curve`` sums its velocities without stepping.  Both flags are
    declarations a builder makes, and a family that leaves
    ``position_dependent`` at its default is stepped.  One
    velocity is a convex set, so a family of one control has convex
    images; the delayed Euler scheme runs on more controls too, but its
    existence guarantee may fail.  ``alone[u]`` is control u alone as a
    one-entry ``idx``, a read-only view, so a step builds no index array.
    """

    controls: tuple
    rule: FamilyRule
    rates: RateFunctions
    label: str = ""
    measure_dependent: bool = False
    position_dependent: bool = True
    alone: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        if len(self.controls) == 0:
            raise ValueError("control set must be nonempty")
        object.__setattr__(self, "controls", tuple(self.controls))
        alone = np.arange(len(self.controls))[:, None]
        alone.setflags(write=False)
        object.__setattr__(self, "alone", alone)

    @property
    def size(self) -> int:
        return len(self.controls)

    def gaps(self, times, points: np.ndarray, target: np.ndarray, probes: np.ndarray,
             inside: np.ndarray | None = None) -> np.ndarray:
        """Sup over ``probes`` (K, P, d) of |target - control u's velocity| at
        each of K nodes, shape (K, U); ``target`` is (K, P, d) velocities at
        the probes, and a probe outside the (K, P) mask ``inside`` counts 0
        (so no probe gives 0).  The argmin over axis 1 is the nearest
        control, ties to the lowest index."""
        times, out = np.asarray(times, dtype=float), np.empty((len(points), self.size))
        every = np.broadcast_to(np.arange(self.size), out.shape)
        for b in node_blocks(len(points), self.size * probes.shape[1] * probes.shape[2]):
            diff = target[b, None] - self.rule(times[b], points[b], every[b], probes[b])
            out[b] = sup_norm(diff, None if inside is None else inside[b, None])
        return out


def node_blocks(nodes: int, per_node: int) -> list:
    """Slices that split a node axis of length ``nodes`` into blocks whose
    arrays of ``per_node`` entries a node hold at most ``BLOCK_ENTRIES``
    entries (one node at least), so a curve-at-once sweep keeps a bounded
    working set however long the curve or large the control set."""
    size = max(1, BLOCK_ENTRIES // max(per_node, 1))
    return [slice(lo, min(lo + size, nodes)) for lo in range(0, nodes, size)]


def delayed_step(family: ControlledFamily, t0: float, t1: float, delayed: np.ndarray, u: int,
                 X: np.ndarray) -> np.ndarray:
    """The delayed Euler step: positions X moved over [t0, t1] with control u's
    velocity, read at t0 with the ``delayed`` (N, d) cloud as measure argument."""
    return X + (t1 - t0) * family.rule(t0, delayed, family.alone[u], X)[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A time grid and the particle positions at every node, one array.

    ``points`` is a read-only (nodes, N, d) array; row i of every node is
    the same characteristic path throughout.  ``grid`` is a ``time_axis``
    copy.  The constructor copies the positions given and checks them
    finite; ``march``, which checks every step, hands over its buffer
    uncopied.  ``at(t)`` is the cloud of the nearest node at or before t
    (left constant), a checked copy; times before the grid start return
    the initial cloud.
    """

    grid: np.ndarray
    points: np.ndarray
    snap: float = dc_field(init=False, repr=False)
    times: list = dc_field(init=False, repr=False)

    def __post_init__(self):
        axis = time_axis(self.grid)
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 3 or pts.shape[0] != len(axis[2]) or 0 in pts.shape:
            raise ShapeMismatchError(f"need (nodes, N, d) positions for {len(axis[2])} nodes, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("trajectory coordinates must be finite")
        self._freeze(axis, pts)

    def _freeze(self, axis: tuple, pts: np.ndarray) -> None:
        """Hold a ``time_axis`` and positions already checked finite, frozen in place, not copied."""
        pts.setflags(write=False)
        for name, value in zip(("grid", "snap", "times", "points"), (*axis, pts)):
            object.__setattr__(self, name, value)

    def node_index(self, t):
        """Index of the nearest node at or before t (snapped within 1e-9 dt); for an
        array of times, the array of their indices."""
        return snapped_index(self.grid, t, self.snap)

    def at(self, t: float) -> ParticleCloud:
        return ParticleCloud(self.points[self.node_index(t)])

    def rows_at(self, times) -> np.ndarray:
        """The positions ``at`` reads for each of ``times``, a (len(times), N, d) copy."""
        return self.points[self.node_index(times)]


def march(start: ParticleCloud, grid: np.ndarray, step: Callable) -> Trajectory:
    """The one loop that writes curve nodes: node k + 1 over ``grid`` is
    ``step(k, t_k, t_{k+1}, rows)``, given ``rows``, a read-only view of the
    curve's (nodes, N, d) buffer whose nodes 0..k are written, and is
    checked finite (BlowUpError, see ``_check_finite``).  The returned
    trajectory holds that buffer."""
    axis = time_axis(grid)
    times = axis[2]
    buf = np.empty((len(times),) + start.points.shape)
    buf[0] = start.points
    rows = buf.view()
    rows.setflags(write=False)  # no step can change a stored node
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
        for k in range(len(times) - 1):
            node = buf[k + 1]
            node[...] = step(k, times[k], times[k + 1], rows)
            if not math.isfinite(node.sum()):  # a finite sum has finite entries; an overflowing one may too
                _check_finite(node, rows[k], k + 1, times[k + 1])
    return _checked_curve(axis, buf)


def euler_curve(family: ControlledFamily, start: ParticleCloud, grid, controls,
                measure: np.ndarray | None = None) -> Trajectory:
    """The delayed Euler curve from ``start`` over ``grid``: node k + 1 is
    ``delayed_step`` from node k with control ``controls[k]`` (one per
    interval) and, as measure argument, ``measure[k]`` of a (nodes, N, d)
    curve on the same grid, or the curve's own node k when ``measure`` is
    None.

    A state-free family (neither ``position_dependent`` nor
    ``measure_dependent``) takes one block ``rule`` call per
    ``node_blocks`` slice and a running sum along the node axis from the
    last node written: ``X + (t1 - t0) * V`` in the same IEEE operations
    and order as ``march``, so the same bits, and the first non-finite
    node raises ``march``'s BlowUpError.  Any other family marches."""
    axis = time_axis(grid)
    times = axis[2]
    controls = np.asarray(controls)
    if controls.shape != (len(times) - 1,):
        raise ShapeMismatchError(f"need one control per interval ({len(times) - 1}), got shape {controls.shape}")
    if family.position_dependent or family.measure_dependent:
        us = controls.tolist()  # Python ints read once, not an array scalar converted every step

        def step(k, t0, t1, rows):
            X = rows[k]  # one view of node k: the positions and, unbound, the measure argument
            return delayed_step(family, t0, t1, X if measure is None else measure[k], us[k], X)

        return march(start, grid, step)
    cloud = start.points
    buf = np.empty((len(times),) + cloud.shape)
    buf[0] = cloud
    dt = np.diff(axis[0])[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports it
        for b in node_blocks(len(times) - 1, cloud.size):
            X = np.broadcast_to(cloud, (b.stop - b.start,) + cloud.shape)  # read by shape only
            nodes = buf[b.start : b.stop + 1]  # node b.start is written: the sum runs on from it
            np.multiply(dt[b], family.rule(axis[0][b], X, controls[b, None], X)[:, 0], out=nodes[1:])
            np.add.accumulate(nodes, axis=0, out=nodes)
            if not math.isfinite(nodes[1:].sum()):  # as in march: a finite sum has finite entries
                k = b.start + 1 + int(np.isfinite(nodes[1:]).all(axis=(1, 2)).argmin())
                _check_finite(buf[k], buf[k - 1], k, times[k])
    return _checked_curve(axis, buf)


def _checked_curve(axis: tuple, buf: np.ndarray) -> Trajectory:
    """The trajectory holding ``buf``, every node of which is checked finite: no copy, no re-check."""
    traj = object.__new__(Trajectory)
    traj._freeze(axis, buf)
    return traj


def integrate(field: ControlledFamily, start: ParticleCloud, grid: Sequence[float]) -> Trajectory:
    """Advance every particle of ``start`` along the field over ``grid``.

    ``field`` is a family of one control (ValueError otherwise, so a
    larger family is never cut down to its control 0).  The curve is
    ``euler_curve`` with control 0 and the integrator's own current
    cloud as measure argument.  A field bound to another curve
    (``inclusion.signal_field`` with a ``measure``) reads that curve
    instead and ignores it.  Raises BlowUpError (see ``_check_finite``)
    if a coordinate leaves the finite range.
    """
    if field.size != 1:
        raise ValueError(f"integrate needs a field, a family of one control; got {field.size} controls")
    return euler_curve(field, start, grid, np.zeros(time_axis(grid)[0].size - 1, dtype=int))


def _check_finite(X: np.ndarray, last: np.ndarray, step: int, t: float) -> None:
    """BlowUpError naming the step, t, and the first non-finite particle with its ``last`` position."""
    if not np.isfinite(X).all():
        i = int(np.isfinite(X).all(axis=1).argmin())
        raise BlowUpError(f"non-finite coordinate after step {step} (t = {t:.6g}): particle {i}, "
                          f"last finite position {last[i].tolist()}")


def sup_norm(diff: np.ndarray, inside: np.ndarray | None = None) -> np.ndarray:
    """Max over the probe rows of |diff| for velocity differences of shape
    (..., P, d): a (P, d) array gives one value, a stack (K, U, P, d) one
    value per node and control.  A row outside the mask ``inside``
    (broadcast against (..., P)) counts 0.  |diff|^2 is ``squared_norms``
    (squares added coordinate by coordinate, as ``cdist`` does); sqrt is
    monotone and correctly rounded, so the sqrt of the max squared norm is
    the max norm, bit for bit."""
    squares = squared_norms(diff)
    if inside is not None:
        squares = np.where(inside, squares, 0.0)
    return np.sqrt(squares.max(axis=-1))


def ball_grid(radius: float, dim: int, spacing: float) -> np.ndarray:
    """Lattice of spacing <= ``spacing`` covering the closed ball B(0, radius).

    Axis extremes +-radius are always included so suprema of radial fields
    are attained on the grid.
    """
    if radius <= 0 or spacing <= 0:
        raise ValueError("radius and spacing must be positive")
    per_axis = 2 * int(math.ceil(radius / spacing)) + 1
    axis = np.linspace(-radius, radius, per_axis)
    if dim == 1:
        return axis[:, None]
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.sqrt(squared_norms(pts)) <= radius * (1 + 1e-12)
    return pts[keep]

