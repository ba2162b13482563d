"""Built-in velocity fields and control families addressable by label.

Labels understood by scenario files, each naming the builder
``<label>_field`` or ``<label>_family`` whose parameters the config's
schema checks.  Every builder returns a ``dynamics.ControlledFamily`` whose
one rule evaluates a stack of control indices at once, at one node or at a
block of curve nodes, bit for bit the same; a field is the family of one
control.  Each rule is written once over an optional leading node axis
(``...`` indexing, the cloud's mean over axis -2).  Fields:

* ``zero``                 v = 0
* ``constant``             v = c, parameter ``vector``
* ``linear_decay``         v = -x
* ``mean_attraction``      v = kappa (mean(mu) - x), parameter ``kappa``
* ``bounded_kernel``       v(x) = (1/N) sum_j -(x - y_j) / (1 + |x - y_j|)
* ``rotation``             v = (-x2, x1), d = 2 only

Control families:

* ``constants``  controls are vectors u, v = u
* ``gain``       controls are scalars k, v = -k x
* ``mean_gain``  controls are scalars k, v = k (mean(mu) - x)

``zero``, ``constant`` and ``constants`` read neither positions nor
measure (``position_dependent`` and ``measure_dependent`` are False), so
their Euler curves are running sums (``dynamics.euler_curve``).

Natural rates for each label are documented next to its builder; scenario
files must still declare rates explicitly.
"""

from __future__ import annotations

import numpy as np

from .dynamics import BLOCK_ENTRIES, ControlledFamily, RateFunctions
from .errors import ConfigError
from .measure import cdist


def _mean(points: np.ndarray) -> np.ndarray:
    """The cloud mean over axis -2, bit for bit ``points.mean(axis=-2)``: the
    same ``np.add.reduce`` and division by N, without ``mean``'s Python wrapper."""
    return np.add.reduce(points, axis=-2) / points.shape[-2]


def _field(rule, rates: RateFunctions, label: str, measure_dependent: bool = False,
           position_dependent: bool = True) -> ControlledFamily:
    """The field of ``rule`` as the family of its one control."""
    return ControlledFamily(controls=(0,), rule=rule, rates=rates, label=label, measure_dependent=measure_dependent,
                            position_dependent=position_dependent)


def zero_field(rates: RateFunctions) -> ControlledFamily:
    """Zero velocity; natural rates m = l = L = 0."""

    def rule(t, points, idx, X):
        return np.zeros(np.shape(idx) + X.shape[-2:])

    return _field(rule, rates, "zero", position_dependent=False)


def constant_field(vector: np.ndarray, rates: RateFunctions) -> ControlledFamily:
    """Constant velocity c; natural rates m = |c|, l = L = 0."""
    c = np.asarray(vector, dtype=float)

    def rule(t, points, idx, X):
        return np.full(np.shape(idx) + X.shape[-2:], c)

    return _field(rule, rates, f"constant:{c.tolist()}", position_dependent=False)


def linear_decay_field(rates: RateFunctions) -> ControlledFamily:
    """v = -x; natural rates m = 1, l = 1, L = 0."""

    def rule(t, points, idx, X):
        return -X[..., None, :, :]

    return _field(rule, rates, "linear_decay")


def mean_attraction_field(kappa: float, rates: RateFunctions) -> ControlledFamily:
    """v = kappa (mean(mu) - x); natural rates m = l = L = kappa."""
    kappa = float(kappa)

    def rule(t, points, idx, X):
        return (kappa * (_mean(points)[..., None, :] - X))[..., None, :, :]

    return _field(rule, rates, f"mean_attraction:{kappa}", measure_dependent=True)


def bounded_kernel_field(rates: RateFunctions) -> ControlledFamily:
    """Saturating pairwise attraction; natural rates m = 1, l = 1, L = 1.

    The reference form of the rule is ``mean(axis=1)`` of the (points,
    cloud, d) tensor -(x_i - y_j) / (1 + |x_i - y_j|); the tests keep it
    as the oracle.  The rule itself takes the distances from ``cdist``
    and lays its terms out so that numpy's sum over the cloud rows j adds
    the same terms in the same order as that reference, hence gives the
    same bits with no (points, cloud, d) tensor and no length-d norm loop.
    It works in blocks of probe rows, each a slice of X whose slab holds
    at most ``4 * BLOCK_ENTRIES`` terms (one row at least), so a call's
    memory stays bounded however large the cloud and the probe set; an
    output entry's sum never spans two blocks, so its bits do not depend
    on the block size:

    * d >= 2: numpy sums the tensor sequentially in j, so a block's terms
      form a (j, c, i) slab summed over its leading axis into the block's
      columns of the (c, i) output, which numpy also does sequentially
      because the trailing (c, i) block has at least two entries, even
      for a single probe row;
    * d = 1: numpy drops the unit axis and sums each row pairwise, so a
      block's terms form an (i, j) slab each of whose rows is summed
      along its contiguous last axis, whole.

    ``cdist`` adds the d squares coordinate by coordinate, the convention
    of every norm in the package (``measure.squared_norms``).  A block of
    nodes is the one-node rule at each node, stacked, since a sum over a
    longer slab would change that order.
    """

    def rule(t, Y, idx, X):
        if getattr(t, "ndim", 0):  # a block (times (K,)): each node on its own
            return np.stack([rule(*node) for node in zip(t, Y, idx, X)])
        (P, d), out = X.shape, np.empty(X.shape[::-1])  # the sums, laid out (c, i)
        rows = max(1, 4 * BLOCK_ENTRIES // (len(Y) * d))
        for block in (slice(lo, lo + rows) for lo in range(0, P, rows)):
            b = X[block]
            if d == 1:
                np.add.reduce((Y.T - b) / (1.0 + cdist(b, Y)), axis=1, out=out[0, block])  # laid out (i, j)
            else:
                q = Y[:, :, None] - np.ascontiguousarray(b.T)  # -(x_i - y_j), laid out (j, c, i)
                q /= 1.0 + cdist(Y, b)[:, None, :]
                np.add.reduce(q, axis=0, out=out[:, block])
        return (np.ascontiguousarray(out.T) / len(Y))[None]

    return _field(rule, rates, "bounded_kernel", measure_dependent=True)


def rotation_field(rates: RateFunctions) -> ControlledFamily:
    """Planar rotation v = (-x2, x1); natural rates m = 1, l = 1, L = 0."""

    def rule(t, points, idx, X):
        if X.shape[-1] != 2:
            raise ConfigError("rotation field requires dimension d = 2")
        return np.stack([-X[..., 1], X[..., 0]], axis=-1)[..., None, :, :]

    return _field(rule, rates, "rotation")


def constants_family(controls, rates: RateFunctions) -> ControlledFamily:
    """Finite set of constant velocities; natural rates m = max |u|, l = L = 0."""
    vecs = tuple(np.asarray(u, dtype=float) for u in controls)
    table = np.array(vecs).reshape(len(vecs), -1)  # (U, d) vectors, or (U, 1) scalars

    def rule(t, points, idx, X):
        u = table[idx]
        out = np.empty(u.shape[:-1] + X.shape[-2:])
        out[...] = u[..., None, :]
        return out

    return ControlledFamily(controls=vecs, rule=rule, rates=rates, label="constants", position_dependent=False)


def gain_family(controls, rates: RateFunctions) -> ControlledFamily:
    """v = -k x for gains k; natural rates m = l = max k, L = 0."""
    gains = tuple(float(u) for u in controls)
    table = np.array(gains)

    def rule(t, points, idx, X):
        return -table[idx][..., None, None] * X[..., None, :, :]

    return ControlledFamily(controls=gains, rule=rule, rates=rates, label="gain")


def mean_gain_family(controls, rates: RateFunctions) -> ControlledFamily:
    """v = k (mean(mu) - x) for gains k; natural rates m = l = L = max k."""
    gains = tuple(float(u) for u in controls)
    table = np.array(gains)

    def rule(t, points, idx, X):
        return table[idx][..., None, None] * (_mean(points)[..., None, :] - X)[..., None, :, :]

    return ControlledFamily(controls=gains, rule=rule, rates=rates, label="mean_gain", measure_dependent=True)
