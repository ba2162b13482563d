"""Empirical measures on R^d and exact Wasserstein distances between them.

A cloud of N points with uniform weights 1/N stands in for a probability
measure with finite p-th moment; between two clouds of equal size W_p is
an optimal assignment problem, solved exactly, and only its value is
kept, from the exactly rounded total.  One rule each, a call per array of
nodes: ``exact_sums`` is every exact total of the package, a rate
integral's too (each row's ``fsum``, inf past the float range), and
``_root`` every p-th root.  A ``ParticleCloud`` is one checked measure,
a curve its (K, N, d) array of positions: ``moments`` and ``tail_norms``
read one such stack, the W_p series ``wasserstein_costs`` and
``sup_wasserstein_cost`` two, node by node and bit for bit equal to the
one-cloud calls.  Two kernels take every W_p's root.  ``_identity_costs``,
W_p under the identity coupling in the solver's arithmetic, is one array pass:
the exact W_p of one-atom clouds (N = 1), with no solver, and both screens of
the sup.  ``_solve_block`` is the optimal W_p and assignment of a block of
nodes: the cost matrices from one ``pairwise_cost`` call (one ``cdist`` per
node, one power over the block), one solve per node, the matched costs
gathered at once.  A series maps it over node blocks, on one thread or, from
N = 64 on, a node a block on every usable core; the sup solves each node its
screens keep as a block of one.
At every entry point a cost or total past the float range is inf, with no
warning, and a node with no finite assignment, or an inf total, raises the
solver's ValueError.
scipy is imported on the first assignment solve or pairwise distance, so
a run that needs neither never loads it.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ShapeMismatchError


class _OnFirstCall:
    """A scipy function, imported on its first call (cold start stays at numpy's cost)."""

    def __init__(self, module: str, name: str):
        self._where, self._fn = (module, name), None

    def __call__(self, *args, **kwargs):
        if self._fn is None:
            self._fn = getattr(importlib.import_module(self._where[0]), self._where[1])
        return self._fn(*args, **kwargs)


# module attributes read at call time, so a caller (a test, a tracer) may replace them
linear_sum_assignment = _OnFirstCall("scipy.optimize", "linear_sum_assignment")
cdist = _OnFirstCall("scipy.spatial.distance", "cdist")


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """N-point uniform-weight empirical measure in R^d.

    ``points`` is an (N, d) array of positions; each particle carries
    implicit weight 1/N.  Coordinates must be finite, which keeps every
    p-th moment finite.  Instances are immutable and safe to share.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ShapeMismatchError(
                f"cloud needs an (N, d) array with N, d >= 1, got shape {np.shape(self.points)}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("cloud coordinates must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def norms(self) -> np.ndarray:
        """Euclidean norm of every particle, shape (N,) (see ``_norms``)."""
        return _norms(self.points)


def squared_norms(x: np.ndarray) -> np.ndarray:
    """|x|^2 along the last axis: the squares added coordinate by coordinate,
    first to last, as ``cdist`` does (``np.linalg.norm`` does too for d < 8,
    but sums pairwise from d = 8 on).  A square may overflow to inf."""
    total = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        total += x[..., k] * x[..., k]
    return total


def _norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, sqrt of ``squared_norms`` (squares
    added coordinate by coordinate, as ``cdist`` does), but for a row of
    finite coordinates whose norm reads below 2^-511 (where its squares are
    subnormal) with a coordinate nonzero, or reads inf: there M |row / M|, M its
    largest |coordinate|, so no square under- or overflows."""
    with np.errstate(over="ignore"):  # a row whose squares overflow is rescaled below
        norms = np.sqrt(squared_norms(points))
        odd = (norms < 2.0**-511) | (norms == math.inf)
        if odd.any():
            rows = points[odd]
            top = np.abs(rows).max(axis=-1, keepdims=True)
            top = np.where((top > 0.0) & (top < math.inf), top, 1.0)  # a zero or non-finite row keeps its norm
            norms[odd] = top[:, 0] * np.sqrt(squared_norms(rows / top))
    return norms


def _check_p(p: float) -> float:
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"order p must satisfy p >= 1, got {p}")
    return p


def moment(cloud: ParticleCloud, p: float) -> float:
    """Discrete p-th moment ((1/N) sum_i |x_i|^p)^(1/p)."""
    return float(moments(cloud.points[None], p)[0])


def moments(points: np.ndarray, p: float) -> np.ndarray:
    """``moment`` of the cloud of every row of a (K, N, d) stack, bit for bit."""
    return _power_means(_norms(points), _check_p(p), points.shape[1])


def _pow(x, p: float):
    """x^p elementwise, with exact p = 1 and p = 2 paths."""
    if p == 1.0:
        return x
    if p == 2.0:
        return x * x
    return x**p


def _root(x, p: float):
    """x^(1/p) of a float or, entry by entry, an array: x itself at p = 1, its sqrt at p = 2
    (``np.sqrt`` is correctly rounded, as ``math.sqrt`` is), libm's pow at any other p (numpy's
    SIMD pow rounds otherwise)."""
    if p == 1.0:
        return x
    if p == 2.0:
        return np.sqrt(x)
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(math.pow, x.ravel().tolist(), repeat(1.0 / p)), float, x.size).reshape(x.shape)
    return out if out.ndim else float(out)


def exact_sums(terms: np.ndarray) -> np.ndarray:
    """The exactly rounded sum (``fsum``) of every row of a (K, m) array, inf where it overflows;
    a one-term row is its own sum."""
    if terms.shape[-1] == 1:
        return terms[:, 0].copy()
    out = []
    for row in terms.tolist():
        try:
            out.append(math.fsum(row))
        except OverflowError:
            out.append(math.inf)
    return np.array(out, dtype=float)


def _power_means(values: np.ndarray, p: float, n: int) -> np.ndarray:
    """(fsum(row^p) / n)^(1/p) of every row of a (K, m) array, m >= 1.  Where a row's sum
    overflows, or falls below the smallest normal double while M = max(row) > 0,
    M (fsum((row / M)^p) / n)^(1/p), finite for finite values; a zero row stays 0."""
    with np.errstate(over="ignore"):  # an overflowing power makes its row's sum inf: scaled below
        sums = exact_sums(_pow(values, p))
    top = values.max(axis=-1)
    out = _root(sums / n, p)
    odd = ~(sums < math.inf) | ((sums < sys.float_info.min) & (top > 0.0))
    if odd.any():  # scaled: each largest term is 1; inf where a norm itself overflowed
        top = top[odd]
        with np.errstate(invalid="ignore"):  # inf / inf in a row of an overflowed norm, which keeps its inf
            scaled = top * _root(exact_sums(_pow(values[odd] / top[:, None], p)) / n, p)
        out[odd] = np.where(top < math.inf, scaled, top)
    return out


def tail_norm(cloud: ParticleCloud, R: float, p: float, shifted: bool = False) -> float:
    """L^p mass of the particles at distance >= R from the origin.

    With ``shifted`` the integrand is (1 + |x|)^p instead of |x|^p, the form
    appearing in the localisation error of the stability bounds.  Returns 0
    when no particle reaches radius R.
    """
    return float(tail_norms(cloud.points[None], R, p, shifted)[0])


def tail_norms(points: np.ndarray, R, p: float, shifted: bool = False) -> np.ndarray:
    """``tail_norm`` of the cloud of every row of a (K, N, d) stack, bit for
    bit: an atom inside radius R enters as an exact 0.0 term.  R is one
    radius or one per row (a one-row stack is then read at each); ValueError
    unless every radius is >= 0, so a NaN is refused."""
    p, R = _check_p(p), np.asarray(R, dtype=float)
    if not np.all(R >= 0):
        raise ValueError(f"radius R must be nonnegative, got {R}")
    norms = _norms(points)
    vals = np.where(norms >= R[..., None], 1.0 + norms if shifted else norms, 0.0)
    return _power_means(vals, p, points.shape[1])


def localisation_tail(cloud: ParticleCloud, R: float, horizon: float, p: float) -> float:
    """Shifted tail of ``cloud`` beyond max(0, R / horizon - 1), the mass the
    localisation error charges for a ball of radius R under the travel
    envelope ``horizon``; 0 for R = inf.  A negative or NaN R is handed on as it is, for
    ``tail_norms`` to refuse."""
    return 0.0 if math.isinf(R) else tail_norm(cloud, max(0.0, R / horizon - 1.0) if R >= 0 else R, p, shifted=True)


def pairwise_cost(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Matrix D[i, j] = |a_i - b_j|^p of two (N, d) position arrays, used by
    the assignment solver; of two (K, N, d) and (K, M, d) stacks, the
    (K, N, M) stack of the matrices of their rows, each row's matrix one
    ``cdist`` call written into the stack, then one ``_pow`` for all.

    Exposed so independent minimizers (e.g. exhaustive search over
    permutations in tests) share the exact same arithmetic.
    """
    p = _check_p(p)
    if a.ndim == 2:
        return _pow(cdist(a, b), p)
    D = np.empty(a.shape[:2] + b.shape[1:2])
    for x, y, out in zip(a, b, D):
        cdist(x, y, out=out)
    return _pow(D, p)


def _check_stacks(a: np.ndarray, b: np.ndarray) -> None:
    """Two curves' positions as nonempty (K, N, d) stacks of one shape
    (ShapeMismatchError), every entry finite (ValueError)."""
    if a.shape != b.shape or a.ndim != 3 or 0 in a.shape:
        raise ShapeMismatchError(f"need two nonempty (K, N, d) stacks of one shape, got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("cloud coordinates must be finite")


def _identity_costs(gaps: np.ndarray, p: float) -> np.ndarray:
    """W_p of every node of a (K, N, d) stack of gaps a - b under the identity coupling (i with
    i) in the solver's arithmetic: each distance the sqrt of ``squared_norms`` (squares added
    as ``cdist`` does), then ``_pow``, each node's ``exact_sums`` over N and ``_root``; so at N = 1,
    where the identity is the one coupling, each node has the bits of its 1 x 1 solve.  A
    square, power or total past the float range gives inf, with no numpy warning."""
    with np.errstate(over="ignore"):  # a square or power past the float range reads inf
        return _root(exact_sums(_pow(np.sqrt(squared_norms(gaps)), p)) / gaps.shape[1], p)


def wasserstein_cost(a: ParticleCloud, b: ParticleCloud, p: float) -> float:
    """Exact W_p between equal-size uniform clouds via optimal assignment:
    (min total of |x_i - y_sigma(i)|^p / N)^(1/p)."""
    return float(wasserstein_costs(a.points[None], b.points[None], p)[0])


def wasserstein_costs(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """W_p between the clouds of rows k of two (K, N, d) stacks, for every k,
    as a float64 array; both stacks are checked before any solve.  One-atom
    clouds (N = 1) take ``_identity_costs``, one pass over every node; any
    other series, ``_solve_block`` over its ``node_blocks`` slices."""
    p = _check_p(p)
    _check_stacks(a, b)
    n = a.shape[1]
    if n == 1:
        return _feasible(_identity_costs(a - b, p))
    from .dynamics import node_blocks  # dynamics imports this module

    def costs(blk):
        return _solve_block(a[blk], b[blk], p)[0]

    blocks = node_blocks(len(a), 4 * n * n)  # a block's cost stack: a quarter of BLOCK_ENTRIES
    # The solver releases the GIL: two or more nodes of N >= 64 (a block each) run on a
    # thread per usable core.  Pooled / serial time of a 21-node series, pool start included,
    # 2-core x86_64: N = 32 1.8-3.9, 48 1.0-2.1, 64 0.8-1.6 (even), 96 0.7-1.0, 256 0.5-0.7.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if len(a) < 2 or n < 64 or cores < 2:
        found = list(map(costs, blocks))
    else:
        with ThreadPoolExecutor(cores) as pool:
            found = list(pool.map(costs, blocks))
    return _feasible(np.concatenate(found))


def _feasible(costs):
    """``costs`` as they are; an inf one, past the float range, raises the solver's ValueError."""
    if not (np.asarray(costs) < math.inf).all():
        raise ValueError("cost matrix is infeasible")
    return costs


def _solve_block(a: np.ndarray, b: np.ndarray, p: float):
    """Optimal assignments of every node of two checked (K, N, d) stacks: each node's W_p from
    the exactly rounded total (``exact_sums``, inf past the float range), and the (K, N) sigmas.  The
    package's one solver call: the cost matrices from one ``pairwise_cost`` call, a solve per node
    (an infeasible matrix raises its ValueError), the matched costs gathered at once."""
    with np.errstate(over="ignore"):  # set here: an errstate around a pool's map misses its threads
        costs = pairwise_cost(a, b, p)
    sigma = np.array([linear_sum_assignment(D)[1] for D in costs])
    k, n = sigma.shape
    matched = costs.ravel()[np.arange(0, k * n * n, n).reshape(k, n) + sigma]  # entry (i, sigma(i)) of each node
    return _root(exact_sums(matched) / n, p), sigma


def sup_wasserstein_cost(a: np.ndarray, b: np.ndarray, p: float) -> float:
    """max_k W_p between the clouds of rows k of two (K, N, d) stacks.

    Pairing particle i with particle i is a coupling, so
    U_k = (mean_i |a_ki - b_ki|^p)^(1/p) >= W_p at node k; so is pairing i
    with sigma(i), for the optimal sigma of the last node solved, and close
    to optimal, as particles keep their identity along a curve.  Nodes are
    taken in descending U_k until U_k <= the largest exact value so far;
    one whose bound under sigma is <= that value is skipped, any other
    solved.  Both bounds are ``_identity_costs``, the solver's own arithmetic
    (the same distances, p-th powers, ``fsum`` and root as ``pairwise_cost``'s
    diagonal; a power that underflows reads 0 in both), so neither is below
    the node's exact value; a relative 1e-9 inflation keeps that margin for a
    distance routine that rounds otherwise, so the result equals
    max(wasserstein_costs(a, b, p)) bit for bit.  One-atom clouds (N = 1)
    need no solve: U_k is each node's W_p.
    """
    p = _check_p(p)
    _check_stacks(a, b)
    upper = _identity_costs(a - b, p)  # inf where a square or the sum overflows: such a node is solved
    if a.shape[1] == 1:
        return float(_feasible(upper).max())
    best, sigma = -math.inf, None
    for k in sorted(range(len(a)), key=upper.tolist().__getitem__, reverse=True):
        if (1.0 + 1e-9) * upper[k] <= best:
            break
        if sigma is not None and (1.0 + 1e-9) * _identity_costs((a[k] - b[k][sigma])[None], p)[0] <= best:
            continue
        (cost,), (sigma,) = _solve_block(a[k : k + 1], b[k : k + 1], p)
        best = max(best, cost)
    return float(_feasible(best))
