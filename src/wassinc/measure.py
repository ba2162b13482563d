"""Empirical measures on R^d and exact Wasserstein distances between them.

A cloud of N points with uniform weights 1/N stands in for a probability
measure with finite p-th moment; between two clouds of equal size W_p is
an optimal assignment problem, solved exactly, and only its value is
kept, from the exactly rounded (``fsum``) total.  A ``ParticleCloud`` is
one checked measure, a curve its (K, N, d) array of positions: ``moments``
and ``tail_norms`` read one such stack, the W_p series ``wasserstein_costs``
and ``sup_wasserstein_cost`` two, node by node and bit for bit equal to
the one-cloud calls.  A W_p series runs on every usable core for N >= 64.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import ShapeMismatchError


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


def _norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, as ``np.linalg.norm``, but for a row of
    finite coordinates whose norm reads below 2^-511 (where its squares are
    subnormal) with a coordinate nonzero, or reads inf: there M |row / M|, M its
    largest |coordinate|, so no square under- or overflows."""
    with np.errstate(over="ignore"):  # a row whose squares overflow is rescaled below
        norms = np.linalg.norm(points, axis=-1)
        odd = (norms < 2.0**-511) | (norms == math.inf)
        if odd.any():
            rows = points[odd]
            top = np.abs(rows).max(axis=-1, keepdims=True)
            top = np.where((top > 0.0) & (top < math.inf), top, 1.0)  # a zero or non-finite row keeps its norm
            norms[odd] = top[:, 0] * np.linalg.norm(rows / top, axis=-1)
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
    return np.array(_power_means(_norms(points), _check_p(p), points.shape[1]))


def _pow(x, p: float):
    """x^p elementwise, with exact p = 1 and p = 2 paths."""
    if p == 1.0:
        return x
    if p == 2.0:
        return x * x
    return x**p


def _root(x: float, p: float) -> float:
    """x^(1/p), with exact p = 1 and p = 2 paths."""
    if p == 1.0:
        return x
    if p == 2.0:
        return math.sqrt(x)
    return x ** (1.0 / p)


def _power_sums(values: np.ndarray, p: float) -> list:
    """fsum(row^p) of every row of a (K, m) array, each power rounded as the solver's; inf on overflow."""
    with np.errstate(over="ignore"):  # an overflowing power makes its row's sum inf
        powered = _pow(values, p).tolist()
    out = []
    for terms in powered:
        try:
            out.append(math.fsum(terms))
        except OverflowError:
            out.append(math.inf)
    return out


def _power_means(values: np.ndarray, p: float, n: int) -> list:
    """(fsum(row^p) / n)^(1/p) of every row of a (K, m) array, m >= 1.  Where a row's sum
    overflows, or falls below the smallest normal double while M = max(row) > 0,
    M (fsum((row / M)^p) / n)^(1/p), finite for finite values; a zero row stays 0."""
    out = []
    for row, total in zip(values, _power_sums(values, p)):
        top = float(row.max())
        if total < math.inf and not (total < sys.float_info.min and top > 0.0):
            out.append(_root(total / n, p))
        else:  # scaled: its largest term is 1; inf where a norm itself overflowed
            out.append(top * _root(math.fsum(_pow(row / top, p).tolist()) / n, p) if top < math.inf else top)
    return out


def tail_norm(cloud: ParticleCloud, R: float, p: float, shifted: bool = False) -> float:
    """L^p mass of the particles at distance >= R from the origin.

    With ``shifted`` the integrand is (1 + |x|)^p instead of |x|^p, the form
    appearing in the localisation error of the stability bounds.  Returns 0
    when no particle reaches radius R.
    """
    return float(tail_norms(cloud.points[None], R, p, shifted)[0])


def tail_norms(points: np.ndarray, R: float, p: float, shifted: bool = False) -> np.ndarray:
    """``tail_norm`` of the cloud of every row of a (K, N, d) stack, bit for
    bit: an atom inside radius R enters as an exact 0.0 term."""
    p = _check_p(p)
    if R < 0:
        raise ValueError(f"radius R must be nonnegative, got {R}")
    norms = _norms(points)
    vals = np.where(norms >= R, 1.0 + norms if shifted else norms, 0.0)
    return np.array(_power_means(vals, p, points.shape[1]))


def localisation_tail(cloud: ParticleCloud, R: float, horizon: float, p: float) -> float:
    """Shifted tail of ``cloud`` beyond max(0, R / horizon - 1), the mass the
    localisation error charges for a ball of radius R under the travel
    envelope ``horizon``; 0 for R = inf."""
    return 0.0 if math.isinf(R) else tail_norm(cloud, max(0.0, R / horizon - 1.0), p, shifted=True)


def pairwise_cost(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Matrix D[i, j] = |a_i - b_j|^p of two (N, d) position arrays, used by
    the assignment solver.

    Exposed so independent minimizers (e.g. exhaustive search over
    permutations in tests) share the exact same arithmetic.
    """
    p = _check_p(p)
    return _pow(cdist(a, b), p)


def assignment_cost(D: np.ndarray, assignment: np.ndarray) -> float:
    """Exactly rounded sum of the matched entries (order independent)."""
    rows = np.arange(D.shape[0])
    return math.fsum(D[rows, np.asarray(assignment, dtype=int)].tolist())


def _check_stacks(a: np.ndarray, b: np.ndarray) -> None:
    """Two curves' positions as nonempty (K, N, d) stacks of one shape
    (ShapeMismatchError), every entry finite (ValueError)."""
    if a.shape != b.shape or a.ndim != 3 or 0 in a.shape:
        raise ShapeMismatchError(f"need two nonempty (K, N, d) stacks of one shape, got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("cloud coordinates must be finite")


def _solve(a: np.ndarray, b: np.ndarray, p: float):
    """Cost matrix, an optimal assignment sigma, and its exactly rounded total
    for two (N, d) position arrays."""
    D = pairwise_cost(a, b, p)
    # one permutation for N = 1 (the solver only rejects an inf cost); else cols is sigma
    sigma = np.zeros(1, dtype=int) if len(a) == 1 and D[0, 0] < math.inf else linear_sum_assignment(D)[1]
    return D, sigma, assignment_cost(D, sigma)


def wasserstein_cost(a: ParticleCloud, b: ParticleCloud, p: float) -> float:
    """Exact W_p between equal-size uniform clouds via optimal assignment:
    (min total of |x_i - y_sigma(i)|^p / N)^(1/p)."""
    return float(wasserstein_costs(a.points[None], b.points[None], p)[0])


def wasserstein_costs(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """W_p between the clouds of rows k of two (K, N, d) stacks, for every k,
    as a float64 array; both stacks are checked before any solve."""
    p = _check_p(p)
    _check_stacks(a, b)
    n = a.shape[1]

    def cost(x, y):
        return _root(_solve(x, y, p)[2] / n, p)

    # The solver releases the GIL: two or more nodes of N >= 64 run on a thread per
    # usable core.  Pooled / serial time of a 21-node series, pool start included,
    # 2-core x86_64: N = 32 1.8-3.9, 48 1.0-2.1, 64 0.8-1.6 (even), 96 0.7-1.0, 256 0.5-0.7.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if len(a) < 2 or n < 64 or cores < 2:
        return np.array([cost(x, y) for x, y in zip(a, b)])
    with ThreadPoolExecutor(cores) as pool:
        return np.array(list(pool.map(cost, a, b)))


def sup_wasserstein_cost(a: np.ndarray, b: np.ndarray, p: float) -> float:
    """max_k W_p between the clouds of rows k of two (K, N, d) stacks.

    Pairing particle i with particle i is a coupling, so
    U_k = (mean_i |a_ki - b_ki|^p)^(1/p) >= W_p at node k; so is pairing i
    with sigma(i), for the optimal sigma of the last node solved, and close
    to optimal, as particles keep their identity along a curve.  Nodes are
    taken in descending U_k until U_k <= the largest exact value so far;
    one whose bound under sigma is <= that value is skipped, any other
    solved.  Both bounds round as the solver's total does (``_power_sums``,
    unscaled: a p-th power that underflows reads 0 in both), inflated by a
    relative 1e-9 for the rounding of the distances, so the result equals
    max(wasserstein_costs(a, b, p)) bit for bit.
    """
    p = _check_p(p)
    _check_stacks(a, b)
    n = a.shape[1]

    def screen(gaps):  # inf where the sum overflows: such a node is solved
        return [(1.0 + 1e-9) * _root(total / n, p) for total in _power_sums(np.linalg.norm(gaps, axis=-1), p)]

    upper = screen(a - b)
    best, sigma = -math.inf, None
    for k in sorted(range(len(a)), key=upper.__getitem__, reverse=True):
        if upper[k] <= best:
            break
        if sigma is not None and screen((a[k] - b[k][sigma])[None])[0] <= best:
            continue
        _, sigma, total = _solve(a[k], b[k], p)
        best = max(best, _root(total / n, p))
    return best
