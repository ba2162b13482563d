"""Empirical measures on R^d and exact Wasserstein distances between them.

A cloud of N points with uniform weights 1/N stands in for a probability
measure with finite p-th moment.  Between two clouds of equal size the
p-Wasserstein distance reduces to an optimal assignment problem over
permutations, which is solved exactly.  Only the W_p value is returned,
from the exactly rounded (``fsum``) total of the solver's optimal
assignment; no transport plan is kept.  A W_p series runs on every usable
core for N >= 64, same bits.
"""

from __future__ import annotations

import math
import os
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

    @classmethod
    def _view(cls, points: np.ndarray) -> "ParticleCloud":
        """A cloud over an (N, d) float array checked finite, made read-only, not copied."""
        points.setflags(write=False)
        cloud = object.__new__(cls)
        object.__setattr__(cloud, "points", points)
        return cloud

    @classmethod
    def rows(cls, points: np.ndarray):
        """The clouds of the rows of a (K, N, d) array, checked finite at once
        over the stack (ValueError), then made lazily, each a read-only view."""
        if not np.isfinite(points).all():
            raise ValueError("cloud coordinates must be finite")
        return map(cls._view, points)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def norms(self) -> np.ndarray:
        """Euclidean norm of every particle, shape (N,)."""
        return np.linalg.norm(self.points, axis=1)


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
    return np.array(_power_means(np.linalg.norm(points, axis=-1), _check_p(p), points.shape[1]))


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


def _power_means(values: np.ndarray, p: float, n: int) -> list:
    """(fsum(row^p) / n)^(1/p) of every row of a (K, m) array; 0 for an empty
    row.  Where a row's sum overflows, M (fsum((row / M)^p) / n)^(1/p) with
    M = max(row), finite for finite values."""
    with np.errstate(over="ignore"):  # an overflowing power makes its row's sum inf
        powered = _pow(values, p).tolist()
    out = []
    for row, terms in zip(values, powered):
        try:
            out.append(_root(math.fsum(terms) / n, p))
        except OverflowError:
            out.append(math.inf)
        if out[-1] == math.inf:
            top = float(row.max())  # inf where a norm itself overflowed; the mean is inf then
            out[-1] = top * _root(math.fsum(_pow(row / top, p).tolist()) / n, p) if top < math.inf else top
    return out


def tail_norm(cloud: ParticleCloud, R: float, p: float, shifted: bool = False) -> float:
    """L^p mass of the particles at distance >= R from the origin.

    With ``shifted`` the integrand is (1 + |x|)^p instead of |x|^p, the form
    appearing in the localisation error of the stability bounds.  Returns 0
    when no particle reaches radius R.
    """
    p = _check_p(p)
    if R < 0:
        raise ValueError(f"radius R must be nonnegative, got {R}")
    norms = cloud.norms()
    sel = norms >= R
    vals = 1.0 + norms[sel] if shifted else norms[sel]
    return _power_means(vals[None], p, cloud.n)[0]


def localisation_tail(cloud: ParticleCloud, R: float, horizon: float, p: float) -> float:
    """Shifted tail of ``cloud`` beyond max(0, R / horizon - 1), the mass the
    localisation error charges for a ball of radius R under the travel
    envelope ``horizon``; 0 for R = inf."""
    return 0.0 if math.isinf(R) else tail_norm(cloud, max(0.0, R / horizon - 1.0), p, shifted=True)


def pairwise_cost(a: ParticleCloud, b: ParticleCloud, p: float) -> np.ndarray:
    """Matrix D[i, j] = |x_i - y_j|^p used by the assignment solver.

    Exposed so independent minimizers (e.g. exhaustive search over
    permutations in tests) share the exact same arithmetic.
    """
    p = _check_p(p)
    return _pow(cdist(a.points, b.points), p)


def assignment_cost(D: np.ndarray, assignment: np.ndarray) -> float:
    """Exactly rounded sum of the matched entries (order independent)."""
    rows = np.arange(D.shape[0])
    return math.fsum(D[rows, np.asarray(assignment, dtype=int)].tolist())


def _check_pair(a: ParticleCloud, b: ParticleCloud) -> None:
    if a.n != b.n or a.d != b.d:
        raise ShapeMismatchError(
            f"clouds must match in size and dimension, got ({a.n},{a.d}) and ({b.n},{b.d})"
        )


def _solve(a: ParticleCloud, b: ParticleCloud, p: float):
    """Cost matrix, an optimal assignment sigma, and its exactly rounded total."""
    _check_pair(a, b)
    D = pairwise_cost(a, b, p)
    # one permutation for N = 1 (the solver only rejects an inf cost); else cols is sigma
    sigma = np.zeros(1, dtype=int) if a.n == 1 and D[0, 0] < math.inf else linear_sum_assignment(D)[1]
    return D, sigma, assignment_cost(D, sigma)


def wasserstein_cost(a: ParticleCloud, b: ParticleCloud, p: float) -> float:
    """Exact W_p between equal-size uniform clouds via optimal assignment:
    (min total of |x_i - y_sigma(i)|^p / N)^(1/p)."""
    p = _check_p(p)
    _, _, total = _solve(a, b, p)
    return _root(total / a.n, p)


def wasserstein_costs(pairs, p: float) -> np.ndarray:
    """wasserstein_cost(a_k, b_k, p) of every pair, in input order, bit for
    bit; every pair is checked before any solve."""
    p, pairs = _check_p(p), list(pairs)
    for a, b in pairs:
        _check_pair(a, b)
    # The solver releases the GIL: two or more pairs of N >= 64 run on a thread per
    # usable core.  Pooled / serial time of a 21-pair series, pool start included,
    # 2-core x86_64: N = 32 1.8-3.9, 48 1.0-2.1, 64 0.8-1.6 (even), 96 0.7-1.0, 256 0.5-0.7.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if len(pairs) < 2 or min(a.n for a, _ in pairs) < 64 or cores < 2:
        return np.array([wasserstein_cost(a, b, p) for a, b in pairs])
    with ThreadPoolExecutor(cores) as pool:
        return np.array(list(pool.map(lambda pair: wasserstein_cost(*pair, p), pairs)))


def sup_wasserstein_cost(pairs, p: float) -> float:
    """max_k W_p(a_k, b_k) over a nonempty sequence of equal-size cloud pairs.

    Pairing particle i with particle i is a coupling, so
    U_k = (mean_i |x_i - y_i|^p)^(1/p) >= W_p(a_k, b_k).  Pairs are taken
    in descending U_k until U_k <= the largest exact value so far.  Pairing
    i with sigma(i), for the optimal sigma of the last pair solved, is a
    coupling too, and close to optimal, since particles keep their identity
    along a curve: a pair whose bound under sigma is <= the largest value so
    far is skipped, any other solved exactly.  Both bounds are inflated by a
    relative 1e-9, far above their rounding and that of the solver's total,
    so every pair skipped has W_p <= that value and the result equals
    max_k wasserstein_cost(a_k, b_k, p) bit for bit.
    """
    p = _check_p(p)
    pairs = list(pairs)
    if not pairs:
        raise ValueError("sup over an empty sequence of pairs")
    for a, b in pairs:
        _check_pair(a, b)
    gaps = np.stack([a.points for a, _ in pairs]) - np.stack([b.points for _, b in pairs])
    upper = [(1.0 + 1e-9) * u for u in _power_means(np.linalg.norm(gaps, axis=-1), p, pairs[0][0].n)]
    best, sigma = -math.inf, None
    for k in sorted(range(len(pairs)), key=upper.__getitem__, reverse=True):
        if upper[k] <= best:
            break
        a, b = pairs[k]
        if sigma is not None:
            gaps = np.linalg.norm(a.points - b.points[sigma], axis=1)
            if (1.0 + 1e-9) * _power_means(gaps[None], p, a.n)[0] <= best:
                continue
        _, sigma, total = _solve(a, b, p)
        best = max(best, _root(total / a.n, p))
    return best

