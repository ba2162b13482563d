"""Closed-form constants and bound evaluators for the certified checks,
and ``BoundReport``, the one verdict type of every check.

Every inequality verified by the harness is driven by two universal
constants depending only on the moment order p,

    C_p  = 2^((p-1)/p)        C_p' = 2^(p-1) / p,

together with growth envelopes assembled from the integral of the rate m:

* ``horizon_factor`` C_T = max(1, ||m||_1) exp(||m||_1) controls how far a
  single characteristic can travel relative to its start,
* ``uniform_moment`` is a conservative a priori bound on the p-th moment
  along every curve produced by a tracking iteration, obtained by closing
  the recurrence f_{n+1} <= alpha (1 + int m f_n) at its fixed bound
  (alpha + f0) exp(alpha ||m||_1),
* ``script_horizon_factor`` is the same travel envelope with m inflated by
  the uniform moment bound, as needed when velocities grow with the
  measure's moment.

These are deliberately loose: looseness only weakens the certified
inequalities, never invalidates them.  Each constant and envelope
saturates to +inf past the float range (C_p' from p = 1025 on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ShapeMismatchError

ATOL = 1e-15  # the absolute allowance of every verdict


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Per-time measured values, bound values, and the resulting verdict;
    ``passed`` is the pass rule of every certified check.  ``times``,
    ``measured`` and ``bound`` are held as float arrays; ShapeMismatchError
    unless they are one-dimensional and of one length, so every row of the
    verdict is a row of ``report.csv``."""

    kind: str
    times: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    slack: float
    constants: dict = dc_field(default_factory=dict)
    extras: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        series = [np.asarray(getattr(self, name), dtype=float) for name in ("times", "measured", "bound")]
        if any(a.ndim != 1 or a.size != series[0].size for a in series):
            raise ShapeMismatchError(f"need 1-d times, measured and bound of one length, got shapes "
                                     f"{', '.join(str(a.shape) for a in series)}")
        for name, a in zip(("times", "measured", "bound"), series):
            object.__setattr__(self, name, a)

    @property
    def margins(self) -> np.ndarray:
        return self.bound - self.measured

    @property
    def passed(self) -> bool:
        """True when every margin is at least -slack * bound - ATOL; an
        empty series checks nothing and does not pass, a NaN never passes,
        and an inf bound passes every finite value at any slack."""
        allowance = products(self.slack, self.bound)  # slack 0 allows 0 beside an inf bound
        return self.measured.size > 0 and bool(np.all(self.margins >= -allowance - ATOL))


def saturating_exp(x: float) -> float:
    """exp saturating to +inf; the envelopes stay valid bounds either way."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _power(x: float, p: float) -> float:
    """x^p for x >= 0, saturating to +inf like ``saturating_exp``."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _scaled_power(c: float, x: float, p: float) -> float:
    """c x^p for c, x >= 0, saturating to +inf: an x^p past the float range
    counts as inf.  c x^p is a ``product``, so x = 0 gives 0 beside a
    saturated c = inf too; an x > 0 whose x^p underflows to 0 gives inf
    there, as its true product with c is unknown."""
    xp = _power(x, p)
    if xp == 0.0 < x and c == math.inf:
        return math.inf
    return product(c, xp)


def exp_power(c: float, x: float, p: float) -> float:
    """exp(c x^p) for c, x >= 0, with c x^p the ``_scaled_power``,
    saturating to +inf like the exp it feeds."""
    return saturating_exp(_scaled_power(c, x, p))


def product(*factors: float) -> float:
    """Left-to-right product of Python floats (an overflow gives inf, no numpy warning); a zero
    factor gives 0 even beside an inf, which stands for a finite value past the float range (``saturating_exp``)."""
    out = 1.0
    for f in factors:
        if f == 0.0:
            return 0.0
        out *= float(f)
    return out


def products(*factors) -> np.ndarray:
    """``product`` elementwise over broadcast float arrays and scalars: the factors multiplied
    left to right, 0 wherever a factor is 0 (an overflow gives inf, a 0 * inf no NaN or warning)."""
    out, zero = 1.0, False
    with np.errstate(over="ignore", invalid="ignore"):  # the mask below keeps 0 * inf at 0
        for f in factors:
            out, zero = out * f, zero | (f == 0.0)
    return np.where(zero, 0.0, out)


def _exps(x: np.ndarray) -> np.ndarray:
    """``saturating_exp`` of every entry: libm's exp, as for a scalar (numpy's SIMD exp rounds otherwise)."""
    return np.array([saturating_exp(v) for v in x.tolist()])


def gronwall_series(*, p, w0, increments, l_int, L_int=0.0, m_int=0.0, horizon=0.0, tail=0.0):
    """The arrays (D_p, chi_p, E), one entry per grid node t_k, where

        D_p(t_k) = C_p (w0 + sum_{j<k} increments_j + E) exp(C_p' l^p + chi_p),
        chi_p = C_p L exp(C_p' l^p),   E = 2 m (1 + horizon) tail,

    and l, L, m are the rate integrals over [0, t_k] (``l_int`` a 1-d array,
    ``L_int``, ``m_int`` arrays or scalars broadcast).  L = 0 gives the plain
    Gronwall bound, tail = 0 drops E.  One array pass, bit for bit the node
    loop of scalar calls: the running sum adds in node order, every product
    is ``product``'s (``products``), C_p' l^p is ``_scaled_power``'s, node by
    node (libm's pow: numpy's SIMD pow rounds otherwise, and l * l is not
    libm's l^2 either; at p = 1 it is the ``products`` C_p' l), and every exp
    is ``saturating_exp``."""
    cp, cpp = C_p(p), C_p_prime(p)
    l = np.asarray(l_int, dtype=float)
    L, m = (np.broadcast_to(np.asarray(a, dtype=float), l.shape) for a in (L_int, m_int))
    steps = np.asarray(increments, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows saturate to inf, as in Python floats
        totals = float(w0) + np.add.accumulate(np.concatenate(([0.0], steps)))[: l.size]
        growth = products(cpp, l) if p == 1.0 else np.array([_scaled_power(cpp, x, p) for x in l.tolist()])
        chi = products(cp, L, _exps(growth))
        E = products(2.0, m, 1.0 + horizon, float(tail))
        D = products(cp, totals + E, _exps(growth + chi))
    return D, chi, E


def C_p(p: float) -> float:
    return 2.0 ** ((p - 1.0) / p)


def C_p_prime(p: float) -> float:
    return _power(2.0, p - 1.0) / p


def moment_bound(p: float, moment0: float, m_total: float) -> float:
    """A priori p-th moment bound C_p (M_p(mu0) + ||m||_1) exp(C_p' ||m||_1^p)."""
    return product(C_p(p), moment0 + m_total, exp_power(C_p_prime(p), m_total, p))


def abs_continuity_constant(p: float, moment0: float, m_total: float) -> float:
    """Factor c_p with W_p(mu(s), mu(t)) <= c_p int_s^t m.

    Instantiated as 1 + 2 B where B is the a priori moment bound: the
    displacement rate of an L^p bundle of characteristics is at most
    m(t) (1 + M_p(current) + M_p(measure argument)) <= m(t) (1 + 2 B).
    """
    return 1.0 + 2.0 * moment_bound(p, moment0, m_total)


def horizon_factor(m_total: float) -> float:
    """C_T = max(1, ||m||_1) exp(||m||_1), the characteristic travel envelope."""
    return max(1.0, m_total) * saturating_exp(m_total)


def uniform_moment(p: float, moment_mu0: float, moment_nu0: float, m_total: float) -> float:
    """Uniform moment bound over all iterates of a tracking construction."""
    cp, cpp = C_p(p), C_p_prime(p)
    growth = exp_power(cpp, m_total, p)
    f0 = product(cp, moment_nu0 + m_total, growth)
    alpha = product(cp, 1.0 + moment_mu0 + m_total * (1.0 + f0), growth)
    return product(alpha + f0, saturating_exp(alpha * m_total))


def script_horizon_factor(uniform_moment_bound: float, m_total: float) -> float:
    """Travel envelope with m inflated by the uniform moment bound."""
    return horizon_factor((1.0 + uniform_moment_bound) * m_total)
