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
* ``tracking_envelope`` is the one localisation envelope of tracking and
  relaxation: that moment bound C and the travel envelope with m inflated
  by it, as needed when velocities grow with the measure's moment.

These are deliberately loose: looseness only weakens the certified
inequalities, never invalidates them.  Each constant and envelope
saturates to +inf past the float range (C_p' from p = 1025 on).  Each
numeric rule is one function of a float or an array, called once per
series: ``products`` (a zero factor gives 0 beside inf), ``saturating_exp``
(libm's exp), ``_power`` (libm's pow) and ``_scaled_power`` (C_p' x^p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import repeat

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


_EXP_TOP = 709.782712893384  # log of the largest double: the largest x whose exp is finite


def saturating_exp(x):
    """exp of a float or, entry by entry, of an array, saturating to +inf past ``_EXP_TOP`` (the
    envelopes stay valid bounds either way): libm's exp (numpy's SIMD exp rounds otherwise)."""
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(math.exp, np.minimum(x, _EXP_TOP).ravel().tolist()), float, x.size).reshape(x.shape)
    out[x > _EXP_TOP] = math.inf
    return out if out.ndim else float(out)


def _power(x, p: float):
    """x^p for x >= 0, a float or, entry by entry, an array, saturating to +inf like
    ``saturating_exp``: libm's pow, which is x itself at p = 1, through numpy's scalar pow
    (its SIMD array pow rounds otherwise)."""
    x = np.asarray(x, dtype=float)
    if p != 1.0:
        with np.errstate(over="ignore"):  # an x^p past the float range reads inf
            x = np.fromiter(map(pow, x.flat, repeat(p)), float, x.size).reshape(x.shape)
    return x if x.ndim else float(x)


def _scaled_power(c, x, p: float):
    """c x^p for c, x >= 0, floats or broadcast arrays, saturating to +inf: an x^p past the float
    range counts as inf.  c x^p is a ``products``, so x = 0 gives 0 beside a saturated c = inf
    too; an x > 0 whose x^p underflows to 0 gives inf there, as its true product with c is unknown."""
    xp = _power(x, p)
    return products(c, np.where((xp == 0.0) & np.greater(x, 0.0) & (c == math.inf), math.inf, xp))


def exp_power(c: float, x: float, p: float) -> float:
    """exp(c x^p) for c, x >= 0, with c x^p the ``_scaled_power``,
    saturating to +inf like the exp it feeds."""
    return saturating_exp(_scaled_power(c, x, p))


def products(*factors):
    """The product of floats or broadcast float arrays, multiplied left to right (an overflow
    gives inf, with no numpy warning); 0 wherever a factor is 0, even beside an inf, which stands
    for a finite value past the float range (``saturating_exp``).  Scalars give a Python float."""
    out, zero = 1.0, False
    with np.errstate(over="ignore", invalid="ignore"):  # the mask below keeps 0 * inf at 0
        for f in factors:
            out, zero = out * f, zero | (f == 0.0)
    out = np.where(zero, 0.0, out)
    return out if out.ndim else float(out)


def gronwall_series(*, p, w0, increments, l_int, L_int=0.0, m_int=0.0, horizon=0.0, tail=0.0):
    """The arrays (D_p, chi_p, E), one entry per grid node t_k, where

        D_p(t_k) = C_p (w0 + sum_{j<k} increments_j + E) exp(C_p' l^p + chi_p),
        chi_p = C_p L exp(C_p' l^p),   E = 2 m (1 + horizon) tail,

    and l, L, m are the rate integrals over [0, t_k] (``l_int`` a 1-d array,
    ``L_int``, ``m_int`` arrays or scalars broadcast).  L = 0 gives the plain
    Gronwall bound, tail = 0 drops E.  One array pass, bit for bit the node
    loop of scalar calls: the running sum adds in node order, every product
    is a ``products``, C_p' l^p the ``_scaled_power`` and every exp the
    ``saturating_exp`` of the whole series."""
    cp, cpp = C_p(p), C_p_prime(p)
    l = np.asarray(l_int, dtype=float)
    L, m = (np.broadcast_to(np.asarray(a, dtype=float), l.shape) for a in (L_int, m_int))
    steps = np.asarray(increments, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows saturate to inf, as in Python floats
        totals = float(w0) + np.add.accumulate(np.concatenate(([0.0], steps)))[: l.size]
        growth = _scaled_power(cpp, l, p)
        chi = products(cp, L, saturating_exp(growth))
        E = products(2.0, m, 1.0 + horizon, float(tail))
        D = products(cp, totals + E, saturating_exp(growth + chi))
    return D, chi, E


def C_p(p: float) -> float:
    return 2.0 ** ((p - 1.0) / p)


def C_p_prime(p: float) -> float:
    return _power(2.0, p - 1.0) / p


def moment_bound(p: float, moment0: float, m_total: float) -> float:
    """A priori p-th moment bound C_p (M_p(mu0) + ||m||_1) exp(C_p' ||m||_1^p)."""
    return products(C_p(p), moment0 + m_total, exp_power(C_p_prime(p), m_total, p))


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
    f0 = products(cp, moment_nu0 + m_total, growth)
    alpha = products(cp, 1.0 + moment_mu0 + m_total * (1.0 + f0), growth)
    return products(alpha + f0, saturating_exp(alpha * m_total))


def tracking_envelope(p: float, moment_mu0: float, moment_nu0: float, m_total: float) -> tuple[float, float]:
    """(C, C_T): the ``uniform_moment`` C and the travel envelope with m inflated by it,
    C_T = ``horizon_factor``((1 + C) ||m||_1)."""
    script_c = uniform_moment(p, moment_mu0, moment_nu0, m_total)
    return script_c, horizon_factor((1.0 + script_c) * m_total)
