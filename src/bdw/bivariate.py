"""Bivariate discrete Weibull (BDW) law.

The pair is built from three independent DW components sharing one shape:
``X1 = min(U1, U0)`` and ``X2 = min(U2, U0)`` with ``Ui ~ DW(alpha, pi)``.
The shared component ``U0`` can floor both coordinates at once, so the
diagonal ``x1 == x2`` carries strictly positive mass whenever ``p0 < 1``,
and ``p0 = 1`` (a never-failing shock) makes the coordinates independent.

The joint survival function, with weak inequalities on both coordinates, is

    S(x1, x2) = p1**(x1**alpha) * p2**(x2**alpha) * p0**(max(x1, x2)**alpha)

and all probability computations below are exact rearrangements of its
rectangle differences, evaluated in log space.  They read the law's rates
``lambda_i = -ln(p_i)`` from survival bases (:class:`BDWParams`) or rates
(:class:`MOBWParams`) through :func:`_rates`, the package's one reader of
a joint law argument, which refuses anything else by name; :func:`to_mobw`
and :func:`from_mobw` convert a law's parameters between the two.

The rates are those of the continuous Marshall–Olkin pair whose floors
the law is: ``Y1 = min(U1, U0)``, ``Y2 = min(U2, U0)`` with Weibull
``Ui`` of rate ``lambda_i``.  This module holds what the law commands
run and the fits read; :mod:`bdw.sampling` draws the pair by the shock
construction, :mod:`bdw.properties` holds the paper's marginal,
conditional and dependence results, and :mod:`bdw.mobw` the latent
pair's densities and the latent-sample code of the fits.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from typing import TYPE_CHECKING

from .weibull import (
    _MAX_GRID_BOUND,
    _count,
    _floor,
    _log_dw,
    _logpmf_float,
    _number,
    _power,
    _power_step,
    _Record,
    _to_base,
)

if TYPE_CHECKING:
    import numpy as np

    from .datasets import BivariateDataset

__all__ = [
    "BDWParams",
    "MOBWParams",
    "BivariateGeomParams",
    "BdwMoments",
    "GridCheckReport",
    "joint_sf",
    "joint_pmf",
    "joint_logpmf",
    "joint_cdf",
    "joint_pmf_grid",
    "moments",
    "to_mobw",
    "from_mobw",
]


class BDWParams(_Record):
    """Parameters of the bivariate discrete Weibull law.

    Parameters
    ----------
    alpha : float
        Common shape of the three latent DW components, strictly positive.
    p0 : float
        Survival base of the shared component, in (0, 1].  ``p0 = 1``
        expresses independence of the two coordinates.
    p1, p2 : float
        Survival bases of the coordinate-specific components, in (0, 1).

    The marginal survival bases ``p0*p1`` and ``p0*p2`` are below one
    automatically, so both marginals are proper DW laws.
    """

    alpha: float
    p0: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"shape must be positive and finite, got {self.alpha}")
        if not 0 < self.p0 <= 1:
            raise ValueError(f"p0 must lie in (0, 1], got {self.p0}")
        for name in ("p1", "p2"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


class MOBWParams(_Record):
    """Shape and the three component rates of the law, those of the
    continuous Marshall–Olkin bivariate Weibull (MOBW) pair it floors.

    ``lambda0`` is the rate of the shared shock and may be zero, in which
    case the coordinates are independent and the diagonal carries no mass;
    the coordinate-specific rates must be strictly positive.
    """

    alpha: float
    lambda0: float
    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"shape must be positive and finite, got {self.alpha}")
        if not (self.lambda0 >= 0 and math.isfinite(self.lambda0)):
            raise ValueError(f"lambda0 must be non-negative and finite, got {self.lambda0}")
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not math.isfinite(self.total):
            raise ValueError(
                f"the total rate lambda0 + lambda1 + lambda2 must be finite, got {self.total}"
            )

    @property
    def total(self) -> float:
        return self.lambda0 + self.lambda1 + self.lambda2


class BivariateGeomParams(_Record):
    """Bivariate geometric law: the shape-one special case of :class:`BDWParams`,
    whose rule and messages its bases keep."""

    p0: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        self.as_bdw()

    def as_bdw(self) -> BDWParams:
        return BDWParams(1.0, self.p0, self.p1, self.p2)


class BdwMoments(_Record):
    """First and second moments of a BDW law from a truncated double sum."""

    mean1: float
    mean2: float
    var1: float
    var2: float
    covariance: float
    correlation: float
    truncation_bound: int


class GridCheckReport(_Record):
    """Result of a dependence check over a finite grid of survival ratios,
    evaluated from the paper's closed form of the ratios."""

    passed: bool
    worst_ratio: float
    max_ratio: float
    witness: tuple | None
    checked: int


def _check_cell(x1, x2) -> tuple[int, int]:
    return _count(x1, "x1"), _count(x2, "x2")


def _rates(params) -> tuple[float, float, float, float]:
    """``(alpha, lambda0, lambda1, lambda2)`` of a law in survival bases (:class:`BDWParams`,
    ``lambda_i = -ln(p_i)``) or in rates; anything else is refused by name."""
    if isinstance(params, BDWParams):
        lam0 = 0.0 if params.p0 == 1.0 else -math.log(params.p0)
        return params.alpha, lam0, -math.log(params.p1), -math.log(params.p2)
    if isinstance(params, MOBWParams):
        return params.alpha, params.lambda0, params.lambda1, params.lambda2
    raise ValueError(f"a joint law must be BDWParams or MOBWParams, got {type(params).__name__}")


def _log_sf(rates: tuple, x1: float, x2: float) -> float:
    # log survival of the latent pair past (x1, x2) >= 0; a power past the
    # float range gives -inf, and a zero shared rate adds nothing even there
    a, lam0, lam1, lam2 = rates
    t1 = _power(float(x1), a)
    t2 = _power(float(x2), a)
    shared = max(t1, t2) * lam0 if lam0 > 0.0 else 0.0
    return -(t1 * lam1 + t2 * lam2 + shared)


def joint_sf(params, x1: float, x2: float) -> float:
    """Joint survival ``P(X1 >= x1, X2 >= x2)`` for real non-negative arguments.

    Both inequalities are weak; non-integer arguments are floored, matching
    the univariate convention.  A survival below the float range is 0, as
    is the limit at an infinite argument.
    """
    if not (x1 >= 0 and x2 >= 0):
        raise ValueError(f"arguments must be non-negative, got ({x1}, {x2})")
    return math.exp(_log_sf(_rates(params), _floor(x1), _floor(x2)))


# the rates of X1 and X2 below the diagonal, then above it, as rows over
# (lambda0, lambda1, lambda2): lambda1, lambda0 + lambda2, lambda0 + lambda1, lambda2
_RATE_MAP = ((0, 1, 0), (1, 0, 1), (1, 1, 0), (0, 0, 1))


def _atom(lams, d: float) -> tuple[float, float, float]:
    """``(exp(-total*d), C, S)`` of the shared shock's atom at a tie with the
    power step ``(t, d)``: its survival rectangle over ``S(x, x) =
    exp(-total*t)`` is the sum of non-negative terms ``S = A*B + C``, ``A =
    1 - exp(-(lambda0 + lambda1)*d)``, ``B = 1 - exp(-(lambda0 +
    lambda2)*d)`` and ``C = exp(-total*d)*(1 - exp(-lambda0*d))``, each by
    ``expm1``, so nothing cancels.  At a zero shared rate ``C = 0``, the
    product of the marginals; ``C`` vanishes with ``exp(-total*d)``, also
    where ``lambda0*d`` is ``0*inf``."""
    lam0, lam1, lam2 = lams
    shock = math.exp(-((lam0 + lam1 + lam2) * d))
    c = shock * -math.expm1(-(lam0 * d)) if shock > 0.0 else 0.0
    return shock, c, math.expm1(-((lam0 + lam1) * d)) * math.expm1(-((lam0 + lam2) * d)) + c


def _log_tie(rates: tuple, t: float, d: float) -> float:
    """Log of the atom ``P(X1 = X2 = x)``, ``-total*t + log(S)``
    (:func:`_atom`); a power past the float range gives -inf."""
    _, lam0, lam1, lam2 = rates
    s = _atom(rates[1:], d)[2]
    return t * -(lam0 + lam1 + lam2) + (math.log(s) if s > 0.0 else -math.inf)


def _log_rows(rates: tuple, values: list[float], n1: int | None = None, n2: int | None = None):
    """The five rows of the joint log-pmf: the DW log-masses of the four
    rates of ``_RATE_MAP`` (``x1`` and ``x2`` below the diagonal, then
    above it) and the tie's atom (:func:`_log_tie`), all from one power
    step per value, on ``math``.  The rows of ``x1`` run over the first
    ``n1`` of ``values``, those of ``x2`` over the first ``n2`` and the
    tie's over the shorter; by default every row runs over every value."""
    a, lam0, lam1, lam2 = rates
    steps = [_power_step(y, a) for y in values]
    s1, s2 = steps[:n1], steps[:n2]
    return [
        [_log_dw(t, d, lam1) for t, d in s1],
        [_log_dw(t, d, lam0 + lam2) for t, d in s2],
        [_log_dw(t, d, lam0 + lam1) for t, d in s1],
        [_log_dw(t, d, lam2) for t, d in s2],
        [_log_tie(rates, t, d) for t, d in min(s1, s2, key=len)],
    ]


def _cell_log_masses(theta: MOBWParams, data: BivariateDataset) -> list[float]:
    """Log joint mass of each of ``data``'s distinct cells under ``theta``,
    for the ML likelihood and the latent imputation: the gather of the five
    rows of :func:`_log_rows` over its value table's values, below the
    diagonal rows 0 and 1, above it 2 and 3, a tie 4.  A cell of zero
    probability aborts with its first row index, since a silent ``-inf``
    would poison every comparison built on top."""
    vals, i1, i2, _ = data.value_table
    below1, below2, above1, above2, tie = _log_rows(_rates(theta), vals)
    lp = [
        below1[i] + below2[j] if i < j else above1[i] + above2[j] if i > j else tie[i]
        for i, j in zip(i1, i2)
    ]
    for (cell, _, row), v in zip(data.cells, lp):
        if not math.isfinite(v):
            raise ValueError(f"data row {row} (cell {cell}) has zero probability")
    return lp


def joint_logpmf(params, x1: int, x2: int) -> float:
    """Natural log of the joint mass at an integer pair: the below / above /
    tie split of :func:`_cell_log_masses`, entry for entry, on floats."""
    i, j = _check_cell(x1, x2)
    a, lam0, lam1, lam2 = rates = _rates(params)
    x, y = float(i), float(j)
    if i < j:
        return _logpmf_float(x, a, lam1) + _logpmf_float(y, a, lam0 + lam2)
    if i > j:
        return _logpmf_float(x, a, lam0 + lam1) + _logpmf_float(y, a, lam2)
    return _log_tie(rates, *_power_step(x, a))


def joint_pmf(params, x1: int, x2: int) -> float:
    """Joint probability mass at an integer pair.

    Off the diagonal the mass factorises into two DW masses; on the
    diagonal it is the shared shock's atom, a sum of non-negative terms
    (:func:`_log_tie`), evaluated in log space.
    """
    return math.exp(joint_logpmf(params, x1, x2))


def joint_cdf(params, x1: int, x2: int) -> float:
    """Joint distribution function ``P(X1 <= x1, X2 <= x2)``.

    It is the latent pair's ``P(Y1 < x1 + 1, Y2 < x2 + 1)``, split on the
    shared shock's time: with ``a <= b`` the powers of the nearer and the
    farther box edge, ``U0`` fails before ``a``; or in ``[a, b)``, and the
    nearer coordinate's own shock before ``a``; or it outlives ``b``, and
    both own shocks fail before their edges.  Each term is a product of
    ``exp`` and ``-expm1`` factors, so nothing cancels: the value is never
    negative, and never below the mass of its corner cell.  A power past
    the float range fails its shock surely, and a zero shared rate never
    fails.
    """
    i, j = _check_cell(x1, x2)
    alpha, lam0, lam1, lam2 = _rates(params)
    if i > j:
        i, j, lam1, lam2 = j, i, lam2, lam1
    a, b = _power(float(i + 1), alpha), _power(float(j + 1), alpha)
    near, far = -math.expm1(-lam1 * a), -math.expm1(-lam2 * b)
    if lam0 == 0.0:
        return near * far
    # U0 survives a; where it surely fails there, the gap b - a is moot
    shock = math.exp(-lam0 * a)
    gap = shock * -math.expm1(-lam0 * (b - a)) if shock > 0.0 else 0.0
    cdf = -math.expm1(-lam0 * a) + gap * near + math.exp(-lam0 * b) * near * far
    return min(cdf, 1.0)


def joint_pmf_grid(params, k1: int, k2: int) -> np.ndarray:
    """Joint pmf table over the rectangle [0, k1] x [0, k2].

    Returns an array of shape (k1+1, k2+1) with entry [i, j] equal to
    ``joint_pmf(params, i, j)``, filled row by row from :func:`_pmf_rows`.
    A grid of more cells than [0, K]^2 at the cap ``_MAX_GRID_BOUND`` is
    refused by name, before it is built.
    """
    import numpy as np

    k1, k2 = _count(k1, "k1"), _count(k2, "k2")
    _check_grid(k1, k2)
    masses = chain.from_iterable(_pmf_rows(params, k1, k2))
    return np.fromiter(masses, float, (k1 + 1) * (k2 + 1)).reshape(k1 + 1, k2 + 1)


def _pmf_rows(params, k1: int, k2: int):
    """The rows of the joint pmf table over [0, k1] x [0, k2], generated as
    lists: row i holds the masses at ``(i, 0..k2)``, each bit-identical to
    ``joint_pmf(params, i, j)``, for valid bounds (no validation).  The rows
    of :func:`_log_rows` are built at the first read, each only as long as
    it is read: those of ``x1`` over 0..k1, those of ``x2`` over 0..k2 and
    the tie's over 0..min(k1, k2).  Each cell is the sum of two of their
    entries off the diagonal and the atom on it: O(k1 + k2) transcendental
    calls and memory, and one exponential per cell."""
    values = list(map(float, range(max(k1, k2) + 1)))
    below1, below2, above1, above2, tie = _log_rows(_rates(params), values, k1 + 1, k2 + 1)
    exp = math.exp
    for i in range(k1 + 1):
        above = above1[i]
        row = [exp(above + w) for w in above2[:i]]
        if i <= k2:
            below = below1[i]
            row += [exp(tie[i])] + [exp(below + w) for w in below2[i + 1 :]]
        yield row


def _check_grid(k1: int, k2: int) -> None:
    # refuses by name a grid [0, k1] x [0, k2] of more cells than [0, K]^2
    if (k1 + 1) * (k2 + 1) > (_MAX_GRID_BOUND + 1) ** 2:
        raise _intractable_grid(max(k1, k2))


def _intractable_grid(k: int | None, epsilon: float | None = None) -> ValueError:
    # k is the bound needed, or None when it is only known to pass the cap;
    # without epsilon, k was asked for rather than needed by the mass
    needs = f"K > {_MAX_GRID_BOUND}" if k is None else f"K = {k} > {_MAX_GRID_BOUND}"
    if epsilon is None:
        return ValueError(f"a grid [0, K]^2 with {needs} is not tractable")
    return ValueError(
        f"joint mass spreads beyond a tractable grid: all but epsilon = "
        f"{epsilon:g} of it needs {needs}"
    )


def _table_bound(params, epsilon: float = 1e-6) -> int:
    """Smallest K >= 1 whose grid [0, K]^2 holds all but ``epsilon`` of the
    joint mass; refused past ``_MAX_GRID_BOUND``."""
    k = 1
    while 1.0 - joint_cdf(params, k, k) >= epsilon:
        k += 1
        if k > _MAX_GRID_BOUND:
            raise _intractable_grid(None, epsilon)
    return k


def _truncation_bound(params, epsilon: float) -> int:
    # smallest K with the heavier marginal's survival exp(-lam * K**alpha)
    # below epsilon; the heavier tail has the smaller rate, so it controls
    # both.  A bound from 2**53 up, or infinite, is far past the grid cap;
    # a float no longer holds it as an integer, so it is refused unnamed
    a, lam0, lam1, lam2 = _rates(params)
    k = _power(-math.log(epsilon) / (lam0 + min(lam1, lam2)), 1.0 / a)
    if not k < 2.0**53:
        raise _intractable_grid(None, epsilon)
    return max(1, math.ceil(k))


def moments(params, epsilon: float = 1e-10) -> BdwMoments:
    """Means, variances, covariance and correlation by truncated summation.

    The sums run over [0, K]^2 where K is the smallest integer at which the
    heavier marginal's survival drops below ``epsilon``; K is reported so
    callers can judge the truncation, and one past ``_MAX_GRID_BOUND`` is
    refused.  Each sum adds box tail probabilities, read in O(K) off the
    joint survival ``S(x, y) = e1[x] * e2[y] * e0[max(x, y)]`` with
    ``e_i[v] = exp(-lambda_i * v**alpha)``: ``E[X1; box]`` sums
    ``P(X1 >= v, box)`` over v = 1..K, ``E[X1**2; box]`` weighs it by
    ``2v - 1``, and ``E[X1 X2; box]`` sums ``P(X1 >= x, X2 >= y, box)``.
    The sums run over plain floats, each exactly rounded by
    :func:`math.fsum`, so the moments import no numpy.  At a zero shared
    rate the coordinates are independent, and the covariance is that of the
    truncation alone, ``E[X1; X1 <= K] E[X2; X2 <= K] (1 - P1 P2)`` with
    ``Pi = P(Xi <= K)``: read in closed form, it is never a difference of
    two nearly equal sums.  A coordinate of zero variance is refused by name.
    """
    if not 0 < _number(epsilon, "epsilon") <= 1e-4:
        raise ValueError(f"epsilon must lie in (0, 1e-4], got {epsilon}")
    k = _truncation_bound(params, epsilon)
    if k > _MAX_GRID_BOUND:
        raise _intractable_grid(k, epsilon)
    a, lam0, lam1, lam2 = _rates(params)
    pw = [_power(float(v), a) for v in range(k + 2)]
    e0 = [math.exp(-lam0 * t) for t in pw] if lam0 > 0.0 else [1.0] * (k + 2)
    e1, e2 = [math.exp(-lam1 * t) for t in pw], [math.exp(-lam2 * t) for t in pw]
    # P(Xi >= v, box) for v = 1..K: S(v, 0) - S(v, K+1), less the same at K+1
    s1, s2 = e0[-1] * e2[-1], e0[-1] * e1[-1]
    t1 = [u * (w - s1) for u, w in zip(e1, e0)]
    t2 = [u * (w - s2) for u, w in zip(e2, e0)]
    g1, g2 = [t - t1[-1] for t in t1[1:-1]], [t - t2[-1] for t in t2[1:-1]]
    mean1, mean2 = math.fsum(g1), math.fsum(g2)
    # weights 2v - 1 for v = 1..K
    var1 = math.fsum((2 * i + 1) * g for i, g in enumerate(g1)) - mean1**2
    var2 = math.fsum((2 * i + 1) * g for i, g in enumerate(g2)) - mean2**2
    # the roots are taken apart where their product underflows (a zero variance is refused)
    for i, var in ((1, var1), (2, var2)):
        if var == 0.0:
            raise ValueError(f"X{i} has variance 0 in the float range: no correlation is defined")
    root = math.sqrt(var1 * var2) or math.sqrt(var1) * math.sqrt(var2)
    if lam0 == 0.0:
        # independent coordinates on a product box: E[X1 X2; box] is
        # mean1 * mean2 / (P1 * P2) with Pi = P(Xi <= K) = 1 - qi, so the
        # covariance is the box's truncation alone, taken without cancellation
        q1, q2 = e1[-1], e2[-1]
        cov = mean1 * mean2 * (q1 + q2 - q1 * q2) / ((1.0 - q1) * (1.0 - q2))
        return BdwMoments(mean1, mean2, var1, var2, cov, cov / root, k)
    # S over [1, K]^2 split at the diagonal, where c_i[y] sums e_i[x] over
    # 1 <= x < y, less the survivals past the far edges, each counted K times
    f0, f1, f2 = e0[1:-1], e1[1:-1], e2[1:-1]
    c1, c2 = accumulate(f1, initial=0.0), accumulate(f2, initial=0.0)
    edges = e0[-1] * (e2[-1] * math.fsum(f1) + e1[-1] * math.fsum(f2) - k * e1[-1] * e2[-1])
    exy = math.fsum(
        u0 * (u1 * u2 + u2 * v1 + u1 * v2) for u0, u1, u2, v1, v2 in zip(f0, f1, f2, c1, c2)
    ) - k * edges
    cov = exy - mean1 * mean2
    return BdwMoments(mean1, mean2, var1, var2, cov, cov / root, k)


def to_mobw(params) -> MOBWParams:
    """Rates of the continuous latent model: ``lambda_i = -ln(p_i)``."""
    return MOBWParams(*_rates(params))


def from_mobw(params) -> BDWParams:
    """Survival bases from latent rates: ``p_i = exp(-lambda_i)``; a
    positive rate whose base rounds to 1 (at ``lambda0`` it would read as
    independence) is refused by name, and the law's functions take its
    rates instead."""
    alpha, *rates = _rates(params)
    return BDWParams(alpha, *map(_to_base, MOBWParams._fields[1:], rates))
