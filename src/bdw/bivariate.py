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
``lambda_i = -ln(p_i)``, so each takes the law as survival bases
(:class:`BDWParams`) or as rates (:class:`MOBWParams`); :func:`_rates` is
the one conversion.

The rates are those of the continuous Marshall–Olkin pair whose floors
the law is: ``Y1 = min(U1, U0)``, ``Y2 = min(U2, U0)`` with Weibull
``Ui`` of rate ``lambda_i``.  :func:`mobw_sample` draws that pair by the
shock construction, and :func:`sample` floors it.  The latent pair's
densities and the latent-sample code of the fits live in
:mod:`bdw.mobw`.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import TYPE_CHECKING

from .univariate import (
    DWParams,
    WeibullParams,
    _count,
    _floor,
    _floor_counts,
    _log1mexp,
    _log1mexp_float,
    _logpmf_arr,
    _logpmf_float,
    _power,
    _Record,
    _to_base,
    we_sample,
)

if TYPE_CHECKING:
    import numpy as np

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
    "marginals",
    "min_distribution",
    "closure_min",
    "cond_pmf",
    "cond_sf_given_ge",
    "cond_sf_given_eq",
    "sample",
    "mobw_sample",
    "moments",
    "to_mobw",
    "from_mobw",
    "is_tp2_on_grid",
    "pqd_check_on_grid",
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
    """Bivariate geometric law: the shape-one special case of :class:`BDWParams`."""

    p0: float
    p1: float
    p2: float

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
    """``(alpha, lambda0, lambda1, lambda2)`` of a law given as survival
    bases (:class:`BDWParams`, ``lambda_i = -ln(p_i)``) or as rates."""
    if isinstance(params, BDWParams):
        lam0 = 0.0 if params.p0 == 1.0 else -math.log(params.p0)
        return params.alpha, lam0, -math.log(params.p1), -math.log(params.p2)
    return params.alpha, params.lambda0, params.lambda1, params.lambda2


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


def _log_joint_pmf_at(params, vals: np.ndarray, i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """Log joint pmf at the cells ``(vals[i1], vals[i2])``: ``vals`` holds
    distinct integer-valued floats in increasing order, and the index
    arrays broadcast together (no validation).  The cells gather four DW
    log-mass tables over ``vals``, one per row of ``_RATE_MAP``, and the
    shared shock's atom; at a zero shared rate a tie reads the cells above,
    the product of the marginals.  A power past the float range gives -inf.
    """
    import numpy as np

    a, lam0, lam1, lam2 = _rates(params)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        below1, below2, above1, above2 = (
            _logpmf_arr(vals, a, lam0 * m0 + lam1 * m1 + lam2 * m2) for m0, m1, m2 in _RATE_MAP
        )
        # the tie's mass is exp(lead) - exp(trail), the shared shock's atom,
        # kept in log space: the leading term dominates at every valid point
        lead = -lam1 * np.where(vals > 0, np.power(vals, a), 0.0) + below2
        trail = -(lam0 + lam1) * np.power(vals + 1.0, a) + above2
        tie = lead + _log1mexp(lead - trail)
    # a cell's part: 0 below the diagonal, 1 above, 2 a tie, which adds -0.0
    part = (i1 >= i2).astype(np.intp)
    if lam0 != 0.0:
        part += i1 == i2
    first = np.stack([below1, above1, tie])
    second = np.stack([below2, above2, np.full(vals.shape, -0.0)])
    return first[part, i1] + second[part, i2]


def _log_tie(lam0: float, lam1: float, t: float, t_next: float, dw02: float, dw2: float) -> float:
    # the shared shock's atom at (x, x), from the powers t = x**alpha and
    # t_next = (x+1)**alpha and the DW log-masses at x of the rates
    # lambda0 + lambda2 and lambda2, as _log_joint_pmf_at reads it
    lead = -lam1 * t + dw02
    trail = -(lam0 + lam1) * t_next + dw2
    return lead + _log1mexp_float(lead - trail)


def _log_cell(rates: tuple, i: int, j: int) -> float:
    """Log joint pmf at the cell ``(i, j)`` on floats: the below / above /
    tie split of :func:`_log_joint_pmf_at`, each part a sum of scalar DW
    log-masses.  At a zero shared rate a tie is read as above, as on
    arrays."""
    a, lam0, lam1, lam2 = rates
    x, y = float(i), float(j)
    if i < j:
        return _logpmf_float(x, a, lam1) + _logpmf_float(y, a, lam0 + lam2)
    if i > j or lam0 == 0.0:
        return _logpmf_float(x, a, lam0 + lam1) + _logpmf_float(y, a, lam2)
    dw02, dw2 = _logpmf_float(x, a, lam0 + lam2), _logpmf_float(x, a, lam2)
    return _log_tie(lam0, lam1, _power(x, a), _power(x + 1.0, a), dw02, dw2)


def joint_logpmf(params, x1: int, x2: int) -> float:
    """Natural log of the joint mass at an integer pair."""
    i, j = _check_cell(x1, x2)
    return _log_cell(_rates(params), i, j)


def joint_pmf(params, x1: int, x2: int) -> float:
    """Joint probability mass at an integer pair.

    Off the diagonal the mass factorises into two DW masses; on the
    diagonal it is a difference of two products reflecting the shared
    shock's atom, evaluated stably in log space.
    """
    return math.exp(joint_logpmf(params, x1, x2))


def joint_cdf(params, x1: int, x2: int) -> float:
    """Joint distribution function ``P(X1 <= x1, X2 <= x2)``.

    Computed through the survival inclusion-exclusion identity: with weak-
    inequality survival functions, ``P(X1 > x1, X2 > x2)`` is the joint
    survival at ``(x1+1, x2+1)``, and a marginal's is the joint survival
    with the other coordinate at 0.
    """
    i, j = _check_cell(x1, x2)
    rates = _rates(params)
    f1 = 1.0 - math.exp(_log_sf(rates, i + 1, 0))
    f2 = 1.0 - math.exp(_log_sf(rates, 0, j + 1))
    return f1 + f2 - 1.0 + math.exp(_log_sf(rates, i + 1, j + 1))


def joint_pmf_grid(params, k1: int, k2: int) -> np.ndarray:
    """Joint pmf table over the rectangle [0, k1] x [0, k2].

    Returns an array of shape (k1+1, k2+1) with entry [i, j] equal to
    ``joint_pmf(params, i, j)``.  A grid of more cells than [0, K]^2 at
    the cap ``_MAX_GRID_BOUND`` is refused by name, before it is built.
    """
    import numpy as np

    k1, k2 = _count(k1, "k1"), _count(k2, "k2")
    if (k1 + 1) * (k2 + 1) > (_MAX_GRID_BOUND + 1) ** 2:
        raise _intractable_grid(max(k1, k2))
    vals = np.arange(max(k1, k2) + 1, dtype=float)
    i1, i2 = np.arange(k1 + 1)[:, None], np.arange(k2 + 1)[None, :]
    return np.exp(_log_joint_pmf_at(params, vals, i1, i2))


def _pmf_rows(params, k: int):
    """The rows of the joint pmf table over [0, k]^2: an iterator whose
    i-th item lists the masses at ``(i, 0..k)``, each bit-identical to
    ``joint_pmf(params, i, j)``, for a valid ``k`` (no validation).

    Off the diagonal a cell's log-mass is a sum of two DW log-masses
    (:func:`_log_cell`), so the table needs four DW log-mass tables over
    0..k, at the rates ``lambda1``, ``lambda0 + lambda2``, ``lambda0 +
    lambda1`` and ``lambda2``, and the powers ``y**alpha`` for y = 0..k+1;
    each row adds their entries, and a tie takes one more term.  The
    tables are built here and the rows one at a time as they are read, so
    the work is O(k) transcendental calls and k**2 exponentials, and the
    memory O(k).
    """
    a, lam0, lam1, lam2 = _rates(params)
    t = [_power(float(y), a) for y in range(k + 2)]

    def table(rate: float) -> list[float]:
        return [_logpmf_float(float(y), a, rate) for y in range(k + 1)]

    below1, below2 = table(lam1), table(lam0 + lam2)
    above1, above2 = table(lam0 + lam1), table(lam2)

    def rows():
        exp = math.exp
        for i in range(k + 1):
            if lam0 == 0.0:
                tie = above1[i] + above2[i]
            else:
                tie = _log_tie(lam0, lam1, t[i], t[i + 1], below2[i], above2[i])
            above, below = above1[i], below1[i]
            yield [exp(above + w) for w in above2[:i]] + [exp(tie)] + [
                exp(below + w) for w in below2[i + 1:]
            ]

    return rows()


def marginals(params: BDWParams) -> tuple[DWParams, DWParams]:
    """Marginal laws: ``X1 ~ DW(alpha, p0*p1)`` and ``X2 ~ DW(alpha, p0*p2)``."""
    return (
        DWParams(params.alpha, params.p0 * params.p1),
        DWParams(params.alpha, params.p0 * params.p2),
    )


def min_distribution(params: BDWParams) -> DWParams:
    """Law of ``min(X1, X2)``: a DW with survival base ``p0*p1*p2``."""
    return DWParams(params.alpha, params.p0 * params.p1 * params.p2)


def closure_min(components: list[BDWParams]) -> DWParams:
    """Law of the overall minimum across several independent BDW pairs.

    All entries must share the same shape; the survival bases multiply.
    """
    if not components:
        raise ValueError("need at least one component")
    alpha = components[0].alpha
    prod = 1.0
    for c in components:
        if c.alpha != alpha:
            raise ValueError("all components must share the same shape")
        prod *= c.p0 * c.p1 * c.p2
    return DWParams(alpha, prod)


def _second_mass(rates: tuple, j: int) -> float:
    # P(X2 = j), the DW mass of the rate lambda0 + lambda2, refused at zero
    a, lam0, _, lam2 = rates
    mass = math.exp(_logpmf_float(float(j), a, lam0 + lam2))
    if mass == 0.0:
        raise ValueError(f"conditioning event X2 = {j} has zero probability numerically")
    return mass


def cond_pmf(params, x1: int, x2: int) -> float:
    """Conditional mass ``P(X1 = x1 | X2 = x2)``."""
    i, j = _check_cell(x1, x2)
    return joint_pmf(params, i, j) / _second_mass(_rates(params), j)


def cond_sf_given_ge(params, x1: int, x2: int) -> float:
    """Conditional survival ``P(X1 >= x1 | X2 >= x2)``."""
    i, j = _check_cell(x1, x2)
    rates = _rates(params)
    denom = math.exp(_log_sf(rates, 0, j))
    if denom == 0.0:
        raise ValueError(f"conditioning event X2 >= {j} has zero probability numerically")
    return math.exp(_log_sf(rates, i, j)) / denom


def cond_sf_given_eq(params, x1: int, x2: int) -> float:
    """Conditional survival ``P(X1 >= x1 | X2 = x2)``.

    For ``x1 <= x2`` this collapses to the survival of the first
    coordinate's own component, ``p1**(x1**alpha)``: knowing the second
    coordinate's exact value pins the shared shock beyond ``x2`` already.
    """
    i, j = _check_cell(x1, x2)
    rates = _rates(params)
    a, lam0, lam1, lam2 = rates
    t = _power(float(i), a)
    if i <= j:
        return math.exp(-(t * lam1))
    # U0 and U1 outlive x1 while U2 fails at x2
    num = math.exp(-(t * (lam0 + lam1)) + _logpmf_float(float(j), a, lam2))
    return num / _second_mass(rates, j)


def mobw_sample(params: MOBWParams, rng: np.random.Generator, size=None):
    """Draw latent pairs through the shared-shock construction.

    With ``size`` given, returns an array of shape (size, 2); otherwise a
    single tuple.  Floors of the output follow the discrete pair law with
    survival bases ``exp(-lambda_i)``.
    """
    import numpy as np

    n = 1 if size is None else int(size)
    u1 = we_sample(WeibullParams(params.alpha, params.lambda1), rng, size=n)
    u2 = we_sample(WeibullParams(params.alpha, params.lambda2), rng, size=n)
    if params.lambda0 > 0:
        u0 = we_sample(WeibullParams(params.alpha, params.lambda0), rng, size=n)
        y1 = np.minimum(u1, u0)
        y2 = np.minimum(u2, u0)
    else:
        y1, y2 = u1, u2
    if size is None:
        return float(y1[0]), float(y2[0])
    return np.column_stack([y1, y2])


def sample(params, rng: np.random.Generator, size=None):
    """Draw pairs by the shock construction: the floors of the latent pair
    :func:`mobw_sample` draws at the rates :func:`to_mobw`.

    With ``size`` given, returns an array of shape (size, 2); otherwise a
    single tuple.  A lifetime past the int64 range is refused.
    """
    pairs = _floor_counts(mobw_sample(to_mobw(params), rng, size=1 if size is None else size))
    return (int(pairs[0, 0]), int(pairs[0, 1])) if size is None else pairs


# the largest bound K of a grid [0, K]^2 that is built: the (K + 1)^2 table
# of a wider grid does not fit in memory; moments' box keeps the same cap
_MAX_GRID_BOUND = 10_000


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
    two nearly equal sums.
    """
    if not 0 < epsilon <= 1e-4:
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
    if lam0 == 0.0:
        # independent coordinates on a product box: E[X1 X2; box] is
        # mean1 * mean2 / (P1 * P2) with Pi = P(Xi <= K) = 1 - qi, so the
        # covariance is the box's truncation alone, taken without cancellation
        q1, q2 = e1[-1], e2[-1]
        cov = mean1 * mean2 * (q1 + q2 - q1 * q2) / ((1.0 - q1) * (1.0 - q2))
        return BdwMoments(mean1, mean2, var1, var2, cov, cov / math.sqrt(var1 * var2), k)
    # S over [1, K]^2 split at the diagonal, where c_i[y] sums e_i[x] over
    # 1 <= x < y, less the survivals past the far edges, each counted K times
    f0, f1, f2 = e0[1:-1], e1[1:-1], e2[1:-1]
    c1, c2 = accumulate(f1, initial=0.0), accumulate(f2, initial=0.0)
    edges = e0[-1] * (e2[-1] * math.fsum(f1) + e1[-1] * math.fsum(f2) - k * e1[-1] * e2[-1])
    exy = math.fsum(
        u0 * (u1 * u2 + u2 * v1 + u1 * v2) for u0, u1, u2, v1, v2 in zip(f0, f1, f2, c1, c2)
    ) - k * edges
    cov = exy - mean1 * mean2
    corr = cov / math.sqrt(var1 * var2)
    return BdwMoments(mean1, mean2, var1, var2, cov, corr, k)


def to_mobw(params) -> MOBWParams:
    """Rates of the continuous latent model: ``lambda_i = -ln(p_i)``."""
    return MOBWParams(*_rates(params))


def from_mobw(params) -> BDWParams:
    """Survival bases from latent rates: ``p_i = exp(-lambda_i)``; a
    positive rate whose base rounds to 1 (at ``lambda0`` it would read as
    independence) is refused by name, and the law's functions take its
    rates instead."""
    names = MOBWParams._fields[1:]
    return BDWParams(params.alpha, *(_to_base(name, getattr(params, name)) for name in names))


def _dependence_report(params, k: int, checked: int) -> GridCheckReport:
    # every log-ratio of a check on the grid of bound k is lambda0 times a
    # non-negative difference of powers: the least is 0 and the largest
    # lambda0 * k**alpha, which is 0 at a zero shared rate even where the
    # power overflows; a largest ratio past the float range is refused
    a, lam0 = _rates(params)[:2]
    best = lam0 * _power(float(k), a) if lam0 > 0.0 else 0.0
    try:
        max_ratio = math.exp(best)
    except OverflowError:
        max_ratio = math.inf
    if max_ratio == math.inf:
        raise ValueError(
            f"the largest survival ratio on the grid of bound k = {k} is "
            f"exp({best!r}), past the float range: check a smaller k"
        )
    return GridCheckReport(True, 1.0, max_ratio, None, checked)


def is_tp2_on_grid(params, k: int = 10) -> GridCheckReport:
    """Order-2 total positivity of the joint survival on [0, k]^2.

    For every ``x11 <= x12`` and ``x21 <= x22`` in [0, k] the product
    ``S(x11,x21)*S(x12,x22)`` must dominate ``S(x12,x21)*S(x11,x22)``.  The
    coordinate-specific factors and the largest of the four maxima cancel,
    leaving ``p0**(a - min(b, c))`` with ``a = max(x11, x21)**alpha``, ``b =
    max(x12, x21)**alpha`` and ``c = max(x11, x22)**alpha``.  As ``a <=
    min(b, c)``, it is at least one for every law, the paper's result.  The
    report evaluates it over the T**2 rectangles, T = (k+1)(k+2)/2.
    """
    k = _count(k, "k", positive=True)
    pairs = (k + 1) * (k + 2) // 2
    return _dependence_report(params, k, pairs * pairs)


def pqd_check_on_grid(params, k: int = 10) -> GridCheckReport:
    """Positive quadrant dependence on [0, k]^2: joint survival vs product of marginals.

    The ratio reduces exactly to ``p0**(-min(x1, x2)**alpha)``, at least one
    for every law, the paper's result: the coordinatewise factors cancel and
    the shared component does the work.  Equality holds everywhere iff
    ``p0 = 1``.  The report evaluates it over the (k+1)**2 cells.
    """
    k = _count(k, "k", positive=True)
    return _dependence_report(params, k, (k + 1) ** 2)
