"""Bivariate discrete Weibull (BDW) law.

The pair is built from three independent DW components sharing one shape:
``X1 = min(U1, U0)`` and ``X2 = min(U2, U0)`` with ``Ui ~ DW(alpha, pi)``.
The shared component ``U0`` can floor both coordinates at once, so the
diagonal ``x1 == x2`` carries strictly positive mass whenever ``p0 < 1``,
and ``p0 = 1`` (a never-failing shock) makes the coordinates independent.

The joint survival function, with weak inequalities on both coordinates, is

    S(x1, x2) = p1**(x1**alpha) * p2**(x2**alpha) * p0**(max(x1, x2)**alpha)

and all probability computations below are exact rearrangements of its
rectangle differences, evaluated in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .univariate import DWParams, _floor_counts, _logpmf_arr, dw_pmf, dw_sf

__all__ = [
    "BDWParams",
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
    "moments",
    "to_mobw",
    "from_mobw",
    "is_tp2_on_grid",
    "pqd_check_on_grid",
]


@dataclass(frozen=True)
class BDWParams:
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


@dataclass(frozen=True)
class BivariateGeomParams:
    """Bivariate geometric law: the shape-one special case of :class:`BDWParams`."""

    p0: float
    p1: float
    p2: float

    def as_bdw(self) -> BDWParams:
        return BDWParams(1.0, self.p0, self.p1, self.p2)


@dataclass(frozen=True)
class BdwMoments:
    """First and second moments of a BDW law from a truncated double sum."""

    mean1: float
    mean2: float
    var1: float
    var2: float
    covariance: float
    correlation: float
    truncation_bound: int


@dataclass(frozen=True)
class GridCheckReport:
    """Result of an inequality sweep over a finite grid of survival ratios."""

    passed: bool
    worst_ratio: float
    max_ratio: float
    witness: tuple | None
    checked: int


def _check_cell(x1, x2) -> tuple[int, int]:
    for v in (x1, x2):
        if v < 0 or v != int(v):
            raise ValueError(f"support is pairs of non-negative integers, got ({x1}, {x2})")
    return int(x1), int(x2)


def joint_sf(params: BDWParams, x1: float, x2: float) -> float:
    """Joint survival ``P(X1 >= x1, X2 >= x2)`` for real non-negative arguments.

    Both inequalities are weak; non-integer arguments are floored, matching
    the univariate convention.
    """
    if x1 < 0 or x2 < 0:
        raise ValueError("arguments must be non-negative")
    a = params.alpha
    t1 = float(math.floor(x1)) ** a
    t2 = float(math.floor(x2)) ** a
    tz = max(t1, t2)
    return math.exp(
        t1 * math.log(params.p1) + t2 * math.log(params.p2) + tz * math.log(params.p0)
    )


def _partition(x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of the cells below (``x1 < x2``), above and on the diagonal."""
    below = x1 < x2
    above = x1 > x2
    return below, above, ~(below | above)


def _fill_log_joint_pmf(out, x1, x2, parts, dw, power, log1mexp):
    """Fill ``out`` with the joint log-pmf at the cells ``(x1, x2)``, part by part.

    ``parts`` holds the masks of :func:`_partition`.  The three primitives
    take a rate ``r`` as flags over ``(lambda0, lambda1, lambda2)``:
    ``dw(y, rates)`` is the DW log-pmf at ``y`` with survival base
    ``exp(-r)``, ``power(y, rates)`` is ``-r * y**alpha``, and
    ``log1mexp(u)`` is ``log(1 - exp(-u))``.  Values and derivatives pass
    their own primitives and share this split.
    """
    r1, r2 = (0, 1, 0), (0, 0, 1)
    r01, r02 = (1, 1, 0), (1, 0, 1)
    below, above, ties = parts
    if below.any():
        out[below] = dw(x1[below], r1) + dw(x2[below], r02)
    if above.any():
        out[above] = dw(x1[above], r01) + dw(x2[above], r2)
    if ties.any():
        x = x1[ties]
        # the tie's mass is exp(lead) - exp(trail), the shared shock's atom,
        # kept in log space: the leading term dominates at every valid point
        lead = power(x, r1) + dw(x, r02)
        trail = power(x + 1.0, r01) + dw(x, r2)
        out[ties] = lead + log1mexp(lead - trail)
    return out


def _log_joint_pmf_arr(params: BDWParams, x1: np.ndarray, x2: np.ndarray, parts) -> np.ndarray:
    """Log joint pmf at the cells ``(x1, x2)``, arrays of one shape of
    integer-valued floats split by ``parts`` (no validation)."""
    a = params.alpha
    lnp0, lnp1, lnp2 = math.log(params.p0), math.log(params.p1), math.log(params.p2)

    def log_base(rates):
        return lnp0 * rates[0] + lnp1 * rates[1] + lnp2 * rates[2]

    def dw(y, rates):
        return _logpmf_arr(y, a, log_base(rates))

    def power(y, rates):
        return np.where(y > 0, np.power(y, a), 0.0) * log_base(rates)

    def log1mexp(u):
        with np.errstate(invalid="ignore"):
            return np.where(u > 0, np.log1p(-np.exp(-u)), -np.inf)

    if params.p0 == 1.0:
        # independence: a tie has no shared-shock atom, and the product the
        # cells above take is then the product of the marginals; it avoids
        # the atom's difference of two nearly equal terms
        below, above, ties = parts
        parts = (below, above | ties, np.zeros_like(ties))
    return _fill_log_joint_pmf(np.empty(x1.shape), x1, x2, parts, dw, power, log1mexp)


def joint_logpmf(params: BDWParams, x1: int, x2: int) -> float:
    """Natural log of the joint mass at an integer pair."""
    i, j = _check_cell(x1, x2)
    g1, g2 = np.asarray([float(i)]), np.asarray([float(j)])
    return float(_log_joint_pmf_arr(params, g1, g2, _partition(g1, g2))[0])


def joint_pmf(params: BDWParams, x1: int, x2: int) -> float:
    """Joint probability mass at an integer pair.

    Off the diagonal the mass factorises into two DW masses; on the
    diagonal it is a difference of two products reflecting the shared
    shock's atom, evaluated stably in log space.
    """
    return math.exp(joint_logpmf(params, x1, x2))


def joint_cdf(params: BDWParams, x1: int, x2: int) -> float:
    """Joint distribution function ``P(X1 <= x1, X2 <= x2)``.

    Computed through the survival inclusion-exclusion identity: with weak-
    inequality survival functions, ``P(X1 > x1, X2 > x2)`` is the joint
    survival at ``(x1+1, x2+1)``.
    """
    i, j = _check_cell(x1, x2)
    m1, m2 = marginals(params)
    f1 = 1.0 - dw_sf(m1, i + 1)
    f2 = 1.0 - dw_sf(m2, j + 1)
    return f1 + f2 - 1.0 + joint_sf(params, i + 1, j + 1)


def joint_pmf_grid(params: BDWParams, k1: int, k2: int) -> np.ndarray:
    """Joint pmf table over the rectangle [0, k1] x [0, k2].

    Returns an array of shape (k1+1, k2+1) with entry [i, j] equal to
    ``joint_pmf(params, i, j)``.
    """
    if k1 < 0 or k2 < 0:
        raise ValueError("grid bounds must be non-negative")
    g1, g2 = np.broadcast_arrays(
        np.arange(k1 + 1, dtype=float)[:, None], np.arange(k2 + 1, dtype=float)[None, :]
    )
    return np.exp(_log_joint_pmf_arr(params, g1, g2, _partition(g1, g2)))


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


def cond_pmf(params: BDWParams, x1: int, x2: int) -> float:
    """Conditional mass ``P(X1 = x1 | X2 = x2)``."""
    i, j = _check_cell(x1, x2)
    _, m2 = marginals(params)
    denom = dw_pmf(m2, j)
    if denom == 0.0:
        raise ValueError(f"conditioning event X2 = {j} has zero probability numerically")
    return joint_pmf(params, i, j) / denom


def cond_sf_given_ge(params: BDWParams, x1: int, x2: int) -> float:
    """Conditional survival ``P(X1 >= x1 | X2 >= x2)``."""
    i, j = _check_cell(x1, x2)
    _, m2 = marginals(params)
    denom = dw_sf(m2, j)
    if denom == 0.0:
        raise ValueError(f"conditioning event X2 >= {j} has zero probability numerically")
    return joint_sf(params, i, j) / denom


def cond_sf_given_eq(params: BDWParams, x1: int, x2: int) -> float:
    """Conditional survival ``P(X1 >= x1 | X2 = x2)``.

    For ``x1 <= x2`` this collapses to the survival of the first
    coordinate's own component, ``p1**(x1**alpha)``: knowing the second
    coordinate's exact value pins the shared shock beyond ``x2`` already.
    """
    i, j = _check_cell(x1, x2)
    a = params.alpha
    if i <= j:
        return math.exp(float(i) ** a * math.log(params.p1))
    _, m2 = marginals(params)
    num = math.exp(
        float(i) ** a * math.log(params.p0 * params.p1)
        + _logpmf_arr(np.asarray([float(j)]), a, math.log(params.p2))[0]
    )
    denom = dw_pmf(m2, j)
    if denom == 0.0:
        raise ValueError(f"conditioning event X2 = {j} has zero probability numerically")
    return num / denom


def sample(params: BDWParams, rng: np.random.Generator, size=None):
    """Draw pairs by the shock construction: the floors of the latent pair
    :func:`bdw.mobw.mobw_sample` draws at the rates :func:`to_mobw`.

    With ``size`` given, returns an array of shape (size, 2); otherwise a
    single tuple.  A lifetime past the int64 range is refused.
    """
    from .mobw import mobw_sample

    pairs = _floor_counts(mobw_sample(to_mobw(params), rng, size=1 if size is None else size))
    return (int(pairs[0, 0]), int(pairs[0, 1])) if size is None else pairs


# the largest bound K of a grid [0, K]^2 that is built: the (K + 1)^2 table
# of a wider grid does not fit in memory
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


def _table_bound(params: BDWParams, epsilon: float = 1e-6) -> int:
    """Smallest K >= 1 whose grid [0, K]^2 holds all but ``epsilon`` of the
    joint mass; refused past ``_MAX_GRID_BOUND``."""
    k = 1
    while 1.0 - joint_cdf(params, k, k) >= epsilon:
        k += 1
        if k > _MAX_GRID_BOUND:
            raise _intractable_grid(None, epsilon)
    return k


def _truncation_bound(params: BDWParams, epsilon: float) -> int:
    # smallest K with the heavier marginal's survival below epsilon; the
    # heavier tail has the larger survival base, so it controls both
    qmax = params.p0 * max(params.p1, params.p2)
    # the start solves qmax**(k**alpha) = epsilon, so K lies within one of
    # it; from 2**53 on a float no longer resolves one step of k and the
    # search below would not end, so such a start, far past the grid cap,
    # is refused without it
    try:
        start = (math.log(epsilon) / math.log(qmax)) ** (1.0 / params.alpha)
    except OverflowError:
        start = math.inf
    if not start < 2.0**53:
        raise _intractable_grid(None, epsilon)
    k = max(1, math.ceil(start))
    while math.exp(float(k) ** params.alpha * math.log(qmax)) >= epsilon:
        k += 1
    while k > 1 and math.exp(float(k - 1) ** params.alpha * math.log(qmax)) < epsilon:
        k -= 1
    return k


def moments(params: BDWParams, epsilon: float = 1e-10) -> BdwMoments:
    """Means, variances, covariance and correlation by truncated summation.

    The double sum runs over [0, K]^2 where K is the smallest integer at
    which the heavier marginal's survival drops below ``epsilon``; K is
    reported so callers can judge the truncation.  A K past
    ``_MAX_GRID_BOUND`` is refused before the grid is built.
    """
    if not 0 < epsilon <= 1e-4:
        raise ValueError(f"epsilon must lie in (0, 1e-4], got {epsilon}")
    k = _truncation_bound(params, epsilon)
    if k > _MAX_GRID_BOUND:
        raise _intractable_grid(k, epsilon)
    grid = joint_pmf_grid(params, k, k)
    xs = np.arange(k + 1, dtype=float)
    p1m = grid.sum(axis=1)
    p2m = grid.sum(axis=0)
    mean1 = float(xs @ p1m)
    mean2 = float(xs @ p2m)
    var1 = float(xs**2 @ p1m) - mean1**2
    var2 = float(xs**2 @ p2m) - mean2**2
    exy = float(xs @ grid @ xs)
    cov = exy - mean1 * mean2
    corr = cov / math.sqrt(var1 * var2)
    return BdwMoments(mean1, mean2, var1, var2, cov, corr, k)


def to_mobw(params: BDWParams):
    """Rates of the continuous latent model: ``lambda_i = -ln(p_i)``."""
    from .mobw import MOBWParams

    lam0 = 0.0 if params.p0 == 1.0 else -math.log(params.p0)
    return MOBWParams(params.alpha, lam0, -math.log(params.p1), -math.log(params.p2))


def from_mobw(params) -> BDWParams:
    """Survival bases from latent rates: ``p_i = exp(-lambda_i)``."""
    return BDWParams(
        params.alpha,
        1.0 if params.lambda0 == 0.0 else math.exp(-params.lambda0),
        math.exp(-params.lambda1),
        math.exp(-params.lambda2),
    )


def _grid_report(logratio: np.ndarray, coords: tuple) -> GridCheckReport:
    """Reduce a sweep's log-ratios, in sweep order, to its report.

    ``coords`` holds one array per grid coordinate, broadcastable to
    ``logratio``; the witness is the first point attaining a negative
    worst.  A NaN log-ratio (the difference of two powers that overflowed
    to inf) is skipped, as a comparison skips it.  A finite largest
    log-ratio whose ratio overflows a float is refused, naming the grid
    bound: the largest coordinate.
    """
    worst = float(np.fmin.reduce(logratio, axis=None, initial=math.inf))
    best = float(np.fmax.reduce(logratio, axis=None, initial=-math.inf))
    try:
        max_ratio = math.exp(best)
    except OverflowError:
        k = max(int(np.max(c)) for c in coords)
        raise ValueError(
            f"the largest survival ratio on the grid of bound k = {k} is "
            f"exp({best!r}), past the float range: check a smaller k"
        ) from None
    witness = None
    if worst < 0:
        at = np.unravel_index(np.argmax(logratio == worst), logratio.shape)
        witness = tuple(int(np.broadcast_to(c, logratio.shape)[at]) for c in coords)
    return GridCheckReport(worst >= 0.0, math.exp(worst), max_ratio, witness, logratio.size)


def _grid_powers(params: BDWParams, k: int) -> np.ndarray:
    # v**alpha for v in [0, k], the powers every survival ratio is made of
    if k < 1:
        raise ValueError("grid bound must be at least 1")
    return np.array([float(v) ** params.alpha for v in range(k + 1)])


def is_tp2_on_grid(params: BDWParams, k: int = 10) -> GridCheckReport:
    """Sweep the order-2 total-positivity inequality of the joint survival.

    For every ``x11 <= x12`` and ``x21 <= x22`` in [0, k] the product
    ``S(x11,x21)*S(x12,x22)`` must dominate ``S(x12,x21)*S(x11,x22)``.  The
    coordinate-specific factors cancel exactly in the ratio, which therefore
    reduces to a power of ``p0``; evaluating that reduced form keeps the
    sweep immune to spurious last-ulp violations, and makes the ratio
    identically one when ``p0 = 1``.  The sweep runs over ``(x11, x12)``,
    then ``(x21, x22)``, each in row-major order.
    """
    pw = _grid_powers(params, k)
    lo, hi = np.triu_indices(k + 1)
    x11, x12 = lo[:, None], hi[:, None]
    x21, x22 = lo[None, :], hi[None, :]
    # the largest of the four maxima appears on both sides and cancels
    # exactly; only the smaller pair survives
    logratio = math.log(params.p0) * (
        pw[np.maximum(x11, x21)]
        - np.minimum(pw[np.maximum(x12, x21)], pw[np.maximum(x11, x22)])
    )
    return _grid_report(logratio, (x11, x12, x21, x22))


def pqd_check_on_grid(params: BDWParams, k: int = 10) -> GridCheckReport:
    """Sweep positive quadrant dependence: joint survival vs product of marginals.

    The ratio reduces exactly to ``p0**(-min(x1, x2)**alpha)``: the
    coordinatewise factors cancel and the shared component does the work.
    Equality holds everywhere iff ``p0 = 1``; otherwise the boundary rows
    ``min(x1, x2) = 0`` are the only equality cells.
    """
    pw = _grid_powers(params, k)
    x1, x2 = np.ogrid[: k + 1, : k + 1]
    logratio = -math.log(params.p0) * pw[np.minimum(x1, x2)]
    return _grid_report(logratio, (x1, x2))
