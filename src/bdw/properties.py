"""The paper's results on the joint law: marginals, minima, conditionals
and dependence.

The marginals and the law of the minimum (:func:`marginals`,
:func:`min_distribution`, :func:`closure_min`) add the joint law's rates
(:func:`bdw.bivariate._rates`) and return DW laws in bases; the
conditionals (:func:`cond_pmf`, :func:`cond_sf_given_ge`,
:func:`cond_sf_given_eq`) read its survival; the dependence checks
(:func:`is_tp2_on_grid`, :func:`pqd_check_on_grid`) evaluate the paper's
closed forms over a grid.  No command runs these, so no command loads
this module.
"""

from __future__ import annotations

import math

from .bivariate import GridCheckReport, _check_cell, _log_sf, _rates, joint_pmf
from .weibull import DWParams, _count, _left_sum, _logpmf_float, _power, _to_base

__all__ = [
    "marginals",
    "min_distribution",
    "closure_min",
    "cond_pmf",
    "cond_sf_given_ge",
    "cond_sf_given_eq",
    "is_tp2_on_grid",
    "pqd_check_on_grid",
]


def marginals(params) -> tuple[DWParams, DWParams]:
    """Marginal laws: ``X1`` and ``X2`` are DW with rates ``lambda0 + lambda1``
    and ``lambda0 + lambda2``, the survival bases ``p0*p1`` and ``p0*p2``."""
    a, lam0, lam1, lam2 = _rates(params)
    return (
        DWParams(a, _to_base("lambda0 + lambda1", lam0 + lam1)),
        DWParams(a, _to_base("lambda0 + lambda2", lam0 + lam2)),
    )


def min_distribution(params) -> DWParams:
    """Law of ``min(X1, X2)``: a DW with rate ``lambda0 + lambda1 + lambda2``,
    the survival base ``p0*p1*p2``."""
    a, lam0, lam1, lam2 = _rates(params)
    return DWParams(a, _to_base("lambda0 + lambda1 + lambda2", lam0 + lam1 + lam2))


def closure_min(components: list) -> DWParams:
    """Law of the overall minimum across several independent pairs.

    All entries must share the same shape; their total rates add.
    """
    if not components:
        raise ValueError("need at least one component")
    rates = [_rates(c) for c in components]
    if any(r[0] != rates[0][0] for r in rates):
        raise ValueError("all components must share the same shape")
    total = _left_sum(lam0 + lam1 + lam2 for _, lam0, lam1, lam2 in rates)
    return DWParams(rates[0][0], _to_base("sum(lambda0 + lambda1 + lambda2)", total))


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
