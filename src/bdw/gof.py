"""Chi-square goodness-of-fit for fitted discrete Weibull laws.

Univariate fits are checked on the observed support with the upper tail
absorbed into the last cell (optional, on by default); bivariate fits on
the observed-support product grid with tail absorption on both axes.
Adjacent cells with expected count below one are pooled so the usual
chi-square approximation is not applied to near-empty cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import bivariate
from .bivariate import BDWParams
from .univariate import DWParams, dw_pmf, dw_sf

if TYPE_CHECKING:
    from .fit_ml import BivariateDataset

__all__ = [
    "ChiSquareReport",
    "chisq_upper_tail",
    "chisq_dw",
    "chisq_bdw",
]

# expected counts below this are pooled with a neighbour
POOL_THRESHOLD = 1.0


def chisq_upper_tail(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square law with ``df`` degrees.

    Parameters
    ----------
    x : float
        Non-negative test statistic.
    df : int
        Positive integer degrees of freedom.

    Returns
    -------
    float
        ``P(X > x)`` in closed form.  With ``h = x/2`` and ``m = df // 2``
        it is ``exp(-h) * sum(h**j / j!, j < m)`` for even ``df``, and
        ``erfc(sqrt(h)) + exp(-h) * sum(h**(j + 1/2) / Gamma(j + 3/2), j < m)``
        for odd ``df``.  The terms are summed in log space, so the result
        keeps its relative accuracy far into the tail.
    """
    if df <= 0 or df != int(df):
        raise ValueError("degrees of freedom must be a positive integer")
    if x < 0:
        raise ValueError("statistic must be non-negative")
    if x == 0:
        return 1.0
    h = x / 2.0
    m, odd = divmod(int(df), 2)
    lead = math.erfc(math.sqrt(h)) if odd else 0.0
    if m == 0:
        return lead
    logs = [
        (j + 0.5 * odd) * math.log(h) - h - math.lgamma(j + 1.0 + 0.5 * odd)
        for j in range(m)
    ]
    top = max(logs)
    tail = math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
    return min(1.0, lead + tail)


@dataclass(frozen=True)
class ChiSquareReport:
    """Chi-square statistic with its cell layout and p-value."""

    statistic: float
    df: int
    p_value: float
    cells: tuple[tuple[str, int, float], ...]


def _pool(
    labels: list[str], observed: list[int], expected: list[float]
) -> tuple[list[str], list[int], list[float]]:
    """Merge adjacent cells rightward until every group's expected >= 1."""
    glabels: list[list[str]] = []
    gobs: list[int] = []
    gexp: list[float] = []
    acc_l: list[str] = []
    acc_o = 0
    acc_e = 0.0
    for lab, o, e in zip(labels, observed, expected):
        acc_l.append(lab)
        acc_o += o
        acc_e += e
        if acc_e >= POOL_THRESHOLD:
            glabels.append(acc_l)
            gobs.append(acc_o)
            gexp.append(acc_e)
            acc_l, acc_o, acc_e = [], 0, 0.0
    if acc_l:
        if glabels:
            glabels[-1].extend(acc_l)
            gobs[-1] += acc_o
            gexp[-1] += acc_e
        else:
            glabels.append(acc_l)
            gobs.append(acc_o)
            gexp.append(acc_e)
    return (["+".join(g) for g in glabels], gobs, gexp)


def _report(
    labels: list[str], observed: list[int], expected: list[float], df_penalty: int
) -> ChiSquareReport:
    labels, obs, exp = _pool(labels, observed, expected)
    if len(obs) < 2:
        raise ValueError("fewer than two cells after pooling")
    df = len(obs) - 1 - df_penalty
    if df < 1:
        raise ValueError("no degrees of freedom left after the penalty")
    o = np.asarray(obs, dtype=float)
    e = np.asarray(exp, dtype=float)
    stat = float(np.sum((o - e) ** 2 / e))
    cells = tuple(
        (lab, int(oo), float(ee)) for lab, oo, ee in zip(labels, obs, exp)
    )
    return ChiSquareReport(
        statistic=stat, df=df, p_value=chisq_upper_tail(stat, df), cells=cells
    )


def chisq_dw(
    data: Sequence[int],
    params: DWParams,
    absorb_tail: bool = True,
    df_penalty: int = 0,
) -> ChiSquareReport:
    """Chi-square fit check of a univariate sample against a fitted law.

    Cells are the observed support values ``{0, ..., max}``.  With
    ``absorb_tail`` the last cell also absorbs the mass above the sample
    maximum, so expected counts sum to ``n``; without it each cell keeps
    its bare probability mass, which matches how the single-coordinate
    fit tables in common use report the statistic.  ``df_penalty``
    subtracts fitted-parameter degrees from ``#cells - 1``.
    """
    values = [int(v) for v in data]
    if not values:
        raise ValueError("data must be non-empty")
    if any(v < 0 for v in values):
        raise ValueError("data must be non-negative")
    top = max(values)
    counts = np.bincount(values, minlength=top + 1)
    n = len(values)
    labels = []
    observed = []
    expected = []
    for y in range(top + 1):
        if y == top and absorb_tail:
            labels.append(f">={y}" if y > 0 else "all")
            expected.append(n * dw_sf(params, y))
        else:
            labels.append(str(y))
            expected.append(n * dw_pmf(params, y))
        observed.append(int(counts[y]))
    return _report(labels, observed, expected, df_penalty)


def chisq_bdw(
    data: BivariateDataset, params: BDWParams, df_penalty: int = 0
) -> ChiSquareReport:
    """Chi-square fit check of paired counts against a fitted joint law.

    The cell layout is the observed-support product grid; the last row
    and column absorb the tail mass on their axis, so expected counts sum
    to ``n``.  Cells with small expected counts are pooled along the
    row-major scan (rightward within a row, then on to the next row).
    """
    x1, x2, w = data.cell_arrays
    top1, top2 = int(x1.max()), int(x2.max())
    n = data.n
    counts = np.zeros((top1 + 1, top2 + 1), dtype=np.int64)
    counts[x1.astype(np.int64), x2.astype(np.int64)] = w

    # interior cells take the pmf; the last row and column absorb the tail
    # mass on their axis as differences of the joint survival
    mass = bivariate.joint_pmf_grid(params, top1, top2)
    s = bivariate.joint_sf
    for j in range(top2):
        mass[top1, j] = s(params, top1, j) - s(params, top1, j + 1)
    for i in range(top1):
        mass[i, top2] = s(params, i, top2) - s(params, i + 1, top2)
    mass[top1, top2] = s(params, top1, top2)

    labels = []
    observed = []
    expected = []
    for i in range(top1 + 1):
        for j in range(top2 + 1):
            mark1 = f">={i}" if i == top1 and top1 > 0 else str(i)
            mark2 = f">={j}" if j == top2 and top2 > 0 else str(j)
            labels.append(f"({mark1},{mark2})")
            observed.append(int(counts[i, j]))
            expected.append(n * float(mass[i, j]))
    return _report(labels, observed, expected, df_penalty)
