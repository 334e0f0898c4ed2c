"""Chi-square goodness-of-fit for fitted discrete Weibull laws.

Univariate fits are checked on the observed support with the upper tail
absorbed into the last cell (optional, on by default); bivariate fits on
the observed-support product grid with tail absorption on both axes.
The two checks differ only in how they fill their count and mass tables:
one axis rule labels both, and one path pools and scores them.  Adjacent
cells with expected count below one are pooled so the usual chi-square
approximation is not applied to near-empty cells.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import bivariate
from .univariate import _count, _dataset_1d, _logpmf_arr, _pearson, _rate, _Record, dw_sf

if TYPE_CHECKING:
    from .bivariate import BDWParams, MOBWParams
    from .datasets import BivariateDataset
    from .univariate import DWParams, WeibullParams

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
        Non-negative test statistic; NaN is refused, and ``inf`` has tail 0.
    df : int
        Positive integer degrees of freedom; a fraction, an infinity or NaN
        is refused.

    Returns
    -------
    float
        ``P(X > x)`` in closed form.  With ``h = x/2`` and ``m = df // 2``
        it is ``exp(-h) * sum(h**j / j!, j < m)`` for even ``df``, and
        ``erfc(sqrt(h)) + exp(-h) * sum(h**(j + 1/2) / Gamma(j + 3/2), j < m)``
        for odd ``df``.  The terms are summed in log space, so the result
        keeps its relative accuracy far into the tail.
    """
    df = _count(df, "degrees of freedom", positive=True)
    if not x >= 0:
        raise ValueError(f"statistic must be non-negative, got {x}")
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = x / 2.0
    m, odd = divmod(df, 2)
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


class ChiSquareReport(_Record):
    """Chi-square statistic with its cell layout and p-value."""

    statistic: float
    df: int
    p_value: float
    cells: tuple[tuple[str, int, float], ...]


def _pool(observed: list[int], expected: list[float]) -> list[tuple[int, int, int, float]]:
    """Merge adjacent cells rightward until every group's expected >= 1; a
    remainder short of it joins the last group, or stands alone when there
    is none.  A group is its first and last cell with its two sums."""
    groups: list[tuple[int, int, int, float]] = []
    first, acc_o, acc_e = 0, 0, 0.0
    for k, (o, e) in enumerate(zip(observed, expected)):
        acc_o += o
        acc_e += e
        if acc_e >= POOL_THRESHOLD:
            groups.append((first, k, acc_o, acc_e))
            first, acc_o, acc_e = k + 1, 0, 0.0
    if first < len(observed):
        if groups:
            first, _, last_o, last_e = groups.pop()
            acc_o, acc_e = last_o + acc_o, last_e + acc_e
        groups.append((first, len(observed) - 1, acc_o, acc_e))
    return groups


def _axis(top: int, absorb_tail: bool = True) -> list[str]:
    """Labels of an axis holding the values ``0..top``; with ``absorb_tail``
    the last cell also holds the tail above it, ``>=top`` when ``top > 0``."""
    return [str(y) for y in range(top)] + [
        f">={top}" if absorb_tail and top > 0 else str(top)
    ]


def _report(
    name: Callable[[int], str], counts: np.ndarray, mass: np.ndarray, df_penalty: int
) -> ChiSquareReport:
    """Pool and score a row-major table of counts against its cell masses.
    ``name(k)`` labels cell k; a group of one cell keeps its label, of two
    reads ``a+b``, and of more ``first..last``."""
    df_penalty = _count(df_penalty, "df_penalty")
    n = int(counts.sum())
    groups = _pool(counts.ravel().tolist(), (n * mass).ravel().tolist())
    if len(groups) < 2:
        raise ValueError("fewer than two cells after pooling")
    df = len(groups) - 1 - df_penalty
    if df < 1:
        raise ValueError("no degrees of freedom left after the penalty")
    _, _, obs, exp = zip(*groups)
    stat = float(_pearson(np.asarray(obs, dtype=float), np.asarray(exp)))
    cells = tuple(
        (name(a) if a == b else name(a) + ("+" if b == a + 1 else "..") + name(b), o, e)
        for a, b, o, e in groups
    )
    return ChiSquareReport(statistic=stat, df=df, p_value=chisq_upper_tail(stat, df), cells=cells)


def chisq_dw(
    data: Sequence[int],
    params: DWParams | WeibullParams,
    absorb_tail: bool = True,
    df_penalty: int = 0,
) -> ChiSquareReport:
    """Chi-square fit check of a univariate sample against a fitted law,
    given as its survival base or as the rate of a fit.

    Cells are the observed support values ``{0, ..., max}``.  With
    ``absorb_tail`` the last cell also absorbs the mass above the sample
    maximum, so expected counts sum to ``n``; without it each cell keeps
    its bare probability mass, which matches how the single-coordinate
    fit tables in common use report the statistic.  ``df_penalty``
    subtracts fitted-parameter degrees from ``#cells - 1``.  The sample is
    validated as the DW fits validate theirs.
    """
    values = _dataset_1d(data).astype(np.int64)
    top = int(values.max())
    logs = _logpmf_arr(np.arange(top + 1, dtype=float), *_rate(params))
    mass = np.array([math.exp(v) for v in logs.tolist()])
    if absorb_tail:
        mass[top] = dw_sf(params, top)
    return _report(_axis(top, absorb_tail).__getitem__, np.bincount(values), mass, df_penalty)


def chisq_bdw(
    data: BivariateDataset, params: BDWParams | MOBWParams, df_penalty: int = 0
) -> ChiSquareReport:
    """Chi-square fit check of paired counts against a fitted joint law,
    given as survival bases or as the rates of a fit.

    The cell layout is the observed-support product grid; the last row
    and column absorb the tail mass on their axis, so expected counts sum
    to ``n``.  Cells with small expected counts are pooled along the
    row-major scan (rightward within a row, then on to the next row).
    """
    x1, x2, w = data.cell_arrays
    top1, top2 = int(x1.max()), int(x2.max())
    # interior cells take the pmf; the last row and column absorb the tail
    # mass on their axis as differences of the joint survival
    mass = bivariate.joint_pmf_grid(params, top1, top2)
    s = bivariate.joint_sf
    for j in range(top2):
        mass[top1, j] = s(params, top1, j) - s(params, top1, j + 1)
    for i in range(top1):
        mass[i, top2] = s(params, i, top2) - s(params, i + 1, top2)
    mass[top1, top2] = s(params, top1, top2)
    # the counts come after the masses, whose grid refuses a size past the cap
    counts = np.zeros(mass.shape, dtype=np.int64)
    counts[x1.astype(np.int64), x2.astype(np.int64)] = w

    axis1, axis2, w = _axis(top1), _axis(top2), top2 + 1
    return _report(lambda k: f"({axis1[k // w]},{axis2[k % w]})", counts, mass, df_penalty)
