"""Chi-square goodness-of-fit for fitted discrete Weibull laws.

Univariate fits are checked on the observed support with the upper tail
absorbed into the last cell (optional, on by default); bivariate fits on
the observed-support product grid with tail absorption on both axes.
The two checks differ only in how they stream their cells' counts and
expected counts on ``math``, the joint one row by row from the joint
pmf's rows and the sorted cells: one axis rule labels both, and one path
pools and scores them, with no numpy.  Adjacent cells with expected count
below one are pooled so the usual chi-square approximation is not applied.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import bivariate
from .univariate import _counts_1d, _pearson
from .weibull import _count, _log_dw, _power_step, _rate, _Record, dw_pmf, dw_sf

if TYPE_CHECKING:
    from .bivariate import BDWParams, MOBWParams
    from .datasets import BivariateDataset
    from .weibull import DWParams, WeibullParams

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


def _pool(observed: Iterable[int], expected: Iterable[float]) -> list[tuple[int, int, int, float]]:
    """Merge adjacent cells, read once as they come, rightward until every
    group's expected >= 1; a remainder short of it joins the last group, or
    stands alone when there is none.  A group is its first and last cell
    with its two sums."""
    groups: list[tuple[int, int, int, float]] = []
    first, acc_o, acc_e, last = 0, 0, 0.0, -1
    for last, (o, e) in enumerate(zip(observed, expected)):
        acc_o += o
        acc_e += e
        if acc_e >= POOL_THRESHOLD:
            groups.append((first, last, acc_o, acc_e))
            first, acc_o, acc_e = last + 1, 0, 0.0
    if first <= last:
        if groups:
            first, _, last_o, last_e = groups.pop()
            acc_o, acc_e = last_o + acc_o, last_e + acc_e
        groups.append((first, last, acc_o, acc_e))
    return groups


def _axis(top: int, absorb_tail: bool = True) -> Callable[[int], str]:
    """Cell k's label on an axis holding the values ``0..top``; with ``absorb_tail``
    the last cell also holds the tail above it, ``>=top`` when ``top > 0``."""
    last = f">={top}" if absorb_tail and top > 0 else str(top)
    return lambda k: last if k == top else str(k)


def _report(
    name: Callable[[int], str], observed: Iterable[int], expected: Iterable[float], df_penalty: int
) -> ChiSquareReport:
    """Pool and score a row-major table of counts against expected counts.
    ``name(k)`` labels cell k; a group of one cell keeps its label, of two
    reads ``a+b``, and of more ``first..last``."""
    df_penalty = _count(df_penalty, "df_penalty")
    groups = _pool(observed, expected)
    if len(groups) < 2:
        raise ValueError("fewer than two cells after pooling")
    df = len(groups) - 1 - df_penalty
    if df < 1:
        raise ValueError("no degrees of freedom left after the penalty")
    _, _, obs, exp = zip(*groups)
    stat = _pearson(obs, exp)
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
    validated as the DW fits validate theirs, and a support of more cells
    than the joint check's grid may hold is refused by name.  The cells
    stream once, with one power step per cell, in memory that does not grow.
    """
    xs = _counts_1d(data)
    top = max(xs)
    cap = bivariate._MAX_GRID_BOUND**2
    if top >= cap:
        raise ValueError(
            f"the fit check's support 0..{top} holds {top + 1} cells, "
            f"more than the {cap} of a tractable grid"
        )
    alpha, rate = _rate(params)
    seen, n = Counter(xs), len(xs)

    def expected() -> Iterator[float]:
        # from the first cell whose survival exp(-rate*t) underflows on,
        # every mass is 0
        y, (t, d) = 0, _power_step(0.0, alpha)
        while y < top and t * rate < 746.0:
            yield n * math.exp(_log_dw(t, d, rate))
            y += 1
            t, d = _power_step(float(y), alpha)
        yield from repeat(0.0, top - y)
        yield n * (dw_sf(params, top) if absorb_tail else dw_pmf(params, top))

    observed = map(seen.get, range(top + 1), repeat(0))
    return _report(_axis(top, absorb_tail), observed, expected(), df_penalty)


def chisq_bdw(
    data: BivariateDataset, params: BDWParams | MOBWParams, df_penalty: int = 0
) -> ChiSquareReport:
    """Chi-square fit check of paired counts against a fitted joint law,
    given as survival bases or as the rates of a fit.

    The cell layout is the observed-support product grid; the last row
    and column absorb the tail mass on their axis, so expected counts sum
    to ``n``.  Cells with small expected counts are pooled along the
    row-major scan (rightward within a row, then on to the next row).  A
    grid past the cap of :func:`bdw.bivariate.joint_pmf_grid` is refused by
    name before any row is built; the rows stream once, in memory of one.
    """
    cells = data.cells
    top1, top2 = cells[-1][0][0], max(x2 for (_, x2), _, _ in cells)
    bivariate._check_grid(top1, top2)
    n, s = data.n, bivariate.joint_sf

    def observed() -> Iterator[list[int]]:
        # each row's counts, off the cells sorted by row
        c = 0
        for i in range(top1 + 1):
            row = [0] * (top2 + 1)
            while c < len(cells) and cells[c][0][0] == i:
                row[cells[c][0][1]] = cells[c][1]
                c += 1
            yield row

    def expected() -> Iterator[list[float]]:
        # interior cells take the pmf; the last row and column absorb the
        # tail mass on their axis as differences of the joint survival
        for i, row in enumerate(bivariate._pmf_rows(params, top1, top2)):
            if i < top1:
                row[top2] = s(params, i, top2) - s(params, i + 1, top2)
            else:
                row = [s(params, i, j) - s(params, i, j + 1) for j in range(top2)]
                row.append(s(params, i, top2))
            yield [n * m for m in row]

    axis1, axis2, w = _axis(top1), _axis(top2), top2 + 1
    return _report(
        lambda k: f"({axis1(k // w)},{axis2(k % w)})",
        chain.from_iterable(observed()),
        chain.from_iterable(expected()),
        df_penalty,
    )
