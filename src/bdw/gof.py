"""Chi-square goodness-of-fit of a fitted bivariate discrete Weibull law.

:func:`chisq_bdw` checks paired counts on the observed-support product
grid with the tail absorbed on both axes.  It streams the cells' counts
and expected counts on ``math``, row by row from the joint pmf's rows and
the sorted cells, into the table path of the DW fit check, which lives
beside the DW fits in :mod:`bdw.univariate` (one axis rule, one pool and
one Pearson score, with no numpy).  The DW check's names are imported
here too, so ``bdw.gof.chisq_dw`` and pickles that name this module
still resolve.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterator

from . import bivariate
from .univariate import POOL_THRESHOLD, ChiSquareReport, _axis, _pool, _report
from .univariate import chisq_dw, chisq_upper_tail

if TYPE_CHECKING:
    from .bivariate import BDWParams, MOBWParams
    from .datasets import BivariateDataset

__all__ = [
    "ChiSquareReport",
    "chisq_upper_tail",
    "chisq_dw",
    "chisq_bdw",
]


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
