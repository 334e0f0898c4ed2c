"""The data layer: the container of paired counts and the bundled data.

:class:`BivariateDataset` holds the observed integer pairs that every
fit, fit check and command reads; it refuses a malformed row by its index
and lays the rows' distinct cells once on a table of their values.
:func:`_cell_log_masses` reads the cells' joint log-masses off it, for the
likelihood of the ML fit and the latent imputation alike.

Two small bivariate count datasets ship with the package so every fitting
command can be exercised without external files.

``football``: 26 match records from a season of a European club football
competition where both the home team scored and the match had a kick goal;
the first coordinate counts goals scored after the first kick goal of the
match and the second counts goals scored after the first goal of any kind,
so ties occur whenever the first goal was a kick goal.

``nasal``: 30 patients' nasal drainage severity scores (0–3) on two
consecutive days of a common-cold study.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from . import bivariate
from .univariate import _MAX_COUNT, _Record

if TYPE_CHECKING:
    import numpy as np

_ALL_TIES = "sample is all ties: coordinate rates are not identifiable"


class BivariateDataset(_Record):
    """Immutable container of observed integer pairs.

    The compression to distinct cells drives everything downstream: all
    likelihood and imputation work is done once per distinct cell and
    weighted by its count, which also makes every estimate invariant to row
    order.  The cells lie on one table of their values (:attr:`value_table`),
    whose weights give the row counts below, above and on the diagonal and
    the refusals of a sample that leaves a rate unidentified.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("dataset is empty")
        clean = []
        for row, pair in enumerate(self.pairs):
            try:
                x1, x2 = pair
            except (TypeError, ValueError):
                raise ValueError(f"row {row}: expected two entries, got {pair!r}") from None
            try:
                counts = x1 >= 0 and x2 >= 0 and x1 == int(x1) and x2 == int(x2)
            except (TypeError, ValueError, ArithmeticError):
                counts = False  # an entry that is no number, or is infinite
            if not counts:
                raise ValueError(f"row {row}: entries must be non-negative integers, got {pair!r}")
            x1, x2 = int(x1), int(x2)
            if max(x1, x2) > _MAX_COUNT:
                raise ValueError(
                    f"row {row}: the count {max(x1, x2)} exceeds the largest count 2**63 - 1"
                )
            clean.append((x1, x2))
        object.__setattr__(self, "pairs", tuple(clean))

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[int]]) -> "BivariateDataset":
        return cls(tuple(pairs))

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def n_below(self) -> int:
        """Rows with x1 < x2."""
        return int(self.value_table[3][0].sum())

    @property
    def n_above(self) -> int:
        """Rows with x1 > x2."""
        return int(self.value_table[3][2].sum())

    @property
    def n_ties(self) -> int:
        """Rows with x1 = x2."""
        return int(self.value_table[3][4].sum())

    @cached_property
    def cells(self) -> tuple[tuple[tuple[int, int], int, int], ...]:
        """Distinct cells as (cell, count, first row index), sorted by cell."""
        seen: dict[tuple[int, int], list] = {}
        for row, cell in enumerate(self.pairs):
            rec = seen.setdefault(cell, [cell, 0, row])
            rec[1] += 1
        return tuple((c, k, r) for c, k, r in sorted(seen.values(), key=lambda t: t[0]))

    @cached_property
    def cell_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:attr:`cells` as read-only float arrays: first coordinate, second, count."""
        import numpy as np

        cols = np.array([(c[0], c[1], k) for c, k, _ in self.cells], dtype=float)
        cols.flags.writeable = False
        return cols[:, 0], cols[:, 1], cols[:, 2]

    @cached_property
    def value_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:attr:`cells` on one table of their distinct values, as read-only
        arrays ``(vals, i1, i2, weights)``: cell c is ``(vals[i1[c]],
        vals[i2[c]])``, with ``vals`` increasing.  Row k < 4 of the 5 x K
        ``weights`` counts the values of the k-th DW law of
        ``bivariate._RATE_MAP`` over the rows, and row 4 the ties."""
        import numpy as np

        x1, x2, w = self.cell_arrays
        vals, where = np.unique(np.concatenate([x1, x2]), return_inverse=True)
        i1, i2 = where[: w.size], where[w.size :]
        below, above = i1 < i2, i1 > i2
        parts = ((below, i1), (below, i2), (above, i1), (above, i2), (i1 == i2, i1))
        weights = np.array([np.bincount(i[m], w[m], minlength=vals.size) for m, i in parts])
        for arr in (vals, i1, i2, weights):
            arr.flags.writeable = False
        return vals, i1, i2, weights

    def column(self, which: str) -> np.ndarray:
        """One of the three univariate views: ``x1``, ``x2`` or ``min``."""
        import numpy as np

        arr = np.asarray(self.pairs, dtype=np.int64)
        if which == "x1":
            return arr[:, 0]
        if which == "x2":
            return arr[:, 1]
        if which == "min":
            return arr.min(axis=1)
        raise ValueError(f"column must be x1, x2 or min, got {which!r}")

    def require_untied_rows(self) -> None:
        """Raise unless some row has ``x1 != x2``: on ties alone the shared
        shock explains every row and the coordinate rates are not
        identifiable."""
        if self.n_ties == self.n:
            raise ValueError(_ALL_TIES)

    def require_both_orders(self) -> None:
        """Raise unless each coordinate is the strictly smaller one in some
        row.  Only a row with ``x1 < x2`` shows the first coordinate's own
        component failing first: without one, ``lambda1`` has no evidence
        and the fit drives it to zero.  Likewise ``lambda2`` and ``x1 > x2``."""
        weights = self.value_table[3]
        for rate, order, row in (("lambda1", "x1 < x2", 0), ("lambda2", "x1 > x2", 2)):
            if not weights[row].any():
                raise ValueError(
                    f"no row has {order}: the coordinate rate {rate} is not identifiable"
                )

    def swapped(self) -> "BivariateDataset":
        """The same rows with the coordinates exchanged."""
        return BivariateDataset(tuple((b, a) for a, b in self.pairs))


def _cell_log_masses(theta: bivariate.MOBWParams, data: BivariateDataset) -> np.ndarray:
    """Log joint mass of each of ``data``'s distinct cells under ``theta``.

    A cell whose probability underflows to zero aborts with that cell's
    first row index, since a silent ``-inf`` would poison every comparison
    built on top.
    """
    import numpy as np

    vals, i1, i2, _ = data.value_table
    lp = bivariate._log_joint_pmf_at(theta, vals, i1, i2)
    bad = ~np.isfinite(lp)
    if np.any(bad):
        cell, _, row = data.cells[int(np.argmax(bad))]
        raise ValueError(f"data row {row} (cell {cell}) has zero probability")
    return lp


FOOTBALL_PAIRS: tuple[tuple[int, int], ...] = (
    (1, 2),
    (0, 0),
    (1, 1),
    (2, 2),
    (1, 1),
    (0, 1),
    (1, 1),
    (3, 2),
    (1, 1),
    (2, 1),
    (1, 2),
    (3, 3),
    (0, 1),
    (1, 2),
    (1, 1),
    (1, 3),
    (3, 3),
    (0, 1),
    (1, 1),
    (1, 2),
    (1, 0),
    (3, 0),
    (1, 2),
    (1, 1),
    (0, 1),
    (0, 1),
)

NASAL_PAIRS: tuple[tuple[int, int], ...] = (
    (1, 1),
    (0, 0),
    (1, 1),
    (1, 1),
    (0, 2),
    (2, 0),
    (2, 2),
    (1, 1),
    (3, 2),
    (2, 2),
    (1, 0),
    (2, 3),
    (1, 3),
    (2, 1),
    (2, 3),
    (2, 1),
    (1, 1),
    (2, 2),
    (3, 1),
    (1, 1),
    (2, 1),
    (2, 2),
    (1, 1),
    (2, 2),
    (2, 0),
    (1, 1),
    (0, 1),
    (1, 1),
    (1, 1),
    (3, 3),
)

BUILTIN = {"football": FOOTBALL_PAIRS, "nasal": NASAL_PAIRS}


def builtin_dataset(name: str):
    """Bundled dataset by name, as a :class:`BivariateDataset`."""
    try:
        pairs = BUILTIN[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; available: {', '.join(sorted(BUILTIN))}"
        ) from None
    return BivariateDataset(pairs)
