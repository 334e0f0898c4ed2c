"""The data layer: the container of paired counts and the bundled data.

:class:`BivariateDataset` holds the observed integer pairs that every
fit, fit check and command reads; it refuses a malformed row by its index
and lays the rows' distinct cells once on a table of their values, tuples
of floats and ints built with a dict and a sort, which loads no numpy.
It imports only :mod:`bdw.weibull`, so reading a column loads no joint
law; ``bivariate._cell_log_masses`` reads the cells' log-masses off it.

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

from .weibull import _MAX_COUNT, _as_counts, _Record

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
        # an array's truth is ambiguous, so a sequence is tested by its
        # length, and anything else (an iterator, None) by its truth
        try:
            empty = len(self.pairs) == 0
        except TypeError:
            empty = not self.pairs
        if empty:
            raise ValueError("dataset is empty")
        clean = []
        for row, pair in enumerate(self.pairs):
            try:
                x1, x2 = pair
            except (TypeError, ValueError):
                raise ValueError(f"row {row}: expected two entries, got {pair!r}") from None
            # ints are read as they are, anything else by the one count rule
            if type(x1) is int and type(x2) is int:
                counts = (x1, x2) if x1 >= 0 and x2 >= 0 else None
            else:
                counts = _as_counts((x1, x2))
            if counts is None:
                raise ValueError(f"row {row}: entries must be non-negative integers, got {pair!r}")
            x1, x2 = counts
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
        return sum(self.value_table[3][0])

    @property
    def n_above(self) -> int:
        """Rows with x1 > x2."""
        return sum(self.value_table[3][2])

    @property
    def n_ties(self) -> int:
        """Rows with x1 = x2."""
        return sum(self.value_table[3][4])

    @cached_property
    def cells(self) -> tuple[tuple[tuple[int, int], int, int], ...]:
        """Distinct cells as (cell, count, first row index), sorted by cell."""
        seen: dict[tuple[int, int], list] = {}
        for row, cell in enumerate(self.pairs):
            rec = seen.setdefault(cell, [cell, 0, row])
            rec[1] += 1
        return tuple((c, k, r) for c, k, r in sorted(seen.values(), key=lambda t: t[0]))

    @cached_property
    def value_table(self) -> tuple[tuple, tuple, tuple, tuple[tuple[int, ...], ...]]:
        """:attr:`cells` on one table of their distinct values, as tuples
        ``(vals, i1, i2, weights)``: cell c is ``(vals[i1[c]],
        vals[i2[c]])``, with ``vals`` increasing floats.  Row k < 4 of the
        5 x K int ``weights`` counts the values of the k-th DW law of
        ``bivariate._RATE_MAP`` over the rows, and row 4 the ties."""
        vals = sorted({v for cell, _, _ in self.cells for v in cell})
        where = {v: k for k, v in enumerate(vals)}
        i1, i2 = zip(*((where[x1], where[x2]) for (x1, x2), _, _ in self.cells))
        weights = [[0] * len(vals) for _ in range(5)]
        for a, b, (_, count, _) in zip(i1, i2, self.cells):
            part = 2 * ((a >= b) + (a == b))
            weights[part][a] += count
            if a != b:
                weights[part + 1][b] += count
        return tuple(map(float, vals)), i1, i2, tuple(map(tuple, weights))

    def column_ints(self, which: str) -> list[int]:
        """One of the three univariate views, ``x1``, ``x2`` or ``min``, as ints."""
        if which == "x1":
            return [x1 for x1, _ in self.pairs]
        if which == "x2":
            return [x2 for _, x2 in self.pairs]
        if which == "min":
            return [min(pair) for pair in self.pairs]
        raise ValueError(f"column must be x1, x2 or min, got {which!r}")

    def column(self, which: str) -> np.ndarray:
        """:meth:`column_ints` as an int64 array."""
        import numpy as np

        return np.array(self.column_ints(which), dtype=np.int64)

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
            if not any(weights[row]):
                raise ValueError(
                    f"no row has {order}: the coordinate rate {rate} is not identifiable"
                )

    def swapped(self) -> "BivariateDataset":
        """The same rows with the coordinates exchanged."""
        return BivariateDataset(tuple((b, a) for a, b in self.pairs))


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
