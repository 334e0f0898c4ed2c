import array
import functools
import math
import operator
import re

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from bdw import bivariate, gof, univariate
from bdw.bivariate import BDWParams, joint_pmf, joint_sf
from bdw.fit_ml import BivariateDataset, nested_em
from bdw.gof import POOL_THRESHOLD, _axis, _pool, _report, chisq_bdw, chisq_dw, chisq_upper_tail
from bdw.sampling import sample
from bdw.univariate import DWParams, dw_fit_minchisq, dw_fit_ml, dw_pmf, dw_sf


class TestUpperTail:
    def test_reference_points(self):
        # marginal-table p-value arithmetic: 5.5556 on 3 df and 10.969 on 9 df
        assert chisq_upper_tail(5.5556, 3) == pytest.approx(0.1354, abs=5e-4)
        assert chisq_upper_tail(10.969, 9) == pytest.approx(0.2778, abs=5e-4)

    def test_matches_reference_implementation(self):
        for df in (1, 2, 5, 10, 30, 50):
            for x in (0.0, 0.5, 3.2, 17.0, 80.0, 200.0):
                assert chisq_upper_tail(x, df) == pytest.approx(
                    stats.chi2.sf(x, df), abs=1e-8
                )

    @pytest.mark.parametrize("df", [1, 2, 3, 10, 101, 417, 999, 2000])
    def test_matches_mpmath_far_into_tail(self, df):
        # x >> df reaches tails of 1e-27 and below, where a series summed
        # in linear space underflows to 0
        xs = [1e-6, 0.5, 3.0, df / 2, df - 0.5, df, df + 1.0, 2.0 * df, 4.0 * df + 40.0, 1562.6]
        with mp.workdps(40):
            for x in xs:
                want = mp.gammainc(mp.mpf(df) / 2, mp.mpf(x) / 2, mp.inf, regularized=True)
                assert chisq_upper_tail(x, df) == pytest.approx(float(want), rel=1e-10), x

    def test_boundaries_and_monotonicity(self):
        assert chisq_upper_tail(0.0, 4) == 1.0
        xs = np.linspace(0, 30, 100)
        vals = [chisq_upper_tail(float(x), 6) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            chisq_upper_tail(-0.1, 3)
        with pytest.raises(ValueError):
            chisq_upper_tail(1.0, 0)

    def test_integer_degrees_only(self):
        # the closed form holds for whole degrees of freedom alone
        with pytest.raises(ValueError, match="positive integer"):
            chisq_upper_tail(1.0, 2.5)

    @pytest.mark.parametrize(
        "x, df, outcome",
        [
            (math.inf, 1, 0.0),
            (math.inf, 4, 0.0),
            (math.inf, 7, 0.0),
            (math.nan, 3, "statistic must be non-negative, got nan"),
            (1.0, 2.5, "degrees of freedom must be a positive integer, got 2.5"),
            (1.0, math.inf, "degrees of freedom must be a positive integer, got inf"),
            (1.0, math.nan, "degrees of freedom must be a positive integer, got nan"),
        ],
        ids=["inf-1", "inf-4", "inf-7", "nan-statistic", "fractional-df", "infinite-df", "nan-df"],
    )
    def test_edges(self, x, df, outcome):
        # an infinite statistic has no tail left; the rest is refused by name
        if isinstance(outcome, str):
            with pytest.raises(ValueError, match=f"^{outcome}$"):
                chisq_upper_tail(x, df)
        else:
            assert chisq_upper_tail(x, df) == outcome


# more samples that are no counts, each with the message the array input
# check gave (recorded before the check read lists without numpy), and the
# counts from 2**53 on, where y + 1.0 == y and the fits found no finite
# objective
_NOT_COUNTS = "^data must be non-negative integers$"
_NOT_1D = "^expected a one-dimensional collection of counts$"
_PAST_INT64 = r"^data must not exceed the largest count 2\*\*63 - 1, got "
NON_COUNTS = {
    "empty-list": ([], "^empty dataset$"),
    "empty-array": (np.array([]), "^empty dataset$"),
    "empty-2d-array": (np.zeros((0, 2)), "^empty dataset$"),
    "2d-list": ([[0, 1], [2, 3]], _NOT_1D),
    "2d-array": (np.array([[0, 1], [2, 3]]), _NOT_1D),
    "2d-float-column": (np.array([[0.0], [1.0], [2.0]]), _NOT_1D),
    "list-holding-list": ([0, [1], 2], _NOT_1D),
    "floats-holding-tuple": ([0.0, (1.0, 2.0)], _NOT_1D),
    "list-holding-1d-array": ([0, 1, np.array([1, 2])], _NOT_1D),
    "scalar": (3, _NOT_1D),
    "numpy-scalar": (np.int64(3), _NOT_1D),
    "string": ("0123", _NOT_1D),
    "nan-array": (np.array([0.0, 1.0, np.nan]), _NOT_COUNTS),
    "-inf": ([0, 1, -math.inf], _NOT_COUNTS),
    "negative": ([0, 1, -1], _NOT_COUNTS),
    "negative-array": (np.array([0, 1, -1]), _NOT_COUNTS),
    "fraction-array": (np.array([0.0, 1.0, 0.5]), _NOT_COUNTS),
    "bools": ([True, False, True], _NOT_COUNTS),
    "numpy-bools": ([np.True_, np.False_], _NOT_COUNTS),
    "bool-array": (np.array([True, False]), _NOT_COUNTS),
    "bool-and-ints": ([True, 2, 3, 3], _NOT_COUNTS),
    "numpy-bool-and-ints": ([np.True_, 2, 3, 3], _NOT_COUNTS),
    "int-and-string": ([0, "1"], _NOT_COUNTS),
    "none": ([0, None], _NOT_COUNTS),
    "2**63-array": (np.array([0, 1, 2**63], dtype=np.uint64), _PAST_INT64 + "9223372036854775808$"),
    "1e300": ([0, 1, 1e300], _PAST_INT64 + str(int(1e300)) + "$"),
    "1e300-array": (np.array([0.0, 1.0, 1e300]), _PAST_INT64 + str(int(1e300)) + "$"),
    # numpy reads 2**64 as an object, which the array check refused as no count
    "2**64": ([0, 1, 2**64], _PAST_INT64 + "18446744073709551616$"),
    "2**53": ([0, 1, 2**53], r"^data must be below 2\*\*53, got 9007199254740992: at such a "
              r"count y, y and y \+ 1 are one float$"),
    "2**62-array": (np.array([0, 1, 2**62]), r"^data must be below 2\*\*53, got 4611686018427387904"),
}


class TestUnivariate:
    def test_perfectly_matched_counts_give_zero(self):
        params = DWParams(1.0, 0.5)
        data = [0] * 8 + [1] * 4 + [2] * 2 + [3] * 1 + [4] * 1
        rep = chisq_dw(data, params)
        assert rep.statistic == pytest.approx(0.0, abs=1e-12)
        assert rep.p_value == pytest.approx(1.0, abs=1e-12)

    def test_expected_counts_sum_to_n_with_absorbed_tail(self, football, nasal):
        for data in (football, nasal):
            for col in ("x1", "x2", "min"):
                values = data.column(col)
                fitted = DWParams(2.0, 0.8)
                rep = chisq_dw(values, fitted)
                total_e = sum(e for _, _, e in rep.cells)
                total_o = sum(o for _, o, o_ in [(l, o, e) for l, o, e in rep.cells])
                assert total_e == pytest.approx(len(values), abs=1e-6)
                assert sum(o for _, o, _ in rep.cells) == len(values)

    def test_bare_cells_without_absorption(self, football):
        values = football.column("x1")
        rep = chisq_dw(values, DWParams(1.8424, 0.7617), absorb_tail=False)
        assert sum(e for _, _, e in rep.cells) < len(values)
        # published single-coordinate statistic for this column
        assert rep.statistic == pytest.approx(5.5556, abs=1e-3)
        assert rep.df == 3
        assert rep.p_value == pytest.approx(0.1354, abs=1e-3)

    def test_remaining_published_marginal_statistics(self, football, nasal):
        cases = [
            (football, "x2", DWParams(2.4646, 0.8604), 0.8787),
            (football, "min", DWParams(1.8398, 0.6818), 3.1301),
            (nasal, "x1", DWParams(2.8280, 0.9057), 0.0366),
            (nasal, "x2", DWParams(2.2768, 0.8419), 1.5676),
            (nasal, "min", DWParams(2.4717, 0.8031), 0.0124),
        ]
        for data, col, params, want in cases:
            rep = chisq_dw(data.column(col), params, absorb_tail=False)
            assert rep.statistic == pytest.approx(want, abs=1e-3)

    def test_pooled_groups_meet_threshold(self, football):
        rep = chisq_dw(football.column("x1"), DWParams(4.0, 0.99))
        for _, _, e in rep.cells:
            assert e >= POOL_THRESHOLD - 1e-12

    def test_pooling_is_deterministic(self, nasal):
        a = chisq_dw(nasal.column("x2"), DWParams(2.2768, 0.8419))
        b = chisq_dw(nasal.column("x2"), DWParams(2.2768, 0.8419))
        assert a == b

    def test_df_penalty(self, football):
        values = football.column("x1")
        base = chisq_dw(values, DWParams(1.8424, 0.7617))
        penalized = chisq_dw(values, DWParams(1.8424, 0.7617), df_penalty=2)
        assert penalized.df == base.df - 2
        assert penalized.statistic == pytest.approx(base.statistic, rel=1e-12)
        with pytest.raises(ValueError, match="degrees of freedom"):
            chisq_dw(values, DWParams(1.8424, 0.7617), df_penalty=base.df)

    def test_single_cell_rejected(self):
        with pytest.raises(ValueError, match="fewer than two cells"):
            chisq_dw([0, 0, 0], DWParams(1.5, 0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            chisq_dw([], DWParams(1.5, 0.5))
        with pytest.raises(ValueError):
            chisq_dw([-1, 2], DWParams(1.5, 0.5))

    @pytest.mark.parametrize(
        "data, message",
        [
            ([0.5, 1.7, 2], "^data must be non-negative integers$"),
            (["1", "2"], "^data must be non-negative integers$"),
            ([0, 1, 2, np.inf], "^data must be non-negative integers$"),
            ([0, 1, np.nan], "^data must be non-negative integers$"),
            (
                [0, 1, 2, 2**63],
                r"^data must not exceed the largest count 2\*\*63 - 1, got 9223372036854775808$",
            ),
            *NON_COUNTS.values(),
        ],
        ids=["fractions", "strings", "infinite", "nan", "past-int64", *NON_COUNTS],
    )
    def test_non_counts_are_refused_as_the_fits_refuse_them(self, data, message):
        # a fraction is not truncated to a count, nor a string parsed, nor
        # an infinite value or one past the int64 range cast to int64; a
        # list of ints and any other collection are read by one count rule,
        # with the same messages
        for check in (dw_fit_ml, dw_fit_minchisq, lambda d: chisq_dw(d, DWParams(1.5, 0.5))):
            with pytest.raises(ValueError, match=message):
                check(data)

    @pytest.mark.parametrize(
        "convert",
        [
            tuple,
            lambda xs: [float(y) for y in xs],
            lambda xs: array.array("q", xs),
            lambda xs: np.array(xs, dtype=np.int64),
            lambda xs: np.array(xs, dtype=np.float32),
            lambda xs: tuple(np.array(xs, dtype=np.int64)),
            lambda xs: [np.array(y) for y in xs],
        ],
        ids=["tuple", "float-list", "array.array", "int64-array", "float32-array",
             "numpy-int-tuple", "0d-array-list"],
    )
    def test_collections_of_counts_read_as_the_list(self, convert):
        xs = [0, 1, 1, 2, 2, 2, 3, 5]
        for check in (dw_fit_ml, dw_fit_minchisq, lambda d: chisq_dw(d, DWParams(1.5, 0.5))):
            assert repr(check(convert(xs))) == repr(check(xs))

    @pytest.mark.parametrize(
        "data",
        [{0, 1, 2}, {0: 1, 2: 3}, iter([0, 1, 2]), b"012", np.array(3), [np.array([0, 1])]],
        ids=["set", "dict", "iterator", "bytes", "0d-array", "list-of-arrays"],
    )
    def test_unordered_unsized_or_nested_collections_are_not_samples(self, data):
        # a set would drop repeated counts and a dict read as its keys
        for check in (dw_fit_ml, dw_fit_minchisq, lambda d: chisq_dw(d, DWParams(1.5, 0.5))):
            with pytest.raises(ValueError, match=_NOT_1D):
                check(data)

    @pytest.mark.parametrize("absorb_tail", [True, False])
    @pytest.mark.parametrize("law", [DWParams(1.5, 0.5), DWParams(0.4, 0.999), DWParams(3.0, 0.01)])
    def test_streamed_cells_are_the_scalar_masses(self, monkeypatch, law, absorb_tail):
        # one power per cell, and the masses of dw_pmf and dw_sf bit for bit;
        # past the cell where the survival underflows every mass is 0
        xs = [0, 0, 1, 1, 2, 3, 7, 40]
        cells = []

        def spy(name, observed, expected, df_penalty):
            cells.extend(zip(observed, expected))

        monkeypatch.setattr(univariate, "_report", spy)
        chisq_dw(xs, law, absorb_tail=absorb_tail)
        last = dw_sf(law, 40) if absorb_tail else dw_pmf(law, 40)
        want = [len(xs) * m for m in [dw_pmf(law, y) for y in range(40)] + [last]]
        assert [e for _, e in cells] == want
        assert [o for o, _ in cells] == [xs.count(y) for y in range(41)]

    def test_wide_support_streams_in_flat_memory(self):
        # the support's cells are never held: its peak is a small fraction
        # of what a table of 10**5 floats takes
        import tracemalloc

        tracemalloc.start()
        try:
            rep = chisq_dw([0, 0, 1, 1, 2, 3, 10**5], DWParams(1.5, 0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert [(label, o) for label, o, _ in rep.cells] == [("0", 2), ("1..>=100000", 5)]
        assert [e for _, _, e in rep.cells] == pytest.approx([3.5, 3.5], rel=1e-15)

    def test_support_past_the_grid_budget_is_refused_before_streaming(self, monkeypatch):
        # 10**8 + 1 cells, more than the joint check's grid may hold: refused
        # by name before a power step is taken
        powers, step = [], univariate._power_step
        monkeypatch.setattr(univariate, "_power_step", lambda y, a: powers.append(y) or step(y, a))
        message = (
            r"^the fit check's support 0\.\.100000000 holds 100000001 cells, "
            r"more than the 100000000 of a tractable grid$"
        )
        with pytest.raises(ValueError, match=message):
            chisq_dw([0, 0, 1, 1, 2, 3, 10**8], DWParams(1.5, 0.5))
        assert powers == []

    @pytest.mark.parametrize("absorb_tail", [True, False])
    def test_integral_floats_score_as_counts(self, football, absorb_tail):
        column = football.column("x1")
        assert column.dtype == np.int64
        params = DWParams(1.8424, 0.7617)
        want = chisq_dw(column, params, absorb_tail=absorb_tail)
        got = chisq_dw(column.astype(float), params, absorb_tail=absorb_tail)
        assert repr(got) == repr(want)


@pytest.mark.parametrize(
    "penalty, shown", [(-2, "-2"), (0.5, "0.5"), (math.nan, "nan"), ("1", "'1'")],
    ids=["negative", "fraction", "nan", "string"],
)
@pytest.mark.parametrize("check", ["column", "joint"])
def test_df_penalty_is_a_count(football, check, penalty, shown):
    # a negative penalty once added degrees of freedom, a fraction or NaN was
    # refused as the degrees of freedom, and a string raised a bare TypeError
    if check == "column":
        data, params, fit_check = [0, 1, 1, 2, 2, 2, 3, 3, 4, 5], DWParams(1.5, 0.7), chisq_dw
    else:
        data, params, fit_check = football, nested_em(football).bdw, chisq_bdw
    assert fit_check(data, params, df_penalty=0).df == (3 if check == "column" else 10)
    message = f"df_penalty must be a non-negative integer, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit_check(data, params, df_penalty=penalty)


class TestPool:
    def test_small_leading_cells_pool_rightward(self):
        groups = _pool([1, 0, 2, 3], [0.25, 0.5, 0.25, 2.0])
        assert groups == [(0, 2, 3, 1.0), (3, 3, 3, 2.0)]

    def test_trailing_remainder_joins_the_last_group(self):
        groups = _pool([2, 1, 0, 1, 1], [1.5, 0.5, 0.5, 0.25, 0.125])
        assert groups == [(0, 0, 2, 1.5), (1, 4, 3, 1.0 + (0.25 + 0.125))]

    def test_total_below_one_is_one_group_and_refused(self):
        assert _pool([1, 0, 0], [0.25, 0.5, 0.125]) == [(0, 2, 1, 0.875)]
        with pytest.raises(ValueError, match="fewer than two cells"):
            _report(str, [1, 0, 0], [0.25, 0.5, 0.125], 0)

    def test_group_sums_are_sequential(self):
        # ten cells of 0.1 sum to 0.9999999999999999 left to right, so an
        # eleventh closes the group; the remainder is summed on its own,
        # then added to the last group
        expected = [0.1] * 11 + [0.1, 0.1, 0.1]
        groups = _pool([1] * 14, expected)
        group = functools.reduce(operator.add, expected[:11])
        assert functools.reduce(operator.add, expected[:10]) < POOL_THRESHOLD <= group
        assert groups == [(0, 13, 14, group + (0.1 + 0.1 + 0.1))]
        # 1.4, where one left-to-right sum of all fourteen gives 1.4000000000000001
        assert groups[0][3] != functools.reduce(operator.add, expected)

    def test_groups_are_labelled_by_their_ends(self):
        # groups of one, two and four cells: a range names its first and
        # last cell only
        expected = [4.0, 0.5, 1.5, 0.5, 0.25, 0.25, 0.5]
        rep = _report(lambda k: f"c{k}", [4, 2, 1, 1, 0, 0, 0], expected, 0)
        assert rep.cells == (("c0", 4, 4.0), ("c1+c2", 3, 2.0), ("c3..c6", 1, 1.5))


def _joined_cells(labels, observed, expected):
    # the oracle: the pool as it once labelled its groups, by joining every
    # cell label of a group with "+"
    groups = []
    acc_l, acc_o, acc_e = [], 0, 0.0
    for lab, o, e in zip(labels, observed, expected):
        acc_l.append(lab)
        acc_o += o
        acc_e += e
        if acc_e >= POOL_THRESHOLD:
            groups.append((acc_l, acc_o, acc_e))
            acc_l, acc_o, acc_e = [], 0, 0.0
    if acc_l:
        if groups:
            last_l, last_o, last_e = groups.pop()
            acc_l, acc_o, acc_e = last_l + acc_l, last_o + acc_o, last_e + acc_e
        groups.append((acc_l, acc_o, acc_e))
    return [("+".join(g[0]), g[1], g[2]) for g in groups]


# the six-row sample whose joined labels grew with the square of k
def _spread(k):
    return BivariateDataset(((0, 0), (1, 1), (2, 1), (1, 2), (k, 0), (0, k)))


WIDE = BDWParams(1.2, 0.97, 0.95, 0.96)


class TestRangeLabels:
    @pytest.mark.parametrize("case", ["football", "nasal", "wide", "spread"])
    def test_reports_match_the_joined_labels(self, football, nasal, monkeypatch, case):
        if case == "wide":
            draws = sample(WIDE, np.random.default_rng(8), size=1000)
            data, params = BivariateDataset.from_pairs(draws.tolist()), WIDE
        elif case == "spread":
            data, params = _spread(300), WIDE
        else:
            data = football if case == "football" else nasal
            params = nested_em(data).bdw
        tables = []

        def spy(name, observed, expected, df_penalty):
            # the cells stream in once, so the spy keeps them as lists
            observed, expected = list(observed), list(expected)
            tables.append((observed, expected))
            return _report(name, observed, expected, df_penalty)

        monkeypatch.setattr(gof, "_report", spy)
        rep = chisq_bdw(data, params)
        (observed, expected), = tables
        top1, top2 = (max(column) for column in zip(*data.pairs))
        axis1, axis2 = _axis(top1), _axis(top2)
        labels = [f"({axis1(a)},{axis2(b)})" for a in range(top1 + 1) for b in range(top2 + 1)]
        assert len(labels) == len(observed) == len(expected)
        want = _joined_cells(labels, observed, expected)
        assert len(rep.cells) == len(want)
        ranges = 0
        for (label, o, e), (joined, want_o, want_e) in zip(rep.cells, want):
            assert (o, e) == (want_o, want_e)
            parts = joined.split("+")
            if len(parts) <= 2:
                assert label == joined
            else:
                assert label == f"{parts[0]}..{parts[-1]}"
                ranges += 1
        assert ranges > 0 or case == "nasal"

    def test_labels_are_bounded(self):
        # joined, one label of this report held 9.7 MB
        rep = chisq_bdw(_spread(1000), WIDE)
        assert max(len(label) for label, _, _ in rep.cells) < 40
        assert rep.cells[-1][0].endswith("..(>=1000,>=1000)")


class TestBivariate:
    def test_fitted_joint_law_is_not_rejected(self, football, nasal):
        for data in (football, nasal):
            fit = nested_em(data)
            rep = chisq_bdw(data, fit.bdw)
            assert rep.p_value > 0.05
            assert sum(e for _, _, e in rep.cells) == pytest.approx(
                data.n, abs=1e-6
            )
            assert sum(o for _, o, _ in rep.cells) == data.n
            for _, _, e in rep.cells:
                assert e >= POOL_THRESHOLD - 1e-12

    def test_football_report_values(self, football):
        fit = nested_em(football)
        rep = chisq_bdw(football, fit.bdw)
        assert rep.statistic == pytest.approx(13.4759, abs=1e-3)
        assert rep.df == 10
        assert rep.p_value == pytest.approx(0.1983, abs=1e-3)

    def test_nasal_report_values(self, nasal):
        fit = nested_em(nasal)
        rep = chisq_bdw(nasal, fit.bdw)
        assert rep.statistic == pytest.approx(6.1431, abs=1e-3)
        assert rep.df == 10
        assert rep.p_value == pytest.approx(0.8031, abs=1e-3)

    def test_well_specified_sample_passes(self):
        gen = BDWParams(1.6, 0.95, 0.8, 0.85)
        rng = np.random.default_rng(17)
        draws = sample(gen, rng, size=1000)
        data = BivariateDataset.from_pairs(draws.tolist())
        rep = chisq_bdw(data, gen)
        assert rep.p_value > 0.001

    @pytest.mark.parametrize("wide", [False, True])
    def test_expected_counts_match_scalar_cells(self, football, wide):
        # reference: every cell from the scalar pmf, and the absorbing last
        # row and column from survival differences
        if wide:
            params = BDWParams(1.2, 0.97, 0.95, 0.96)
            draws = sample(params, np.random.default_rng(8), size=1000)
            data = BivariateDataset.from_pairs(draws.tolist())
        else:
            data, params = football, nested_em(football).bdw
        top1 = max(a for a, _ in data.pairs)
        top2 = max(b for _, b in data.pairs)
        expected = []
        for i in range(top1 + 1):
            for j in range(top2 + 1):
                if i == top1 and j == top2:
                    mass = joint_sf(params, i, j)
                elif i == top1:
                    mass = joint_sf(params, i, j) - joint_sf(params, i, j + 1)
                elif j == top2:
                    mass = joint_sf(params, i, j) - joint_sf(params, i + 1, j)
                else:
                    mass = joint_pmf(params, i, j)
                expected.append(data.n * mass)
        cells = (top1 + 1) * (top2 + 1)
        want = [e for _, _, _, e in _pool([0] * cells, expected)]
        got = [e for _, _, e in chisq_bdw(data, params).cells]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_grid_past_the_cap_is_refused_by_name(self, monkeypatch):
        # a grid of 10**12 cells: refused by name, before any row is built
        def no_rows(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(bivariate, "_log_rows", no_rows)
        data = BivariateDataset(((0, 10**6), (10**6, 0), (1, 1), (2, 1)))
        with pytest.raises(
            ValueError, match=r"^a grid \[0, K\]\^2 with K = 1000000 > 10000 is not tractable$"
        ):
            chisq_bdw(data, BDWParams(1.5, 0.9, 0.7, 0.75))

    def test_df_penalty_and_errors(self, football):
        fit = nested_em(football)
        base = chisq_bdw(football, fit.bdw)
        pen = chisq_bdw(football, fit.bdw, df_penalty=4)
        assert pen.df == base.df - 4
        with pytest.raises(ValueError):
            chisq_bdw(BivariateDataset(((0, 0), (0, 0))), fit.bdw)
