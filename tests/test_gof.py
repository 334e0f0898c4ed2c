import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from bdw.bivariate import BDWParams, joint_pmf, joint_sf, sample
from bdw.fit_ml import BivariateDataset, nested_em
from bdw.gof import POOL_THRESHOLD, _pool, chisq_bdw, chisq_dw, chisq_upper_tail
from bdw.univariate import DWParams


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
        _, _, want = _pool([str(k) for k in range(cells)], [0] * cells, expected)
        got = [e for _, _, e in chisq_bdw(data, params).cells]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_df_penalty_and_errors(self, football):
        fit = nested_em(football)
        base = chisq_bdw(football, fit.bdw)
        pen = chisq_bdw(football, fit.bdw, df_penalty=4)
        assert pen.df == base.df - 4
        with pytest.raises(ValueError):
            chisq_bdw(BivariateDataset(((0, 0), (0, 0))), fit.bdw)
