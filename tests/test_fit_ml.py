import collections
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import minimize

from bdw import bivariate, fit_bayes, fit_ml, mobw, sampling, univariate
from bdw.bivariate import _cell_log_masses
from bdw.fit_bayes import augmented_gibbs
from bdw.fit_ml import (
    BivariateDataset,
    alpha_equals_one_test,
    bdw_loglik,
    bdw_loglik_derivatives,
    impute_dataset,
    init_estimates,
    initial_params_from_marginals,
    inner_em_mobw,
    nested_em,
    observed_info_ci,
)
from bdw.mobw import CompleteObservation, MOBWParams, complete_loglik
from bdw.univariate import DWParams, dw_fit_minchisq, dw_fit_ml

# fitted values pinned from the shipped datasets; regression guards for the
# whole estimation pipeline
FOOTBALL_MLE = (2.1527952957, 0.0717123697, 0.1911053881, 0.1363609074)
FOOTBALL_LL = -65.2195869955
NASAL_MLE = (2.5874322166, 0.0653245623, 0.0614183570, 0.0792398929)
NASAL_LL = -70.3095359276

# a sample that no fit accepts: no row with x1 > x2 (lambda2 has no evidence)
ONE_SIDED = ((1, 1), (2, 2), (3, 3), (0, 1))
# 40 rows uniform on {0, 1}^2: at any rates the likelihood rises with the
# shape, and the fit once stopped at an arbitrary alpha = 6.10
ZERO_ONE = tuple(map(tuple, np.random.default_rng(0).integers(0, 2, size=(40, 2)).tolist()))
# counts past 1, while the minimum column holds only 0 and 1
MIN_ZERO_ONE = (
    (0, 2), (1, 3), (2, 0), (1, 1), (0, 1), (3, 1), (1, 0), (0, 0), (2, 1), (1, 2), (1, 1),
    (0, 0), (1, 1), (1, 1),
)
# counts too large for the survival bases to be told from 1: the ML point
# has rates 2e-17 to 7e-17, which only the rates hold
LARGE_COUNTS = ((100, 120), (130, 90), (110, 110), (95, 140), (120, 100))


def _tiny_rate_sample(alpha=8.0):
    # 200 floors of a latent pair of rates ~1e-16: counts up to 118 at
    # shape 8, 24 at shape 12 and 6 at shape 20
    draws = sampling.mobw_sample(
        MOBWParams(alpha, 5e-17, 1e-16, 1e-16), np.random.default_rng(1), size=200
    )
    return BivariateDataset.from_pairs(np.floor(draws).astype(int).tolist())


class TestDataset:
    def test_partition_counts(self, football, nasal):
        assert (football.n, football.n_below, football.n_above, football.n_ties) == (
            26,
            11,
            4,
            11,
        )
        assert (nasal.n, nasal.n_below, nasal.n_above, nasal.n_ties) == (30, 5, 8, 17)

    @pytest.mark.parametrize(
        "pairs",
        ["football", "nasal", ONE_SIDED, LARGE_COUNTS, ((1, 1), (2, 2), (2, 2)),
         ((0, 1), (0, 2), (0, 3), (0, 1), (0, 0))],
    )
    def test_partition_counts_match_rows(self, pairs, request):
        data = request.getfixturevalue(pairs) if isinstance(pairs, str) else BivariateDataset(pairs)
        rows = np.array(data.pairs)
        assert (data.n_below, data.n_above, data.n_ties) == (
            int(np.sum(rows[:, 0] < rows[:, 1])),
            int(np.sum(rows[:, 0] > rows[:, 1])),
            int(np.sum(rows[:, 0] == rows[:, 1])),
        )
        assert data.value_table is data.value_table
        vals, i1, i2, weights = data.value_table
        assert [(vals[a], vals[b]) for a, b in zip(i1, i2)] == [cell for cell, _, _ in data.cells]
        assert all(type(v) is float for v in vals) and list(vals) == sorted(set(vals))
        assert all(type(w) is int for row in weights for w in row)
        # the five parts' histograms hold every row once per coordinate read
        assert [sum(row) for row in weights] == [
            data.n_below, data.n_below, data.n_above, data.n_above, data.n_ties
        ]

    def test_columns_and_cells(self, football):
        x1 = football.column("x1")
        x2 = football.column("x2")
        mn = football.column("min")
        np.testing.assert_array_equal(mn, np.minimum(x1, x2))
        assert sum(count for _, count, _ in football.cells) == football.n
        with pytest.raises(ValueError):
            football.column("x3")

    def test_swapped(self, football):
        sw = football.swapped()
        np.testing.assert_array_equal(sw.column("x1"), football.column("x2"))
        np.testing.assert_array_equal(sw.column("x2"), football.column("x1"))
        assert sw.n_below == football.n_above

    def test_validation(self):
        with pytest.raises(ValueError):
            BivariateDataset(((1, -2),))
        with pytest.raises(ValueError):
            BivariateDataset(((1.5, 2),))
        with pytest.raises(ValueError):
            BivariateDataset(())
        ds = BivariateDataset.from_pairs([[1, 2], [0, 0]])
        assert ds.n == 2

    def test_from_pairs_validates_rows(self):
        # rows reach the constructor's checks as given, not truncated
        with pytest.raises(ValueError, match=r"^row 0: entries must be non-negative integers"):
            BivariateDataset.from_pairs([(1.5, 2), (0, 1)])
        ds = BivariateDataset.from_pairs(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert ds.pairs == ((1, 2), (0, 1))
        assert all(type(v) is int for row in ds.pairs for v in row)

    @pytest.mark.parametrize("row, message", [
        ((1, float("inf")), r"entries must be non-negative integers, got \(1, inf\)"),
        ((float("nan"), 1), r"entries must be non-negative integers, got \(nan, 1\)"),
        (("1", 2), r"entries must be non-negative integers, got \('1', 2\)"),
        ((1,), r"expected two entries, got \(1,\)"),
        ((1, 2, 3), r"expected two entries, got \(1, 2, 3\)"),
        (5, r"expected two entries, got 5"),
        ((99999999999999999999, 3),
         r"the count 99999999999999999999 exceeds the largest count 2\*\*63 - 1"),
        ((2.0**63, 3), r"the count 9223372036854775808 exceeds the largest count 2\*\*63 - 1"),
        # a bool is no count, as weibull._count and the DW fits hold
        ((True, False), r"entries must be non-negative integers, got \(True, False\)"),
        ((np.True_, 2), "entries must be non-negative integers, got " + re.escape(repr((np.True_, 2)))),
    ], ids=["inf", "nan", "string", "one-entry", "three-entries", "not-a-row", "past-int64",
            "float-past-int64", "bool", "numpy-bool"])
    def test_malformed_row_is_refused_by_its_index(self, row, message):
        with pytest.raises(ValueError, match=f"^row 1: {message}$"):
            BivariateDataset(((0, 1), row))


class TestLoglik:
    def test_matches_cellwise_sum(self, football):
        theta = MOBWParams(2.0, 0.05, 0.2, 0.1)
        params = bivariate.from_mobw(theta)
        direct = sum(
            bivariate.joint_logpmf(params, a, b) for a, b in football.pairs
        )
        assert bdw_loglik(theta, football) == pytest.approx(direct, rel=1e-12)


def _oracle_logpmf(x1, x2):
    """Cell log-mass as a rectangle difference of the joint survival, in mpmath."""

    def logpmf(a, l0, l1, l2):
        def sf(i, j):
            return mp.exp(-l1 * mp.mpf(i) ** a - l2 * mp.mpf(j) ** a - l0 * mp.mpf(max(i, j)) ** a)

        return mp.log(sf(x1, x2) - sf(x1 + 1, x2) - sf(x1, x2 + 1) + sf(x1 + 1, x2 + 1))

    return logpmf


# below, above and diagonal cells, with zero coordinates among them
ORACLE_CELLS = [(1, 3), (4, 2), (2, 2), (0, 0), (0, 2), (3, 0), (5, 5)]
ORACLE_THETAS = [
    (0.5, 1e-6, 0.4, 0.7),
    (3.0, 1e-6, 0.2, 0.15),
    (0.5, 0.0, 0.4, 0.7),
    (3.0, 0.0, 0.2, 0.15),
    (1.7, 0.3, 0.5, 0.25),
]
# rates (lambda/2, lambda, 1.3*lambda) whose survival bases lie within
# 1e-6 to 1e-20 of one; from 1e-16 down the bases round to 1
TINY_RATE_THETAS = [
    (a, lam / 2, lam, 1.3 * lam)
    for a, lam in [(8.0, 1e-6), (12.0, 1e-12), (2.0, 1e-9)]
    + [(a, lam) for a in (5.0, 8.0, 12.0, 20.0) for lam in (1e-12, 1e-16, 1e-20)]
]


def _oracle_cells(theta):
    # ORACLE_CELLS scaled to the law's spread, lambda1**(-1/alpha), once
    # that passes 20; unscaled for every law of ORACLE_THETAS
    k = max(1, int(theta[2] ** (-1.0 / theta[0]) / 10.0))
    return [(k * a, k * b) for a, b in ORACLE_CELLS]


class TestLoglikDerivatives:
    @pytest.mark.parametrize("theta", ORACLE_THETAS + TINY_RATE_THETAS)
    def test_cell_derivatives_match_mpmath(self, theta):
        # central differences at 50 digits; at lambda0 = 0 they step into
        # the analytic continuation of the survival to negative rates.  The
        # value path, given the rates and given the survival bases where
        # they are below one, keeps the mass to 1e-12 relative.  At tiny
        # rates the Hessian's entries span ~1/rate**2 down to O(1), so it is
        # held to 1e-12 of its largest entry, and each score entry to 1e-8
        # relative (the lead/trail atom missed that by 9.6e-5 at theta =
        # (20, 5e-21, 1e-20, 1.3e-20), cell (2, 2))
        bases = [math.exp(-v) for v in theta[1:]]
        mp.mp.dps = 50
        try:
            for cell in _oracle_cells(theta):
                data = BivariateDataset((cell,))
                value, grad, hess = bdw_loglik_derivatives(theta, data)
                f = _oracle_logpmf(*cell)
                at = [mp.mpf(v) for v in theta]
                want_v = float(f(*at))
                assert bdw_loglik(MOBWParams(*theta), data) == pytest.approx(want_v, abs=1e-12)
                assert bdw_loglik(MOBWParams(*theta), data) == pytest.approx(value, rel=1e-13)
                if max(bases[1:]) < 1.0 and (bases[0] < 1.0 or theta[1] == 0.0):
                    exact = [-mp.log(mp.mpf(p)) for p in bases]
                    law = bivariate.BDWParams(theta[0], *bases)
                    assert bivariate.joint_logpmf(law, *cell) == pytest.approx(
                        float(f(at[0], *exact)), abs=1e-12
                    )
                want_g = np.array(
                    [float(mp.diff(f, at, tuple(int(k == i) for k in range(4)))) for i in range(4)]
                )
                want_h = np.array(
                    [
                        [
                            float(mp.diff(f, at, tuple(int(k == i) + int(k == j) for k in range(4))))
                            for j in range(4)
                        ]
                        for i in range(4)
                    ]
                )
                assert value == pytest.approx(want_v, rel=1e-8)
                if theta in ORACLE_THETAS:
                    np.testing.assert_allclose(grad, want_g, rtol=1e-8, atol=1e-12, err_msg=str(cell))
                    np.testing.assert_allclose(hess, want_h, rtol=1e-8, atol=1e-12, err_msg=str(cell))
                    continue
                np.testing.assert_allclose(grad, want_g, rtol=1e-8, atol=0.0, err_msg=str(cell))
                assert np.abs(hess - want_h).max() <= 1e-12 * np.abs(want_h).max(), cell
        finally:
            mp.mp.dps = 15

    @pytest.mark.parametrize("name, read", [("football", 11), ("nasal", 12), ("untied", 8)])
    def test_one_table_per_call(self, request, monkeypatch, name, read):
        # the score and the Hessian read the DW jets of the values, one
        # _dw_jets call per rate of the rate map, passed only the values of
        # positive weight in its row (of the 4 x 4 = 16 football and nasal
        # have); each value path builds its five rows in one table-builder call
        untied = BivariateDataset(((0, 1), (2, 1), (1, 3), (3, 0)))
        data = untied if name == "untied" else request.getfixturevalue(name)
        passed, built = [], []
        jets, rows = fit_ml._dw_jets, bivariate._log_rows
        monkeypatch.setattr(fit_ml, "_dw_jets", lambda y, *a: passed.append(len(y)) or jets(y, *a))
        monkeypatch.setattr(bivariate, "_log_rows", lambda *a: built.append(a) or rows(*a))
        theta = (2.0, 0.05, 0.2, 0.1)
        bdw_loglik_derivatives(theta, data)
        weights = data.value_table[3]
        assert passed == [sum(w > 0 for w in row) for row in weights[:4]]
        assert sum(passed) == read and not built
        _cell_log_masses(MOBWParams(*theta), data)
        assert len(built) == 1 and passed == passed[:4]
        list(bivariate._pmf_rows(MOBWParams(*theta), 6, 6))
        assert len(built) == 2

    def test_value_matches_loglik(self, football):
        theta = MOBWParams(2.0, 0.05, 0.2, 0.1)
        value, _, _ = bdw_loglik_derivatives((2.0, 0.05, 0.2, 0.1), football)
        assert value == pytest.approx(bdw_loglik(theta, football), rel=1e-13)
        # the value path and the jet share one split and one atom, the
        # independence product on the diagonal at lambda0 = 0 among them
        for theta in ORACLE_THETAS:
            for cell in ORACLE_CELLS:
                data = BivariateDataset((cell,))
                value, _, _ = bdw_loglik_derivatives(theta, data)
                want = bdw_loglik(MOBWParams(*theta), data)
                assert value == pytest.approx(want, rel=1e-13), (theta, cell)


class TestInitialization:
    def test_inversion_algebra(self):
        # survival bases multiply across components, so the three fitted
        # bases determine the shared one by division
        got = initial_params_from_marginals(
            DWParams(2.0, 0.72), DWParams(2.2, 0.66), DWParams(1.8, 0.54)
        )
        assert got.alpha == pytest.approx(2.0)
        p0 = 0.72 * 0.66 / 0.54
        assert got.lambda0 == pytest.approx(-math.log(p0), rel=1e-12)
        assert got.lambda1 == pytest.approx(-math.log(0.54 / 0.66), rel=1e-12)
        assert got.lambda2 == pytest.approx(-math.log(0.54 / 0.72), rel=1e-12)

    def test_inconsistent_fits_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="inconsistent"):
            got = initial_params_from_marginals(
                DWParams(2.0, 0.9), DWParams(2.0, 0.9), DWParams(2.0, 0.7)
            )
        assert got.lambda0 == 0.0

    def test_data_driven_start(self, football, nasal):
        fb = init_estimates(football)
        assert (fb.alpha, fb.lambda0, fb.lambda1, fb.lambda2) == pytest.approx(
            (2.049035, 0.039429, 0.232694, 0.110912), abs=1e-4
        )
        ns = init_estimates(nasal)
        assert (ns.alpha, ns.lambda0, ns.lambda1, ns.lambda2) == pytest.approx(
            (2.525665, 0.051779, 0.047219, 0.120270), abs=1e-4
        )


# a wide-support law: a 1000-row draw has some 400 distinct cells
WIDE = bivariate.BDWParams(1.2, 0.97, 0.95, 0.96)


@pytest.fixture(scope="module")
def wide_draw():
    return BivariateDataset.from_pairs(sampling.sample(WIDE, np.random.default_rng(0), 1000))


def _imputed(theta, data):
    return [(o.y1, o.y2, o.kind) for o in impute_dataset(theta, data)]


def _cellwise(theta, data):
    # the imputation one cell at a time, each mass from the scalar joint pmf
    preds = {cell: mobw.ml_predict(theta, *cell) for cell, _, _ in data.cells}
    return [(p.y1hat, p.y2hat, p.kind) for p in map(preds.get, data.pairs)]


class TestImputation:
    @pytest.mark.parametrize("name", ["football", "nasal", "wide_draw"])
    def test_matches_cellwise_prediction_at_the_start(self, name, request):
        data = request.getfixturevalue(name)
        theta = init_estimates(data)
        assert _imputed(theta, data) == _cellwise(theta, data)

    def test_matches_cellwise_prediction_on_random_laws(self, football, nasal, wide_draw):
        rng = np.random.default_rng(9)
        for k in range(60):
            alpha = math.exp(rng.uniform(math.log(0.3), math.log(4.0)))
            l0 = 0.0 if k % 7 == 0 else math.exp(rng.uniform(math.log(1e-3), 0.0))
            l1, l2 = np.exp(rng.uniform(math.log(1e-2), math.log(1.5), size=2))
            theta = MOBWParams(alpha, l0, float(l1), float(l2))
            for data in (football, nasal, wide_draw) if k % 3 == 0 else (football, nasal):
                try:
                    want = _cellwise(theta, data)
                except ValueError:
                    with pytest.raises(ValueError, match="has zero probability"):
                        impute_dataset(theta, data)
                else:
                    assert _imputed(theta, data) == want

    def test_evaluates_no_scalar_cell_mass(self, wide_draw, monkeypatch):
        calls = []
        scalar = bivariate.joint_logpmf
        monkeypatch.setattr(
            bivariate, "joint_logpmf", lambda *args: calls.append(args) or scalar(*args)
        )
        theta = init_estimates(wide_draw)
        mobw.ml_predict(theta, 1, 1)
        assert len(calls) == 1
        impute_dataset(theta, wide_draw)
        assert len(calls) == 1

    def test_zero_probability_cell_is_named(self):
        # the cell's log-mass is -inf, its powers past the float range:
        # refused by its first row, as the likelihood refuses it
        data = BivariateDataset(((0, 1), (1, 0), (10**7, 10**7), (10**7, 10**7)))
        theta = MOBWParams(50.0, 0.5, 0.5, 0.5)
        msg = r"^data row 2 \(cell \(10000000, 10000000\)\) has zero probability$"
        with pytest.raises(ValueError, match=msg):
            bdw_loglik(theta, data)
        with pytest.raises(ValueError, match=msg):
            impute_dataset(theta, data)
        # rates of 1e-13 leave the far cell a finite log-mass, which the
        # value path gives to 1e-12 of 50-digit mpmath, and the jet too
        data = BivariateDataset(((0, 1), (1, 0), (1000, 2000), (1000, 2000)))
        theta = MOBWParams(0.1, 1e-13, 1e-13, 1e-13)
        value, _, _ = bdw_loglik_derivatives((0.1, 1e-13, 1e-13, 1e-13), data)
        assert bdw_loglik(theta, data) == pytest.approx(value, rel=1e-13)
        far = bivariate.joint_logpmf(theta, 1000, 2000)
        assert far == pytest.approx(-76.83770215838052, abs=1e-12)
        assert len(impute_dataset(theta, data)) == 4

    def test_underflowing_cell_mass_is_imputed(self):
        # the log-mass is finite but its exponential underflows to zero:
        # the likelihood accepts the cell, and so does the imputation
        data = BivariateDataset(((0, 1), (1, 0), (30, 30)))
        theta = MOBWParams(2.0, 1.0, 1.0, 1.0)
        assert bdw_loglik(theta, data) == pytest.approx(-2704.922313949512, rel=1e-12)
        sample = impute_dataset(theta, data)
        assert sample[2] == CompleteObservation(30.0, 30.0, "tie")
        assert math.isfinite(complete_loglik(theta, sample))

    def test_rows_respect_cells(self, football):
        theta = init_estimates(football)
        sample = impute_dataset(theta, football)
        assert len(sample) == football.n
        for obs, (a, b) in zip(sample, football.pairs):
            # predictions live in the closed cell: a clamp may sit on the
            # right edge, which the half-open cell attains only in closure
            assert a <= obs.y1 <= a + 1
            assert b <= obs.y2 <= b + 1

    def test_permutation_invariance(self, football):
        theta = init_estimates(football)
        base = impute_dataset(theta, football)
        perm = list(football.pairs)[::-1]
        flipped = impute_dataset(theta, BivariateDataset(tuple(perm)))
        key = lambda o: (o.y1, o.y2, o.kind)
        assert sorted(map(key, base)) == sorted(map(key, flipped))


class TestInnerEM:
    def test_pseudo_loglik_monotone(self, football):
        theta = init_estimates(football)
        sample = impute_dataset(theta, football)
        trace = []
        inner_em_mobw(sample, theta, trace=trace)
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs >= -1e-9)
        assert len(trace) >= 2

    def test_stationary_point_matches_cause_balance(self, football):
        # at convergence each rate equals its expected cause count over the
        # matching exposure
        theta = init_estimates(football)
        sample = impute_dataset(theta, football)
        fit = inner_em_mobw(sample, theta)
        l0, l1, l2 = fit.lambda0, fit.lambda1, fit.lambda2
        y1 = np.array([o.y1 for o in sample])
        y2 = np.array([o.y2 for o in sample])
        kind = np.array([o.kind for o in sample])
        a = fit.alpha
        t1 = float(np.sum(np.where(y1 > 0, y1**a, 0.0)))
        t2 = float(np.sum(np.where(y2 > 0, y2**a, 0.0)))
        t0 = float(np.sum(np.maximum(y1, y2) ** a))
        n_below = float(np.sum(kind == "below"))
        n_above = float(np.sum(kind == "above"))
        n_tie = float(np.sum(kind == "tie"))
        c1 = n_below + n_above * l1 / (l0 + l1)
        c2 = n_above + n_below * l2 / (l0 + l2)
        c0 = n_tie + n_below * l0 / (l0 + l2) + n_above * l0 / (l0 + l1)
        assert l1 == pytest.approx(c1 / t1, rel=1e-4, abs=1e-8)
        assert l2 == pytest.approx(c2 / t2, rel=1e-4, abs=1e-8)
        assert l0 == pytest.approx(c0 / t0, rel=1e-4, abs=1e-8)

    def test_e_step_is_the_expected_cause_attribution(self, football, monkeypatch):
        # one attribution serves the Gibbs rate step and the inner EM, which
        # reads it from the latent layer
        assert fit_bayes.cause_counts is mobw.cause_counts
        cause_counts = mobw.cause_counts
        calls = []

        def counted(st, lambdas, rng=None):
            calls.append(lambdas)
            return cause_counts(st, lambdas, rng)

        monkeypatch.setattr(mobw, "cause_counts", counted)
        theta = init_estimates(football)
        trace = []
        inner_em_mobw(impute_dataset(theta, football), theta, trace=trace)
        assert len(calls) == len(trace)
        assert calls[0] == (theta.lambda0, theta.lambda1, theta.lambda2)

    # inner EM fits from each bundled dataset's start, recorded when the
    # profile summed raw powers; its scaled sums move them by rounding only.
    # The starts are init_estimates as it was then, so the pin is on the
    # inner EM, not on the marginal fits' optimizer
    INNER_STARTS = {
        "football": MOBWParams(
            2.0490351215785205, 0.039429477034920946, 0.23269437776836555, 0.11091248134738763
        ),
        "nasal": MOBWParams(
            2.5256654297557684, 0.051778978467215214, 0.04721899815318217, 0.12026980117467126
        ),
    }
    INNER_FITS = {
        "football": (3.1701026248272655, 5.7823026552359104e-11, 0.1294280543190818,
                     0.1022813632180077),
        "nasal": (4.265493240972163, 1.8833462310541625e-11, 0.03263433128379531,
                  0.037762374499570296),
    }

    @pytest.mark.parametrize("name", sorted(INNER_FITS))
    def test_fits_keep_their_values(self, name, request):
        data, theta = request.getfixturevalue(name), self.INNER_STARTS[name]
        fit = inner_em_mobw(impute_dataset(theta, data), theta)
        got = (fit.alpha, fit.lambda0, fit.lambda1, fit.lambda2)
        assert got == pytest.approx(self.INNER_FITS[name], rel=1e-12, abs=0.0)

    def test_rate_update_reads_the_guarded_exposures(self, football, monkeypatch):
        # one exposure sum serves the Gibbs rate step, the inner EM and callers
        assert fit_bayes.exposures is mobw.exposures
        assert not hasattr(fit_bayes, "_finite_exposures")
        exposures = mobw.exposures
        shapes = []

        def counted(st, alpha):
            shapes.append(alpha)
            return exposures(st, alpha)

        monkeypatch.setattr(mobw, "exposures", counted)
        theta = init_estimates(football)
        trace = []
        fit = inner_em_mobw(impute_dataset(theta, football), theta, trace=trace)
        assert len(shapes) == len(trace) and shapes[-1] == fit.alpha

    def test_profile_to_the_box_edge_past_the_float_range_is_refused(self):
        # the profile rises to the shape's bound 100, where 2000**100 passes
        # the float range: the rate update is refused by name, with no warning
        data = BivariateDataset(
            ((2000, 2001), (2001, 2000), (2000, 2000), (2002, 2001), (2001, 2003))
        )
        law = MOBWParams(60, 1e-200, 1e-200, 1e-200)
        sample = impute_dataset(law, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "^the exposures pass the float range at shape 100: "
            with pytest.raises(ValueError, match=message):
                inner_em_mobw(sample, law)

    def test_exposures_that_underflow_are_refused(self):
        # the lifetimes are 1e-300 and 1.001e-300, so the profile's maximum
        # lies past the shape's bound 100, where the exposures round to 0
        # and no rate c / T is finite
        sample = [
            CompleteObservation(1e-300, 1.001e-300, "below"),
            CompleteObservation(1.001e-300, 1e-300, "above"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the exposures underflow at shape 100: "):
                inner_em_mobw(sample, MOBWParams(3.0, 0.4, 0.7, 0.9))

    @pytest.mark.parametrize("y", [1.0, 2.0, 1e-300])
    @pytest.mark.parametrize("alpha", [0.01, 3.0, 1e3])
    def test_sample_with_no_shape_maximum_is_refused(self, y, alpha):
        # every event sits at its exposure's largest value: the profile
        # rises without bound in the shape, so every start is refused alike
        sample = [CompleteObservation(y, y, "below"), CompleteObservation(y, y, "above")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the shape is not identified: every event"):
                inner_em_mobw(sample, MOBWParams(alpha, 0.4, 0.7, 0.9))

    def test_all_tie_sample_rejected(self):
        from bdw.mobw import CompleteObservation

        sample = [CompleteObservation(1.2, 1.2, "tie")] * 4
        with pytest.raises(ValueError, match="not identifiable"):
            inner_em_mobw(sample, MOBWParams(1.5, 0.3, 0.5, 0.4))


def _count_evaluations(monkeypatch):
    calls = []
    inner = fit_ml.bdw_loglik_derivatives

    def counted(theta, data):
        calls.append(1)
        return inner(theta, data)

    monkeypatch.setattr(fit_ml, "bdw_loglik_derivatives", counted)
    return calls


def _check_bundled_fit(data, mle, ll, monkeypatch):
    calls = _count_evaluations(monkeypatch)
    fit = nested_em(data)
    got = (
        fit.params.alpha,
        fit.params.lambda0,
        fit.params.lambda1,
        fit.params.lambda2,
    )
    assert got == pytest.approx(mle, abs=1e-6)
    assert fit.loglik == pytest.approx(ll, abs=1e-6)
    # one Newton solve: the nested-EM route took ~1.3k evaluations
    assert len(calls) <= 30
    # the fit is a stationary point in the solver's log-parameters
    theta = np.array(got)
    _, grad, _ = bdw_loglik_derivatives(theta, data)
    assert np.linalg.norm(theta * grad) <= 1e-8
    # reported log-likelihood belongs to the reported point
    assert bdw_loglik(fit.params, data) == pytest.approx(fit.loglik, abs=1e-9)
    # derived survival bases round-trip
    assert fit.bdw.p0 == pytest.approx(math.exp(-fit.params.lambda0), rel=1e-12)


class TestNestedEM:
    def test_football_fit(self, football, monkeypatch):
        _check_bundled_fit(football, FOOTBALL_MLE, FOOTBALL_LL, monkeypatch)

    def test_nasal_fit(self, nasal, monkeypatch):
        _check_bundled_fit(nasal, NASAL_MLE, NASAL_LL, monkeypatch)

    def test_matches_direct_maximization(self, football):
        fit = nested_em(football)

        def neg(z):
            try:
                return -bdw_loglik(MOBWParams(*np.exp(z)), football)
            except (ValueError, OverflowError):
                return np.inf

        start = init_estimates(football)
        z0 = np.log([start.alpha, start.lambda0, start.lambda1, start.lambda2])
        res = minimize(neg, z0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        assert fit.loglik >= -res.fun - 1e-2

    def test_column_swap_symmetry(self, nasal):
        fit = nested_em(nasal)
        sw = nested_em(nasal.swapped())
        assert sw.params.alpha == pytest.approx(fit.params.alpha, abs=1e-8)
        assert sw.params.lambda0 == pytest.approx(fit.params.lambda0, abs=1e-8)
        assert sw.params.lambda1 == pytest.approx(fit.params.lambda2, abs=1e-8)
        assert sw.params.lambda2 == pytest.approx(fit.params.lambda1, abs=1e-8)

    def test_synthetic_recovery(self):
        gen = bivariate.BDWParams(1.6, 0.95, 0.80, 0.85)
        rng = np.random.default_rng(11)
        draws = sampling.sample(gen, rng, size=1500)
        data = BivariateDataset.from_pairs(draws.tolist())
        fit = nested_em(data)
        truth = bivariate.to_mobw(gen)
        assert fit.params.alpha == pytest.approx(truth.alpha, rel=0.15)
        assert fit.params.lambda1 == pytest.approx(truth.lambda1, rel=0.35)
        assert fit.params.lambda2 == pytest.approx(truth.lambda2, rel=0.35)

    def test_custom_start_and_validation(self, football):
        start = MOBWParams(2.0, 0.05, 0.2, 0.1)
        fit = nested_em(football, start=start)
        assert fit.loglik == pytest.approx(FOOTBALL_LL, abs=1e-4)

    @pytest.mark.parametrize("start", [None, MOBWParams(1.5, 0.3, 0.5, 0.4)])
    def test_all_tie_sample_rejected(self, start):
        # ties alone let both coordinate rates vanish: the fit must refuse
        # before the marginal start clamps p1 and p2 (with warnings) to one
        data = BivariateDataset(((1, 1), (2, 2), (3, 3), (0, 0), (5, 5), (2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^sample is all ties: coordinate rates"):
                nested_em(data, start=start)

    @pytest.mark.parametrize(
        "pairs, value",
        [(((0, 1), (0, 2), (0, 3), (0, 1), (0, 0)), 0), (((2, 1), (2, 3), (2, 2), (2, 5)), 2)],
    )
    def test_constant_column_is_named(self, pairs, value):
        with pytest.raises(
            ValueError,
            match=rf"^column x1 is constant \(every value is {value}\): all observations are equal",
        ):
            nested_em(BivariateDataset(pairs))

    @pytest.mark.parametrize("start", [None, MOBWParams(1.5, 0.3, 0.5, 0.4)])
    def test_sample_without_a_count_above_one_is_refused(self, start, monkeypatch):
        # refused before the marginal start is fitted, and silently
        def no_start(data):
            raise AssertionError("init_estimates ran")

        monkeypatch.setattr(fit_ml, "init_estimates", no_start)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match="^the shape is not identified: no count exceeds 1$"
            ):
                nested_em(BivariateDataset(ZERO_ONE), start=start)

    def test_minimum_column_of_zeros_and_ones_is_fitted(self):
        # the check is on the whole sample: init_estimates fits such a column
        data = BivariateDataset(MIN_ZERO_ONE)
        assert set(data.column("min").tolist()) == {0, 1}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = nested_em(data)
        assert fit.ci95 is not None and math.isfinite(fit.loglik)
        assert fit.params.alpha == pytest.approx(1.956821031060384, rel=1e-6)

    @pytest.mark.filterwarnings("ignore:inconsistent marginal fits")
    @pytest.mark.parametrize("start", [None, MOBWParams(1.5, 0.3, 0.5, 0.4)])
    @pytest.mark.parametrize("swap", [False, True])
    def test_one_sided_sample_is_refused(self, start, swap):
        data = BivariateDataset(ONE_SIDED)
        rate, order = "lambda2", "x1 > x2"
        if swap:
            data, rate, order = data.swapped(), "lambda1", "x1 < x2"
        with pytest.raises(
            ValueError, match=rf"^no row has {order}: the coordinate rate {rate} is not identifiable"
        ):
            nested_em(data, start=start)

    def test_counts_beyond_resolution_are_named(self):
        # the marginal start inverts the three fits' rates, ~1e-14 to
        # 1e-20, whose survival bases round to 1; the fits disagree, and
        # each coordinate rate at or below zero is floored relative to the
        # minimum's rate and named in a warning
        data = BivariateDataset(LARGE_COUNTS)
        with pytest.warns(UserWarning) as caught:
            start = init_estimates(data)
        named = sorted(str(w.message).split(" = ")[0] for w in caught)
        assert named == [f"inconsistent marginal fits: lambda{i}" for i in (1, 2)]
        floor = 1e-10 * dw_fit_minchisq(data.column("min")).law.lam
        assert start.lambda1 == start.lambda2 == floor
        assert start.lambda0 > 0.0
        with pytest.raises(ValueError, match=r"^the rate lambda0 = \S+ rounds its survival base"):
            nested_em(data, start=start).bdw

    @pytest.mark.filterwarnings("ignore:inconsistent marginal fits")
    @pytest.mark.parametrize(
        "sample, start, loglik",
        [
            ("large-counts", MOBWParams(7.0, 1e-15, 1e-15, 1e-15), -40.5838),
            ("large-counts", None, -40.5838),
            (8.0, None, -1512.6452),
            (12.0, None, -803.1450),
            (20.0, None, -284.5920),
        ],
        ids=["large-counts", "large-counts-default", "alpha-8", "alpha-12", "alpha-20"],
    )
    def test_rates_below_base_resolution_are_fitted(self, sample, start, loglik):
        # the ML point's rates, ~1e-17, round every survival base to 1; the
        # fit runs in rates, from the marginal start as from a given one,
        # and stops at a zero of the score
        data = BivariateDataset(LARGE_COUNTS) if sample == "large-counts" else _tiny_rate_sample(sample)
        fit = nested_em(data, start=start)
        assert fit.loglik == pytest.approx(loglik, abs=1e-4)
        assert max(fit.params.lambda1, fit.params.lambda2) < 1e-16
        z = np.log([fit.params.alpha, fit.params.lambda0, fit.params.lambda1, fit.params.lambda2])
        _, grad, _ = fit_ml._neg_loglik_in_logs(z, data)
        assert np.linalg.norm(grad) <= 1e-8
        with pytest.raises(ValueError, match=r"^the rate lambda0 = \S+ rounds its survival base"):
            fit.bdw

    @pytest.mark.filterwarnings("ignore:inconsistent marginal fits", "ignore:shared-shock rate")
    def test_column_with_no_best_fit_starts_from_its_mean(self):
        # the x1 column is [1, 1, 2, 2, 2], which no DW law fits best: its
        # start is the geometric law of its mean, 1.6, the DW fits' own
        # start, and the joint likelihood has its maximum, with lambda0 on
        # its boundary, reached from another start too
        data = BivariateDataset(((1, 0), (1, 3), (2, 1), (2, 4), (2, 2)))
        with pytest.raises(ValueError, match="^no DW law fits this sample best"):
            dw_fit_minchisq(data.column_ints("x1"))
        fits = [dw_fit_minchisq(data.column_ints(name)).law for name in ("x2", "min")]
        geometric = univariate.WeibullParams(1.0, math.log1p(1.0 / 1.6))
        assert init_estimates(data) == initial_params_from_marginals(geometric, *fits)
        for start in (None, MOBWParams(2.0, 0.1, 0.1, 0.1)):
            fit = nested_em(data, start=start)
            assert fit.params.alpha == pytest.approx(2.75030, abs=5e-6)
            assert fit.params.lambda0 == 0.0
            assert fit.loglik == pytest.approx(-13.9702266004, abs=1e-9)

    @pytest.mark.filterwarnings("ignore:inconsistent marginal fits")
    def test_shared_rate_at_boundary(self):
        # no ties: the shared shock has nothing to explain, so the one-sided
        # score at lambda0 = 0 is negative and the rate sits on its boundary
        gen = bivariate.BDWParams(1.5, 1.0, 0.7, 0.75)
        draws = sampling.sample(gen, np.random.default_rng(3), size=200)
        data = BivariateDataset(tuple((int(a), int(b)) for a, b in draws if a != b))
        with pytest.warns(UserWarning, match="at its boundary"):
            fit = nested_em(data)
        assert fit.params.lambda0 == 0.0
        assert fit.bdw.p0 == 1.0
        assert fit.ci95 is None
        theta = (fit.params.alpha, 0.0, fit.params.lambda1, fit.params.lambda2)
        _, score, _ = bdw_loglik_derivatives(theta, data)
        assert score[1] <= 0.0
        assert fit.loglik == pytest.approx(bdw_loglik(fit.params, data), abs=1e-12)


class TestInference:
    def test_confidence_intervals(self, football):
        fit = nested_em(football)
        ci = observed_info_ci(fit.params, football)
        lo, hi = ci["alpha"]
        assert lo == pytest.approx(1.5915, abs=2e-3)
        assert hi == pytest.approx(2.7141, abs=2e-3)
        for name in ("lambda0", "lambda1", "lambda2"):
            a, b = ci[name]
            assert a < b
        assert fit.ci95 is not None
        assert fit.ci95["alpha"] == pytest.approx((hi - lo) / 2.0, rel=1e-6)

    def test_default_quantile_is_the_normal_quantile(self, football):
        # the default level reads a constant, so statistics is not imported
        # for it; another level takes its quantile from statistics
        from statistics import NormalDist

        assert fit_ml._Z95 == NormalDist().inv_cdf(0.5 + 0.95 / 2.0)
        fit = nested_em(football)
        lo95, hi95 = observed_info_ci(fit.params, football)["alpha"]
        lo90, hi90 = observed_info_ci(fit.params, football, level=0.9)["alpha"]
        assert (hi90 - lo90) / (hi95 - lo95) == pytest.approx(
            NormalDist().inv_cdf(0.95) / fit_ml._Z95, rel=1e-12
        )

    @pytest.mark.filterwarnings("ignore:inconsistent marginal fits")
    def test_intervals_at_shared_rate_boundary(self):
        # no ties: lambda0 sits at 0, where the full 4x4 information is
        # indefinite; the intervals hold lambda0 there and invert the 3x3 rest
        gen = bivariate.BDWParams(1.5, 1.0, 0.7, 0.75)
        draws = sampling.sample(gen, np.random.default_rng(3), size=157)
        data = BivariateDataset(tuple((int(a), int(b)) for a, b in draws if a != b))
        assert data.n == 112
        with pytest.warns(UserWarning, match="at its boundary"):
            fit = nested_em(data)
        assert fit.params.lambda0 == 0.0 and fit.ci95 is None
        theta = (fit.params.alpha, 0.0, fit.params.lambda1, fit.params.lambda2)
        hess = np.array(bdw_loglik_derivatives(theta, data)[2])
        assert np.linalg.eigvalsh(-hess).min() < 0
        free = [0, 2, 3]
        info = -hess[np.ix_(free, free)]
        assert np.linalg.eigvalsh(info).min() > 0
        ci = observed_info_ci(fit.params, data)
        assert list(ci) == ["alpha", "lambda1", "lambda2"]
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        for (name, (lo, hi)), x, s in zip(ci.items(), np.take(theta, free), se):
            assert lo < x < hi, name
            assert (hi - lo) / 2.0 == pytest.approx(1.959963984540054 * s, rel=1e-12)
        assert fit.params.alpha == pytest.approx(1.4987, abs=1e-3)
        test = alpha_equals_one_test(fit, data)
        assert (test.ci_low, test.ci_high) == ci["alpha"]
        assert test.reject

    @pytest.mark.parametrize("call, value", [
        pytest.param(lambda fit, data, v: observed_info_ci(fit.params, data, level=v), "0.9",
                     id="observed_info_ci"),
        # 1 - level raised a bare TypeError before any check
        pytest.param(lambda fit, data, v: alpha_equals_one_test(fit, data, level=v), "0.1",
                     id="alpha_equals_one_test"),
    ])
    def test_level_that_is_no_number_is_refused_by_name(self, football, call, value):
        fit = nested_em(football)
        with pytest.raises(ValueError, match=f"^level must be a number, got '{value}'$"):
            call(fit, football, value)
        with pytest.raises(ValueError, match=r"^level must lie in \(0, 1\), got "):
            call(fit, football, 1.5)

    def test_geometric_null_rejected_on_both_datasets(self, football, nasal):
        for data in (football, nasal):
            fit = nested_em(data)
            rep = alpha_equals_one_test(fit, data)
            assert rep.reject
            assert rep.ci_low > 1.0
            assert rep.level == 0.05
            assert "reject" in rep.verdict.lower() or rep.reject

    def test_geometric_data_not_rejected(self):
        gen = bivariate.BDWParams(1.0, 0.9, 0.75, 0.8)
        rng = np.random.default_rng(5)
        draws = sampling.sample(gen, rng, size=600)
        data = BivariateDataset.from_pairs(draws.tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = nested_em(data)
            rep = alpha_equals_one_test(fit, data)
        assert rep.ci_low <= 1.0 <= rep.ci_high
        assert not rep.reject


@pytest.mark.parametrize("name", ["football", "nasal", "wide", "heavy-tailed"])
def test_no_runtime_warning_escapes_a_fit(name, request):
    # the start grids reach shape 100, where powers of the counts overflow
    if name in ("football", "nasal"):
        data = request.getfixturevalue(name)
    else:
        law = (
            bivariate.BDWParams(1.2, 0.97, 0.95, 0.96)
            if name == "wide"
            else bivariate.BDWParams(0.6, 0.9, 0.7, 0.75)
        )
        data = BivariateDataset.from_pairs(sampling.sample(law, np.random.default_rng(0), 300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for column in ("x1", "x2", "min"):
            dw_fit_ml(data.column(column))
            dw_fit_minchisq(data.column(column))
        nested_em(data)
        if name == "heavy-tailed":
            # a start shape below one: the sampler refuses by name
            with pytest.raises(ValueError, match="imputes a zero lifetime"):
                augmented_gibbs(data, M=100, N=1, rng=np.random.default_rng(0))
        else:
            augmented_gibbs(data, M=100, N=1, rng=np.random.default_rng(0))
