import math
import re

import numpy as np
import pytest
from scipy import integrate, stats

from bdw import bivariate, gof, mobw, univariate
from bdw.univariate import (
    ALPHA_HI,
    ALPHA_LO,
    DWParams,
    SingularDensityError,
    WeibullParams,
    dw_fit_minchisq,
    dw_fit_ml,
    dw_logpmf,
    dw_min_of_n,
    dw_pmf,
    dw_sample,
    dw_sf,
    we_cdf,
    we_mode,
    we_pdf,
    we_sample,
)

# a wide-support law with shape 1.2: its marginal fits must leave shape one
WIDE = bivariate.BDWParams(1.2, 0.97, 0.95, 0.96)


def _pearson_by_pmf(xs, z):
    """Pearson statistic on the observed support at ``(log alpha, log(-log p))``."""
    values, counts = np.unique(xs, return_counts=True)
    params = DWParams(math.exp(z[0]), math.exp(-math.exp(z[1])))
    expected = xs.size * np.array([dw_pmf(params, int(v)) for v in values])
    return float(np.sum((counts - expected) ** 2 / expected))


class TestContinuousWeibull:
    def test_pdf_matches_reference_distribution(self):
        params = WeibullParams(1.7, 0.8)
        ref = stats.weibull_min(1.7, scale=0.8 ** (-1.0 / 1.7))
        for x in (0.05, 0.3, 1.0, 2.4):
            assert we_pdf(params, x) == pytest.approx(ref.pdf(x), rel=1e-12)
            assert we_cdf(params, x) == pytest.approx(ref.cdf(x), rel=1e-12)

    def test_pdf_integrates_to_cdf(self):
        params = WeibullParams(2.3, 1.4)
        val, err = integrate.quad(lambda x: we_pdf(params, x), 0.0, 1.5)
        assert val == pytest.approx(we_cdf(params, 1.5), abs=1e-10)

    def test_density_at_origin_by_shape(self):
        assert we_pdf(WeibullParams(2.0, 1.0), 0.0) == 0.0
        assert we_pdf(WeibullParams(1.0, 3.5), 0.0) == 3.5
        with pytest.raises(SingularDensityError):
            we_pdf(WeibullParams(0.7, 1.0), 0.0)

    def test_mode_is_argmax(self):
        alpha, lam = 2.6, 0.9
        m = we_mode(alpha, lam)
        params = WeibullParams(alpha, lam)
        xs = np.linspace(1e-6, 4.0, 40001)
        dens = [we_pdf(params, x) for x in xs]
        assert m == pytest.approx(xs[int(np.argmax(dens))], abs=1e-3)
        with pytest.raises(ValueError):
            we_mode(0.9, 1.0)

    # x**alpha past the float range, where a bare float power raises
    def test_density_past_float_range_is_zero(self):
        assert we_pdf(WeibullParams(50.0, 0.5), 1e10) == 0.0

    def test_cdf_past_float_range_is_one(self):
        assert we_cdf(WeibullParams(50.0, 0.5), 1e10) == 1.0

    def test_sampler_agrees_with_reference(self, rng):
        params = WeibullParams(1.5, 2.0)
        draws = we_sample(params, rng, size=20_000)
        ref = stats.weibull_min(1.5, scale=2.0 ** (-1.0 / 1.5))
        _, pval = stats.kstest(draws, ref.cdf)
        assert pval > 0.01

    def test_parameter_validation(self):
        for bad in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0)):
            with pytest.raises(ValueError):
                WeibullParams(*bad)


class TestDiscreteWeibullPMF:
    def test_pmf_is_survival_difference(self):
        params = DWParams(1.7, 0.85)
        for y in range(8):
            direct = 0.85 ** (y**1.7) - 0.85 ** ((y + 1) ** 1.7)
            assert dw_pmf(params, y) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize(
        "alpha,p", [(0.6, 0.4), (1.0, 0.7), (1.8, 0.9), (3.5, 0.99), (2.0, 0.05)]
    )
    def test_normalization(self, alpha, p):
        params = DWParams(alpha, p)
        cap = 5
        while dw_sf(params, cap) > 1e-16:
            cap *= 2
        total = sum(dw_pmf(params, y) for y in range(cap)) + dw_sf(params, cap)
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_survival_is_cellwise_constant(self):
        params = DWParams(1.4, 0.8)
        assert dw_sf(params, 0) == 1.0
        assert dw_sf(params, 0.999) == 1.0
        assert dw_sf(params, 2.0) == dw_sf(params, 2.7)
        assert dw_sf(params, 2.0) == pytest.approx(0.8 ** (2**1.4), rel=1e-12)

    def test_geometric_special_case(self):
        params = DWParams(1.0, 0.65)
        for y in range(12):
            assert dw_pmf(params, y) == pytest.approx(0.35 * 0.65**y, rel=1e-12)

    def test_logpmf_consistency(self):
        params = DWParams(2.2, 0.93)
        for y in range(6):
            assert dw_logpmf(params, y) == pytest.approx(
                math.log(dw_pmf(params, y)), abs=1e-12
            )

    def test_near_one_base_keeps_relative_accuracy(self):
        # survival terms nearly cancel here; a naive difference would lose
        # most significant digits
        params = DWParams(1.5, 1.0 - 1e-9)
        direct = -math.expm1((2.0**1.5 - 1.0) * math.log(params.p))
        assert dw_pmf(params, 1) == pytest.approx(
            math.exp(math.log(params.p)) * direct, rel=1e-9
        )
        assert dw_pmf(params, 1) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DWParams(1.0, 0.0)
        with pytest.raises(ValueError):
            DWParams(1.0, 1.2)
        with pytest.raises(ValueError):
            DWParams(-0.5, 0.5)
        with pytest.raises(ValueError):
            dw_pmf(DWParams(1.0, 0.5), -1)
        # p = 1 has no distribution on the integers: refused when built
        with pytest.raises(ValueError, match=r"^p must lie in \(0, 1\), got 1.0"):
            DWParams(1.0, 1.0)


class TestDWSampling:
    def test_chi_square_consistency(self, rng):
        params = DWParams(1.6, 0.75)
        draws = dw_sample(params, rng, size=40_000)
        values, counts = np.unique(draws, return_counts=True)
        cap = int(values.max()) + 1
        observed = np.zeros(cap + 1)
        observed[values.astype(int)] = counts
        expected = np.array(
            [draws.size * dw_pmf(params, y) for y in range(cap)]
            + [draws.size * dw_sf(params, cap)]
        )
        keep = expected >= 5
        observed[cap] = draws.size - observed[:cap].sum()
        stat = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        pval = stats.chi2.sf(stat, int(keep.sum()) - 1)
        assert pval > 0.01

    def test_seeded_reproducibility(self):
        params = DWParams(2.0, 0.9)
        a = dw_sample(params, np.random.default_rng(7), size=100)
        b = dw_sample(params, np.random.default_rng(7), size=100)
        np.testing.assert_array_equal(a, b)

    def test_scalar_draw(self, rng):
        val = dw_sample(DWParams(1.2, 0.6), rng)
        assert isinstance(val, int)
        assert val >= 0

    def test_min_of_n_survival_identity(self):
        params = DWParams(1.9, 0.85)
        law = dw_min_of_n(params, 3)
        assert law.alpha == params.alpha
        assert law.p == pytest.approx(0.85**3, rel=1e-14)
        for y in range(1, 6):
            assert dw_sf(law, y) == pytest.approx(dw_sf(params, y) ** 3, rel=1e-12)
        with pytest.raises(ValueError):
            dw_min_of_n(params, 0)


class TestDWFitting:
    def test_ml_fit_dominates_truth_and_neighbors(self, rng):
        truth = DWParams(1.8, 0.8)
        draws = dw_sample(truth, rng, size=400)

        def ll(params):
            return sum(dw_logpmf(params, int(y)) for y in draws)

        fit = dw_fit_ml(draws)
        assert fit.loglik == pytest.approx(ll(fit.params), abs=1e-9)
        assert fit.loglik >= ll(truth) - 1e-9
        for da in (-0.05, 0.05):
            for dp in (-0.02, 0.02):
                other = DWParams(fit.params.alpha + da, fit.params.p + dp)
                assert fit.loglik >= ll(other) - 1e-9

    def test_ml_fit_recovers_truth_at_scale(self, rng):
        truth = DWParams(2.2, 0.88)
        draws = dw_sample(truth, rng, size=4000)
        fit = dw_fit_ml(draws)
        assert fit.params.alpha == pytest.approx(truth.alpha, rel=0.1)
        assert fit.params.p == pytest.approx(truth.p, abs=0.02)

    def test_geometric_data_fits_shape_one(self, rng):
        draws = rng.geometric(0.35, size=4000) - 1
        fit = dw_fit_ml(draws)
        assert fit.params.alpha == pytest.approx(1.0, abs=0.06)

    def test_min_chisq_attains_lower_statistic_than_ml_point(self, football):
        col = football.column("x1")
        mc = dw_fit_minchisq(col)
        ml = dw_fit_ml(col)
        values, counts = np.unique(col, return_counts=True)
        n = col.size

        def pearson(params):
            exp = np.array([n * dw_pmf(params, int(v)) for v in values])
            return float(((counts - exp) ** 2 / exp).sum())

        assert mc.chisq == pytest.approx(pearson(mc.params), abs=1e-9)
        assert mc.chisq <= pearson(ml.params) + 1e-9

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError):
            dw_fit_ml([3, 3, 3, 3])
        with pytest.raises(ValueError):
            dw_fit_minchisq([0, 0])
        with pytest.raises(ValueError):
            dw_fit_ml([])
        with pytest.raises(ValueError):
            dw_fit_ml([1.5, 2.0])

    @pytest.mark.parametrize(
        "data, fits",
        [([1, 1, 2, 2, 2], [dw_fit_minchisq]), ([3, 4, 4], [dw_fit_minchisq, dw_fit_ml])],
    )
    def test_no_best_law_is_refused(self, data, fits):
        # the statistic falls on towards alpha -> inf, p -> 1 without a minimum
        for fit in fits:
            with pytest.raises(ValueError, match="^no DW law fits this sample best: "):
                fit(data)

    @pytest.mark.parametrize("data", [[1, 1, 2, 2, 2], [0, 0, 1, 1, 1], [0, 1]])
    def test_two_adjacent_values_are_refused(self, data):
        # DW laws reach any two-point law on {k, k+1} only as alpha -> inf,
        # so the likelihood's supremum is the sample's own frequencies
        counts = np.unique(data, return_counts=True)[1]
        sup = float(counts @ np.log(counts / len(data)))
        with pytest.raises(
            ValueError, match=rf"^no DW law fits this sample best: .* supremum {sup:.6g} "
        ):
            dw_fit_ml(data)

    @pytest.mark.parametrize("fit", [dw_fit_minchisq, dw_fit_ml])
    def test_counts_beyond_resolution_are_named(self, fit):
        # the best law's p = exp(-lambda) rounds to 1 at these counts: the
        # fit holds its rate, and only the law in bases is refused
        xs = [100, 130, 110, 95, 120]
        got = fit(xs)
        assert 0.0 < got.law.lam and math.exp(-got.law.lam) == 1.0
        # a minimum in (log alpha, log lambda): the objective's gradient vanishes
        values, counts = np.unique(xs, return_counts=True)
        values, counts = values.astype(float), counts.astype(float)
        z = np.log([got.law.alpha, got.law.lam])
        if fit is dw_fit_ml:
            _, grad, _ = univariate._neg_loglik_jet(z, values, counts)
        else:
            _, grad, _ = univariate._pearson_jet(z, values, counts, len(xs))
        assert np.linalg.norm(grad) <= 1e-8
        with pytest.raises(ValueError, match=r"^the rate lambda = \S+ rounds its survival base"):
            got.params

    def test_search_box_spans_real_data(self):
        assert ALPHA_LO <= 0.1 and ALPHA_HI >= 10.0

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("column", ["x1", "min"])
    def test_min_chisq_moves_the_shape(self, seed, column):
        pairs = bivariate.sample(WIDE, np.random.default_rng(seed), 1000)
        xs = pairs[:, 0] if column == "x1" else pairs.min(axis=1)
        fit = dw_fit_minchisq(xs)
        assert abs(fit.params.alpha - 1.0) > 0.05
        z = np.array([math.log(fit.params.alpha), math.log(-math.log(fit.params.p))])
        assert _pearson_by_pmf(xs, z) == pytest.approx(fit.chisq, rel=1e-12)
        # a stationary point: central differences of the statistic vanish
        h = 1e-5
        grad = [
            (_pearson_by_pmf(xs, z + h * e) - _pearson_by_pmf(xs, z - h * e)) / (2 * h)
            for e in np.eye(2)
        ]
        assert np.linalg.norm(grad) <= 1e-6 * fit.chisq


class TestFitObjectives:
    # the objectives the DW fits hand to the Newton solver, in
    # (log alpha, log(-log p)): values from the pmf, derivatives against
    # central differences of the objective itself
    VALUES = np.array([0.0, 1.0, 2.0, 4.0, 7.0])
    COUNTS = np.array([5.0, 9.0, 6.0, 3.0, 1.0])

    def objective(self, kind, z):
        z = np.asarray(z, dtype=float)
        if kind == "loglik":
            return univariate._neg_loglik_jet(z, self.VALUES, self.COUNTS)
        return univariate._pearson_jet(z, self.VALUES, self.COUNTS, int(self.COUNTS.sum()))

    @pytest.mark.parametrize("z", [(0.3, -1.0), (-0.7, 0.5), (0.9, -2.0), (0.0, -0.3)])
    @pytest.mark.parametrize("kind", ["loglik", "pearson"])
    def test_derivatives_match_central_differences(self, kind, z):
        value, grad, hess = self.objective(kind, z)
        if kind == "loglik":
            params = DWParams(math.exp(z[0]), math.exp(-math.exp(z[1])))
            want = -sum(c * dw_logpmf(params, int(v)) for v, c in zip(self.VALUES, self.COUNTS))
        else:
            want = _pearson_by_pmf(np.repeat(self.VALUES, self.COUNTS.astype(int)), z)
        assert value == pytest.approx(want, rel=1e-12)
        h = 1e-5
        steps = [h * e for e in np.eye(2)]
        num_grad = [
            (self.objective(kind, z + s)[0] - self.objective(kind, z - s)[0]) / (2 * h)
            for s in steps
        ]
        num_hess = [
            (self.objective(kind, z + s)[1] - self.objective(kind, z - s)[1]) / (2 * h)
            for s in steps
        ]
        scale = np.abs(grad).max() + np.abs(hess).max()
        np.testing.assert_allclose(grad, num_grad, rtol=1e-7, atol=1e-9 * scale)
        np.testing.assert_allclose(hess, num_hess, rtol=1e-6, atol=1e-8 * scale)


class TestNewtonSolver:
    @staticmethod
    def rosenbrock(z):
        x, y = z
        value = 100.0 * (y - x * x) ** 2 + (1.0 - x) ** 2
        grad = np.array([-400.0 * x * (y - x * x) - 2.0 * (1.0 - x), 200.0 * (y - x * x)])
        hess = np.array([[1200.0 * x * x - 400.0 * y + 2.0, -400.0 * x], [-400.0 * x, 200.0]])
        return value, grad, hess

    def test_descends_from_an_indefinite_start(self):
        # the Hessian at the start has a negative eigenvalue: the shifted
        # system must still give descent steps
        start = np.array([0.0, 1.0])
        assert np.linalg.eigvalsh(self.rosenbrock(start)[2]).min() < 0
        z, value = univariate._newton_min(self.rosenbrock, start)
        np.testing.assert_allclose(z, [1.0, 1.0], rtol=1e-9)
        assert value <= 1e-20

    def test_start_outside_the_domain_is_refused(self):
        def fun(z):
            return math.inf, np.zeros(1), np.zeros((1, 1))

        with pytest.raises(ValueError, match="not finite at the start"):
            univariate._newton_min(fun, np.zeros(1))

    def test_unbounded_descent_stops_at_the_step_cap(self):
        # convex, with its infimum at infinity: every step is capped
        def fun(z):
            r = math.hypot(1.0, z[0])
            return r - 2.0 * z[0], np.array([z[0] / r - 2.0]), np.array([[r**-3]])

        with pytest.raises(univariate._StepCapError, match="still descending after 200 steps"):
            univariate._newton_min(fun, np.zeros(1))

    def test_vanishing_curvature_reaches_the_step_cap(self):
        # convex, with its infimum at infinity; past z = 354 the curvature
        # exp(-z) is so small that the squares of the Newton step overflow,
        # and the step must still be capped, not zeroed
        def fun(z):
            e = math.exp(-z[0])
            return e - z[0], np.array([-e - 1.0]), np.array([[e]])

        with pytest.raises(univariate._StepCapError, match="still descending after 200 steps"):
            univariate._newton_min(fun, np.zeros(1))

    def test_flat_descent_is_refused(self):
        # a zero Hessian: the shifted Newton step overflows to inf
        def fun(z):
            return -z[0], np.array([-1.0]), np.zeros((1, 1))

        with pytest.raises(univariate._StepCapError, match="step overflows: .* not attained"):
            univariate._newton_min(fun, np.zeros(1))


# the scalar law functions' arguments, with the name each refusal gives;
# a count argument refuses anything but a whole number
_LAW = bivariate.BDWParams(1.5, 0.9, 0.7, 0.75)
_LATENT = mobw.MOBWParams(1.5, 0.1, 0.3, 0.2)
_DW = DWParams(1.5, 0.7)
COUNT_ARGS = {
    "joint_pmf": (lambda v: bivariate.joint_pmf(_LAW, v, 0), "x1"),
    "joint_cdf": (lambda v: bivariate.joint_cdf(_LAW, 0, v), "x2"),
    "cond_pmf": (lambda v: bivariate.cond_pmf(_LAW, v, 1), "x1"),
    "ml_predict": (lambda v: mobw.ml_predict(_LATENT, v, 0), "i"),
    "dw_pmf": (lambda v: dw_pmf(_DW, v), "y"),
    "dw_logpmf": (lambda v: dw_logpmf(_DW, v), "y"),
    "dw_min_of_n": (lambda v: dw_min_of_n(_DW, v), "n"),
    "joint_pmf_grid": (lambda v: bivariate.joint_pmf_grid(_LAW, v, 3), "k1"),
    "is_tp2_on_grid": (lambda v: bivariate.is_tp2_on_grid(_LAW, v), "k"),
    "pqd_check_on_grid": (lambda v: bivariate.pqd_check_on_grid(_LAW, v), "k"),
    "chisq_upper_tail-df": (lambda v: gof.chisq_upper_tail(1.0, v), "degrees of freedom"),
}
# a real argument, with the function's limit at infinity, or None where
# the argument must be positive and finite
REAL_ARGS = {
    "dw_sf": (lambda v: dw_sf(_DW, v), "y", 0.0),
    "joint_sf": (lambda v: bivariate.joint_sf(_LAW, v, 0), "arguments", 0.0),
    "we_pdf": (lambda v: we_pdf(WeibullParams(1.5, 0.3), v), "x", 0.0),
    "we_cdf": (lambda v: we_cdf(WeibullParams(1.5, 0.3), v), "x", 1.0),
    "mobw_sf": (lambda v: mobw.mobw_sf(_LATENT, v, 0), "arguments", 0.0),
    "mobw_pdf": (lambda v: mobw.mobw_pdf(_LATENT, v, 1.0).value, "arguments", 0.0),
    "chisq_upper_tail-x": (lambda v: gof.chisq_upper_tail(v, 3), "statistic", 0.0),
    "we_mode-shape": (lambda v: we_mode(v, 0.3), "shape", None),
    "we_mode-rate": (lambda v: we_mode(1.5, v), "rate", None),
}
ODD_VALUES = pytest.mark.parametrize(
    "value", [math.inf, math.nan, 2.5, -1], ids=["inf", "nan", "fraction", "negative"]
)
# whole numbers past the int64 range, and past the float range
PAST_INT64 = pytest.mark.parametrize("value", [2**63, 10**400], ids=["2**63", "10**400"])


class TestArgumentContract:
    @ODD_VALUES
    @pytest.mark.parametrize("entry", sorted(COUNT_ARGS))
    def test_count_argument_is_refused_by_name(self, entry, value):
        call, name = COUNT_ARGS[entry]
        message = rf"^{name} must be a (non-negative|positive) integer, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            call(value)

    @PAST_INT64
    @pytest.mark.parametrize("entry", sorted(COUNT_ARGS))
    def test_count_past_int64_is_refused_by_name(self, entry, value):
        call, name = COUNT_ARGS[entry]
        message = rf"^{name} must not exceed the largest count 2\*\*63 - 1, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            call(value)

    @pytest.mark.parametrize("entry", ["joint_pmf", "joint_cdf", "cond_pmf", "dw_pmf"])
    def test_largest_count_is_a_count(self, entry):
        call, _ = COUNT_ARGS[entry]
        assert math.isfinite(call(2**63 - 1))

    @pytest.mark.parametrize("check", [bivariate.is_tp2_on_grid, bivariate.pqd_check_on_grid])
    def test_largest_count_is_a_grid_bound(self, check):
        # the law's largest ratio there is past the float range, refused by
        # name; at p0 = 1 every ratio is one
        k = 2**63 - 1
        with pytest.raises(ValueError, match=rf"^the largest survival ratio on the grid "
                           rf"of bound k = {k} is exp\("):
            check(_LAW, k)
        assert check(bivariate.BDWParams(1.5, 1.0, 0.7, 0.75), k).max_ratio == 1.0

    @pytest.mark.parametrize("entry", sorted(COUNT_ARGS))
    def test_whole_numbers_of_any_type_are_counts(self, entry):
        call, _ = COUNT_ARGS[entry]
        want = repr(call(3))
        for value in (3.0, np.int64(3), np.float64(3.0)):
            assert repr(call(value)) == want

    @ODD_VALUES
    @pytest.mark.parametrize("entry", sorted(REAL_ARGS))
    def test_real_argument_is_finite_or_refused_by_name(self, entry, value):
        call, name, limit = REAL_ARGS[entry]
        if limit is None:
            if 0 < value < math.inf:
                assert math.isfinite(call(value))
            else:
                message = rf"^{name} must be positive and finite, got {re.escape(repr(value))}$"
                with pytest.raises(ValueError, match=message):
                    call(value)
        elif value >= 0:
            got = call(value)
            assert math.isfinite(got)
            assert value < math.inf or got == limit
        else:
            message = rf"^{name} must be non-negative, got \(?{re.escape(repr(value))}"
            with pytest.raises(ValueError, match=message):
                call(value)

    def test_infinite_lifetime_has_no_density_beside_a_pole(self):
        # below shape one the density is infinite on the axes, but no
        # lifetime is infinite
        law = mobw.MOBWParams(0.5, 0.1, 0.3, 0.2)
        assert mobw.mobw_pdf(law, 2.5, 0.0).value == math.inf
        assert mobw.mobw_pdf(law, math.inf, 0.0) == (0.0, "above")
        assert mobw.mobw_pdf(law, 0.0, math.inf) == (0.0, "below")
