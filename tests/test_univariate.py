import math
import re
from itertools import product

import numpy as np
import pytest
from scipy import integrate, stats

from bdw import (
    bivariate, fit_bayes, fit_ml, generator, gof, mobw, properties, sampling, univariate, weibull,
)
from bdw.mobw import ALPHA_HI, ALPHA_LO, we_cdf, we_mode, we_pdf
from bdw.sampling import dw_min_of_n, dw_sample, we_sample
from bdw.univariate import (
    DWParams,
    SingularDensityError,
    WeibullParams,
    dw_fit_minchisq,
    dw_fit_ml,
    dw_logpmf,
    dw_pmf,
    dw_sf,
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

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("rate", [1e-27, 1e-20, 1e-12, 1e-6, 0.5])
    def test_log_mass_matches_mpmath_at_large_counts(self, alpha, rate):
        # (y+1)**alpha - y**alpha cancels as alpha/y shrinks, and the mass
        # as the rate does; the power step keeps the log-mass to 1e-12
        # relative of the survival difference at counts up to 10**9
        from mpmath import mp

        law = WeibullParams(alpha, rate)
        with mp.workdps(80):
            a, r = mp.mpf(alpha), mp.mpf(rate)
            for y in [0, 1, 7, 10**3, 10**6, 10**9]:
                y_ = mp.mpf(y)
                want = mp.log(mp.exp(-r * y_**a) - mp.exp(-r * (y_ + 1) ** a))
                assert weibull.dw_logpmf(law, y) == pytest.approx(float(want), rel=1e-12), y

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


# numpy's default_rng at the edges of the seed's 32-bit words, and at 50
# seeds drawn below 2**64
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [
    int(seed) for seed in np.random.default_rng(20261019).integers(0, 2**64, 50, dtype=np.uint64)
]


# numpy Generator's scalar draws, as the package's generator gives them:
# each kind over 6 seeds x 20000 draws, against numpy's array of the same
# draws (which numpy makes one value at a time), on every branch of the
# gamma (shape 0, below 1, 1, above 1) and of the binomial (n = 0, p = 0,
# p = 1, p above one half, inversion and BTPE)
DRAW_SEEDS = [0, 1, 2**32, 2**64 - 1, *STREAM_SEEDS[6:8]]
DRAWS = {
    "random": (lambda g: g.random(), lambda r, n: r.random(n)),
    "exponential": (lambda g: g.exponential(), lambda r, n: r.exponential(size=n)),
    "normal": (lambda g: g._standard_normal(), lambda r, n: r.standard_normal(n)),
    **{
        f"gamma-{shape:g}": (
            lambda g, shape=shape: g.gamma(shape, 0.7), lambda r, n, shape=shape: r.gamma(shape, 0.7, n)
        )
        for shape in (0.0, 1e-4, 0.5, 1.0, 2.5, 300.0)
    },
    **{
        f"binomial-{n}-{p:g}": (
            lambda g, n=n, p=p: g.binomial(n, p), lambda r, k, n=n, p=p: r.binomial(n, p, k)
        )
        # n = 0; p = 0 and 1; inversion below and above one half, at its
        # edge n * p = 30, and BTPE below and above one half
        for n, p in ((0, 0.3), (20, 0.0), (20, 1.0), (13, 0.4), (25, 0.8), (60, 0.5),
                     (500, 0.4), (1000, 0.93))
    },
}


def _not_a_size(size) -> str:
    return f"^size must be a non-negative integer, got {re.escape(repr(size))}$"


class TestSeededStream:
    @pytest.mark.parametrize("kind", sorted(DRAWS))
    def test_generator_draws_equal_numpy_bit_for_bit(self, kind):
        ours, theirs = DRAWS[kind]
        for seed in DRAW_SEEDS:
            g = generator._Generator(seed)
            got = [ours(g) for _ in range(20_000)]
            want = theirs(np.random.default_rng(seed), 20_000)
            assert {type(v) for v in got} == {int if want.dtype == np.int64 else float}
            assert got == want.tolist(), seed

    def test_btpe_binomials_equal_numpy_bit_for_bit(self):
        # 40 (n, p) pairs with n * min(p, 1 - p) > 30, from n = 61 to 10**6
        pairs = np.random.default_rng(216)
        for seed in DRAW_SEEDS[:2] + [int(s) for s in pairs.integers(0, 2**63, 38)]:
            n = int(10 ** pairs.uniform(1.8, 6.0))
            edge = 30.0 / n
            p = float(pairs.uniform(edge, 1.0 - edge)) if edge < 0.49 else 0.5
            assert n * min(p, 1.0 - p) > 30.0
            g = generator._Generator(seed)
            got = [g.binomial(n, p) for _ in range(2_500)]
            assert got == np.random.default_rng(seed).binomial(n, p, 2_500).tolist(), (n, p)

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    def test_interleaved_draws_continue_one_stream(self, seed):
        # as a Gibbs sweep calls them: every kind in turn, on one stream
        g, r = generator._Generator(seed), np.random.default_rng(seed)
        for _ in range(1_000):
            assert g.binomial(7, 0.3) == r.binomial(7, 0.3)
            assert g.binomial(400, 0.6) == r.binomial(400, 0.6)
            assert g.gamma(4.2, 0.1) == r.gamma(4.2, 0.1)
            assert g.gamma(0.3, 2.0) == r.gamma(0.3, 2.0)
            assert g.random() == r.random()
            assert g.exponential() == r.exponential()
            assert g.random(3) == r.random(3).tolist()

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_draws_equal_numpy_bit_for_bit(self, seed):
        got = sampling._Stream(seed).random(500)
        assert type(got) is list and got == np.random.default_rng(seed).random(500).tolist()

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
    def test_state_carries_across_calls(self, seed):
        stream, rng = sampling._Stream(seed), np.random.default_rng(seed)
        first, second = stream.random(100), stream.random(200)
        assert first == rng.random(100).tolist() and second == rng.random(200).tolist()
        assert first + second == np.random.default_rng(seed).random(300).tolist()

    @pytest.mark.parametrize("n, size", [(2**62, "32 EiB"), (10**19, "69.4 EiB")])
    def test_draws_too_many_to_hold_are_refused_by_size(self, n, size):
        # refused before any memory is asked for: the byte count passes
        # the largest allocation a list can request
        with pytest.raises(MemoryError, match=f"^Unable to allocate {size} for a list of {n} "):
            sampling._Stream(0).random(n)

    @pytest.mark.parametrize("sampler, law", [
        (we_sample, WeibullParams(1.5, 2.0)),
        (dw_sample, DWParams(1.6, 0.75)),
        (sampling.mobw_sample, bivariate.MOBWParams(1.5, 0.4, 0.7, 0.9)),
        (sampling.sample, WIDE),
    ], ids=["we", "dw", "mobw", "bdw"])
    def test_negative_size_is_refused_as_numpy_refuses_it(self, sampler, law):
        with pytest.raises(ValueError) as theirs:
            sampler(law, np.random.default_rng(0), size=-3)
        for rng in (sampling._Stream(0), generator._Generator(0)):
            with pytest.raises(ValueError, match=f"^{re.escape(str(theirs.value))}$"):
                sampler(law, rng, size=-3)
            assert sampler(law, rng, size=0) == []
        for n in (-1, -3):
            with pytest.raises(ValueError, match=f"^{re.escape(str(theirs.value))}$"):
                generator._Generator(0).random(n)

    @pytest.mark.parametrize("sampler, law", [
        (sampling.mobw_sample, bivariate.MOBWParams(1.5, 0.4, 0.7, 0.9)),
        (sampling.sample, WIDE),
    ], ids=["mobw", "bdw"])
    def test_joint_samplers_read_size_as_a_count(self, sampler, law):
        # a whole number of any type draws as its int; anything else is
        # refused by name, where int() drew 2 pairs for 2.5 and 3 for "3"
        for make in (np.random.default_rng, sampling._Stream):
            want = sampler(law, make(4), size=3)
            for size in (3.0, np.int64(3)):
                got = sampler(law, make(4), size=size)
                assert type(got) is type(want) and np.array_equal(got, want)
            for size in (2.5, "3", math.nan, True):
                with pytest.raises(ValueError, match=_not_a_size(size)):
                    sampler(law, make(4), size=size)

    @pytest.mark.parametrize("sampler, law", [
        (we_sample, WeibullParams(1.5, 2.0)),
        (dw_sample, DWParams(1.6, 0.75)),
    ], ids=["we", "dw"])
    def test_dw_samplers_on_the_stream_read_size_as_a_count(self, sampler, law):
        # the stream takes the joint samplers' rule, where it raised a bare
        # TypeError even for 3.0; numpy's generator keeps numpy's own rules
        want = sampler(law, sampling._Stream(4), size=3)
        for size in (3.0, np.int64(3)):
            assert sampler(law, sampling._Stream(4), size=size) == want
            assert sampler(law, np.random.default_rng(4), size=int(size)).tolist() == want
        for size in (2.5, "3"):
            with pytest.raises(ValueError, match=_not_a_size(size)):
                sampler(law, sampling._Stream(4), size=size)
            with pytest.raises(TypeError):
                sampler(law, np.random.default_rng(4), size=size)
        assert sampler(law, np.random.default_rng(4), size=(1, 3)).tolist() == [want]

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2**64 - 1), 2**200])
    def test_any_integer_seed_gives_numpy_draws(self, seed):
        want = np.random.default_rng(seed).random(50).tolist()
        assert sampling._Stream(seed).random(50) == want
        assert generator._Generator(seed).random(50) == want

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), 2.5, 3.0, "3", True, None])
    def test_seed_that_is_no_non_negative_integer_is_refused_by_name(self, seed):
        message = f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
        for stream in (sampling._Stream, generator._Generator):
            with pytest.raises(ValueError, match=message):
                stream(seed)

    @pytest.mark.parametrize("sampler, law", [
        (we_sample, WeibullParams(1.5, 2.0)),
        (we_sample, WeibullParams(0.01, 1.0)),
        (dw_sample, DWParams(1.6, 0.75)),
        (dw_sample, WeibullParams(0.3, 1e-3)),
    ])
    def test_samplers_draw_the_same_through_stream_and_numpy(self, sampler, law):
        # one lifetime kernel for both: numpy's caller gets its array back,
        # the stream's caller a list; no size draws one value either way
        want = sampler(law, np.random.default_rng(5), size=300)
        got = sampler(law, sampling._Stream(5), size=300)
        assert want.shape == (300,) and want.dtype == ("int64" if sampler is dw_sample else float)
        assert type(got) is list and got == want.tolist()
        one = sampler(law, np.random.default_rng(5))
        assert one == sampler(law, sampling._Stream(5)) == want[0] and type(one) is type(got[0])

    def test_numpy_caller_keeps_the_array_shape(self):
        draws = we_sample(WeibullParams(1.5, 2.0), np.random.default_rng(5), size=(3, 4))
        assert draws.shape == (3, 4)
        flat = we_sample(WeibullParams(1.5, 2.0), np.random.default_rng(5), size=12)
        assert draws.ravel().tolist() == flat.tolist()


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
        values, counts = values.astype(float).tolist(), counts.astype(float).tolist()
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
        pairs = sampling.sample(WIDE, np.random.default_rng(seed), 1000)
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
    VALUES = [0.0, 1.0, 2.0, 4.0, 7.0]
    COUNTS = [5.0, 9.0, 6.0, 3.0, 1.0]

    def objective(self, kind, z):
        z = np.asarray(z, dtype=float)
        if kind == "loglik":
            value, grad, hess = univariate._neg_loglik_jet(z, self.VALUES, self.COUNTS)
        else:
            n = int(sum(self.COUNTS))
            value, grad, hess = univariate._pearson_jet(z, self.VALUES, self.COUNTS, n)
        return value, np.array(grad), np.array(hess)

    @pytest.mark.parametrize("z", [(0.3, -1.0), (-0.7, 0.5), (0.9, -2.0), (0.0, -0.3)])
    @pytest.mark.parametrize("kind", ["loglik", "pearson"])
    def test_derivatives_match_central_differences(self, kind, z):
        value, grad, hess = self.objective(kind, z)
        if kind == "loglik":
            params = DWParams(math.exp(z[0]), math.exp(-math.exp(z[1])))
            want = -sum(c * dw_logpmf(params, int(v)) for v, c in zip(self.VALUES, self.COUNTS))
        else:
            want = _pearson_by_pmf(np.repeat(self.VALUES, np.array(self.COUNTS, dtype=int)), z)
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


def test_left_sum_adds_left_to_right_on_every_python():
    # sum() of floats compensates from Python 3.12 on; the package's float
    # sums are the left fold that 3.10 and 3.11 compute, so reports keep
    # their bytes across versions
    xs = [1e16, 1.0, -1e16]
    assert weibull._left_sum(xs) == ((0.0 + 1e16) + 1.0) - 1e16 == 0.0
    assert math.fsum(xs) == 1.0
    assert weibull._left_sum(x for x in xs) == 0.0
    assert weibull._left_sum(()) == 0.0
    rng = np.random.default_rng(38)
    values = (rng.standard_normal(200) * 10.0 ** rng.integers(-8, 9, 200)).tolist()
    want = 0.0
    for v in values:
        want += v
    assert weibull._left_sum(values) == want


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

    @pytest.mark.parametrize("case", ["random", "indefinite", "graded", "diagonal", "zero", "one"])
    def test_jacobi_eigen_solve_diagonalizes(self, case):
        # the solver's eigen-decomposition on math: an orthonormal basis in
        # which the matrix is diagonal, with numpy's eigenvalues
        rng = np.random.default_rng(5)
        if case in ("random", "indefinite"):
            b = rng.normal(size=(4, 4))
            a = b @ b.T if case == "random" else b + b.T
        elif case == "graded":
            # entries over twelve orders of magnitude, as in log-rates
            d = np.diag(10.0 ** np.arange(0, -12, -3))
            b = rng.normal(size=(4, 4))
            a = d @ (b @ b.T) @ d
        elif case == "diagonal":
            a = np.diag([3.0, -1.0, 0.0, 2.0])
        elif case == "zero":
            a = np.zeros((4, 4))
        else:
            a = np.array([[-2.5]])
        w, vecs = univariate._eigh(a.tolist())
        v = np.array(vecs)
        np.testing.assert_allclose(v.T @ v, np.eye(len(a)), rtol=0.0, atol=1e-14)
        scale = max(np.abs(a).max(), 1e-300)
        np.testing.assert_allclose(v @ np.diag(w) @ v.T, a, rtol=0.0, atol=1e-14 * scale)
        np.testing.assert_allclose(sorted(w), np.linalg.eigvalsh(a), rtol=0.0, atol=1e-14 * scale)

    def test_objectives_in_numpy_are_read_as_floats(self):
        # every fit hands the solver floats, and an objective in numpy is
        # read as floats too
        z, value = univariate._newton_min(self.rosenbrock, np.array([-1.2, 1.0]))
        assert type(value) is float and all(type(v) is float for v in z)
        np.testing.assert_allclose(z, [1.0, 1.0], rtol=1e-9)


class TestDWStart:
    @pytest.mark.parametrize("fit", [dw_fit_ml, dw_fit_minchisq])
    @pytest.mark.parametrize("xs", [[0, 1, 1, 2, 3, 5], [100, 130, 110, 95, 120], [0, 0, 0, 7]])
    def test_fits_start_from_the_geometric_law_of_the_mean(self, monkeypatch, fit, xs):
        starts = []
        solve = univariate._newton_min

        def spy(fun, z0):
            starts.append(list(z0))
            return solve(fun, z0)

        monkeypatch.setattr(univariate, "_newton_min", spy)
        fit(xs)
        mean = sum(xs) / len(xs)
        assert starts == [[0.0, math.log(math.log1p(1.0 / mean))]]

    def test_jets_keep_their_accuracy_at_large_counts(self):
        # (y+1)**alpha - y**alpha cancels at large y; the jets take it as
        # y**alpha * expm1(alpha * log1p(1/y)): log-masses to 1e-13 of mpmath
        from mpmath import mp

        values, alpha, rate = [0.0, 3.0, 1e6, 1e12], 2.5, 1e-30
        jets = univariate._dw_jets(values, alpha, rate)
        with mp.workdps(50):
            for y, jet in zip(values, jets):
                a, r = mp.mpf(alpha), mp.mpf(rate)
                want = mp.log(mp.exp(-r * mp.mpf(y) ** a) - mp.exp(-r * (mp.mpf(y) + 1) ** a))
                assert jet[0] == pytest.approx(float(want), rel=1e-13), y


SAMPLE_CHECKS = {
    "dw_fit_ml": dw_fit_ml,
    "dw_fit_minchisq": dw_fit_minchisq,
    "chisq_dw": lambda xs: gof.chisq_dw(xs, DWParams(1.5, 0.5)),
}


class TestSampleContract:
    # the refusals themselves are test_gof.py's table of non-counts
    @pytest.mark.parametrize("check", sorted(SAMPLE_CHECKS))
    def test_counts_of_any_container_agree(self, check):
        xs = [0, 3, 1, 1, 2, 5, 1, 0, 2]
        want = repr(SAMPLE_CHECKS[check](xs))
        for data in (tuple(xs), np.array(xs), np.array(xs, dtype=float), np.array(xs, dtype=np.uint8),
                     [np.int64(v) for v in xs], [float(v) for v in xs]):
            assert repr(SAMPLE_CHECKS[check](data)) == want

    def test_largest_count_below_2_53_is_fitted(self):
        xs = [0, 1, 2**53 - 1]
        assert math.isfinite(dw_fit_ml(xs).loglik)
        assert math.isfinite(dw_fit_minchisq(xs).chisq)

    def test_count_past_2_53_names_its_column_in_the_joint_fit(self):
        from bdw.datasets import BivariateDataset
        from bdw.fit_ml import nested_em

        data = BivariateDataset(((0, 1), (2, 0), (1, 1), (2**62, 3)))
        with pytest.raises(ValueError, match=r"^column x1: data must be below 2\*\*53, got "):
            nested_em(data)

# the scalar law functions' arguments, with the name each refusal gives;
# a count argument refuses anything but a whole number
_LAW = bivariate.BDWParams(1.5, 0.9, 0.7, 0.75)
_LATENT = mobw.MOBWParams(1.5, 0.1, 0.3, 0.2)
_DW = DWParams(1.5, 0.7)
COUNT_ARGS = {
    "joint_pmf": (lambda v: bivariate.joint_pmf(_LAW, v, 0), "x1"),
    "joint_cdf": (lambda v: bivariate.joint_cdf(_LAW, 0, v), "x2"),
    "cond_pmf": (lambda v: properties.cond_pmf(_LAW, v, 1), "x1"),
    "ml_predict": (lambda v: mobw.ml_predict(_LATENT, v, 0), "i"),
    "dw_pmf": (lambda v: dw_pmf(_DW, v), "y"),
    "dw_logpmf": (lambda v: dw_logpmf(_DW, v), "y"),
    "dw_min_of_n": (lambda v: dw_min_of_n(_DW, v), "n"),
    "joint_pmf_grid": (lambda v: bivariate.joint_pmf_grid(_LAW, v, 3), "k1"),
    "is_tp2_on_grid": (lambda v: properties.is_tp2_on_grid(_LAW, v), "k"),
    "pqd_check_on_grid": (lambda v: properties.pqd_check_on_grid(_LAW, v), "k"),
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
# and a bool, which is a whole number but no count
ODD_COUNTS = pytest.mark.parametrize(
    "value", [math.inf, math.nan, 2.5, -1, True, np.True_],
    ids=["inf", "nan", "fraction", "negative", "bool", "numpy-bool"],
)
# the latent densities' sweep: shapes far below one to well above, rates
# from the least subnormal to 1e300, lifetimes from 0 to inf
_SHAPES = (1e-3, 0.05, 0.5, 1.0, 2.0, 8.0)
_RATES = (5e-324, 1e-300, 1e-8, 1.0, 1e300)
_LIFETIMES = (0.0, 5e-324, 1e-10, 1.0, 1e300, math.inf)
# whole numbers past the int64 range, and past the float range
PAST_INT64 = pytest.mark.parametrize("value", [2**63, 10**400], ids=["2**63", "10**400"])


class TestArgumentContract:
    @ODD_COUNTS
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

    @pytest.mark.parametrize("check", [properties.is_tp2_on_grid, properties.pqd_check_on_grid])
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

    @pytest.mark.parametrize("alpha", _SHAPES)
    def test_we_pdf_is_a_density_or_its_pole(self, alpha):
        for lam, x in product(_RATES, _LIFETIMES):
            try:
                got = we_pdf(WeibullParams(alpha, lam), x)
            except SingularDensityError:
                assert alpha < 1.0 and x == 0.0, (lam, x)
                continue
            assert type(got) is float and 0.0 <= got <= math.inf, (lam, x, got)

    @pytest.mark.parametrize("alpha", _SHAPES)
    def test_mobw_pdf_is_a_density(self, alpha):
        # a zero shared rate is valid too
        for rates in product((0.0, *_RATES), _RATES, _RATES):
            law = mobw.MOBWParams(alpha, *rates)
            for y1, y2 in product(_LIFETIMES, repeat=2):
                got = mobw.mobw_pdf(law, y1, y2).value
                assert 0.0 <= got <= math.inf, (rates, y1, y2, got)

    @pytest.mark.parametrize("rates, y1, y2, want", [
        # the exponential of a log-density past the float range raised
        # OverflowError
        pytest.param((0.0, 1e-8, 1.0), 1e-10, 5e-324, math.inf, id="overflow"),
        # alpha * lam underflowed to 0, whose log raised "math domain error"
        pytest.param((5e-324, 5e-324, 5e-324), 1e300, 1e-10, 0.0, id="scale-underflow"),
    ])
    def test_mobw_pdf_at_a_tiny_shape(self, rates, y1, y2, want):
        assert mobw.mobw_pdf(mobw.MOBWParams(0.001, *rates), y1, y2).value == want

    def test_pole_outweighs_a_factor_past_the_float_range(self):
        # the pole at y1 = 0 plus the second factor's -inf read NaN
        law = mobw.MOBWParams(0.05, 5e-324, 30.0, 1e300)
        assert mobw.mobw_pdf(law, 0.0, 1e300) == (math.inf, "below")

    def test_we_pdf_where_the_scale_underflows(self):
        # alpha * lam underflows to 0 and the power overflows: 0 * inf read
        # NaN.  The value is mpmath's at 50 digits
        got = we_pdf(WeibullParams(0.001, 5e-324), 5e-324)
        assert got == pytest.approx(4.7500019143744300542e-4, rel=1e-12)


# every public function that takes a law, as a call on the law and the
# football data, with the law's kind, "joint" or "dw": each takes either form
_STREAM = sampling._Stream
_COMPLETE = [mobw.CompleteObservation(0.5, 1.5, "below"), mobw.CompleteObservation(2.0, 1.0, "above"),
             mobw.CompleteObservation(1.2, 1.2, "tie")]


def _posterior(law, data):
    # a short seeded chain from the start law: its summaries and draws
    post = fit_bayes.augmented_gibbs(data, start=law, M=100, N=1, rng=generator._Generator(3))
    return post.means, post.credible, post.hpd, post.draws.tolist()


LAW_ENTRIES = {
    "joint_sf": ("joint", lambda law, d: bivariate.joint_sf(law, 2, 3)),
    "joint_pmf": ("joint", lambda law, d: bivariate.joint_pmf(law, 2, 2)),
    "joint_logpmf": ("joint", lambda law, d: bivariate.joint_logpmf(law, 1, 3)),
    "joint_cdf": ("joint", lambda law, d: bivariate.joint_cdf(law, 3, 2)),
    "joint_pmf_grid": ("joint", lambda law, d: bivariate.joint_pmf_grid(law, 3, 4).tolist()),
    "moments": ("joint", lambda law, d: bivariate.moments(law)),
    "to_mobw": ("joint", lambda law, d: bivariate.to_mobw(law)),
    "from_mobw": ("joint", lambda law, d: bivariate.from_mobw(law)),
    "cond_pmf": ("joint", lambda law, d: properties.cond_pmf(law, 1, 2)),
    "cond_sf_given_ge": ("joint", lambda law, d: properties.cond_sf_given_ge(law, 2, 1)),
    "cond_sf_given_eq": ("joint", lambda law, d: properties.cond_sf_given_eq(law, 3, 1)),
    "is_tp2_on_grid": ("joint", lambda law, d: properties.is_tp2_on_grid(law, 4)),
    "pqd_check_on_grid": ("joint", lambda law, d: properties.pqd_check_on_grid(law, 4)),
    "mobw_sf": ("joint", lambda law, d: mobw.mobw_sf(law, 0.5, 1.5)),
    "mobw_pdf": ("joint", lambda law, d: (mobw.mobw_pdf(law, 0.5, 1.5), mobw.mobw_pdf(law, 1.2, 1.2))),
    "cell_probability": ("joint", lambda law, d: mobw.cell_probability(law, 2, 2)),
    "ml_predict": ("joint", lambda law, d: (mobw.ml_predict(law, 2, 2), mobw.ml_predict(law, 1, 3))),
    "impute_dataset": ("joint", lambda law, d: mobw.impute_dataset(law, d)),
    "complete_loglik": ("joint", lambda law, d: mobw.complete_loglik(law, _COMPLETE)),
    "inner_em_mobw": ("joint", lambda law, d: mobw.inner_em_mobw(mobw.impute_dataset(law, d), law)),
    "mobw_sample": ("joint", lambda law, d: sampling.mobw_sample(law, _STREAM(7), 5)),
    "sample": ("joint", lambda law, d: sampling.sample(law, _STREAM(7), 5)),
    "bdw_loglik": ("joint", lambda law, d: fit_ml.bdw_loglik(law, d)),
    "nested_em": ("joint", lambda law, d: fit_ml.nested_em(d, start=law)),
    "observed_info_ci": ("joint", lambda law, d: fit_ml.observed_info_ci(law, d)),
    "augmented_gibbs": ("joint", _posterior),
    "chisq_bdw": ("joint", lambda law, d: gof.chisq_bdw(d, law)),
    "dw_pmf": ("dw", lambda law, d: dw_pmf(law, 3)),
    "dw_logpmf": ("dw", lambda law, d: dw_logpmf(law, 3)),
    "dw_sf": ("dw", lambda law, d: dw_sf(law, 2.5)),
    "we_pdf": ("dw", lambda law, d: we_pdf(law, 1.3)),
    "we_cdf": ("dw", lambda law, d: we_cdf(law, 1.3)),
    "we_sample": ("dw", lambda law, d: we_sample(law, _STREAM(7), 5)),
    "dw_sample": ("dw", lambda law, d: dw_sample(law, _STREAM(7), 5)),
    "chisq_dw": ("dw", lambda law, d: gof.chisq_dw(d.column_ints("x1"), law)),
    "initial_params_from_marginals": (
        "dw", lambda law, d: fit_ml.initial_params_from_marginals(law, DWParams(1.4, 0.8),
                                                                  DWParams(1.6, 0.6))),
    "marginals": ("joint", lambda law, d: properties.marginals(law)),
    "min_distribution": ("joint", lambda law, d: properties.min_distribution(law)),
    "closure_min": ("joint", lambda law, d: properties.closure_min([law, law])),
    "dw_min_of_n": ("dw", lambda law, d: dw_min_of_n(law, 3)),
}


class TestLawFormContract:
    @pytest.mark.parametrize("entry", sorted(LAW_ENTRIES))
    def test_law_in_either_form_or_refused_by_name(self, entry, football):
        form, call = LAW_ENTRIES[entry]
        joint = form == "joint"
        if joint:
            # the football start in survival bases, and the same law in rates
            bases = bivariate.from_mobw(fit_ml.init_estimates(football))
            rates = bivariate.to_mobw(bases)
            refusal = "^a joint law must be BDWParams or MOBWParams, got tuple$"
        else:
            bases = DWParams(1.5, 0.7)
            rates = WeibullParams(*weibull._rate(bases))
            refusal = "^a DW law must be DWParams or WeibullParams, got tuple$"
        # bit for bit: repr writes each float's shortest round trip
        assert repr(call(bases, football)) == repr(call(rates, football))
        with pytest.raises(ValueError, match=refusal):
            call((1.5, 0.1, 0.2, 0.3) if joint else (1.5, 0.3), football)

    @pytest.mark.parametrize("call, name, rate, edge", [
        # the marginal and minimum bases of a valid law underflow to 0
        (lambda: properties.marginals(bivariate.BDWParams(1.0, 1e-200, 1e-200, 0.5)),
         "lambda0 + lambda1", "921", 0),
        (lambda: properties.min_distribution(bivariate.BDWParams(1.0, 1e-200, 1e-200, 0.5)),
         "lambda0 + lambda1 + lambda2", "922", 0),
        (lambda: properties.closure_min([bivariate.BDWParams(1.0, 1e-200, 0.5, 0.5)] * 2),
         "sum(lambda0 + lambda1 + lambda2)", "924", 0),
        (lambda: dw_min_of_n(DWParams(1.0, 1e-200), 2), "n * lambda", "921", 0),
        # a law in rates whose marginal base rounds to 1
        (lambda: properties.marginals(bivariate.MOBWParams(1.0, 0.0, 1e-17, 0.5)),
         "lambda0 + lambda1", "1e-17", 1),
        (lambda: dw_min_of_n(WeibullParams(1.0, 1e-17), 3), "n * lambda", "3e-17", 1),
    ], ids=["marginals", "min_distribution", "closure_min", "dw_min_of_n",
            "marginals-to-1", "dw_min_of_n-to-1"])
    def test_a_base_that_rounds_to_0_or_1_is_refused_by_its_rate(self, call, name, rate, edge):
        message = (f"the rate {name} = {rate} rounds its survival base exp(-({name})) "
                   f"to {edge}: survival bases cannot hold this law, its rates can")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_closure_min_takes_components_in_either_form(self):
        parts = [bivariate.BDWParams(1.6, 0.95, 0.9, 0.85), bivariate.BDWParams(1.6, 0.9, 0.8, 0.9)]
        mixed = [parts[0], bivariate.to_mobw(parts[1])]
        assert repr(properties.closure_min(mixed)) == repr(properties.closure_min(parts))
