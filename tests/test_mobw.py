import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from bdw.bivariate import BDWParams, _rates, from_mobw, joint_logpmf, joint_pmf
from bdw.fit_bayes import AlphaPrior, DGPrior, sample_alpha_conditional, sample_lambdas_conditional
from bdw.fit_ml import BivariateDataset, impute_dataset, init_estimates
from bdw.generator import _Generator
from bdw.mobw import (
    CompleteObservation,
    LatentPrediction,
    MOBWParams,
    SampleSummary,
    cause_counts,
    cell_probability,
    complete_loglik,
    exposures,
    inner_em_mobw,
    _branch_logpdf,
    _loglik_in_shape,
    _predict_in_cell,
    ml_predict,
    mobw_pdf,
    mobw_sf,
    summarize,
    we_mode,
    we_pdf,
)
from bdw.sampling import mobw_sample
from bdw.univariate import WeibullParams, dw_logpmf
from test_fit_bayes import _BoundedRng

REF = MOBWParams(1.8, 0.3, 0.5, 0.4)


class TestDensity:
    def test_survival_closed_form(self):
        for y1, y2 in [(0.0, 0.0), (0.5, 1.2), (2.0, 2.0), (3.1, 0.4)]:
            direct = math.exp(
                -0.5 * y1**1.8 - 0.4 * y2**1.8 - 0.3 * max(y1, y2) ** 1.8
            )
            assert mobw_sf(REF, y1, y2) == pytest.approx(direct, rel=1e-13)

    def test_offdiagonal_density_is_mixed_partial_of_survival(self):
        h = 1e-5
        for y1, y2 in [(0.4, 1.1), (1.7, 0.6), (2.2, 2.9)]:
            mixed = (
                mobw_sf(REF, y1 + h, y2 + h)
                - mobw_sf(REF, y1 + h, y2 - h)
                - mobw_sf(REF, y1 - h, y2 + h)
                + mobw_sf(REF, y1 - h, y2 - h)
            ) / (4.0 * h * h)
            dens = mobw_pdf(REF, y1, y2)
            assert dens.value == pytest.approx(mixed, rel=1e-5)
            assert dens.component == ("below" if y1 < y2 else "above")

    def test_component_masses(self):
        # the three pieces carry rate-proportional masses
        total = REF.total
        cap = (40.0 / total) ** (1.0 / REF.alpha) + 5.0

        diag_mass, _ = integrate.quad(
            lambda y: mobw_pdf(REF, y, y).value, 0.0, cap, limit=200
        )
        assert diag_mass == pytest.approx(REF.lambda0 / total, abs=1e-8)

        below_mass, _ = integrate.dblquad(
            lambda y1, y2: mobw_pdf(REF, y1, y2).value,
            0.0,
            cap,
            lambda y2: 0.0,
            lambda y2: y2,
            epsabs=1e-10,
        )
        assert below_mass == pytest.approx(REF.lambda1 / total, abs=1e-6)

        above_mass, _ = integrate.dblquad(
            lambda y2, y1: mobw_pdf(REF, y1, y2).value,
            0.0,
            cap,
            lambda y1: 0.0,
            lambda y1: y1,
            epsabs=1e-10,
        )
        assert above_mass == pytest.approx(REF.lambda2 / total, abs=1e-6)

    def test_survival_past_float_range_is_zero(self):
        # y**alpha past the float range, where a bare float power raises
        params = MOBWParams(50.0, 0.5, 0.5, 0.5)
        assert mobw_sf(params, 1e10, 0.0) == 0.0
        assert mobw_sf(params, 0.0, 1e10) == 0.0

    def test_density_past_float_range_is_zero(self):
        params = MOBWParams(50.0, 0.5, 0.5, 0.5)
        assert mobw_pdf(params, 1e10, 1e10) == (0.0, "diagonal")
        assert mobw_pdf(params, 1.0, 1e10) == (0.0, "below")
        assert mobw_pdf(params, 1e10, 1.0) == (0.0, "above")

    def test_diagonal_without_shared_rate_carries_nothing(self):
        params = MOBWParams(1.8, 0.0, 0.5, 0.4)
        assert mobw_pdf(params, 1.3, 1.3).value == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MOBWParams(1.5, -0.1, 0.5, 0.4)
        with pytest.raises(ValueError):
            MOBWParams(1.5, 0.3, 0.0, 0.4)
        with pytest.raises(ValueError):
            MOBWParams(0.0, 0.3, 0.5, 0.4)
        with pytest.raises(ValueError):
            mobw_sf(REF, -1.0, 0.0)
        assert MOBWParams(1.5, 0.0, 0.5, 0.4).lambda0 == 0.0


class TestCellsAndSampling:
    def test_cell_probability_is_survival_rectangle(self):
        for i in range(4):
            for j in range(4):
                rect = (
                    mobw_sf(REF, i, j)
                    - mobw_sf(REF, i + 1, j)
                    - mobw_sf(REF, i, j + 1)
                    + mobw_sf(REF, i + 1, j + 1)
                )
                assert cell_probability(REF, i, j) == pytest.approx(rect, abs=1e-12)

    def test_cell_probability_matches_discrete_pair(self):
        disc = from_mobw(REF)
        for i in range(3):
            for j in range(3):
                assert cell_probability(REF, i, j) == pytest.approx(
                    joint_pmf(disc, i, j), rel=1e-12
                )

    def test_floors_follow_discrete_pair_law(self, rng):
        draws = mobw_sample(REF, rng, size=30_000)
        floors = np.floor(draws).astype(int)
        n = floors.shape[0]
        for i in range(2):
            for j in range(2):
                freq = float(np.mean((floors[:, 0] == i) & (floors[:, 1] == j)))
                p = cell_probability(REF, i, j)
                assert freq == pytest.approx(p, abs=4.0 * math.sqrt(p / n))

    def test_exact_tie_rate_matches_shared_share(self, rng):
        draws = mobw_sample(REF, rng, size=30_000)
        rate = float(np.mean(draws[:, 0] == draws[:, 1]))
        want = REF.lambda0 / REF.total
        assert rate == pytest.approx(want, abs=4.0 * math.sqrt(want / draws.shape[0]))

    def test_no_ties_without_shared_rate(self, rng):
        params = MOBWParams(1.8, 0.0, 0.5, 0.4)
        draws = mobw_sample(params, rng, size=5000)
        assert not np.any(draws[:, 0] == draws[:, 1])


class TestPrediction:
    def test_offdiagonal_prediction_is_clamped_mode(self):
        pred = ml_predict(REF, 0, 3)
        assert pred.kind == "below"
        assert 0.0 <= pred.y1hat <= 1.0
        assert 3.0 <= pred.y2hat <= 4.0
        # each coordinate maximizes its own Weibull density within the cell
        a = REF.alpha
        m1 = we_mode(a, REF.lambda1)
        assert pred.y1hat == pytest.approx(min(max(m1, 0.0), 1.0), rel=1e-12)

    def test_offdiagonal_dominates_random_cell_points(self, rng):
        for cell in [(0, 2), (2, 0), (1, 3)]:
            pred = ml_predict(REF, *cell)
            i, j = cell
            for _ in range(200):
                y1 = i + rng.random()
                y2 = j + rng.random()
                dens = mobw_pdf(REF, y1, y2).value / cell_probability(REF, i, j)
                assert pred.density_value >= dens - 1e-12

    def test_diagonal_contest_reports_winner(self):
        pred = ml_predict(REF, 1, 1)
        assert pred.case_tag.startswith("tie-")
        assert pred.density_value > 0
        if pred.kind == "tie":
            assert pred.y1hat == pred.y2hat

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.8])
    @pytest.mark.parametrize(
        "lambdas", [(0.5, 0.4), (0.5, 0.5), (0.4, 0.5)], ids=["l1-gt-l2", "l1-eq-l2", "l1-lt-l2"]
    )
    def test_zero_shared_rate_never_predicts_tie(self, alpha, lambdas):
        # with no shared rate the diagonal carries no mass: every diagonal
        # cell goes to an off-diagonal branch, at a point that lies on it
        params = MOBWParams(alpha, 0.0, *lambdas)
        for i in range(3):
            pred = ml_predict(params, i, i)
            assert pred.kind != "tie"
            assert pred.density_value > 0
            CompleteObservation(pred.y1hat, pred.y2hat, pred.kind)

    def test_zero_shared_rate_gives_the_corner_no_diagonal_weight(self):
        # the singular density is infinite at the corner when alpha < 1,
        # but with no shared rate the diagonal carries no mass at all: the
        # corner goes to the below branch, whose density is infinite there
        pred = ml_predict(MOBWParams(0.5, 0.0, 0.5, 0.4), 0, 0)
        assert pred == (0.0, 0.0, "tie-below", math.inf)

    def test_massless_diagonal_cell_imputes_a_valid_sample(self):
        params = MOBWParams(0.9, 0.0, 0.5, 0.4)
        data = BivariateDataset(((1, 2), (2, 2), (3, 1)))
        sample = impute_dataset(params, data)
        assert [obs.kind for obs in sample] == ["below", "below", "above"]
        assert math.isfinite(complete_loglik(params, sample))

    def test_underflowing_diagonal_cell_is_predicted(self):
        # the cell's mass and the minimum's interval mass both underflow,
        # their logs do not: the diagonal's weight is the singular density
        # 60 * exp(-2700) over the minimum's mass, ~exp(-2700)
        pred = ml_predict(MOBWParams(2.0, 1.0, 1.0, 1.0), 30, 30)
        assert pred[:3] == (30.0, 30.0, "tie-diagonal")
        assert pred.density_value == pytest.approx(60.0, rel=1e-9)
        # only a cell whose log-mass is -inf is refused, here one whose
        # powers pass the float range; rates of 1e-13 leave cell
        # (1000, 2000) a finite log-mass, and it is predicted
        with pytest.raises(ValueError, match=r"^cell \(10000000, 10000000\) has zero probability$"):
            ml_predict(MOBWParams(50.0, 0.5, 0.5, 0.5), 10**7, 10**7)
        pred = ml_predict(MOBWParams(0.1, 1e-13, 1e-13, 1e-13), 1000, 2000)
        assert pred[:3] == (1000.0, 2000.0, "below-diagonal")

    def test_vanishing_shared_share_is_no_domain_error(self):
        # lambda0 / total underflows to zero, lambda0 does not: the diagonal
        # keeps the closed form's finite weight, the tie density over the
        # minimum's mass, and at shape one, with no off-diagonal candidate,
        # it wins, as it does at lambda0 = 1e-300; nothing takes log(0)
        for lambda0 in (5e-324, 1e-300):
            params = MOBWParams(1.0, lambda0, 5.8, 0.02)
            pred = ml_predict(params, 6, 6)
            assert pred[:3] == (6.0, 6.0, "tie-diagonal")
            assert 0.0 < pred.density_value < math.inf
            tie = complete_loglik(params, [CompleteObservation(6.0, 6.0, "tie")])
            want = tie - dw_logpmf(WeibullParams(1.0, params.total), 6)
            got = _predict_in_cell(_rates(params), 6, 6, joint_logpmf(params, 6, 6))[0]
            assert got == pytest.approx(want, rel=1e-12)
        # the density reads the same term, 5e-324 * exp(-5.82), which underflows
        params = MOBWParams(1.0, 5e-324, 5.8, 0.02)
        assert mobw_pdf(params, 1.0, 1.0) == (0.0, "diagonal")
        # the complete-data likelihood reads log(lambda0) itself, finite here
        got = complete_loglik(params, [CompleteObservation(1.0, 1.0, "tie")])
        assert got == pytest.approx(math.log(5e-324) - (5.8 + 0.02), rel=1e-12)

    def test_minimum_mass_survives_an_underflowing_base_product(self):
        # p0 * p1 * p2 underflows to zero, but the minimum's mass at 0 is 1
        pred = ml_predict(MOBWParams(2.0, 300.0, 300.0, 300.0), 0, 0)
        assert pred.case_tag == "tie-diagonal"
        assert math.isfinite(pred.density_value)

    def test_candidate_order_is_read_off_the_rates(self):
        # lambda1 one ulp above lambda0 + lambda2: y1 fails first on the below
        # branch, with the larger rate, though the two modes round equal
        lambda0, lambda2 = 0.3, 0.05
        lambda1 = math.nextafter(lambda0 + lambda2, math.inf)
        assert we_mode(2.0, lambda1) == we_mode(2.0, lambda0 + lambda2)
        params = MOBWParams(2.0, lambda0, lambda1, lambda2)
        for i in range(3):
            pred = ml_predict(params, i, i)
            assert pred.case_tag == "tie-below"
            assert pred.y1hat == pred.y2hat

    def test_decreasing_density_shape_predicts_cell_corner(self):
        params = MOBWParams(0.9, 0.3, 0.5, 0.4)
        pred = ml_predict(params, 2, 4)
        assert (pred.y1hat, pred.y2hat) == (2.0, 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ml_predict(REF, -1, 0)
        with pytest.raises(ValueError):
            ml_predict(REF, 0.5, 0)


class TestOneTieDensity:
    """The latent tie density is the closed form's tie term, in the
    imputation's contest too, and ``impute_dataset`` is ``ml_predict`` per
    row."""

    def test_tie_branch_is_the_closed_form_tie(self):
        # subnormal and underflowing shares lambda0 / total included: the
        # branch is -inf only at a zero shared rate
        for alpha, lambda0, y, (l1, l2) in itertools.product(
            (0.3, 0.8, 1.0, 1.7, 4.0, 11.8, 25.0),
            (5e-324, 1e-300, 1e-8, 0.1, 2.0),
            (1e-3, 0.03, 0.5, 1.0, 2.0, 6.0, 17.0, 40.0),
            ((0.7, 1.3), (5.8, 0.02), (0.01, 0.02)),
        ):
            params = MOBWParams(alpha, lambda0, l1, l2)
            want = complete_loglik(params, [CompleteObservation(y, y, "tie")])
            assert _branch_logpdf(_rates(params), y, y, "tie") == pytest.approx(want, rel=1e-12)
        assert _branch_logpdf(_rates(MOBWParams(1.7, 0.0, 0.7, 1.3)), 2.0, 2.0, "tie") == -math.inf

    @pytest.mark.parametrize("dataset", ["football", "nasal", "wide_panel"])
    def test_imputation_is_ml_predict_per_row(self, request, dataset):
        data = request.getfixturevalue(dataset)
        theta = init_estimates(data)
        rates = (theta.lambda0, theta.lambda1, theta.lambda2)
        laws = [theta, MOBWParams(theta.alpha, 5e-324, *rates[1:])]
        laws += [MOBWParams(alpha, *rates) for alpha in (0.5, 1.0, 2.5, 12.0)]
        for law in laws:
            sample = impute_dataset(law, data)
            for obs, cell in zip(sample, data.pairs):
                pred = ml_predict(law, *cell)
                assert (obs.y1, obs.y2, obs.kind) == (pred.y1hat, pred.y2hat, pred.kind)


class TestCompleteData:
    def test_loglik_matches_hand_sum(self):
        sample = [
            CompleteObservation(0.4, 1.2, "below"),
            CompleteObservation(2.0, 0.7, "above"),
            CompleteObservation(1.1, 1.1, "tie"),
        ]
        a = REF.alpha
        want = (
            math.log(we_pdf(WeibullParams(a, REF.lambda1), 0.4))
            + math.log(we_pdf(WeibullParams(a, REF.lambda0 + REF.lambda2), 1.2))
            + math.log(we_pdf(WeibullParams(a, REF.lambda0 + REF.lambda1), 2.0))
            + math.log(we_pdf(WeibullParams(a, REF.lambda2), 0.7))
            + math.log(REF.lambda0 / REF.total)
            + math.log(we_pdf(WeibullParams(a, REF.total), 1.1))
        )
        assert complete_loglik(REF, sample) == pytest.approx(want, rel=1e-12)

    def test_tie_without_shared_rate_rejected(self):
        params = MOBWParams(1.8, 0.0, 0.5, 0.4)
        with pytest.raises(ValueError, match="shared rate is zero"):
            complete_loglik(params, [CompleteObservation(1.0, 1.0, "tie")])

    def test_non_finite_contribution_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            complete_loglik(REF, [CompleteObservation(0.0, 1.0, "below")])

    def test_lifetime_past_float_range_is_refused_by_name(self):
        params = MOBWParams(50.0, 0.5, 0.5, 0.5)
        for obs in (
            CompleteObservation(1e10, 1e10, "tie"),
            CompleteObservation(1.0, 1e10, "below"),
        ):
            with pytest.raises(ValueError, match="non-finite log-density -inf"):
                complete_loglik(params, [obs])

    def test_observation_validation(self):
        with pytest.raises(ValueError):
            CompleteObservation(2.0, 1.0, "below")
        with pytest.raises(ValueError):
            CompleteObservation(1.0, 2.0, "above")
        with pytest.raises(ValueError):
            CompleteObservation(1.0, 1.5, "tie")
        with pytest.raises(ValueError):
            CompleteObservation(1.0, 1.0, "equal")
        with pytest.raises(ValueError):
            CompleteObservation(-1.0, 1.0, "below")
        # boundary collapse keeps weak inequalities legal
        CompleteObservation(1.0, 1.0, "below")
        CompleteObservation(1.0, 1.0, "above")

    def test_prediction_kind_property(self):
        pred = LatentPrediction(0.5, 1.5, "below-diagonal", 1.0)
        assert pred.kind == "below"
        assert LatentPrediction(1.0, 1.0, "tie-diagonal", 1.0).kind == "tie"
        assert LatentPrediction(1.2, 1.0, "above-diagonal", 1.0).kind == "above"


# lifetimes from near the smallest normal float to past the float range of
# any power above 2, and shapes up to the Gibbs sampler's bound 1e3
CONTRACT_LIFETIMES = (1e-300, 0.5, 1e4, 1e150)
CONTRACT_SHAPES = (0.01, 0.3, 1.0, 3.0, 30.0, 100.0, 322.9, 1e3)


def _pair(y1, y2, kind=None):
    kind = kind or ("below" if y1 < y2 else "above" if y1 > y2 else "tie")
    return CompleteObservation(y1, y2, kind)


CONTRACT_SAMPLES = {
    "every-pair": [_pair(a, b) for a, b in itertools.product(CONTRACT_LIFETIMES, repeat=2)],
    "no-ties": [_pair(a, b) for a, b in itertools.permutations(CONTRACT_LIFETIMES, 2)],
    # collapsed off-diagonal pairs: every event sits at its exposure's top
    **{
        f"collapsed-{y:g}": [_pair(y, y, "below"), _pair(y, y, "above")]
        for y in CONTRACT_LIFETIMES
    },
    **{
        f"two-{a:g}-{b:g}": [_pair(a, b), _pair(b, a), _pair(b, b)]
        for a, b in itertools.combinations(CONTRACT_LIFETIMES, 2)
    },
}


class TestRuntimeWarningContract:
    """The latent layer on valid input returns finite output or raises a
    ValueError; no warning escapes."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def _finite_or_refused(call):
        try:
            out = call()
        except ValueError:
            return
        if isinstance(out, MOBWParams):
            out = (out.alpha, out.lambda0, out.lambda1, out.lambda2)
        elif isinstance(out, SampleSummary):
            out = (out.log_y_sum, *map(sum, out.weights), *out.vals)
        assert np.isfinite(out).all(), out

    @pytest.mark.parametrize("name", sorted(CONTRACT_SAMPLES))
    def test_latent_sample_functions(self, name):
        sample = CONTRACT_SAMPLES[name]
        check = self._finite_or_refused
        check(lambda: summarize(sample))
        for alpha in CONTRACT_SHAPES:
            for lams in ((0.4, 0.7, 0.9), (1e-200, 1e-200, 1e-200)):
                law = MOBWParams(alpha, *lams)
                check(lambda: exposures(sample, alpha))
                check(lambda: cause_counts(sample, lams))
                check(lambda: complete_loglik(law, sample))
                # the draws through numpy's generator and the package's
                for rng in (np.random.default_rng(0), _Generator(0)):
                    check(lambda: cause_counts(sample, lams, rng))
                    check(lambda: sample_lambdas_conditional(DGPrior(), alpha, sample, lams, rng))
                    check(lambda: sample_alpha_conditional(AlphaPrior(), lams, sample, alpha, rng))
        # the inner EM clamps its start to [0.01, 100]: from both ends
        for alpha in (0.01, 1e3):
            check(lambda: inner_em_mobw(sample, MOBWParams(alpha, 0.4, 0.7, 0.9)))

    def test_exposures_past_the_float_range_are_refused(self):
        with pytest.raises(ValueError, match="^the exposures pass the float range at shape 8: "):
            exposures([CompleteObservation(1e150, 1e150, "tie")], 8.0)


def _rowwise_loglik(params, sample):
    # the complete-data log-likelihood row by row: each pair's branch density
    return sum(_branch_logpdf(_rates(params), o.y1, o.y2, o.kind) for o in sample)


# a zero lifetime in each coordinate and in a tie, beside positive ones
ZERO_LIFETIME = [
    _pair(0.0, 1.5),
    _pair(0.5, 1.2),
    _pair(2.0, 0.7),
    _pair(1.1, 1.1),
    _pair(1.7, 0.0),
    _pair(0.0, 0.0),
]


class TestClosedForm:
    """``complete_loglik`` sums the sample in closed form on its summary;
    the row-by-row sum of the branch densities is its oracle."""

    @staticmethod
    def _agrees_or_refused(law, sample):
        want = _rowwise_loglik(law, sample)
        if math.isfinite(want):
            assert complete_loglik(law, sample) == pytest.approx(want, rel=1e-12)
            assert complete_loglik(law, summarize(sample)) == complete_loglik(law, sample)
        else:
            with pytest.raises(ValueError) as refusal:
                complete_loglik(law, sample)
            assert "math domain error" not in str(refusal.value)

    @pytest.mark.parametrize("name", sorted(CONTRACT_SAMPLES))
    def test_matches_the_rowwise_sum(self, name):
        sample = CONTRACT_SAMPLES[name]
        for alpha in CONTRACT_SHAPES:
            for lams in ((0.4, 0.7, 0.9), (1e-200, 1e-200, 1e-200), (0.0, 0.7, 0.9)):
                self._agrees_or_refused(MOBWParams(alpha, *lams), sample)

    @pytest.mark.parametrize("dataset", ["football", "nasal", "wide_panel"])
    def test_matches_the_rowwise_sum_on_imputations(self, request, dataset):
        data = request.getfixturevalue(dataset)
        theta = init_estimates(data)
        sample = impute_dataset(theta, data)
        rates = (theta.lambda0, theta.lambda1, theta.lambda2)
        laws = [theta, inner_em_mobw(sample, theta)]
        laws += [MOBWParams(alpha, *rates) for alpha in CONTRACT_SHAPES]
        for law in laws:
            self._agrees_or_refused(law, sample)

    @staticmethod
    def _top_in_y2(top):
        # eleven pairs below the diagonal whose largest value, top, is only a
        # y2 and a max(y1, y2): only the tiny rates of T2 and T0 weigh its power
        return [_pair(0.5 + 0.05 * i, 1.0 + 0.35 * i) for i in range(10)] + [_pair(0.9, top)]

    def test_largest_value_in_a_tiny_rate_exposure(self):
        # the largest power times the rates' total passes the float range while
        # every weighted power, and the sum, stays finite: it is no refusal
        law = MOBWParams(305.0, 0.0, 1e3, 1e-300)
        sample = self._top_in_y2(10.0)
        want = math.fsum(_branch_logpdf(_rates(law), o.y1, o.y2, o.kind) for o in sample)
        assert math.isfinite(want)
        assert complete_loglik(law, sample) == pytest.approx(want, rel=1e-12)
        checked = 0
        for top in (4.0, 7.5, 10.0, 12.0, 30.0, 1e3):
            sample = self._top_in_y2(top)
            st = summarize(sample)
            for alpha in range(250, 321, 5):
                for lams in ((0.0, 1e3, 1e-300), (1e-300, 1e3, 1e-300), (0.0, 1.0, 1e-200)):
                    law = MOBWParams(float(alpha), *lams)
                    want = math.fsum(_branch_logpdf(_rates(law), o.y1, o.y2, o.kind) for o in sample)
                    if not math.isfinite(want):
                        with pytest.raises(ValueError, match="non-finite log-density"):
                            complete_loglik(law, sample)
                        continue
                    checked += 1
                    assert complete_loglik(law, sample) == pytest.approx(want, rel=1e-12)
                    g = _loglik_in_shape(1.0, 0.0, st, lams)
                    assert g(float(alpha)) == pytest.approx(want, rel=1e-12)
        assert checked == 150

    def test_zero_lifetime_counts_only_at_shape_one(self):
        # at shape one a zero lifetime's density is its rate
        sample = [_pair(0.0, 1.2)]
        want = math.log(0.5) + math.log(0.3 + 0.4) - (0.3 + 0.4) * 1.2
        assert complete_loglik(MOBWParams(1.0, 0.3, 0.5, 0.4), sample) == pytest.approx(
            want, rel=1e-12
        )
        for alpha in (0.5, 1.0, 1.8):
            self._agrees_or_refused(MOBWParams(alpha, 0.3, 0.5, 0.4), ZERO_LIFETIME)
        with pytest.raises(ValueError, match="^observation 0 holds a zero lifetime: .* non-finite"):
            complete_loglik(MOBWParams(0.5, 0.3, 0.5, 0.4), ZERO_LIFETIME)
        # the shape's full conditional has no slice to draw, at shape one too:
        # the step refuses before it draws anything
        st = summarize(ZERO_LIFETIME)
        for prior in (AlphaPrior(), AlphaPrior(c=2.0, d=1.0)):
            for seed, alpha in enumerate((0.5, 1.0, 1.8)):
                rng = _BoundedRng(seed, limit=0)
                with pytest.raises(ValueError, match=(
                    "^observation 0 holds a zero lifetime: the shape's conditional sits "
                    "at shape one alone, with no slice to draw$"
                )):
                    sample_alpha_conditional(prior, (0.3, 0.5, 0.4), st, alpha, rng)
                fresh = np.random.default_rng(seed).bit_generator.state
                assert rng.rng.bit_generator.state == fresh


class TestInnerEMOnSummary:
    @pytest.mark.parametrize("dataset", ["football", "nasal", "wide_panel"])
    def test_summary_fits_as_the_rows(self, request, dataset):
        data = request.getfixturevalue(dataset)
        theta = init_estimates(data)
        rows = impute_dataset(theta, data)
        rows_trace, summary_trace = [], []
        fit = inner_em_mobw(rows, theta, trace=rows_trace)
        assert inner_em_mobw(summarize(rows), theta, trace=summary_trace) == fit
        assert summary_trace == rows_trace

    # the inner EM on each first-round summary, whose weight rows hold zero
    # entries, from init_estimates' start as recorded: the fit and the number
    # of iterations, bit for bit
    FIRST_ROUND = {
        "football": (
            MOBWParams(
                2.049035121554143, 0.039429477040091754, 0.23269437776319468, 0.11091248134738774
            ),
            MOBWParams(
                3.170102624828586, 5.7823026553015065e-11, 0.12942805431805515, 0.1022813632194019
            ),
            87,
        ),
        "wide_panel": (
            MOBWParams(
                1.1730658601787614, 0.02813755763021246, 0.05677389046340134, 0.03446731761271356
            ),
            MOBWParams(
                1.2570946711185633, 0.028122023993468956, 0.04345991819494441, 0.03283341721381948
            ),
            15,
        ),
    }

    @pytest.mark.parametrize("dataset", sorted(FIRST_ROUND))
    def test_first_round_fit_keeps_its_bits(self, request, dataset):
        start, want, iters = self.FIRST_ROUND[dataset]
        st = summarize(impute_dataset(start, request.getfixturevalue(dataset)))
        assert 0.0 in st.weights[0] + st.weights[1] + st.weights[2]
        trace = []
        assert inner_em_mobw(st, start, trace=trace) == want
        assert len(trace) == iters

    def test_zero_lifetime_pins_the_shape_at_one(self):
        trace = []
        fit = inner_em_mobw(ZERO_LIFETIME, REF, trace=trace)
        assert fit.alpha == 1.0
        assert len(trace) >= 2
        assert all(map(math.isfinite, trace))
        assert all(b >= a for a, b in zip(trace, trace[1:]))
