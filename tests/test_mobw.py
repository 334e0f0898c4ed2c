import math

import numpy as np
import pytest
from scipy import integrate

from bdw.bivariate import BDWParams, from_mobw, joint_pmf
from bdw.fit_ml import BivariateDataset, impute_dataset
from bdw.mobw import (
    CompleteObservation,
    LatentPrediction,
    MOBWParams,
    cell_probability,
    complete_loglik,
    ml_predict,
    mobw_pdf,
    mobw_sample,
    mobw_sf,
)
from bdw.univariate import WeibullParams, we_mode, we_pdf

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
        # only a cell whose log-mass is -inf is refused
        with pytest.raises(ValueError, match=r"^cell \(1000, 2000\) has zero probability$"):
            ml_predict(MOBWParams(0.1, 1e-13, 1e-13, 1e-13), 1000, 2000)

    def test_vanishing_shared_share_is_no_domain_error(self):
        # lambda0 / total underflows to zero: the diagonal then has no
        # density, as at lambda0 = 0, and nothing takes log(0)
        params = MOBWParams(1.0, 5e-324, 5.8, 0.02)
        pred = ml_predict(params, 6, 6)
        assert (pred.y1hat, pred.y2hat, pred.kind) == (6.0, 6.0, "below")
        assert 0.0 < pred.density_value < math.inf
        assert mobw_pdf(params, 1.0, 1.0) == (0.0, "diagonal")
        with pytest.raises(ValueError, match="non-finite log-density"):
            complete_loglik(params, [CompleteObservation(1.0, 1.0, "tie")])

    def test_minimum_mass_survives_an_underflowing_base_product(self):
        # p0 * p1 * p2 underflows to zero, but the minimum's mass at 0 is 1
        pred = ml_predict(MOBWParams(2.0, 300.0, 300.0, 300.0), 0, 0)
        assert pred.case_tag == "tie-diagonal"
        assert math.isfinite(pred.density_value)

    def test_decreasing_density_shape_predicts_cell_corner(self):
        params = MOBWParams(0.9, 0.3, 0.5, 0.4)
        pred = ml_predict(params, 2, 4)
        assert (pred.y1hat, pred.y2hat) == (2.0, 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ml_predict(REF, -1, 0)
        with pytest.raises(ValueError):
            ml_predict(REF, 0.5, 0)


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
