import math
import signal

import numpy as np
import pytest
from scipy import stats

from bdw import bivariate
from bdw.bivariate import (
    BDWParams,
    BivariateGeomParams,
    closure_min,
    cond_pmf,
    cond_sf_given_eq,
    cond_sf_given_ge,
    from_mobw,
    is_tp2_on_grid,
    joint_cdf,
    joint_logpmf,
    joint_pmf,
    joint_pmf_grid,
    joint_sf,
    marginals,
    min_distribution,
    moments,
    pqd_check_on_grid,
    sample,
    to_mobw,
)
from bdw.univariate import DWParams, dw_pmf, dw_sample, dw_sf

CASES = [
    BDWParams(1.5, 0.9, 0.8, 0.7),
    BDWParams(0.8, 0.7, 0.6, 0.9),
    BDWParams(1.0, 0.85, 0.75, 0.65),
    BDWParams(3.2, 0.99, 0.95, 0.9),
    BDWParams(2.0, 1.0, 0.8, 0.7),  # independence boundary
]


def rect_mass(params, i, j):
    # inclusion-exclusion over the four corners of the unit cell
    return (
        joint_sf(params, i, j)
        - joint_sf(params, i + 1, j)
        - joint_sf(params, i, j + 1)
        + joint_sf(params, i + 1, j + 1)
    )


class TestJointLaw:
    def test_survival_closed_form(self):
        params = BDWParams(1.5, 0.9, 0.8, 0.7)
        for i, j in [(0, 0), (1, 0), (2, 3), (4, 4)]:
            a = params.alpha
            direct = (
                params.p0 ** (max(i, j) ** a)
                * params.p1 ** (i**a)
                * params.p2 ** (j**a)
            )
            assert joint_sf(params, i, j) == pytest.approx(direct, rel=1e-13)
        assert joint_sf(params, 0, 0) == 1.0
        assert joint_sf(params, 2.9, 3.7) == joint_sf(params, 2, 3)

    @pytest.mark.parametrize("params", CASES)
    def test_pmf_matches_rectangle_identity(self, params):
        for i in range(7):
            for j in range(7):
                assert joint_pmf(params, i, j) == pytest.approx(
                    rect_mass(params, i, j), abs=1e-13
                )

    @pytest.mark.parametrize("params", CASES)
    def test_grid_normalizes(self, params):
        k = 10
        while joint_sf(params, k, 0) + joint_sf(params, 0, k) > 1e-15:
            k *= 2
        total = joint_pmf_grid(params, k, k).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_grid_agrees_with_pointwise(self):
        params = BDWParams(1.7, 0.92, 0.85, 0.8)
        grid = joint_pmf_grid(params, 5, 6)
        assert grid.shape == (6, 7)
        for i in range(6):
            for j in range(7):
                assert grid[i, j] == pytest.approx(joint_pmf(params, i, j), rel=1e-12)

    def test_cdf_is_probability_of_rectangle(self):
        params = BDWParams(1.4, 0.9, 0.85, 0.75)
        grid = joint_pmf_grid(params, 8, 8)
        for i in range(5):
            for j in range(5):
                assert joint_cdf(params, i, j) == pytest.approx(
                    grid[: i + 1, : j + 1].sum(), abs=1e-12
                )

    def test_independence_factorization_at_unit_shared_base(self):
        params = BDWParams(1.8, 1.0, 0.8, 0.7)
        m1, m2 = marginals(params)
        for i in range(6):
            for j in range(6):
                assert joint_pmf(params, i, j) == pytest.approx(
                    dw_pmf(m1, i) * dw_pmf(m2, j), abs=1e-12
                )

    def test_diagonal_atom_exceeds_independent_mass(self):
        params = BDWParams(1.5, 0.9, 0.8, 0.7)
        free = BDWParams(1.5, 1.0, 0.9 * 0.8, 0.9 * 0.7)
        # same marginals, shared shock on vs off: the tie cells gain mass
        for i in range(1, 5):
            assert joint_pmf(params, i, i) > joint_pmf(free, i, i)

    def test_validation(self):
        with pytest.raises(ValueError):
            joint_pmf(BDWParams(1.5, 0.9, 0.8, 0.7), -1, 0)
        with pytest.raises(ValueError):
            joint_sf(BDWParams(1.5, 0.9, 0.8, 0.7), -0.5, 1)
        with pytest.raises(ValueError):
            BDWParams(1.5, 0.9, 1.0, 0.7)
        with pytest.raises(ValueError):
            BDWParams(0.0, 0.9, 0.8, 0.7)
        # p0 = 1 is the legal independence boundary
        BDWParams(1.5, 1.0, 0.8, 0.7)

    def test_cell_past_the_float_range_has_no_mass_and_no_warning(self):
        # the cell's powers overflow and its tie branch subtracts two -inf;
        # the suite turns an escaping RuntimeWarning into a failure
        params = BDWParams(50.0, 0.5, 0.5, 0.5)
        assert joint_logpmf(params, 10**7, 10**7) == -math.inf
        assert joint_pmf(params, 10**7, 10**7) == 0.0
        assert joint_pmf_grid(params, 1, 1).sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "law, limit",
        [
            (lambda: joint_sf(BDWParams(50.0, 0.5, 0.5, 0.5), 10**7, 10**7), 0.0),
            (lambda: joint_sf(BDWParams(50.0, 1.0, 0.5, 0.5), 10**7, 10**7), 0.0),
            (lambda: joint_sf(BDWParams(50.0, 1.0, 0.5, 0.5), 10**7, 0), 0.0),
            (lambda: joint_cdf(BDWParams(50.0, 0.5, 0.5, 0.5), 10**7, 10**7), 1.0),
            (lambda: joint_cdf(BDWParams(50.0, 1.0, 0.5, 0.5), 10**7, 10**7), 1.0),
            (lambda: cond_sf_given_eq(BDWParams(50.0, 0.5, 0.5, 0.5), 10**7, 10**7), 0.0),
            (lambda: cond_sf_given_eq(BDWParams(50.0, 0.5, 0.5, 0.5), 10**7, 1), 0.0),
            (lambda: dw_sf(DWParams(50.0, 0.5), 10**7), 0.0),
        ],
        ids=["joint_sf", "joint_sf-independent", "joint_sf-axis", "joint_cdf",
             "joint_cdf-independent", "cond_sf_given_eq", "cond_sf_given_eq-above", "dw_sf"],
    )
    def test_survival_past_the_float_range_is_its_limit(self, law, limit):
        # the power overflows a float: the survival is 0 and the cdf 1, not
        # an OverflowError, and a zero shared rate times inf is not NaN
        assert law() == limit


class TestDerivedLaws:
    @pytest.mark.parametrize("params", CASES)
    def test_marginal_identities(self, params):
        m1, m2 = marginals(params)
        k = 20
        while dw_sf(m1, k) + dw_sf(m2, k) > 1e-13:
            k *= 2
        grid = joint_pmf_grid(params, k, k)
        for y in range(6):
            assert grid[y, :].sum() == pytest.approx(dw_pmf(m1, y), abs=1e-11)
            assert grid[:, y].sum() == pytest.approx(dw_pmf(m2, y), abs=1e-11)

    @pytest.mark.parametrize("params", CASES)
    def test_min_identity(self, params):
        law = min_distribution(params)
        for y in range(1, 6):
            # P(min >= y) == P(X1 >= y, X2 >= y)
            assert dw_sf(law, y) == pytest.approx(joint_sf(params, y, y), rel=1e-12)

    def test_closure_under_componentwise_minima(self):
        parts = [BDWParams(1.6, 0.95, 0.9, 0.85), BDWParams(1.6, 0.9, 0.8, 0.9)]
        law = closure_min(parts)
        for y in range(1, 5):
            prod = 1.0
            for c in parts:
                prod *= joint_sf(c, y, y)
            assert dw_sf(law, y) == pytest.approx(prod, rel=1e-12)
        with pytest.raises(ValueError):
            closure_min([])
        with pytest.raises(ValueError):
            closure_min([parts[0], BDWParams(2.0, 0.9, 0.8, 0.7)])

    @pytest.mark.parametrize("params", CASES)
    def test_conditional_pmf_normalizes(self, params):
        for j in range(3):
            total = sum(cond_pmf(params, i, j) for i in range(200))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_conditional_survivals(self):
        params = BDWParams(1.5, 0.9, 0.8, 0.7)
        # P(X1 >= i | X2 >= j) directly from the joint and marginal laws
        _, m2 = marginals(params)
        for i in range(4):
            for j in range(4):
                assert cond_sf_given_ge(params, i, j) == pytest.approx(
                    joint_sf(params, i, j) / dw_sf(m2, j), rel=1e-12
                )
        # P(X1 >= i | X2 = j) from summed joint masses
        grid = joint_pmf_grid(params, 120, 6)
        for j in range(4):
            col = grid[:, j]
            for i in range(4):
                assert cond_sf_given_eq(params, i, j) == pytest.approx(
                    col[i:].sum() / col.sum(), rel=1e-9
                )

    def test_geometric_case_wrapper(self):
        geom = BivariateGeomParams(0.9, 0.8, 0.7)
        assert geom.as_bdw() == BDWParams(1.0, 0.9, 0.8, 0.7)


class TestMomentsAndDependence:
    def test_moments_match_brute_force(self):
        params = BDWParams(1.5, 0.9, 0.8, 0.7)
        m = moments(params)
        k = 200
        grid = joint_pmf_grid(params, k, k)
        xs = np.arange(k + 1, dtype=float)
        p1 = grid.sum(axis=1)
        p2 = grid.sum(axis=0)
        mean1 = xs @ p1
        mean2 = xs @ p2
        assert m.mean1 == pytest.approx(mean1, abs=1e-8)
        assert m.mean2 == pytest.approx(mean2, abs=1e-8)
        assert m.var1 == pytest.approx(xs**2 @ p1 - mean1**2, abs=1e-7)
        assert m.var2 == pytest.approx(xs**2 @ p2 - mean2**2, abs=1e-7)
        assert m.covariance == pytest.approx(
            xs @ grid @ xs - mean1 * mean2, abs=1e-7
        )
        assert m.correlation == pytest.approx(
            m.covariance / math.sqrt(m.var1 * m.var2), rel=1e-12
        )
        assert m.truncation_bound >= 1

    def test_heavy_tail_is_refused_before_the_grid(self, monkeypatch):
        # K = 62872299 would need a (K + 1)^2 grid of 28 PiB
        def no_grid(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(bivariate, "joint_pmf_grid", no_grid)
        params = BDWParams(0.3, 1.0, 0.6, 0.9)
        with pytest.raises(
            ValueError,
            match=r"^joint mass spreads beyond a tractable grid: all but "
            r"epsilon = 1e-10 of it needs K = 62872299 > 10000$",
        ):
            moments(params)
        with pytest.raises(ValueError, match=r"epsilon = 1e-06 of it needs K > 10000$"):
            bivariate._table_bound(params)

    @pytest.mark.parametrize("alpha", [0.01, 0.001])
    def test_bound_past_float_resolution_is_refused(self, monkeypatch, alpha):
        # the bound's start is ~7e203 at shape 0.01 (and overflows at 0.001),
        # where k - 1 rounds to k: a search from there never ends
        def no_grid(*args):
            raise AssertionError("the grid was built")

        def expire(signum, frame):
            raise TimeoutError("moments still running after 5 s")

        monkeypatch.setattr(bivariate, "joint_pmf_grid", no_grid)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            with pytest.raises(
                ValueError,
                match=r"^joint mass spreads beyond a tractable grid: all but "
                r"epsilon = 1e-10 of it needs K > 10000$",
            ):
                moments(BDWParams(alpha, 0.9, 0.9, 0.9))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_shared_shock_induces_positive_correlation(self):
        dependent = moments(BDWParams(1.5, 0.8, 0.9, 0.9))
        independent = moments(BDWParams(1.5, 1.0, 0.8 * 0.9, 0.8 * 0.9))
        assert dependent.correlation > 0.05
        assert independent.correlation == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("params", CASES)
    def test_tp2_no_violations(self, params):
        rep = is_tp2_on_grid(params, k=8)
        assert rep.passed
        assert rep.witness is None
        assert rep.worst_ratio >= 1.0

    @pytest.mark.parametrize("params", CASES)
    def test_pqd_no_violations(self, params):
        rep = pqd_check_on_grid(params, k=10)
        assert rep.passed
        assert rep.witness is None
        assert rep.worst_ratio >= 1.0

    def test_grid_reduction_names_the_first_worst_point(self):
        # two points share the worst log-ratio; a NaN is skipped
        logratio = np.array([[0.5, -1.0], [np.nan, -1.0]])
        rows, cols = np.ogrid[:2, :2]
        rep = bivariate._grid_report(logratio, (rows, 10 + cols))
        assert rep == bivariate.GridCheckReport(
            False, math.exp(-1.0), math.exp(0.5), (0, 11), 4
        )

    @pytest.mark.parametrize("check", [is_tp2_on_grid, pqd_check_on_grid])
    def test_overflowing_ratio_is_refused_by_name(self, check):
        # the largest ratio is exp(4.3e11): past the float range at k = 12
        with pytest.raises(ValueError, match=r"^the largest survival ratio on the grid "
                           r"of bound k = 12 is exp\(427709999578\.99\d*\), past the "
                           r"float range: check a smaller k$"):
            check(BDWParams(10.0, 0.001, 0.5, 0.5), 12)
        # a grid whose largest ratio fits still reports
        assert check(BDWParams(10.0, 0.001, 0.5, 0.5), 1).max_ratio == pytest.approx(1000.0)

    def test_tp2_sweep_covers_ordered_pairs(self):
        rep = is_tp2_on_grid(BDWParams(1.3, 0.8, 0.7, 0.6), k=3)
        assert rep.checked == 10 * 10
        assert rep.worst_ratio == 1.0 and rep.max_ratio > 1.0

    def test_pqd_is_exact_equality_under_independence(self):
        rep = pqd_check_on_grid(BDWParams(1.7, 1.0, 0.8, 0.7), k=8)
        assert rep.passed
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-15)


class TestLatentCorrespondence:
    def test_round_trip(self):
        params = BDWParams(1.9, 0.93, 0.87, 0.81)
        lat = to_mobw(params)
        assert lat.lambda0 == pytest.approx(-math.log(0.93), rel=1e-12)
        back = from_mobw(lat)
        assert back.alpha == params.alpha
        for name in ("p0", "p1", "p2"):
            assert getattr(back, name) == pytest.approx(getattr(params, name), rel=1e-12)

    def test_independence_boundary_round_trip(self):
        params = BDWParams(1.5, 1.0, 0.8, 0.7)
        lat = to_mobw(params)
        assert lat.lambda0 == 0.0
        assert from_mobw(lat).p0 == 1.0


class TestSampling:
    def test_cell_frequencies_consistent(self, rng):
        params = BDWParams(1.5, 0.9, 0.8, 0.7)
        draws = sample(params, rng, size=40_000)
        k = 3
        observed = np.zeros((k + 2, k + 2))
        clipped = np.clip(draws, 0, k + 1)
        for a, b in clipped:
            observed[a, b] += 1
        expected = np.zeros((k + 2, k + 2))
        grid = joint_pmf_grid(params, k, k)
        expected[: k + 1, : k + 1] = grid
        # absorb the clipped tail rows through survival rectangles
        for i in range(k + 1):
            expected[i, k + 1] = joint_sf(params, i, k + 1) - joint_sf(
                params, i + 1, k + 1
            )
            expected[k + 1, i] = joint_sf(params, k + 1, i) - joint_sf(
                params, k + 1, i + 1
            )
        expected[k + 1, k + 1] = joint_sf(params, k + 1, k + 1)
        expected *= draws.shape[0]
        keep = expected.ravel() >= 5
        stat = float(
            ((observed.ravel()[keep] - expected.ravel()[keep]) ** 2 / expected.ravel()[keep]).sum()
        )
        pval = stats.chi2.sf(stat, int(keep.sum()) - 1)
        assert pval > 0.01

    def test_ties_have_positive_frequency(self, rng):
        draws = sample(BDWParams(1.5, 0.8, 0.9, 0.9), rng, size=2000)
        tie_rate = float(np.mean(draws[:, 0] == draws[:, 1]))
        assert tie_rate > 0.1

    def test_seeded_reproducibility(self):
        params = BDWParams(1.5, 0.9, 0.8, 0.7)
        a = sample(params, np.random.default_rng(3), size=50)
        b = sample(params, np.random.default_rng(3), size=50)
        np.testing.assert_array_equal(a, b)

    def test_scalar_draw(self, rng):
        pair = sample(BDWParams(1.5, 0.9, 0.8, 0.7), rng)
        assert isinstance(pair, tuple) and len(pair) == 2

    @pytest.mark.parametrize(
        "params", [BDWParams(1.5, 0.9, 0.8, 0.7), BDWParams(0.6, 1.0, 0.5, 0.95)]
    )
    def test_pairs_are_minima_of_three_dw_draws(self, params):
        # the floored latent pair is the pair of minima of the three DW
        # components, drawn from the same stream in the same order
        rng = np.random.default_rng(11)
        comps = [DWParams(params.alpha, p) for p in (params.p1, params.p2, params.p0) if p < 1]
        u = [dw_sample(c, rng, size=300) for c in comps]
        if len(u) == 3:
            u = [np.minimum(u[0], u[2]), np.minimum(u[1], u[2])]
        want = np.column_stack(u)
        np.testing.assert_array_equal(sample(params, np.random.default_rng(11), size=300), want)

    @pytest.mark.parametrize("alpha", [0.05, 0.001])
    def test_lifetime_past_the_count_range_is_refused(self, alpha):
        # a shape this small puts some minima beyond 2**63; at the smaller
        # one the power overflows to inf, without a warning
        law = BDWParams(alpha, 0.999, 0.99, 0.99)
        with pytest.raises(ValueError, match=r"exceeds the largest count .* too heavy to sample$"):
            sample(law, np.random.default_rng(0), size=8)
        with pytest.raises(ValueError, match="too heavy to sample"):
            dw_sample(DWParams(0.05, 0.99), np.random.default_rng(0), size=8)
