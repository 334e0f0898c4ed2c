import math
import signal
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import stats

from bdw import bivariate, sampling
from bdw.bivariate import (
    BDWParams,
    BivariateGeomParams,
    MOBWParams,
    joint_cdf,
    joint_logpmf,
    joint_pmf,
    joint_pmf_grid,
    joint_sf,
    from_mobw,
    moments,
    to_mobw,
)
from bdw.properties import (
    closure_min,
    cond_pmf,
    cond_sf_given_eq,
    cond_sf_given_ge,
    is_tp2_on_grid,
    marginals,
    min_distribution,
    pqd_check_on_grid,
)
from bdw.sampling import dw_sample, sample
from bdw.univariate import DWParams, dw_pmf, dw_sf

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


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _oracle_log_ratios(law, k):
    """The TP2 and the PQD log-ratios of the joint survival on [0, k]^2,
    each with the sum of the magnitudes of the log-survivals it cancels.

    TP2 spans every ``x11 <= x12`` (rows) and ``x21 <= x22`` (columns), in
    the order of ``np.triu_indices``; PQD spans every cell ``(x1, x2)``.
    """
    rates = bivariate._rates(law)
    ls = np.array([[bivariate._log_sf(rates, x1, x2) for x2 in range(k + 1)]
                   for x1 in range(k + 1)])
    lo, hi = np.triu_indices(k + 1)
    terms = (ls[lo[:, None], lo], ls[hi[:, None], hi], -ls[hi[:, None], lo], -ls[lo[:, None], hi])
    tp2 = (sum(terms), sum(np.abs(t) for t in terms))
    terms = (ls, -ls[:, :1], -ls[:1, :])
    pqd = (sum(terms), sum(np.abs(t) for t in terms))
    return tp2, pqd


@st.composite
def _dependence_laws(draw):
    # shapes 0.05 to 20 and rates e**-20 to e, log-uniform, the shared rate
    # sometimes 0, given as survival bases or as rates
    alpha = math.exp(draw(st.floats(math.log(0.05), math.log(20.0))))
    rate = st.floats(-20.0, 1.0).map(math.exp)
    lam = (draw(st.one_of(st.just(0.0), rate)), draw(rate), draw(rate))
    if draw(st.booleans()):
        return BDWParams(alpha, *(math.exp(-v) for v in lam))
    return MOBWParams(alpha, *lam)


def _numpy_moments(params, epsilon=1e-10):
    """The moments' box sums on numpy arrays, as ``moments`` took them
    before it summed plain floats: pairwise sums, dot products and an
    inclusive ``cumsum`` less its own term."""
    k = bivariate._truncation_bound(params, epsilon)
    a, lam0, lam1, lam2 = bivariate._rates(params)
    with np.errstate(over="ignore"):
        pw = np.arange(k + 2, dtype=float) ** a
    e0 = np.exp(-lam0 * pw) if lam0 > 0.0 else np.ones(k + 2)
    e1, e2 = np.exp(-lam1 * pw), np.exp(-lam2 * pw)
    t1, t2 = e1 * (e0 - e0[-1] * e2[-1]), e2 * (e0 - e0[-1] * e1[-1])
    g1, g2 = t1[1:-1] - t1[-1], t2[1:-1] - t2[-1]
    odd = np.arange(1, 2 * k, 2, dtype=float)
    mean1, mean2 = float(g1.sum()), float(g2.sum())
    var1, var2 = float(odd @ g1) - mean1**2, float(odd @ g2) - mean2**2
    f0, f1, f2 = e0[1:-1], e1[1:-1], e2[1:-1]
    c1, c2 = np.cumsum(f1) - f1, np.cumsum(f2) - f2
    edges = e0[-1] * (e2[-1] * f1.sum() + e1[-1] * f2.sum() - k * e1[-1] * e2[-1])
    exy = float(f0 @ (f1 * f2 + f2 * c1 + f1 * c2) - k * edges)
    cov = exy - mean1 * mean2
    return mean1, mean2, var1, var2, cov, cov / math.sqrt(var1 * var2), k


@st.composite
def _moment_laws(draw):
    # shapes 0.3 to 20 and rates e**-20 to e**2, log-uniform, the shared
    # rate sometimes 0, given as survival bases or as rates; a law whose box
    # passes the grid cap is refused, and not drawn
    alpha = math.exp(draw(st.floats(math.log(0.3), math.log(20.0))))
    rate = st.floats(-20.0, 2.0).map(math.exp)
    lam = (draw(st.one_of(st.just(0.0), rate)), draw(rate), draw(rate))
    law = MOBWParams(alpha, *lam)
    try:
        k = bivariate._truncation_bound(law, 1e-10)
    except ValueError:
        k = math.inf
    assume(k <= bivariate._MAX_GRID_BOUND)
    if draw(st.booleans()):
        return BDWParams(alpha, *(math.exp(-v) for v in lam))
    return law


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

    @pytest.mark.parametrize("p0", [0.5, 1.0], ids=["shared", "independent"])
    def test_cell_past_the_float_range_has_no_mass_and_no_warning(self, p0):
        # the cell's powers overflow, and at p0 = 1 the atom's lambda0 * d
        # is 0 * inf; the suite turns an escaping RuntimeWarning into a
        # failure
        params = BDWParams(50.0, p0, 0.5, 0.5)
        assert joint_logpmf(params, 10**7, 10**7) == -math.inf
        assert joint_pmf(params, 10**7, 10**7) == 0.0
        assert joint_pmf_grid(params, 1, 1).sum() == pytest.approx(1.0)
        # only the next power overflows: the tie keeps S(1, 1) = exp(-total)
        law = MOBWParams(1100.0, 1.0 - p0, 0.5, 2.0)
        assert joint_logpmf(law, 1, 1) == -law.total

    @pytest.mark.parametrize("law, x", [
        (MOBWParams(1.0, 1e-20, 1e-20, 1.0), 0),
        (MOBWParams(1.0, 1e-12, 1e-12, 1.0), 2),
        (MOBWParams(1.0, 6.14421235332821e-06, 9.118819655545162e-04, 1.0), 0),
        (MOBWParams(3.0, 1e-27, 1e-27, 1e-27), 10**6),
        (MOBWParams(1.5, 1e-10, 2e-10, 3e-10), 10**7),
        (MOBWParams(12.0, 5e-21, 1e-20, 1.3e-20), 2),
        (MOBWParams(20.0, 5e-21, 1e-20, 1.3e-20), 2),
        (MOBWParams(2.1527952957, 0.0717123697, 0.1911053881, 0.1363609074), 3),
        (MOBWParams(0.3, 2.0, 0.5, 0.4), 5),
        (MOBWParams(2.0, 0.0, 1e-12, 0.3), 4),
    ])
    def test_atom_matches_mpmath(self, law, x):
        # the shared shock's atom, the survival rectangle at (x, x): a sum of
        # non-negative terms keeps its log-mass to 1e-12 relative where the
        # rectangle's terms nearly cancel (the first law's mass is 1.6e-20)
        with mp.workdps(60):
            a, l0, l1, l2 = (mp.mpf(v) for v in bivariate._rates(law))

            def sf(i, j):
                i, j = mp.mpf(i), mp.mpf(j)
                return mp.exp(-l1 * i**a - l2 * j**a - l0 * max(i, j) ** a)

            want = mp.log(sf(x, x) - sf(x + 1, x) - sf(x, x + 1) + sf(x + 1, x + 1))
        assert joint_logpmf(law, x, x) == pytest.approx(float(want), rel=1e-12)

    @staticmethod
    def _random_cells(seed, n, low_rate):
        # laws with rates over many decades, some with no shared shock, and
        # cells in [0, 40]^2
        rng = np.random.default_rng(seed)
        for _ in range(n):
            alpha, lam0, lam1, lam2 = 10 ** rng.uniform([-1, low_rate, low_rate, low_rate], 1)
            if rng.random() < 0.5:
                lam0 = 0.0
            i, j = rng.integers(0, 41, size=2)
            yield MOBWParams(*map(float, (alpha, lam0, lam1, lam2))), int(i), int(j)

    def test_cdf_matches_mpmath(self):
        # the box mass by inclusion-exclusion at 400 digits, where the float
        # form's terms nearly cancel: the two laws' boxes hold 1.7e-17 and
        # 1e-28, and the sweep's masses reach down to 1e-300
        cases = [
            (MOBWParams(0.5, 1e-17, 1e-17, 1e-17), 3, 2),
            (MOBWParams(1.5, 0.0, 1e-14, 1e-14), 0, 0),
            *self._random_cells(11, 300, -150),
        ]
        checked = 0
        with mp.workdps(400):
            for law, i, j in cases:
                a, l0, l1, l2 = (mp.mpf(v) for v in bivariate._rates(law))

                def sf(x, y):
                    x, y = mp.mpf(x), mp.mpf(y)
                    return mp.exp(-l1 * x**a - l2 * y**a - l0 * max(x, y) ** a)

                want = 1 - sf(i + 1, 0) - sf(0, j + 1) + sf(i + 1, j + 1)
                if want < mp.mpf("1e-300"):
                    continue
                checked += 1
                assert joint_cdf(law, i, j) == pytest.approx(float(want), rel=1e-14, abs=0.0), (law, i, j)
        assert checked > 250

    def test_cdf_holds_its_corner_cell_and_stays_a_probability(self):
        # the box holds its corner cell, so the cdf is at least that cell's
        # mass.  At the cell (0, 0) the two are equal, and the pmf, the exp of
        # a log-mass, carries that log's rounding: ~eps * |log-mass| relative
        eps = sys.float_info.epsilon
        for law, i, j in self._random_cells(12, 6000, -20):
            cdf = joint_cdf(law, i, j)
            assert 0.0 <= cdf <= 1.0, (law, i, j)
            slack = 4 * eps * (1.0 - joint_logpmf(law, i, j))
            assert joint_pmf(law, i, j) <= cdf * (1.0 + slack), (law, i, j)

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

    @staticmethod
    def _no_grid(*args):
        raise AssertionError("the grid was built")

    def test_moments_sum_the_grid_without_building_it(self, monkeypatch):
        # rates 0.1, 0.2 and 0.3: moments' box is [0, 228]^2 at shape 0.8
        params = BDWParams(0.8, math.exp(-0.1), math.exp(-0.2), math.exp(-0.3))
        k = 228
        grid = joint_pmf_grid(params, k, k)
        xs = np.arange(k + 1, dtype=float)
        p1, p2 = grid.sum(axis=1), grid.sum(axis=0)
        mean1, mean2 = xs @ p1, xs @ p2
        var1, var2 = xs**2 @ p1 - mean1**2, xs**2 @ p2 - mean2**2
        cov = xs @ grid @ xs - mean1 * mean2
        monkeypatch.setattr(bivariate, "joint_pmf_grid", self._no_grid)
        want = (mean1, mean2, var1, var2, cov, cov / math.sqrt(var1 * var2), k)
        for law in (params, to_mobw(params)):
            m = moments(law)
            assert [getattr(m, name) for name in m._fields] == pytest.approx(want, rel=1e-12)

    def test_moments_of_a_wide_box(self, monkeypatch):
        # at shape 0.5 the box is [0, 5891]^2; the values are sums over its
        # (K + 1)^2 pmf grid, recorded, as the grid takes seconds to build
        monkeypatch.setattr(bivariate, "joint_pmf_grid", self._no_grid)
        m = moments(BDWParams(0.5, math.exp(-0.1), math.exp(-0.2), math.exp(-0.3)))
        assert [getattr(m, name) for name in m._fields] == pytest.approx([
            21.780951967610715, 12.076758982200765, 2466.616543498568,
            779.4286881916595, 130.55500711032164, 0.09415741338613233, 5891,
        ], rel=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(law=_moment_laws())
    # a shared rate of 5e-324 at a shape where (K + 1)**alpha overflows,
    # and at the largest shape drawn
    @example(law=MOBWParams(1100.0, 5e-324, 0.5, 2.0))
    @example(law=MOBWParams(20.0, 5e-324, 1e-20, 1e-18))
    def test_moments_agree_with_the_array_sums(self, law):
        # the fields agree to 1e-12 relative to the magnitudes each one's
        # rounding scales with: a variance or covariance is a difference of
        # second moments, which at a zero shared rate leaves the covariance
        # pure rounding, and the correlation divides it by the deviations
        m = moments(law)
        mean1, mean2, var1, var2, cov, corr, k = want = _numpy_moments(law)
        s1, s2 = var1 + mean1**2, var2 + mean2**2
        scales = (
            mean1, mean2, s1, s2, math.sqrt(s1 * s2),
            math.sqrt(s1 * s2 / (var1 * var2)) + abs(corr) * (s1 / var1 + s2 / var2) / 2,
        )
        assert m.truncation_bound == k
        for name, value, scale in zip(m._fields, want, scales):
            assert abs(getattr(m, name) - value) <= 1e-12 * scale, (name, getattr(m, name), value)

    @pytest.mark.parametrize("law", [
        BDWParams(1.8, 1.0, 0.8, 0.7),
        MOBWParams(7.01, 0.0, 4.27e-8, 6.10e-3),
        MOBWParams(1.0, 0.0, 1.0, 1.0),
    ])
    def test_independent_covariance_is_the_truncation_alone(self, law):
        # at a zero shared rate the box [0, K]^2 is a product, and its
        # covariance is that of the truncation: 3.4e-13, 1.2e-16 and 9.4e-12
        # here, against 50-digit box sums at the law's own float rates; the
        # difference of the two box sums read 3.4395e-13 and 1.8e-15 for
        # the first two
        m = moments(law)
        a, _, lam1, lam2 = bivariate._rates(law)
        with mp.workdps(50):
            def masses(lam):
                s = [mp.exp(-mp.mpf(lam) * mp.mpf(x) ** mp.mpf(a)) for x in range(k + 2)]
                return [s[x] - s[x + 1] for x in range(k + 1)]

            k = m.truncation_bound
            f1, f2 = masses(lam1), masses(lam2)
            e1, e2 = mp.fsum(x * p for x, p in enumerate(f1)), mp.fsum(y * p for y, p in enumerate(f2))
            p1, p2 = mp.fsum(f1), mp.fsum(f2)
            cov = e1 * e2 * (1 - p1 * p2)
            var1 = mp.fsum(x * x * p for x, p in enumerate(f1)) * p2 - (e1 * p2) ** 2
            var2 = mp.fsum(y * y * p for y, p in enumerate(f2)) * p1 - (e2 * p1) ** 2
            corr = cov / mp.sqrt(var1 * var2)
        assert m.covariance == pytest.approx(float(cov), rel=1e-12, abs=0.0)
        assert m.correlation == pytest.approx(float(corr), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("law, corr", [
        (BDWParams(2.0, 1.0, 1e-200, 1e-200), 0.0),
        (BDWParams(2.0, 0.5, 1e-200, 1e-200), 0.0),
        # P(X1 >= 1, X2 >= 1) / P(X1 >= 1) = p2: the box holds {0, 1}^2
        (BDWParams(2.0, 1e-200, 0.5, 0.5), 0.5),
    ])
    def test_correlation_of_variances_whose_product_underflows(self, law, corr):
        # both variances are ~1e-200, so their product rounds to 0
        m = moments(law)
        assert m.var1 > 0.0 and m.var2 > 0.0 and m.var1 * m.var2 == 0.0
        assert m.correlation == pytest.approx(corr, rel=1e-12, abs=0.0)
        assert m.correlation == m.covariance / (math.sqrt(m.var1) * math.sqrt(m.var2))

    @pytest.mark.parametrize("law, i", [
        (MOBWParams(1.0, 0.0, 800.0, 800.0), 1),
        (MOBWParams(1.0, 0.0, 1.0, 800.0), 2),
        (MOBWParams(1.0, 800.0, 1.0, 1.0), 1),
    ])
    def test_zero_variance_is_refused_by_name(self, law, i):
        # exp(-800) underflows: the coordinate's whole mass sits at 0
        with pytest.raises(ValueError, match=rf"^X{i} has variance 0 in the float range: "):
            moments(law)

    def test_epsilon_that_is_no_number_is_refused_by_name(self):
        # the range check compared a string with 0 and raised a bare TypeError
        law = BDWParams(1.5, 0.9, 0.7, 0.75)
        with pytest.raises(ValueError, match="^epsilon must be a number, got '1e-10'$"):
            moments(law, epsilon="1e-10")
        with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1e-4\], got 0.5$"):
            moments(law, epsilon=0.5)
        assert moments(law, epsilon=np.float64(1e-10)) == moments(law)

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

    @pytest.mark.parametrize("k1, k2, k", [
        (10**6, 10**6, 10**6),  # 931 GiB of grid
        (10_001, 10_000, 10_001),
        (10**8 + 10**5, 0, 10**8 + 10**5),  # one row, more cells than the cap's square
    ])
    def test_grid_past_the_cap_is_refused_before_it_is_built(self, monkeypatch, k1, k2, k):
        def no_tables(*args):
            raise AssertionError("the tables were built")

        monkeypatch.setattr(bivariate, "_log_rows", no_tables)
        with pytest.raises(
            ValueError, match=rf"^a grid \[0, K\]\^2 with K = {k} > 10000 is not tractable$"
        ):
            joint_pmf_grid(MOBWParams(1.5, 0.1, 0.3, 0.2), k1, k2)
        with pytest.raises(ValueError, match=rf"K = {k} > 10000"):
            joint_pmf_grid(MOBWParams(1.5, 0.1, 0.3, 0.2), k2, k1)

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

    @pytest.mark.parametrize("check", [is_tp2_on_grid, pqd_check_on_grid])
    def test_overflowing_ratio_is_refused_by_name(self, check):
        # the largest ratio is exp(4.3e11): past the float range at k = 12
        with pytest.raises(ValueError, match=r"^the largest survival ratio on the grid "
                           r"of bound k = 12 is exp\(427709999578\.99\d*\), past the "
                           r"float range: check a smaller k$"):
            check(BDWParams(10.0, 0.001, 0.5, 0.5), 12)
        # a grid whose largest ratio fits still reports
        assert check(BDWParams(10.0, 0.001, 0.5, 0.5), 1).max_ratio == pytest.approx(1000.0)
        # k**alpha past the float range: refused where lambda0 > 0, and a
        # ratio of one everywhere at p0 = 1
        with pytest.raises(ValueError, match=r"^the largest survival ratio on the grid "
                           r"of bound k = 10 is exp\(inf\), past the float range: "
                           r"check a smaller k$"):
            check(BDWParams(400.0, 0.9, 0.7, 0.7), 10)
        assert check(BDWParams(400.0, 1.0, 0.7, 0.7), 10).max_ratio == 1.0

    def test_tp2_sweep_covers_ordered_pairs(self):
        rep = is_tp2_on_grid(BDWParams(1.3, 0.8, 0.7, 0.6), k=3)
        assert rep.checked == 10 * 10
        assert rep.worst_ratio == 1.0 and rep.max_ratio > 1.0

    def test_pqd_is_exact_equality_under_independence(self):
        rep = pqd_check_on_grid(BDWParams(1.7, 1.0, 0.8, 0.7), k=8)
        assert rep.passed
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(law=_dependence_laws(), k=st.integers(1, 12))
    def test_checks_evaluate_the_sweep_of_the_survival(self, law, k):
        # the oracle sweeps every ratio the checks stand for, formed from the
        # joint survival, not from the reduced form; each log-ratio is good
        # to 1e-12 of the log-survivals it cancels
        for check, (logratio, scale) in zip(
            (is_tp2_on_grid, pqd_check_on_grid), _oracle_log_ratios(law, k)
        ):
            tol = 1e-12 * scale
            assert (logratio >= -tol).all()
            assert abs(logratio.flat[np.argmin(logratio)]) <= tol.flat[np.argmin(logratio)]
            at = np.argmax(logratio)
            best, tol = logratio.flat[at], tol.flat[at]
            assume(abs(best - _LOG_FLOAT_MAX) > tol)
            if best > _LOG_FLOAT_MAX:
                with pytest.raises(ValueError, match=rf"^the largest survival ratio on the "
                                   rf"grid of bound k = {k} is exp\("):
                    check(law, k)
                continue
            rep = check(law, k)
            assert (rep.passed, rep.worst_ratio, rep.witness) == (True, 1.0, None)
            assert rep.checked == logratio.size
            assert rep.max_ratio == pytest.approx(math.exp(best), rel=max(tol, 1e-12))


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

    @pytest.mark.parametrize("law", [
        BDWParams(1.6, 0.95, 0.8, 0.85),
        BDWParams(1.5, 0.9, 0.7, 0.75),
        BDWParams(0.6, 1.0, 0.5, 0.95),  # lambda0 = 0: two exposures
        BDWParams(1.2, 0.97, 0.95, 0.96),
        BDWParams(0.3, 0.999, 0.99, 0.995),
        MOBWParams(2.0, 0.0, 1e-3, 2.0),
    ], ids=str)
    @pytest.mark.parametrize("seed, n", [(0, 1), (1, 20), (2**64 - 1, 200), (7, 1000)])
    def test_stream_draws_the_pairs_of_default_rng(self, law, seed, n):
        # the package's stream gives the uniforms of default_rng(seed), and
        # the samplers read them in the same order: lambda1, lambda2, lambda0
        want = sample(law, np.random.default_rng(seed), size=n)
        got = sample(law, sampling._Stream(seed), size=n)
        assert want.shape == (n, 2) and want.dtype == np.int64
        assert type(got) is list and got == [tuple(pair) for pair in want.tolist()]
        latent = sampling.mobw_sample(to_mobw(law), np.random.default_rng(seed), size=n)
        got = sampling.mobw_sample(to_mobw(law), sampling._Stream(seed), size=n)
        assert latent.shape == (n, 2) and got == [tuple(pair) for pair in latent.tolist()]
        one = sample(law, sampling._Stream(seed))
        assert one == sample(law, np.random.default_rng(seed)) and type(one[0]) is int

    def test_stream_refuses_a_heavy_tail_as_numpy_does(self):
        law = BDWParams(0.05, 0.999, 0.99, 0.99)
        with pytest.raises(ValueError, match="too heavy to sample") as want:
            sample(law, np.random.default_rng(0), size=8)
        with pytest.raises(ValueError, match="too heavy to sample") as got:
            sample(law, sampling._Stream(0), size=8)
        assert str(got.value) == str(want.value)

    def test_refusal_names_the_first_lifetime_in_pair_order(self):
        lifetimes = [1.5, 3.0, 2.0**63, 0.0, math.inf, 2.0**64]
        with pytest.raises(ValueError, match=r"^a drawn lifetime of 9\.22337e\+18 exceeds"):
            sampling._floor_counts(lifetimes)
        assert sampling._floor_counts([0.0, 2.5, 2.0**63 - 1024]) == [0, 2, 2**63 - 1024]

    @pytest.mark.parametrize("alpha", [0.05, 0.001])
    def test_lifetime_past_the_count_range_is_refused(self, alpha):
        # a shape this small puts some minima beyond 2**63; at the smaller
        # one the power overflows to inf, without a warning
        law = BDWParams(alpha, 0.999, 0.99, 0.99)
        with pytest.raises(ValueError, match=r"exceeds the largest count .* too heavy to sample$"):
            sample(law, np.random.default_rng(0), size=8)
        with pytest.raises(ValueError, match="too heavy to sample"):
            dw_sample(DWParams(0.05, 0.99), np.random.default_rng(0), size=8)
