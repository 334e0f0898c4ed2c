"""The joint law on one value table, against the cell-mask split it replaced.

The reference below is the earlier form of the joint log-pmf, kept as an
oracle: three boolean masks over the cells (below the diagonal, above it,
on it), each part filled from primitives that take a rate as flags over
``(lambda0, lambda1, lambda2)``, once for the values and once for the
per-cell ``(n, 4, 4)`` jets of the likelihood's score and Hessian.  The
jet primitives are written out here: the power jet, the DW jet in
``(alpha, rate)`` on the form ``y**alpha * expm1(alpha*log1p(1/y))`` of
its power difference, and the ``log(1 - exp(-u))`` jet.  They take their
powers and logs per value on ``math``: at small rates a DW jet's Hessian
entry in ``(alpha, rate)``, and the tie atom's ``lead - trail``, are
differences of terms of size ``1/u``, so a last-bit difference in a power,
such as numpy's vectorized ``power`` can make against ``math``'s, would
show as ``eps/u`` there.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdw import bivariate
from bdw.bivariate import BDWParams, MOBWParams, joint_pmf_grid
from bdw.datasets import BivariateDataset, _cell_log_masses
from bdw.fit_ml import bdw_loglik_derivatives
from bdw.weibull import _log1mexp, _logpmf_arr

WIDE = BDWParams(1.2, 0.97, 0.95, 0.96)


def _ref_parts(x1, x2):
    below = x1 < x2
    above = x1 > x2
    return below, above, ~(below | above)


def _ref_fill(out, x1, x2, parts, dw, power, log1mexp):
    r1, r2 = (0, 1, 0), (0, 0, 1)
    r01, r02 = (1, 1, 0), (1, 0, 1)
    below, above, ties = parts
    if below.any():
        out[below] = dw(x1[below], r1) + dw(x2[below], r02)
    if above.any():
        out[above] = dw(x1[above], r01) + dw(x2[above], r2)
    if ties.any():
        x = x1[ties]
        lead = power(x, r1) + dw(x, r02)
        trail = power(x + 1.0, r01) + dw(x, r2)
        out[ties] = lead + log1mexp(lead - trail)
    return out


def _ref_log_joint_pmf(params, x1, x2):
    a, lam0, lam1, lam2 = bivariate._rates(params)

    def rate(flags):
        return lam0 * flags[0] + lam1 * flags[1] + lam2 * flags[2]

    def dw(y, flags):
        return _logpmf_arr(y, a, rate(flags))

    def power(y, flags):
        return -rate(flags) * np.where(y > 0, np.power(y, a), 0.0)

    parts = _ref_parts(x1, x2)
    if lam0 == 0.0:
        below, above, ties = parts
        parts = (below, above | ties, np.zeros_like(ties))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        return _ref_fill(np.empty(x1.shape), x1, x2, parts, dw, power, _log1mexp)


def _ref_grid(params, k1, k2):
    g1, g2 = np.broadcast_arrays(
        np.arange(k1 + 1, dtype=float)[:, None], np.arange(k2 + 1, dtype=float)[None, :]
    )
    return np.exp(_ref_log_joint_pmf(params, g1, g2))


class _Jet:
    """Per-entry values with gradients and Hessians in ``theta``."""

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def __add__(self, other):
        return _Jet(self.v + other.v, self.g + other.g, self.h + other.h)

    def __sub__(self, other):
        return _Jet(self.v - other.v, self.g - other.g, self.h - other.h)


def _ref_log1mexp_terms(u):
    # log(1 - exp(-u)) with its derivatives in u, g1 = exp(-u)/(1 - exp(-u))
    # and g2 = -(g1 + g1**2); -inf and NaN for u <= 0 and for NaN
    if u > 0.0:
        tail = -math.expm1(-u)
        v, g1 = math.log(tail), math.exp(-u) / tail
    else:
        v, g1 = -math.inf, math.nan
    return v, g1, -(g1 + g1 * g1)


def _log1mexp_jet(u):
    v, g1, g2 = np.array([_ref_log1mexp_terms(x) for x in u.v.tolist()]).reshape(-1, 3).T
    return _Jet(
        v,
        g1[..., None] * u.g,
        g2[..., None, None] * (u.g[..., :, None] * u.g[..., None, :]) + g1[..., None, None] * u.h,
    )


def _ref_lift(jets, rates):
    # per-entry jets (v, g_a, g_r, h_aa, h_ar, h_rr) in (alpha, r), the rate
    # r taken as flags over (lambda0, lambda1, lambda2), as jets in theta
    m = np.array([0.0, *rates])
    shape = np.zeros(m.size)
    shape[0] = 1.0
    v, ga, gr, haa, har, hrr = np.array(jets, dtype=float).reshape(-1, 6).T
    cross = np.outer(shape, m) + np.outer(m, shape)
    return _Jet(
        v,
        ga[:, None] * shape + gr[:, None] * m,
        haa[:, None, None] * np.outer(shape, shape) + har[:, None, None] * cross
        + hrr[:, None, None] * np.outer(m, m),
    )


def _power(y, a):
    # y**a, and inf past the float range, where the float power raises
    try:
        return y**a
    except OverflowError:
        return math.inf


def _ref_power_jet(y, theta, rates):
    m = np.array([0.0, *rates])
    shape = np.zeros(m.size)
    shape[0] = 1.0
    r = float(m @ theta)
    ly = np.array([math.log(x) if x > 0.0 else 0.0 for x in y.tolist()])
    t = np.array([_power(x, theta[0]) for x in y.tolist()])
    t_a = t * ly
    t_aa = t_a * ly
    cross = np.outer(shape, m) + np.outer(m, shape)
    return _Jet(
        -r * t,
        -(r * t_a)[:, None] * shape - t[:, None] * m,
        -(r * t_aa)[:, None, None] * np.outer(shape, shape) - t_a[:, None, None] * cross,
    )


def _ref_dw_jet(y, theta, rates):
    # -r*t1 + log1mexp(u), u = r*dt, t1 = y**alpha and dt = (y+1)**alpha - t1,
    # taken as t1*expm1(alpha*s), s = log1p(1/y), which keeps its digits where
    # the powers cancel, and as 1 at y = 0; the alpha derivatives of t1 are
    # t1*log(y)**k, and those of dt, (y+1)**alpha*log(y+1)**k - t1*log(y)**k,
    # regrouped on dt and s the same way
    a = theta[0]
    r = float(np.array([0.0, *rates]) @ theta)
    jets = []
    for x in y.tolist():
        t1, dt, t1_a, t1_aa, dt_a, dt_aa = 0.0, 1.0, 0.0, 0.0, 0.0, 0.0
        if x > 0.0:
            ly, ly1, s = math.log(x), math.log(x + 1.0), math.log1p(1.0 / x)
            t1 = _power(x, a)
            try:
                dt = t1 * math.expm1(a * s)
            except OverflowError:
                dt = math.inf
            t1_a, dt_a = t1 * ly, t1 * s + dt * ly1
            t1_aa, dt_aa = t1_a * ly, t1 * s * (ly + ly1) + dt * ly1 * ly1
        u_a = dt_a * r
        v, g1, g2 = _ref_log1mexp_terms(dt * r)
        jets.append((
            -r * t1 + v, -(r * t1_a) + g1 * u_a, -t1 + g1 * dt,
            -(r * t1_aa) + g2 * u_a * u_a + g1 * (r * dt_aa), -t1_a + g2 * u_a * dt + g1 * dt_a,
            g2 * dt * dt,
        ))
    return _ref_lift(jets, rates)


class _CellJets:
    """Per-cell jets over the four parameters, filled part by part."""

    def __init__(self, n):
        self.v, self.g, self.h = np.empty(n), np.empty((n, 4)), np.empty((n, 4, 4))

    def __setitem__(self, mask, jet):
        self.v[mask], self.g[mask], self.h[mask] = jet.v, jet.g, jet.h


def _ref_cell_jets(theta, data):
    theta = np.asarray(theta, dtype=float)
    x1, x2, w = data.cell_arrays
    with np.errstate(all="ignore"):
        return _ref_fill(
            _CellJets(w.size), x1, x2, _ref_parts(x1, x2),
            lambda y, rates: _ref_dw_jet(y, theta, rates),
            lambda y, rates: _ref_power_jet(y, theta, rates),
            _log1mexp_jet,
        )


def _rate(draw):
    return math.exp(draw(st.floats(math.log(1e-12), math.log(3.0))))


@st.composite
def _laws(draw):
    # shapes 0.2 to 20 and rates 1e-12 to 3, log-uniform; a zero shared
    # rate one time in five; in rates, or in bases where they hold the law
    alpha = math.exp(draw(st.floats(math.log(0.2), math.log(20.0))))
    lam0 = 0.0 if draw(st.integers(0, 4)) == 0 else _rate(draw)
    law = MOBWParams(alpha, lam0, _rate(draw), _rate(draw))
    return bivariate.from_mobw(law) if draw(st.booleans()) else law


_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def datasets(football, nasal):
    wide = BivariateDataset.from_pairs(bivariate.sample(WIDE, np.random.default_rng(0), 1000))
    return {"football": football, "nasal": nasal, "wide": wide}


class TestValues:
    @_SETTINGS
    @given(law=_laws(), k1=st.integers(0, 60), k2=st.integers(0, 60))
    @example(law=MOBWParams(1100.0, 5e-324, 0.5, 2.0), k1=3, k2=5)
    @example(law=BDWParams(1.5, 1.0, 0.7, 0.75), k1=12, k2=0)
    def test_grid_matches_the_mask_split(self, law, k1, k2):
        np.testing.assert_array_equal(joint_pmf_grid(law, k1, k2), _ref_grid(law, k1, k2))

    @_SETTINGS
    @given(law=_laws(), name=st.sampled_from(["football", "nasal", "wide"]))
    @example(law=MOBWParams(2.0, 0.0, 0.2, 0.1), name="football")
    def test_cell_log_masses_match_the_mask_split(self, datasets, law, name):
        data = datasets[name]
        x1, x2, _ = data.cell_arrays
        want = _ref_log_joint_pmf(law, x1, x2)
        bad = ~np.isfinite(want)
        if bad.any():
            # the first cell of zero probability is refused by its row
            cell, _, row = data.cells[int(np.argmax(bad))]
            with pytest.raises(ValueError, match=rf"^data row {row} \(cell"):
                _cell_log_masses(law, data)
        else:
            np.testing.assert_array_equal(_cell_log_masses(law, data), want)


def _pairs():
    return st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=40)


class TestJets:
    @_SETTINGS
    @given(
        law=_laws(),
        which=st.one_of(st.sampled_from(["football", "nasal", "wide"]), _pairs()),
    )
    @example(law=MOBWParams(2.1528, 0.0717, 0.1911, 0.1364), which="football")
    @example(law=MOBWParams(2.5874, 0.0, 0.0614, 0.0792), which="nasal")
    @example(law=MOBWParams(1.2, 0.03, 0.05, 0.04), which="wide")
    # powers past the float range; and ties at a zero shared rate whose
    # atom's lead - trail, some 3e17 at (30, 30), is past expm1's range
    @example(law=MOBWParams(1100.0, 5e-324, 0.5, 2.0), which="football")
    @example(law=MOBWParams(20.0, 0.0, 1e-12, 1e-12), which=[(0, 0), (2, 2), (1, 3), (30, 30)])
    def test_score_and_hessian_match_the_cell_jets(self, datasets, law, which):
        # each cell's jet sums the same terms, regrouped by rate, so the
        # sums agree to 1e-12 of the sum of their terms' magnitudes; where
        # the reference is not finite, neither is the jet, and computing it
        # raises nothing and warns nothing
        data = datasets[which] if isinstance(which, str) else BivariateDataset(tuple(which))
        theta = bivariate._rates(law)
        ref = _ref_cell_jets(theta, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad, hess = bdw_loglik_derivatives(theta, data)
        w = data.cell_arrays[2]
        if not all(np.isfinite(part).all() for part in (ref.v, ref.g, ref.h)):
            assert not all(np.isfinite(part).all() for part in (value, grad, hess))
            return
        assert abs(value - w @ ref.v) <= 1e-12 * (w @ np.abs(ref.v))
        assert np.all(np.abs(grad - w @ ref.g) <= 1e-12 * (w @ np.abs(ref.g)))
        scale = np.tensordot(w, np.abs(ref.h), axes=1)
        assert np.all(np.abs(hess - np.tensordot(w, ref.h, axes=1)) <= 1e-12 * scale)
        assert np.array_equal(hess, hess.T)
