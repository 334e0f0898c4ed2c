"""The joint law on one value table, against the cell-mask split it replaced.

The reference below is the earlier form of the joint log-pmf, kept as an
oracle: three boolean masks over the cells (below the diagonal, above it,
on it), each part filled from primitives that take a rate as flags over
``(lambda0, lambda1, lambda2)``, once for the values and once for the
per-cell ``(n, 4, 4)`` jets of the likelihood's score and Hessian.  The
primitives are written out here on ``math``, on the kernel's forms: the
power step ``d = (y+1)**alpha - y**alpha`` as ``y**alpha *
expm1(alpha*log1p(1/y))``, the DW log-mass and its jet in ``(alpha,
rate)`` through it, and the shared shock's atom as the positive sum ``A*B
+ C`` over ``S(x, x)``.  The atom's jet is taken here by the chain rule
through ``(p, q, r) = ((lambda0 + lambda1)*d, (lambda0 + lambda2)*d,
lambda0*d)``, with the derivatives of ``log(A*B + C)`` in ``(p, q, r)`` in
their sign-definite forms.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdw import bivariate, sampling
from bdw.bivariate import (
    BDWParams,
    MOBWParams,
    _cell_log_masses,
    joint_logpmf,
    joint_pmf,
    joint_pmf_grid,
)
from bdw.datasets import BivariateDataset
from bdw.fit_ml import bdw_loglik, bdw_loglik_derivatives

WIDE = BDWParams(1.2, 0.97, 0.95, 0.96)


def _ref_parts(x1, x2):
    below = x1 < x2
    above = x1 > x2
    return below, above, ~(below | above)


def _ref_fill(out, x1, x2, parts, dw, tie):
    r1, r2 = (0, 1, 0), (0, 0, 1)
    r01, r02 = (1, 1, 0), (1, 0, 1)
    below, above, ties = parts
    if below.any():
        out[below] = dw(x1[below], r1) + dw(x2[below], r02)
    if above.any():
        out[above] = dw(x1[above], r01) + dw(x2[above], r2)
    if ties.any():
        out[ties] = tie(x1[ties])
    return out


def _power(y, a):
    # y**a, and inf past the float range, where the float power raises
    try:
        return y**a
    except OverflowError:
        return math.inf


def _ref_step(y, a):
    # y**a and the step (y+1)**a - y**a to the next power, which keeps its
    # digits where the powers cancel; (0, 1) at y = 0
    if y == 0.0:
        return 0.0, 1.0
    t = _power(y, a)
    try:
        return t, t * math.expm1(a * math.log1p(1.0 / y))
    except OverflowError:
        return t, math.inf


def _ref_log1mexp(u):
    return math.log(-math.expm1(-u)) if u > 0.0 else -math.inf


def _ref_atom(x, a, lam0, lam1, lam2):
    # the tie's survival rectangle over S(x, x) = exp(-total*t): A*B + C with
    # A = 1 - exp(-(lam0 + lam1)*d), B = 1 - exp(-(lam0 + lam2)*d) and
    # C = exp(-total*d)*(1 - exp(-lam0*d)), which vanishes with exp(-total*d)
    t, d = _ref_step(x, a)
    total = lam0 + lam1 + lam2
    shock = math.exp(-(total * d))
    c = shock * -math.expm1(-(lam0 * d)) if shock > 0.0 else 0.0
    s = math.expm1(-((lam0 + lam1) * d)) * math.expm1(-((lam0 + lam2) * d)) + c
    return t, d, total, shock, c, s


def _ref_log_joint_pmf(params, x1, x2):
    a, lam0, lam1, lam2 = bivariate._rates(params)

    def rate(flags):
        return lam0 * flags[0] + lam1 * flags[1] + lam2 * flags[2]

    def dw(y, flags):
        r = rate(flags)
        values = []
        for v in y.tolist():
            t, d = _ref_step(v, a)
            values.append(t * -r + _ref_log1mexp(d * r))
        return np.array(values)

    def tie(x):
        values = []
        for v in x.tolist():
            t, _, total, _, _, s = _ref_atom(v, a, lam0, lam1, lam2)
            values.append(t * -total + (math.log(s) if s > 0.0 else -math.inf))
        return np.array(values)

    return _ref_fill(np.empty(x1.shape), x1, x2, _ref_parts(x1, x2), dw, tie)


def _ref_grid(params, k1, k2):
    g1, g2 = np.broadcast_arrays(
        np.arange(k1 + 1, dtype=float)[:, None], np.arange(k2 + 1, dtype=float)[None, :]
    )
    logs = _ref_log_joint_pmf(params, g1, g2)
    return np.array([math.exp(v) for v in logs.ravel().tolist()]).reshape(logs.shape)


def _cell_columns(data):
    # the distinct cells as float arrays: first coordinate, second, count
    cols = np.array([(c[0], c[1], k) for c, k, _ in data.cells], dtype=float)
    return cols[:, 0], cols[:, 1], cols[:, 2]


class _Jet:
    """Per-entry values with gradients and Hessians in ``theta``."""

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def __add__(self, other):
        return _Jet(self.v + other.v, self.g + other.g, self.h + other.h)


def _ref_log1mexp_terms(u):
    # log(1 - exp(-u)) with its derivatives in u, g1 = exp(-u)/(1 - exp(-u))
    # and g2 = -(g1 + g1**2); -inf and NaN for u <= 0 and for NaN
    if u > 0.0:
        tail = -math.expm1(-u)
        v, g1 = math.log(tail), math.exp(-u) / tail
    else:
        v, g1 = -math.inf, math.nan
    return v, g1, -(g1 + g1 * g1)


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


def _ref_step_jet(x, a):
    # the power step with its first and second alpha derivatives: those of
    # t are t*log(y)**k, and those of d, (y+1)**a*log(y+1)**k - t*log(y)**k,
    # regrouped on d and s = log1p(1/y) the same way
    t, d = _ref_step(x, a)
    if x == 0.0:
        return t, d, 0.0, 0.0, 0.0, 0.0
    ly, ly1, s = math.log(x), math.log(x + 1.0), math.log1p(1.0 / x)
    return t, d, t * ly, t * s + d * ly1, t * ly * ly, t * s * (ly + ly1) + d * ly1 * ly1


def _ref_dw_jet(y, theta, rates):
    # -r*t1 + log1mexp(u), u = r*dt, through the power step and its alpha
    # derivatives
    r = float(np.array([0.0, *rates]) @ theta)
    jets = []
    for x in y.tolist():
        t1, dt, t1_a, dt_a, t1_aa, dt_aa = _ref_step_jet(x, theta[0])
        u_a = dt_a * r
        v, g1, g2 = _ref_log1mexp_terms(dt * r)
        jets.append((
            -r * t1 + v, -(r * t1_a) + g1 * u_a, -t1 + g1 * dt,
            -(r * t1_aa) + g2 * u_a * u_a + g1 * (r * dt_aa), -t1_a + g2 * u_a * dt + g1 * dt_a,
            g2 * dt * dt,
        ))
    return _ref_lift(jets, rates)


# the rates rho of p, q and r as flags over (lambda0, lambda1, lambda2)
_PQR = ((1, 1, 0), (1, 0, 1), (1, 0, 0))


def _to_theta(v):
    # a vector over rho as one over (lambda0, lambda1, lambda2): the sum of
    # its entries that each rate's flag column marks, in the order of rho
    return [sum(v[i] for i in range(3) if _PQR[i][k]) for k in range(3)]


def _ref_tie_jet(x, theta):
    # -total*t + log S, S = A*B + C a function of (p, q, r) = rho*d: the
    # gradient and Hessian of log S in (p, q, r), carried to (alpha, rho),
    # where d moves with alpha, and from rho to theta by the rates' flags.
    # Every sum runs in plain floats in the order of rho: at small rates
    # the (alpha, rho) entries cancel terms of size 1/u, so a summation
    # order of a matrix product's own would show as eps/u there
    a, lam0, lam1, lam2 = theta
    rho = [sum(f * lam for f, lam in zip(flags, theta[1:])) for flags in _PQR]
    v, g, h = [], [], []
    for y in x.tolist():
        t, d, t_a, d_a, t_aa, d_aa = _ref_step_jet(y, a)
        _, _, total, shock, c, s = _ref_atom(y, a, lam0, lam1, lam2)
        if not s > 0.0:
            v.append(-math.inf)
            g.append(np.full(4, np.nan))
            h.append(np.full((4, 4), np.nan))
            continue
        s_p = math.exp(-(rho[0] * d)) * -math.expm1(-(lam2 * d))
        s_q = math.exp(-(rho[1] * d)) * -math.expm1(-(lam1 * d))
        grad = [s_p / s, s_q / s, shock / s]
        # S_pp = -S_p, S_qq = -S_q, S_rr = S_r = -S_pr = -S_qr, and
        # S*S_pq - S_p*S_q = C
        second = [[-s_p, 0.0, -shock], [0.0, -s_q, -shock], [-shock, -shock, shock]]
        hess = [[sij / s - gi * gj for sij, gj in zip(row, grad)] for row, gi in zip(second, grad)]
        hess[0][1] = hess[1][0] = c / s / s
        hr = [sum(hij * rj for hij, rj in zip(row, rho)) for row in hess]
        rg = sum(ri * gi for ri, gi in zip(rho, grad))
        out = np.empty((4, 4))
        out[0, 0] = d_a * d_a * sum(ri * hi for ri, hi in zip(rho, hr)) + d_aa * rg - total * t_aa
        out[0, 1:] = out[1:, 0] = [e - t_a for e in _to_theta(
            [d_a * (gi + d * hi) for gi, hi in zip(grad, hr)]
        )]
        block = [_to_theta(col) for col in zip(*(_to_theta([d * d * e for e in row]) for row in hess))]
        out[1:, 1:] = block
        v.append(-total * t + math.log(s))
        g.append([d_a * rg - total * t_a, *(d * e - t for e in _to_theta(grad))])
        h.append(out)
    return _Jet(np.array(v), np.array(g).reshape(-1, 4), np.array(h).reshape(-1, 4, 4))


class _CellJets:
    """Per-cell jets over the four parameters, filled part by part."""

    def __init__(self, n):
        self.v, self.g, self.h = np.empty(n), np.empty((n, 4)), np.empty((n, 4, 4))

    def __setitem__(self, mask, jet):
        self.v[mask], self.g[mask], self.h[mask] = jet.v, jet.g, jet.h


def _ref_cell_jets(theta, data):
    theta = np.asarray(theta, dtype=float)
    x1, x2, w = _cell_columns(data)
    with np.errstate(all="ignore"):
        return _ref_fill(
            _CellJets(w.size), x1, x2, _ref_parts(x1, x2),
            lambda y, rates: _ref_dw_jet(y, theta, rates),
            lambda x: _ref_tie_jet(x, theta),
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
    wide = BivariateDataset.from_pairs(sampling.sample(WIDE, np.random.default_rng(0), 1000))
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
        x1, x2, _ = _cell_columns(data)
        want = _ref_log_joint_pmf(law, x1, x2)
        bad = ~np.isfinite(want)
        if bad.any():
            # the first cell of zero probability is refused by its row
            cell, _, row = data.cells[int(np.argmax(bad))]
            with pytest.raises(ValueError, match=rf"^data row {row} \(cell"):
                _cell_log_masses(law, data)
        else:
            np.testing.assert_array_equal(_cell_log_masses(law, data), want)


class TestScalarLaw:
    """The value paths equal the scalar law, bit for bit."""

    @_SETTINGS
    @given(law=_laws(), k1=st.integers(0, 60), k2=st.integers(0, 60))
    @example(law=MOBWParams(1100.0, 5e-324, 0.5, 2.0), k1=3, k2=5)
    def test_grid_entries_are_the_joint_pmf(self, law, k1, k2):
        grid = joint_pmf_grid(law, k1, k2)
        assert grid.shape == (k1 + 1, k2 + 1)
        want = [[joint_pmf(law, i, j) for j in range(k2 + 1)] for i in range(k1 + 1)]
        assert grid.tolist() == want

    @_SETTINGS
    @given(law=_laws(), name=st.sampled_from(["football", "nasal", "wide"]))
    def test_cell_log_masses_are_the_joint_logpmf(self, datasets, law, name):
        data = datasets[name]
        want = [joint_logpmf(law, *cell) for cell, _, _ in data.cells]
        if all(map(math.isfinite, want)):
            assert _cell_log_masses(law, data) == want
        else:
            with pytest.raises(ValueError, match="has zero probability$"):
                _cell_log_masses(law, data)

    @_SETTINGS
    @given(law=_laws(), name=st.sampled_from(["football", "nasal", "wide"]))
    def test_loglik_is_the_sum_of_the_joint_logpmf(self, datasets, law, name):
        data = datasets[name]
        terms = [count * joint_logpmf(law, *cell) for cell, count, _ in data.cells]
        if all(map(math.isfinite, terms)):
            assert bdw_loglik(law, data) == math.fsum(terms)
        else:
            with pytest.raises(ValueError, match="has zero probability$"):
                bdw_loglik(law, data)


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
        grad, hess = np.array(grad), np.array(hess)
        w = _cell_columns(data)[2]
        if not all(np.isfinite(part).all() for part in (ref.v, ref.g, ref.h)):
            assert not all(np.isfinite(part).all() for part in (value, grad, hess))
            return
        assert abs(value - w @ ref.v) <= 1e-12 * (w @ np.abs(ref.v))
        assert np.all(np.abs(grad - w @ ref.g) <= 1e-12 * (w @ np.abs(ref.g)))
        scale = np.tensordot(w, np.abs(ref.h), axes=1)
        assert np.all(np.abs(hess - np.tensordot(w, ref.h, axes=1)) <= 1e-12 * scale)
        assert np.array_equal(hess, hess.T)
