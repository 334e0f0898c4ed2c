"""Maximum-likelihood fitting of the bivariate discrete Weibull model.

The observed-data log-likelihood of the integer pairs is closed form, and
so are its score and Hessian, on ``math``: four weighted DW
log-likelihoods over the dataset's value table, one per rate of
``bivariate._RATE_MAP``, from the DW fits' jets, and the shared shock's
atom at the ties, one jet in the four parameters per tie value from the
atom's positive sum (:func:`_tie_jet`), from one power step per value
(:func:`bdw.weibull._power_step`).  :func:`nested_em` maximizes it with
one damped Newton solve in log-parameters from the marginal starting
point, inverts the observed information off the same Hessian on the
solver's eigen-solve, and reports a shared-shock rate whose one-sided
score at zero is not positive as exactly zero.  Nothing here loads numpy.

The pairs arrive as a :class:`~bdw.datasets.BivariateDataset`, the data
layer's container, and the fit is a law in rates,
:class:`~bdw.bivariate.MOBWParams`.  The name ``BivariateDataset`` is
imported here too, so ``bdw.fit_ml.BivariateDataset`` and pickles that
name it still resolve.

The latent-sample helpers :func:`~bdw.mobw.impute_dataset` and
:func:`~bdw.mobw.inner_em_mobw`, which no ML fit runs, live in
:mod:`bdw.mobw`; both names still resolve here, loading that module on
first use (PEP 562).
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

from . import bivariate
from .bivariate import MOBWParams, _cell_log_masses, _rates, from_mobw
from .datasets import BivariateDataset
from .univariate import (
    _dw_jets,
    _eigh,
    _in_logs,
    _newton_min,
    _StepCapError,
    _step_jet,
    dw_fit_minchisq,
)
from .weibull import _geometric, _left_sum, _number, _rate, _Record

__all__ = [
    "BivariateDataset",
    "MLFitReport",
    "bdw_loglik",
    "initial_params_from_marginals",
    "init_estimates",
    "nested_em",
    "bdw_loglik_derivatives",
    "observed_info_ci",
    "alpha_equals_one_test",
    "AlphaTestReport",
]

PARAM_NAMES = MOBWParams._fields


def __getattr__(name: str):
    # impute_dataset and inner_em_mobw live in bdw.mobw; their names resolve
    # here for the callers that import them from this module, and load
    # bdw.mobw only when one is read
    if name not in ("impute_dataset", "inner_em_mobw"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import mobw

    value = getattr(mobw, name)
    globals()[name] = value
    return value


class AlphaTestReport(_Record):
    """Decision on whether the common shape could be one (geometric case)."""

    reject: bool
    ci_low: float
    ci_high: float
    level: float
    verdict: str


class MLFitReport(_Record):
    """Outcome of the maximum-likelihood solve."""

    params: MOBWParams
    loglik: float
    ci95: dict | None

    @property
    def bdw(self) -> bivariate.BDWParams:
        """The fitted law in survival bases, computed on demand; refused by
        name when a fitted rate rounds its base to 1."""
        return from_mobw(self.params)


def bdw_loglik(theta: MOBWParams, data: BivariateDataset) -> float:
    """Observed-data log-likelihood of the discrete pairs under ``theta``,
    summed over the distinct cells by multiplicity."""
    return math.fsum(k * v for (_, k, _), v in zip(data.cells, _cell_log_masses(theta, data)))


# the Hessian's upper triangle in theta = (alpha, lambda0, lambda1, lambda2), row by row
_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]


def _axpy(acc, w: float, jet):
    # acc + w * jet, for jets (value, gradient, upper triangle) in theta
    g = [a + w * b for a, b in zip(acc[1], jet[1])]
    return acc[0] + w * jet[0], g, [a + w * b for a, b in zip(acc[2], jet[2])]


def _in_theta(jet, row):
    # a jet (v, g_a, g_r, h_aa, h_ar, h_rr) in alpha and the rate ``row``, in theta; h by _UPPER
    v, ga, gr, haa, har, hrr = jet
    r0, r1, r2 = row
    h0, h1, h2 = hrr * r0, hrr * r1, hrr * r2
    h = [haa, har * r0, har * r1, har * r2, h0 * r0, h0 * r1, h0 * r2, h1 * r1, h1 * r2, h2 * r2]
    return v, [ga, gr * r0, gr * r1, gr * r2], h


def _tie_jet(x: float, alpha: float, lams) -> tuple[float, list[float], list[float]]:
    """The shared shock's atom at the tie ``(x, x)`` and its jet in theta, on
    the form of :func:`bivariate._log_tie`: ``-total*t + G``, ``G = log(S)``
    and ``S = A*B + C`` (:func:`bivariate._atom`), a function of ``(p, q, r)
    = ((lambda0 + lambda1)*d, (lambda0 + lambda2)*d, lambda0*d)`` over the
    power step ``(t, d)`` at ``x``.  S's derivatives are taken in their
    sign-definite forms: ``S_p = e**-p (1 - e**-(lambda2 d))``, ``S_q =
    e**-q (1 - e**-(lambda1 d))``, ``S_r = S_pq = S_rr = -S_pr = -S_qr =
    e**-(total d)``, ``S_pp = -S_p`` and ``S_qq = -S_q``; as ``S*S_pq -
    S_p*S_q = C``, ``G_pq = C/S**2``, which is exactly 0 at a zero shared
    rate.  A tie of no mass gets ``-inf`` and NaN derivatives."""
    lam0, lam1, lam2 = lams
    t, d, t_a, d_a, t_aa, d_aa = _step_jet(x, alpha)
    total = lam0 + lam1 + lam2
    rho = (lam0 + lam1, lam0 + lam2, lam0)
    shock, c, s = bivariate._atom(lams, d)
    if not s > 0.0:
        return -math.inf, [math.nan] * 4, [math.nan] * len(_UPPER)
    # G's gradient and Hessian in (p, q, r)
    gp = math.exp(-(rho[0] * d)) * -math.expm1(-(lam2 * d)) / s
    gq = math.exp(-(rho[1] * d)) * -math.expm1(-(lam1 * d)) / s
    gr = shock / s
    g, hpq, hpr, hqr = (gp, gq, gr), c / s / s, -gr - gp * gr, -gr - gq * gr
    h = ((-gp - gp * gp, hpq, hpr), (hpq, -gq - gq * gq, hqr), (hpr, hqr, gr - gr * gr))
    # in (alpha, rho), rho being the rates of p, q and r, which d multiplies
    hr = [row[0] * rho[0] + row[1] * rho[1] + row[2] * rho[2] for row in h]
    rg = rho[0] * gp + rho[1] * gq + rho[2] * gr
    h_aa = d_a * d_a * (rho[0] * hr[0] + rho[1] * hr[1] + rho[2] * hr[2]) + d_aa * rg

    def lift(v):
        # from rho to (lambda0, lambda1, lambda2): lambda0 is in all three
        return v[0] + v[1] + v[2], v[0], v[1]

    h_al = lift([d_a * (gi + d * hi) for gi, hi in zip(g, hr)])
    h_ll = [lift(col) for col in zip(*(lift([d * d * hij for hij in row]) for row in h))]
    return (
        t * -total + math.log(s),
        [d_a * rg - total * t_a, *(d * gi - t for gi in lift(g))],
        [h_aa - total * t_aa, *(v - t_a for v in h_al),
         *h_ll[0], h_ll[1][1], h_ll[1][2], h_ll[2][2]],
    )


def bdw_loglik_derivatives(
    theta: Sequence[float], data: BivariateDataset
) -> tuple[float, list[float], list[list[float]]]:
    """Observed-data log-likelihood with its exact score and Hessian.

    ``theta`` holds ``(alpha, lambda0, lambda1, lambda2)``; ``lambda0 = 0``
    (independence) is allowed.  Derivatives are in these natural
    parameters.  A cell of zero probability makes the value ``-inf`` and
    the derivatives non-finite rather than raising.  The score is a list
    of four floats and the Hessian a 4 x 4 list of rows.  As in
    :func:`bivariate._cell_log_masses`, ``data.value_table`` takes one
    :func:`bdw.univariate._dw_jets` call per rate of ``_RATE_MAP``, on the
    values of positive weight in that row, each row summed and lifted once;
    each tie value's atom (:func:`_tie_jet`) is one jet in theta, in that
    form even at ``lambda0 = 0``, so the score in ``lambda0`` is the
    one-sided one.
    """
    alpha, *lams = (float(v) for v in theta)
    values, _, _, weights = data.value_table
    total = (0.0, [0.0] * 4, [0.0] * len(_UPPER))
    for row, counts in zip(bivariate._RATE_MAP, weights):
        rate = _left_sum(m * lam for m, lam in zip(row, lams))
        jets = _dw_jets([y for y, w in zip(values, counts) if w > 0], alpha, rate)
        read = [w for w in counts if w > 0]
        per_rate = [_left_sum(w * jet[k] for w, jet in zip(read, jets)) for k in range(6)]
        total = _axpy(total, 1.0, _in_theta(per_rate, row))
    for x, w in zip(values, weights[4]):
        if w > 0:
            total = _axpy(total, w, _tie_jet(x, alpha, lams))
    hess = [[0.0] * 4 for _ in range(4)]
    for (i, j), h in zip(_UPPER, total[2]):
        hess[i][j] = hess[j][i] = h
    return total[0], total[1], hess


def initial_params_from_marginals(first, second, minimum) -> MOBWParams:
    """Starting point from three univariate fits, each a DW law in its base
    or in its rate (:func:`bdw.weibull._rate`).

    The two coordinate fits and the fit of the coordinatewise minimum carry
    rates ``lambda0 + lambda1``, ``lambda0 + lambda2`` and ``lambda0 +
    lambda1 + lambda2``; this inverts that map and averages the three
    shapes.  A negative shared rate is clamped to 0, and a coordinate rate
    at most 0 floored at 1e-10 times the minimum's, with a warning: the
    inversion is exact only when the three fits are mutually consistent.
    """
    (a1, rate1), (a2, rate2), (a12, rate12) = (_rate(f) for f in (first, second, minimum))
    lam0, lam1, lam2 = rate1 + rate2 - rate12, rate12 - rate2, rate12 - rate1
    if lam0 < 0.0:
        warnings.warn(f"inconsistent marginal fits: shared rate {lam0:.6g} clamped to 0")
    floor = 1e-10 * rate12
    for name, v in (("lambda1", lam1), ("lambda2", lam2)):
        if v <= 0.0:
            warnings.warn(f"inconsistent marginal fits: {name} = {v:.6g} floored at {floor:.3g}")
    alpha = (a1 + a2 + a12) / 3.0
    return MOBWParams(alpha, max(lam0, 0.0), max(lam1, floor), max(lam2, floor))


def init_estimates(data: BivariateDataset) -> MOBWParams:
    """Data-driven starting point for the nested fit.

    Each of the three univariate views is fitted by minimum chi-square on
    its observed support — the criterion whose per-column fits the full
    pipeline is benchmarked against — and the three fits are inverted
    through :func:`initial_params_from_marginals`.  A column that no DW law
    fits best, as on two adjacent values, starts from the DW fits' own
    start, the geometric law of its mean (the joint likelihood can still
    have its maximum); any other column that cannot be fitted, such as a
    constant one, is named in the error.
    """
    fits = []
    for name in ("x1", "x2", "min"):
        col = data.column_ints(name)
        try:
            fits.append(dw_fit_minchisq(col).law)
        except _StepCapError:
            fits.append(_geometric(math.fsum(col) / len(col)))
        except ValueError as exc:
            what = f"column {name}"
            if min(col) == max(col):
                what += f" is constant (every value is {col[0]})"
            raise ValueError(f"{what}: {exc}") from None
    return initial_params_from_marginals(*fits)


def _identified_start(data: BivariateDataset, start: MOBWParams | None) -> MOBWParams:
    """``start``, or :func:`init_estimates`, once ``data`` identifies every
    parameter.  Refused in this order: an all-tie sample, a sample with no
    count above 1, a column that cannot be fitted (named by
    :func:`init_estimates`), and a coordinate rate with no evidence.

    On counts of 0 and 1 alone, raising the shape at fixed rates only
    moves mass from counts past 1 onto theirs, so the likelihood has no
    maximum in the shape and any fitted shape would be arbitrary.  The
    check is on the whole sample: a joint fit whose minimum column alone
    holds only 0 and 1 runs."""
    data.require_untied_rows()
    if data.value_table[0][-1] <= 1.0:
        raise ValueError("the shape is not identified: no count exceeds 1")
    theta = init_estimates(data) if start is None else start
    data.require_both_orders()
    return theta


def _neg_loglik_in_logs(z: Sequence[float], data: BivariateDataset):
    """Negative log-likelihood, score and Hessian in log-parameters."""
    theta = [math.exp(v) for v in z]
    value, grad, hess = bdw_loglik_derivatives(theta, data)
    return _in_logs(theta, -value, [-g for g in grad], [[-h for h in row] for row in hess])


def nested_em(data: BivariateDataset, start: MOBWParams | None = None) -> MLFitReport:
    """Maximum-likelihood fit of the discrete pairs.

    The name is the paper's; the fit is one damped Newton solve
    (:func:`bdw.univariate._newton_min`) of the exact observed-data
    log-likelihood in log-parameters, with the analytic score and Hessian
    of :func:`bdw_loglik_derivatives`.  It starts from
    :func:`init_estimates` (or ``start``), with ``lambda0`` floored at 1e-8
    so its logarithm exists.

    The shared-shock rate sits on its boundary when the one-sided score in
    ``lambda0`` at zero, the other parameters held at the fit, is not
    positive (Self & Liang 1987): ``lambda0`` is then reported as exactly
    zero, with a warning and no confidence intervals.  Otherwise the
    half-widths come from the observed information at the fit, when it is
    positive definite.  An all-tie sample, a constant column and a sample
    with no row on one side of the diagonal are refused by name.  The fit
    is in rates, so a rate too small for its survival base to differ from
    1 is fitted; only :attr:`MLFitReport.bdw` refuses such a fit.
    """
    theta = _identified_start(data, start)
    # names the row whose cell has zero probability at a bad start
    bdw_loglik(theta, data)
    alpha, lam0, lam1, lam2 = _rates(theta)
    z0 = [math.log(v) for v in (alpha, max(lam0, 1e-8), lam1, lam2)]
    z, neg_loglik = _newton_min(lambda z: _neg_loglik_in_logs(z, data), z0)
    theta = [math.exp(v) for v in z]
    at_zero = [theta[0], 0.0, *theta[2:]]
    value0, score0, _ = bdw_loglik_derivatives(at_zero, data)
    # the boundary must also be as likely as the solve's end point, so an
    # interior maximum of a profile that first dips is never replaced
    at_boundary = score0[1] <= 0.0 and value0 >= -neg_loglik - 1e-8
    params = MOBWParams(*(at_zero if at_boundary else theta))
    ci95 = None
    if at_boundary:
        warnings.warn(
            f"shared-shock rate lambda0 is at its boundary 0 (one-sided score "
            f"{score0[1]:.3g}): reported as 0, without confidence intervals"
        )
    else:
        try:
            intervals = observed_info_ci(params, data)
            ci95 = {name: (hi - lo) / 2.0 for name, (lo, hi) in intervals.items()}
        except ValueError as exc:
            warnings.warn(f"confidence intervals unavailable: {exc}")
    return MLFitReport(params=params, loglik=bdw_loglik(params, data), ci95=ci95)


_Z95 = 1.9599639845400536  # statistics.NormalDist().inv_cdf(0.5 + 0.95 / 2.0)


def observed_info_ci(
    theta: MOBWParams, data: BivariateDataset, level: float = 0.95
) -> dict[str, tuple[float, float]]:
    """Wald intervals from the inverted analytic observed information.

    At ``lambda0 = 0`` the shared rate is held on its boundary: the
    information is inverted over the other three parameters, and
    ``lambda0`` gets no interval.  On its eigen-solve ``V diag(w) V^T``
    (:func:`bdw.univariate._eigh`) each variance is ``sum_j V[k][j]**2 /
    w[j]``.  Raises when the negative Hessian is not positive definite —
    the quadratic approximation is then untrustworthy and profile
    likelihood is the honest fallback.
    """
    if not 0 < _number(level, "level") < 1:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    x0 = _rates(theta)
    _, _, hess = bdw_loglik_derivatives(x0, data)
    free = [0, 2, 3] if x0[1] == 0.0 else [0, 1, 2, 3]
    w, vecs = _eigh([[-hess[i][j] for j in free] for i in free])
    if not all(0.0 < wj < math.inf for wj in w):  # a NaN one too
        raise ValueError(
            "observed information is not positive definite at the fit; "
            "use profile likelihood for interval estimates"
        )
    if level == 0.95:
        z = _Z95
    else:  # imported here: statistics costs every command's start-up ~3 ms
        from statistics import NormalDist
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
    out = {}
    for row, i in zip(vecs, free):
        se = math.sqrt(_left_sum(v * v / wj for v, wj in zip(row, w)))
        out[PARAM_NAMES[i]] = (x0[i] - z * se, x0[i] + z * se)
    return out


def alpha_equals_one_test(
    fit: MLFitReport, data: BivariateDataset | None = None, level: float = 0.05
) -> AlphaTestReport:
    """Wald test of shape one, the bivariate geometric submodel.

    Rejects when 1 falls outside the two-sided confidence interval for the
    shape at the complementary confidence level.  The default 5% level
    reads the interval off the fit report; other levels, and a fit with
    ``lambda0`` on its boundary, recompute it and need the dataset.  There
    the report's ``ci95_halfwidth`` is null, while this interval comes from
    the information over the other three parameters, ``lambda0`` held at 0.
    """
    _number(level, "level")
    if level == 0.05 and fit.ci95 is not None:
        hw = fit.ci95["alpha"]
        lo, hi = fit.params.alpha - hw, fit.params.alpha + hw
    else:
        if data is None:
            raise ValueError("testing away from the reported 95% interval needs the dataset")
        lo, hi = observed_info_ci(fit.params, data, level=1 - level)["alpha"]
    reject = not (lo <= 1.0 <= hi)
    verdict = (
        "shape one rejected: the bivariate geometric submodel is not adequate"
        if reject
        else "shape one not rejected: the bivariate geometric submodel is tenable"
    )
    return AlphaTestReport(reject, lo, hi, level, verdict)
