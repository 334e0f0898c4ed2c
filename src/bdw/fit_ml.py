"""Maximum-likelihood fitting of the bivariate discrete Weibull model.

The observed-data log-likelihood of the integer pairs is closed form, and
so are its score and Hessian: four weighted DW log-likelihoods over the
dataset's value table, one per rate of ``bivariate._RATE_MAP``, and the
shared shock's atom at the ties.
:func:`nested_em` maximizes it with one damped Newton solve in
log-parameters from the marginal starting point, reads the observed
information off the same Hessian, and reports a shared-shock rate whose
one-sided score at zero is not positive as exactly zero.

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

import numpy as np

from . import bivariate
from .bivariate import MOBWParams
from .datasets import BivariateDataset, _cell_log_masses
from .univariate import (
    _dw_jet,
    _in_logs,
    _Jet,
    _log1mexp_jet,
    _newton_min,
    _power_jet,
    _rate,
    _Record,
    dw_fit_minchisq,
)

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
        return bivariate.from_mobw(self.params)


def bdw_loglik(theta: MOBWParams, data: BivariateDataset) -> float:
    """Observed-data log-likelihood of the discrete pairs under ``theta``,
    summed over the distinct cells by multiplicity."""
    return float(data.cell_arrays[2] @ _cell_log_masses(theta, data))


# d(alpha, r) / d(alpha, lambda0, lambda1, lambda2) for each rate r of
# bivariate._RATE_MAP: a jet in (alpha, r) lifts as g @ J and J.T @ h @ J
_LIFT = np.array([[[1, 0, 0, 0], [0, *row]] for row in bivariate._RATE_MAP], dtype=float)


def _lift(jet: _Jet, k: int) -> _Jet:
    j = _LIFT[k]
    return _Jet(jet.v, jet.g @ j, j.T @ jet.h @ j)


def bdw_loglik_derivatives(
    theta: Sequence[float], data: BivariateDataset
) -> tuple[float, np.ndarray, np.ndarray]:
    """Observed-data log-likelihood with its exact score and Hessian.

    ``theta`` holds ``(alpha, lambda0, lambda1, lambda2)``; ``lambda0 = 0``
    (independence) is allowed.  Derivatives are in these natural
    parameters.  A cell of zero probability makes the value ``-inf`` and
    the derivatives non-finite rather than raising.  The values of
    positive weight in the four DW parts of ``data.value_table`` take one
    2 x 2 jet each, at their part's rate; the tie values take the 4 x 4
    jet of the shared shock's atom, in that form even at ``lambda0 = 0``,
    so the score in ``lambda0`` is the one-sided one.
    """
    theta = np.asarray(theta, dtype=float)
    alpha = theta[0]
    vals, _, _, weights = data.value_table
    rates = np.array(bivariate._RATE_MAP, dtype=float) @ theta[1:]
    part, at = np.nonzero(weights[:4])
    w, ties = weights[part, at], np.flatnonzero(weights[4])
    x, wt = vals[ties], weights[4, ties]
    with np.errstate(all="ignore"):
        # the off-diagonal jets, summed per rate, then lifted
        jet = _dw_jet(vals[at], alpha, rates[part])
        per_rate = (part == np.arange(4)[:, None]) * w
        grad = np.einsum("ka,kai->i", per_rate @ jet.g, _LIFT)
        hess = np.einsum("kai,kab,kbj->ij", _LIFT, np.tensordot(per_rate, jet.h, axes=1), _LIFT)
        # the atom exp(lead) - exp(trail), as bivariate._log_joint_pmf_at takes it
        r1, r02, r01, r2 = rates
        lead = _lift(_power_jet(x, alpha, r1), 0) + _lift(_dw_jet(x, alpha, r02), 1)
        trail = _lift(_power_jet(x + 1.0, alpha, r01), 2) + _lift(_dw_jet(x, alpha, r2), 3)
        atom = lead + _log1mexp_jet(lead - trail)
        value = float(w @ jet.v + wt @ atom.v)
        return value, grad + wt @ atom.g, hess + np.tensordot(wt, atom.h, axes=1)


def initial_params_from_marginals(first, second, minimum) -> MOBWParams:
    """Starting point from three univariate fits, each a DW law in its base
    or in its rate (:func:`bdw.univariate._rate`).

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
    through :func:`initial_params_from_marginals`.  A column that cannot
    be fitted, such as a constant one, is named in the error.
    """
    fits = []
    for name in ("x1", "x2", "min"):
        col = data.column(name)
        try:
            fits.append(dw_fit_minchisq(col).law)
        except ValueError as exc:
            what = f"column {name}"
            if col.min() == col.max():
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


def _neg_loglik_in_logs(z: np.ndarray, data: BivariateDataset):
    """Negative log-likelihood, score and Hessian in log-parameters."""
    theta = np.exp(z)
    value, grad, hess = bdw_loglik_derivatives(theta, data)
    return _in_logs(theta, -value, -grad, -hess)


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
    z0 = np.log([theta.alpha, max(theta.lambda0, 1e-8), theta.lambda1, theta.lambda2])
    z, neg_loglik = _newton_min(lambda z: _neg_loglik_in_logs(z, data), z0)
    theta = np.exp(z)
    at_zero = theta.copy()
    at_zero[1] = 0.0
    value0, score0, _ = bdw_loglik_derivatives(at_zero, data)
    # the boundary must also be as likely as the solve's end point, so an
    # interior maximum of a profile that first dips is never replaced
    at_boundary = score0[1] <= 0.0 and value0 >= -neg_loglik - 1e-8
    params = MOBWParams(*(float(v) for v in (at_zero if at_boundary else theta)))
    ci95 = None
    if at_boundary:
        warnings.warn(
            f"shared-shock rate lambda0 is at its boundary 0 (one-sided score "
            f"{score0[1]:.3g}): reported as 0, without confidence intervals"
        )
    else:
        try:
            intervals = observed_info_ci(params, data)
            ci95 = {name: float((hi - lo) / 2.0) for name, (lo, hi) in intervals.items()}
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
    ``lambda0`` gets no interval.  Raises when the negative Hessian is not
    positive definite — the quadratic approximation is then untrustworthy
    and profile likelihood is the honest fallback.
    """
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    x0 = np.array([theta.alpha, theta.lambda0, theta.lambda1, theta.lambda2])
    _, _, hess = bdw_loglik_derivatives(x0, data)
    free = [0, 2, 3] if theta.lambda0 == 0.0 else [0, 1, 2, 3]
    info = -hess[np.ix_(free, free)]
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise ValueError(
            "observed information is not positive definite at the fit; "
            "use profile likelihood for interval estimates"
        ) from None
    cov = np.linalg.inv(info)
    if level == 0.95:
        z = _Z95
    else:  # imported here: statistics costs every command's start-up ~3 ms
        from statistics import NormalDist
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
    out = {}
    for k, i in enumerate(free):
        se = math.sqrt(cov[k, k])
        out[PARAM_NAMES[i]] = (float(x0[i] - z * se), float(x0[i] + z * se))
    return out


def alpha_equals_one_test(
    fit: MLFitReport, data: BivariateDataset | None = None, level: float = 0.05
) -> AlphaTestReport:
    """Wald test of shape one, the bivariate geometric submodel.

    Rejects when 1 falls outside the two-sided confidence interval for the
    shape at the complementary confidence level.  The default 5% level
    reads the interval off the fit report; other levels, and a fit with
    ``lambda0`` on its boundary (which reports no intervals), recompute it
    and need the dataset.
    """
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
