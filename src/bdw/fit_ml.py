"""Maximum-likelihood fitting of the bivariate discrete Weibull model.

The observed-data log-likelihood of the integer pairs is closed form, and
so are its score and Hessian: every cell's log-mass is a sum of terms
``-r*y**alpha`` and ``log(1 - exp(-u))``, with ``r`` a sum of the rates.
:func:`nested_em` maximizes it with one damped Newton solve in
log-parameters from the marginal starting point, reads the observed
information off the same Hessian, and reports a shared-shock rate whose
one-sided score at zero is not positive as exactly zero.

The continuous shared-shock helpers — most likely latent lifetimes per
cell and an inner EM over the latent failure causes — serve the Bayesian
sampler and the distribution checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import bivariate
from .mobw import (
    MOBWParams, CompleteObservation, _predict_in_cell, cause_counts, complete_loglik, summarize
)
from .univariate import (
    ALPHA_HI,
    ALPHA_LO,
    DWParams,
    _dw_jet,
    _in_logs,
    _Jet,
    _log1mexp_jet,
    _newton_min,
    _power_jet,
    _survival_base,
    dw_fit_minchisq,
)

__all__ = [
    "BivariateDataset",
    "MLFitReport",
    "bdw_loglik",
    "initial_params_from_marginals",
    "init_estimates",
    "impute_dataset",
    "inner_em_mobw",
    "nested_em",
    "bdw_loglik_derivatives",
    "observed_info_ci",
    "alpha_equals_one_test",
    "AlphaTestReport",
]

PARAM_NAMES = ("alpha", "lambda0", "lambda1", "lambda2")
_ALL_TIES = "sample is all ties: coordinate rates are not identifiable"
# the inner EM stops once its log-likelihood moves less than this
_INNER_EM_TOL = 1e-9
_INNER_EM_MAX_ITER = 1000


@dataclass(frozen=True)
class BivariateDataset:
    """Immutable container of observed integer pairs.

    The compression to distinct cells drives everything downstream: all
    likelihood and imputation work is done once per distinct cell and
    weighted by its count, which also makes every estimate invariant to row
    order.  The cells are split once into the three parts of the joint
    log-pmf (:attr:`partition`), and the below-diagonal, above-diagonal
    and tie row counts are read off that split.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("dataset is empty")
        clean = []
        for row, (x1, x2) in enumerate(self.pairs):
            for v in (x1, x2):
                if v < 0 or v != int(v):
                    raise ValueError(
                        f"row {row}: entries must be non-negative integers, got ({x1}, {x2})"
                    )
            clean.append((int(x1), int(x2)))
        object.__setattr__(self, "pairs", tuple(clean))

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[int]]) -> "BivariateDataset":
        return cls(tuple(pairs))

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def n_below(self) -> int:
        """Rows with x1 < x2."""
        return int(self.cell_arrays[2][self.partition[0]].sum())

    @property
    def n_above(self) -> int:
        """Rows with x1 > x2."""
        return int(self.cell_arrays[2][self.partition[1]].sum())

    @property
    def n_ties(self) -> int:
        """Rows with x1 = x2."""
        return int(self.cell_arrays[2][self.partition[2]].sum())

    @cached_property
    def cells(self) -> tuple[tuple[tuple[int, int], int, int], ...]:
        """Distinct cells as (cell, count, first row index), sorted by cell."""
        seen: dict[tuple[int, int], list] = {}
        for row, cell in enumerate(self.pairs):
            rec = seen.setdefault(cell, [cell, 0, row])
            rec[1] += 1
        return tuple((c, k, r) for c, k, r in sorted(seen.values(), key=lambda t: t[0]))

    @cached_property
    def cell_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:attr:`cells` as read-only float arrays: first coordinate, second, count."""
        cols = np.array([(c[0], c[1], k) for c, k, _ in self.cells], dtype=float)
        cols.flags.writeable = False
        return cols[:, 0], cols[:, 1], cols[:, 2]

    @cached_property
    def partition(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masks over :attr:`cells` of the cells below the diagonal, above it
        and on it: the three parts of the joint log-pmf."""
        masks = bivariate._partition(*self.cell_arrays[:2])
        for mask in masks:
            mask.flags.writeable = False
        return masks

    def column(self, which: str) -> np.ndarray:
        """One of the three univariate views: ``x1``, ``x2`` or ``min``."""
        arr = np.asarray(self.pairs, dtype=np.int64)
        if which == "x1":
            return arr[:, 0]
        if which == "x2":
            return arr[:, 1]
        if which == "min":
            return arr.min(axis=1)
        raise ValueError(f"column must be x1, x2 or min, got {which!r}")

    def require_untied_rows(self) -> None:
        """Raise unless some row has ``x1 != x2``: on ties alone the shared
        shock explains every row and the coordinate rates are not
        identifiable."""
        if self.n_ties == self.n:
            raise ValueError(_ALL_TIES)

    def require_both_orders(self) -> None:
        """Raise unless each coordinate is the strictly smaller one in some
        row.  Only a row with ``x1 < x2`` shows the first coordinate's own
        component failing first: without one, ``lambda1`` has no evidence
        and the fit drives it to zero.  Likewise ``lambda2`` and ``x1 > x2``."""
        below, above, _ = self.partition
        for rate, order, mask in (("lambda1", "x1 < x2", below), ("lambda2", "x1 > x2", above)):
            if not mask.any():
                raise ValueError(
                    f"no row has {order}: the coordinate rate {rate} is not identifiable"
                )

    def swapped(self) -> "BivariateDataset":
        """The same rows with the coordinates exchanged."""
        return BivariateDataset(tuple((b, a) for a, b in self.pairs))


@dataclass(frozen=True)
class AlphaTestReport:
    """Decision on whether the common shape could be one (geometric case)."""

    reject: bool
    ci_low: float
    ci_high: float
    level: float
    verdict: str


@dataclass(frozen=True)
class MLFitReport:
    """Outcome of the maximum-likelihood solve."""

    params: MOBWParams
    bdw: bivariate.BDWParams
    loglik: float
    ci95: dict | None


def _cell_log_masses(theta: MOBWParams, data: BivariateDataset) -> np.ndarray:
    """Log joint mass of each of ``data``'s distinct cells under ``theta``.

    A cell whose probability underflows to zero aborts with that cell's
    first row index, since a silent ``-inf`` would poison every comparison
    built on top.
    """
    x1, x2, _ = data.cell_arrays
    lp = bivariate._log_joint_pmf_arr(bivariate.from_mobw(theta), x1, x2, data.partition)
    bad = ~np.isfinite(lp)
    if np.any(bad):
        cell, _, row = data.cells[int(np.argmax(bad))]
        raise ValueError(f"data row {row} (cell {cell}) has zero probability")
    return lp


def bdw_loglik(theta: MOBWParams, data: BivariateDataset) -> float:
    """Observed-data log-likelihood of the discrete pairs under ``theta``,
    summed over the distinct cells by multiplicity."""
    return float(data.cell_arrays[2] @ _cell_log_masses(theta, data))


def bdw_loglik_derivatives(
    theta: Sequence[float], data: BivariateDataset
) -> tuple[float, np.ndarray, np.ndarray]:
    """Observed-data log-likelihood with its exact score and Hessian.

    ``theta`` holds ``(alpha, lambda0, lambda1, lambda2)``; ``lambda0 = 0``
    (independence) is allowed.  Derivatives are in these natural
    parameters.  A cell of zero probability makes the value ``-inf`` and
    the derivatives non-finite rather than raising.
    """
    theta = np.asarray(theta, dtype=float)
    x1, x2, w = data.cell_arrays
    n = w.size
    out = _Jet(np.empty(n), np.empty((n, 4)), np.empty((n, 4, 4)))
    with np.errstate(all="ignore"):
        jet = bivariate._fill_log_joint_pmf(
            out, x1, x2, data.partition,
            lambda y, rates: _dw_jet(y, theta, rates),
            lambda y, rates: _power_jet(y, theta, rates),
            _log1mexp_jet,
        )
        return float(w @ jet.v), w @ jet.g, np.tensordot(w, jet.h, axes=1)


def initial_params_from_marginals(
    first: DWParams, second: DWParams, minimum: DWParams
) -> MOBWParams:
    """Starting point from three univariate fits.

    The two coordinate fits and the fit of the coordinatewise minimum carry
    survival bases ``p0*p1``, ``p0*p2`` and ``p0*p1*p2``; this inverts that
    map and averages the three shapes.  A product falling outside (0, 1] is
    clamped to the boundary with a warning — the inversion is exact only
    when the three fits are mutually consistent.
    """
    alpha = (first.alpha + second.alpha + minimum.alpha) / 3.0
    q1, q2, q12 = first.p, second.p, minimum.p
    p0 = q1 * q2 / q12
    p1 = q12 / q2
    p2 = q12 / q1
    eps = 1e-10
    if p0 > 1.0:
        warnings.warn(f"inconsistent marginal fits: shared base {p0:.6f} clamped to 1")
        p0 = 1.0
    for name, v in (("p1", p1), ("p2", p2)):
        if v >= 1.0:
            warnings.warn(f"inconsistent marginal fits: {name} = {v:.6f} clamped below 1")
    p1 = min(p1, 1.0 - eps)
    p2 = min(p2, 1.0 - eps)
    lam0 = 0.0 if p0 == 1.0 else -math.log(p0)
    return MOBWParams(alpha, lam0, -math.log(p1), -math.log(p2))


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
            fits.append(dw_fit_minchisq(col).params)
        except ValueError as exc:
            what = f"column {name}"
            if col.min() == col.max():
                what += f" is constant (every value is {col[0]})"
            raise ValueError(f"{what}: {exc}") from None
    return initial_params_from_marginals(*fits)


def _identified_start(data: BivariateDataset, start: MOBWParams | None) -> MOBWParams:
    """``start``, or :func:`init_estimates`, once ``data`` identifies every
    rate.  Refused in this order: an all-tie sample, a column that cannot
    be fitted (named by :func:`init_estimates`), and a coordinate rate with
    no evidence."""
    data.require_untied_rows()
    theta = init_estimates(data) if start is None else start
    data.require_both_orders()
    return theta


def impute_dataset(theta: MOBWParams, data: BivariateDataset) -> list[CompleteObservation]:
    """Most likely latent lifetimes for every row, aligned with row order.

    The cells' masses are evaluated together, the predictor runs once per
    distinct cell and the result is replicated, so permuted datasets impute
    identical multisets.
    """
    cache: dict[tuple[int, int], CompleteObservation] = {}
    for (cell, _, _), lp in zip(data.cells, _cell_log_masses(theta, data)):
        pred = _predict_in_cell(theta, *cell, lp)
        cache[cell] = CompleteObservation(pred.y1hat, pred.y2hat, pred.kind)
    return [cache[cell] for cell in data.pairs]


def inner_em_mobw(
    sample: Sequence[CompleteObservation],
    start: MOBWParams,
    trace: list | None = None,
) -> MOBWParams:
    """Fit the continuous shared-shock model to fully observed pairs.

    The missing information is which component caused each recorded
    minimum.  The E-step attributes causes fractionally from the current
    rates; the M-step is closed-form in the rates given the shape and
    reduces the shape update to a one-dimensional Newton solve of the
    profiled objective in ``log(alpha)``, clamped to [0.01, 100].  The
    log-likelihood of the flagged pairs is non-decreasing across
    iterations; pass ``trace`` to collect it.

    A zero lifetime among the recorded events leaves the boundary value
    finite only at shape one, so such samples are fitted with the shape
    pinned there.  A sample that is all ties, or has an identically zero
    coordinate, does not identify the coordinate rates and is rejected.
    """
    st = summarize(sample)
    if st.n_below + st.n_above == 0:
        raise ValueError(_ALL_TIES)
    for name, vals in (("first", st.vals1), ("second", st.vals2)):
        if vals.size == 0:
            raise ValueError(
                f"{name} coordinate is identically zero: its rate is not identifiable"
            )

    # value tables with their logarithms, in the order of st.exposures
    tables = [
        (v, w, np.log(v)) for v, w in ((st.vals0, st.w0), (st.vals1, st.w1), (st.vals2, st.w2))
    ]

    def m_step(counts, alpha):
        # maximize the attributed-cause objective over shape and rates;
        # rates profile out exactly, leaving a concave problem in alpha
        c0, c1, c2 = counts

        def neg_profiled(z: np.ndarray):
            a = math.exp(z[0])
            val = st.event_count * z[0] + (a - 1.0) * st.log_y_sum
            d1 = st.event_count + a * st.log_y_sum
            d2 = a * st.log_y_sum
            for c, (vals, w, logs) in zip(counts, tables):
                if c > 0.0:
                    with np.errstate(over="ignore", invalid="ignore"):
                        wv = w * vals**a
                        t, t_a, t_aa = wv.sum(), wv @ logs, wv @ (logs * logs)
                    # first and second derivatives of log(t) in z = log(a)
                    u1 = a * t_a / t
                    u2 = a * (t_a + a * t_aa) / t - u1 * u1
                    val += c * (math.log(c) - math.log(t)) - c
                    d1 -= c * u1
                    d2 -= c * u2
            return -val, np.array([-d1]), np.array([[-d2]])

        if st.first_zero is not None:
            a = 1.0
        else:
            z0 = np.log([min(max(alpha, ALPHA_LO), ALPHA_HI)])
            z, _ = _newton_min(neg_profiled, z0)
            a = min(max(math.exp(z[0]), ALPHA_LO), ALPHA_HI)
        t0, t1, t2 = st.exposures(a)
        return MOBWParams(a, c0 / t0 if c0 > 0 else 0.0, c1 / t1, c2 / t2)

    theta = start
    prev = None
    for _ in range(_INNER_EM_MAX_ITER):
        # E-step: expected cause counts given the current rates
        counts = cause_counts(st, (theta.lambda0, theta.lambda1, theta.lambda2))
        theta = m_step(counts, theta.alpha)
        cur = complete_loglik(theta, list(sample))
        if trace is not None:
            trace.append(cur)
        if prev is not None and abs(cur - prev) < _INNER_EM_TOL:
            break
        prev = cur
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
    positive definite.  An all-tie sample, a constant column, a sample
    with no row on one side of the diagonal, and a fitted coordinate rate
    whose survival base rounds to one are refused by name.
    """
    theta = _identified_start(data, start)
    # names the row whose cell has zero probability at a bad start
    bdw_loglik(theta, data)
    z0 = np.log([theta.alpha, max(theta.lambda0, 1e-8), theta.lambda1, theta.lambda2])
    z, neg_loglik = _newton_min(lambda z: _neg_loglik_in_logs(z, data), z0)
    theta = np.exp(z)
    top = np.max(data.cell_arrays[:2])
    for i in (2, 3):
        _survival_base(PARAM_NAMES[i], theta[i], top)
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
    return MLFitReport(
        params=params,
        bdw=bivariate.from_mobw(params),
        loglik=bdw_loglik(params, data),
        ci95=ci95,
    )


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
    # imported here: statistics costs every command's start-up ~3 ms
    from statistics import NormalDist

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
