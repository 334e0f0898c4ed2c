"""Maximum-likelihood fitting of the bivariate discrete Weibull model.

The observed-data log-likelihood of the integer pairs is closed form, and
so are its score and Hessian: every cell's log-mass is a sum of terms
``-r*y**alpha`` and ``log(1 - exp(-u))``, with ``r`` a sum of the rates.
:func:`nested_em` maximizes it with one trust-region Newton solve in
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
from scipy.optimize import minimize, minimize_scalar
from scipy.special import ndtri

from . import bivariate
from .mobw import MOBWParams, CompleteObservation, complete_loglik, ml_predict, summarize
from .univariate import ALPHA_HI, ALPHA_LO, DWParams, dw_fit_minchisq

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


@dataclass(frozen=True)
class BivariateDataset:
    """Immutable container of observed integer pairs.

    The compression to distinct cells drives everything downstream: all
    likelihood and imputation work is done once per distinct cell and
    weighted by its count, which also makes every estimate invariant to row
    order.  The below-diagonal, above-diagonal and tie row counts are read
    off the cells.
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
        return cls(tuple((int(a), int(b)) for a, b in pairs))

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def n_below(self) -> int:
        """Rows with x1 < x2."""
        x1, x2, w = self.cell_arrays
        return int(w[x1 < x2].sum())

    @property
    def n_above(self) -> int:
        """Rows with x1 > x2."""
        x1, x2, w = self.cell_arrays
        return int(w[x1 > x2].sum())

    @property
    def n_ties(self) -> int:
        """Rows with x1 = x2."""
        x1, x2, w = self.cell_arrays
        return int(w[x1 == x2].sum())

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


def bdw_loglik(theta: MOBWParams, data: BivariateDataset) -> float:
    """Observed-data log-likelihood of the discrete pairs under ``theta``.

    Evaluated per distinct cell and weighted by multiplicity; a cell whose
    probability underflows to zero aborts with that cell's first row index,
    since a silent ``-inf`` would poison every comparison built on top.
    """
    params = bivariate.from_mobw(theta)
    x1, x2, w = data.cell_arrays
    lp = bivariate._log_joint_pmf_arr(params, x1, x2)
    bad = ~np.isfinite(lp)
    if np.any(bad):
        cell, _, row = data.cells[int(np.argmax(bad))]
        raise ValueError(f"data row {row} (cell {cell}) has zero probability")
    return float(w @ lp)


@dataclass(frozen=True)
class _Jet:
    """Per-cell values with gradients and Hessians in ``PARAM_NAMES`` order."""

    v: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def __add__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v + other.v, self.g + other.g, self.h + other.h)

    def __sub__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v - other.v, self.g - other.g, self.h - other.h)


_SHAPE = np.array([1.0, 0.0, 0.0, 0.0])


def _power_jet(y: np.ndarray, theta: np.ndarray, rates: tuple) -> _Jet:
    """Jet of ``-r * y**alpha``, where ``r`` sums the rates flagged in ``rates``."""
    m = np.array([0.0, *rates])
    r = float(m @ theta)
    ly = np.log(np.where(y > 0, y, 1.0))
    t = y ** theta[0]
    t_a = t * ly
    t_aa = t_a * ly
    cross = np.outer(_SHAPE, m) + np.outer(m, _SHAPE)
    return _Jet(
        -r * t,
        -(r * t_a)[:, None] * _SHAPE - t[:, None] * m,
        -(r * t_aa)[:, None, None] * np.outer(_SHAPE, _SHAPE) - t_a[:, None, None] * cross,
    )


def _log1mexp_jet(u: _Jet) -> _Jet:
    """Jet of ``log(1 - exp(-u))``: its first derivative in ``u`` is
    ``g1 = 1/expm1(u)`` and its second ``-(g1 + g1**2)``."""
    g1 = 1.0 / np.expm1(u.v)
    g2 = -(g1 + g1 * g1)
    return _Jet(
        np.log(-np.expm1(-u.v)),
        g1[:, None] * u.g,
        g2[:, None, None] * (u.g[:, :, None] * u.g[:, None, :]) + g1[:, None, None] * u.h,
    )


def _dw_jet(y: np.ndarray, theta: np.ndarray, rates: tuple) -> _Jet:
    """Jet of the DW log-pmf at ``y`` with survival base ``exp(-r)``."""
    here = _power_jet(y, theta, rates)
    return here + _log1mexp_jet(here - _power_jet(y + 1.0, theta, rates))


def _cell_jet(theta: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> _Jet:
    """Jet of the joint log-pmf at each cell, split as in ``bivariate._log_joint_pmf_arr``."""
    r1, r2 = (0, 1, 0), (0, 0, 1)
    r01, r02 = (1, 1, 0), (1, 0, 1)
    n = x1.size
    out = _Jet(np.empty(n), np.empty((n, 4)), np.empty((n, 4, 4)))
    below, above = x1 < x2, x1 > x2
    diag = ~(below | above)
    x = x1[diag]
    # the diagonal mass is exp(lead) - exp(trail), the shared shock's atom
    lead = _power_jet(x, theta, r1) + _dw_jet(x, theta, r02)
    trail = _power_jet(x + 1.0, theta, r01) + _dw_jet(x, theta, r2)
    parts = (
        (below, _dw_jet(x1[below], theta, r1) + _dw_jet(x2[below], theta, r02)),
        (above, _dw_jet(x1[above], theta, r01) + _dw_jet(x2[above], theta, r2)),
        (diag, lead + _log1mexp_jet(lead - trail)),
    )
    for mask, jet in parts:
        out.v[mask], out.g[mask], out.h[mask] = jet.v, jet.g, jet.h
    return out


def bdw_loglik_derivatives(
    theta: Sequence[float], data: BivariateDataset
) -> tuple[float, np.ndarray, np.ndarray]:
    """Observed-data log-likelihood with its exact score and Hessian.

    ``theta`` holds ``(alpha, lambda0, lambda1, lambda2)``; ``lambda0 = 0``
    (independence) is allowed.  Derivatives are in these natural
    parameters.  A cell of zero probability makes the value ``-inf`` and
    the derivatives non-finite rather than raising.
    """
    x1, x2, w = data.cell_arrays
    with np.errstate(all="ignore"):
        jet = _cell_jet(np.asarray(theta, dtype=float), x1, x2)
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
    through :func:`initial_params_from_marginals`.
    """
    f1 = dw_fit_minchisq(data.column("x1")).params
    f2 = dw_fit_minchisq(data.column("x2")).params
    fm = dw_fit_minchisq(data.column("min")).params
    return initial_params_from_marginals(f1, f2, fm)


def impute_dataset(theta: MOBWParams, data: BivariateDataset) -> list[CompleteObservation]:
    """Most likely latent lifetimes for every row, aligned with row order.

    The predictor runs once per distinct cell and the result is replicated,
    so permuted datasets impute identical multisets.
    """
    cache: dict[tuple[int, int], CompleteObservation] = {}
    for cell, _, _ in data.cells:
        pred = ml_predict(theta, *cell)
        cache[cell] = CompleteObservation(pred.y1hat, pred.y2hat, pred.kind)
    return [cache[cell] for cell in data.pairs]


def inner_em_mobw(
    sample: Sequence[CompleteObservation],
    start: MOBWParams,
    tol: float = 1e-9,
    max_iter: int = 1000,
    trace: list | None = None,
) -> MOBWParams:
    """Fit the continuous shared-shock model to fully observed pairs.

    The missing information is which component caused each recorded
    minimum.  The E-step attributes causes fractionally from the current
    rates; the M-step is closed-form in the rates given the shape and
    reduces the shape update to one bracketed one-dimensional maximization
    of the profiled objective.  The log-likelihood of the flagged pairs is
    non-decreasing across iterations; pass ``trace`` to collect it.

    A zero lifetime among the recorded events leaves the boundary value
    finite only at shape one, so such samples are fitted with the shape
    pinned there.  A sample that is all ties, or has an identically zero
    coordinate, does not identify the coordinate rates and is rejected.
    """
    st = summarize(sample)
    n_below, n_above, n_tie = st.n_below, st.n_above, st.n_tie
    if n_below + n_above == 0:
        raise ValueError(
            "sample is all ties: coordinate rates are not identifiable"
        )
    for name, vals in (("first", st.vals1), ("second", st.vals2)):
        if vals.size == 0:
            raise ValueError(
                f"{name} coordinate is identically zero: its rate is not identifiable"
            )

    def m_step(counts):
        # maximize the attributed-cause objective over shape and rates;
        # rates profile out exactly, leaving one bounded search
        c1, c2, c0 = counts

        def profiled(z: float) -> float:
            a = math.exp(z)
            t0, t1, t2 = st.exposures(a)
            val = st.event_count * z + (a - 1.0) * st.log_y_sum
            for c, t in ((c1, t1), (c2, t2), (c0, t0)):
                if c > 0.0:
                    val += c * (math.log(c) - math.log(t)) - c
            return val

        if st.first_zero is not None:
            a = 1.0
        else:
            res = minimize_scalar(
                lambda z: -profiled(z),
                bounds=(math.log(ALPHA_LO), math.log(ALPHA_HI)),
                method="bounded",
                options={"xatol": 1e-8},
            )
            a = math.exp(res.x)
        t0, t1, t2 = st.exposures(a)
        return MOBWParams(a, c0 / t0 if c0 > 0 else 0.0, c1 / t1, c2 / t2)

    theta = start
    prev = None
    for _ in range(max_iter):
        l0, l1, l2 = theta.lambda0, theta.lambda1, theta.lambda2
        # expected cause counts given the current rates
        share2 = l0 / (l0 + l2)
        share1 = l0 / (l0 + l1)
        c1 = n_below + n_above * (1.0 - share1)
        c2 = n_above + n_below * (1.0 - share2)
        c0 = n_tie + n_below * share2 + n_above * share1
        theta = m_step((c1, c2, c0))
        cur = complete_loglik(theta, list(sample))
        if trace is not None:
            trace.append(cur)
        if prev is not None and abs(cur - prev) < tol:
            break
        prev = cur
    return theta


def _neg_loglik_in_logs(z: np.ndarray, data: BivariateDataset):
    """Negative log-likelihood, score and Hessian in log-parameters."""
    theta = np.exp(z)
    value, grad, hess = bdw_loglik_derivatives(theta, data)
    if not (np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all()):
        # outside the numerically valid region: the trust region shrinks
        return np.inf, np.zeros(4), np.zeros((4, 4))
    grad_z = theta * grad
    hess_z = np.outer(theta, theta) * hess + np.diag(grad_z)
    return -value, -grad_z, -hess_z


def nested_em(data: BivariateDataset, start: MOBWParams | None = None) -> MLFitReport:
    """Maximum-likelihood fit of the discrete pairs.

    The name is the paper's; the fit is one trust-region Newton solve
    (``scipy.optimize.minimize(method="trust-exact")``) of the exact
    observed-data log-likelihood in log-parameters, with the analytic
    score and Hessian of :func:`bdw_loglik_derivatives`.  It starts from
    :func:`init_estimates` (or ``start``), with ``lambda0`` floored at 1e-8
    so its logarithm exists.

    The shared-shock rate sits on its boundary when the one-sided score in
    ``lambda0`` at zero, the other parameters held at the fit, is not
    positive (Self & Liang 1987): ``lambda0`` is then reported as exactly
    zero, with a warning and no confidence intervals.  Otherwise the
    half-widths come from the observed information at the fit, when it is
    positive definite.
    """
    theta = init_estimates(data) if start is None else start
    # names the row whose cell has zero probability at a bad start
    bdw_loglik(theta, data)
    z0 = np.log([theta.alpha, max(theta.lambda0, 1e-8), theta.lambda1, theta.lambda2])
    memo: dict[bytes, tuple] = {}

    def jet(z: np.ndarray) -> tuple:
        key = z.tobytes()
        if key not in memo:
            memo[key] = _neg_loglik_in_logs(z, data)
        return memo[key]

    res = minimize(
        lambda z: jet(z)[0],
        z0,
        jac=lambda z: jet(z)[1],
        hess=lambda z: jet(z)[2],
        method="trust-exact",
        options={"gtol": 1e-9},
    )
    # status 2: the model's predicted gain fell below the float resolution
    # of the log-likelihood, so the solve converged as far as can be told
    if res.status not in (0, 2):
        warnings.warn(f"trust-region solve stopped early: {res.message}")
    theta = np.exp(res.x)
    at_zero = theta.copy()
    at_zero[1] = 0.0
    value0, score0, _ = bdw_loglik_derivatives(at_zero, data)
    # the boundary must also be as likely as the solve's end point, so an
    # interior maximum of a profile that first dips is never replaced
    at_boundary = score0[1] <= 0.0 and value0 >= -res.fun - 1e-8
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
    z = float(ndtri(0.5 + level / 2.0))
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
