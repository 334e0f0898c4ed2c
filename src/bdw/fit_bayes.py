"""Bayesian fitting of the bivariate discrete Weibull model.

The rates carry a Dirichlet-Gamma prior: the total rate is gamma, the
split between shared and individual shocks is Dirichlet.  The shape has
an independent gamma prior.  Estimation augments the integer data to
latent continuous lifetimes cell by cell with the most likely latent pair
of each cell, summarizes that sample once (:func:`bdw.mobw.summarize`), and
runs Gibbs sweeps over the latent failure causes, the three rates, and the
shape on the summary; the outer loop re-imputes at the current draw
averages and the final round's draws carry the reported summaries.  The
step functions accept a complete sample or its summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fit_ml import PARAM_NAMES, BivariateDataset, _identified_start, impute_dataset
from .mobw import CompleteObservation, MOBWParams, SampleSummary, cause_counts, summarize

__all__ = [
    "DGPrior",
    "AlphaPrior",
    "PosteriorDraws",
    "dg_logpdf",
    "cause_counts",
    "exposures",
    "sample_lambdas_conditional",
    "sample_alpha_conditional",
    "augmented_gibbs",
    "credible_interval",
    "hpd_interval",
]

# slice-sampler search window for the shape draw
SLICE_ALPHA_LO = 1e-3
SLICE_ALPHA_HI = 1e3
SLICE_WIDTH = 0.5


@dataclass(frozen=True)
class DGPrior:
    """Dirichlet-Gamma prior on the three rates.

    ``a`` and ``b`` shape the total rate; ``a0, a1, a2`` split it.  When
    ``a = a0 + a1 + a2`` the prior factorizes into independent gammas and
    the rate draws are exact conditionals.
    """

    a: float = 1e-4
    b: float = 1e-4
    a0: float = 1e-4
    a1: float = 1e-4
    a2: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("a", "b", "a0", "a1", "a2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"hyper-parameter {name} must be positive")


@dataclass(frozen=True)
class AlphaPrior:
    """Gamma prior (shape ``c``, rate ``d``) on the common shape."""

    c: float = 1e-4
    d: float = 1e-4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("shape c must be positive")
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError("rate d must be positive")

    def logpdf(self, alpha: float) -> float:
        if alpha <= 0:
            return -math.inf
        return (
            self.c * math.log(self.d)
            - math.lgamma(self.c)
            + (self.c - 1.0) * math.log(alpha)
            - self.d * alpha
        )


def dg_logpdf(
    prior: DGPrior, lambda0: float, lambda1: float, lambda2: float
) -> float:
    """Log density of the Dirichlet-Gamma prior at a rate triple."""
    lams = (lambda0, lambda1, lambda2)
    if any(l <= 0 for l in lams):
        raise ValueError("rates must be strictly positive")
    total = sum(lams)
    splits = (prior.a0, prior.a1, prior.a2)
    out = (
        math.lgamma(sum(splits))
        - math.lgamma(prior.a)
        + (prior.a - sum(splits)) * math.log(prior.b * total)
    )
    for ai, li in zip(splits, lams):
        out += (
            ai * math.log(prior.b)
            - math.lgamma(ai)
            + (ai - 1.0) * math.log(li)
            - prior.b * li
        )
    return out


def exposures(
    sample: Sequence[CompleteObservation] | SampleSummary, alpha: float
) -> tuple[float, float, float]:
    """Cause-specific exposure sums ``(T0, T1, T2)`` at a given shape.

    ``T1 = Σ y1^α``, ``T2 = Σ y2^α``, ``T0 = Σ max(y1, y2)^α`` over the
    whole sample; zero lifetimes contribute nothing.
    """
    return summarize(sample).exposures(alpha)


def sample_lambdas_conditional(
    prior: DGPrior,
    alpha: float,
    sample: Sequence[CompleteObservation] | SampleSummary,
    lambdas: tuple[float, float, float],
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """One draw of the three rates given shape, sample, and current rates.

    The latent causes are drawn first; each rate then has a gamma full
    conditional.  When the prior total-shape ``a`` differs from
    ``a0+a1+a2`` the gamma product is only a proposal and a Metropolis
    accept step corrects for the ``(bλ)^(a-a0-a1-a2)`` factor; the
    current rates are kept on rejection.
    """
    sample = summarize(sample)
    n0, n1, n2 = cause_counts(sample, lambdas, rng)
    t0, t1, t2 = sample.exposures(alpha)
    a0, a1, a2, b = prior.a0, prior.a1, prior.a2, prior.b
    gamma = rng.gamma
    # near-zero shapes make gamma draws underflow; keep them positive
    prop = (
        max(gamma(a0 + n0, 1.0 / (b + t0)), 5e-324),
        max(gamma(a1 + n1, 1.0 / (b + t1)), 5e-324),
        max(gamma(a2 + n2, 1.0 / (b + t2)), 5e-324),
    )
    excess = prior.a - (a0 + a1 + a2)
    if excess == 0.0:
        return prop
    ratio = excess * (math.log(sum(prop)) - math.log(sum(lambdas)))
    # rng.uniform() is 0 + 1 * rng.random(): the same bits, called faster
    if math.log(rng.random()) < ratio:
        return prop
    return lambdas


def _alpha_logtarget(
    alpha_prior: AlphaPrior,
    lambdas: tuple[float, float, float],
    st: SampleSummary,
) -> Callable[[float], float]:
    l0, l1, l2 = lambdas
    # density events: two per off-diagonal pair, one per tie; every tie
    # also carries its shared-cause rate factor
    rate_logs = 0.0
    if st.n_below:
        rate_logs += st.n_below * (math.log(l1) + math.log(l0 + l2))
    if st.n_above:
        rate_logs += st.n_above * (math.log(l0 + l1) + math.log(l2))
    if st.n_tie:
        rate_logs += st.n_tie * math.log(l0)
    log_alpha_coef = alpha_prior.c - 1.0 + st.event_count
    d = alpha_prior.d
    log_y_sum = st.log_y_sum
    # l0*T0 + l1*T1 + l2*T2 is one power of the fused value table, at most
    # the coefficients' total times the largest value's power; ndarray.dot
    # gives the bits of a matmul here without the ufunc's overhead
    coef = np.array(lambdas).dot(st.weights)
    s0, s1, s2 = st.row_sums
    total = l0 * s0 + l1 * s1 + l2 * s2
    top = st.top
    powers = st.powers
    log, fpow, inf, isfinite = math.log, math.pow, math.inf, math.isfinite

    def g(alpha: float) -> float:
        if not (0 < alpha < inf):
            return -inf
        # where that bound overflows, so may the sum: refuse it before numpy
        # warns (math.pow raises OverflowError past the float range)
        try:
            if fpow(top, alpha) * total == inf:
                return -inf
        except OverflowError:
            return -inf
        out = (
            log_alpha_coef * log(alpha)
            - d * alpha
            + rate_logs
            + (alpha - 1.0) * log_y_sum
            - float(coef.dot(powers(alpha)))
        )
        return out if isfinite(out) else -inf

    return g


def sample_alpha_conditional(
    alpha_prior: AlphaPrior,
    lambdas: tuple[float, float, float],
    sample: Sequence[CompleteObservation] | SampleSummary,
    alpha: float,
    rng: np.random.Generator,
) -> float:
    """One draw of the shape from its conditional given rates and sample.

    Slice sampling with stepping-out and shrinkage; exact in stationarity
    for the conditional known up to its normalizing constant.
    """
    g = _alpha_logtarget(alpha_prior, lambdas, summarize(sample))
    lo, hi, width = SLICE_ALPHA_LO, SLICE_ALPHA_HI, SLICE_WIDTH
    random = rng.random
    x0 = min(max(alpha, lo), hi)
    gx0 = g(x0)
    if not math.isfinite(gx0):
        raise ValueError("conditional density vanishes at the current shape")
    level = gx0 - rng.exponential()
    # lo + (hi - lo) * rng.random() is how numpy computes rng.uniform(lo,
    # hi), so the draws are the same bits without uniform's call overhead
    left = x0 - width * random()
    right = left + width
    while left > lo and g(left) > level:
        left -= width
    while right < hi and g(right) > level:
        right += width
    left = max(left, lo)
    right = min(right, hi)
    # the accepted shape is the target's last point, so the summary keeps
    # its power table for the next sweep's rate step and g(x0)
    while True:
        x1 = left + (right - left) * random()
        if g(x1) > level:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1


@dataclass(frozen=True, eq=False)
class PosteriorDraws:
    """Draws of ``(alpha, lambda0, lambda1, lambda2)`` with summaries."""

    draws: np.ndarray
    M: int
    N: int
    means: dict[str, float]
    credible: dict[str, tuple[float, float]]
    hpd: dict[str, tuple[float, float]]


def credible_interval(
    draws: Sequence[float], beta: float = 0.05
) -> tuple[float, float]:
    """Equal-tailed credible interval covering mass ``1 - beta``."""
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    g = np.sort(np.asarray(draws, dtype=float))
    if g.size == 0:
        raise ValueError("draws must be non-empty")
    return _linear_quantile(g, beta / 2.0), _linear_quantile(g, 1.0 - beta / 2.0)


def _linear_quantile(g: np.ndarray, q: float) -> float:
    # np.quantile's default ("linear") rule on sorted draws, with its
    # arithmetic; np.quantile itself imports numpy.ma on first use
    h = (g.size - 1) * q
    k = math.floor(h)
    t = h - k
    a, b = float(g[k]), float(g[min(k + 1, g.size - 1)])
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1.0 - t)


def hpd_interval(
    draws: Sequence[float], beta: float = 0.05
) -> tuple[float, float]:
    """Shortest order-statistic window covering mass ``1 - beta``.

    Scans windows ``[g_(i), g_(i+k)]`` with ``k = ceil((1-β) M)`` over
    the sorted draws and keeps the shortest, leftmost on ties.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    g = np.sort(np.asarray(draws, dtype=float))
    m = g.size
    if m * (1.0 - beta) < 2:
        raise ValueError("too few draws for the requested mass")
    k = math.ceil((1.0 - beta) * m)
    if k >= m:
        raise ValueError("too few draws for the requested mass")
    lengths = g[k:] - g[: m - k]
    i = int(np.argmin(lengths))
    return float(g[i]), float(g[i + k])


def augmented_gibbs(
    data: BivariateDataset,
    prior: DGPrior | None = None,
    alpha_prior: AlphaPrior | None = None,
    M: int = 10_000,
    N: int = 20,
    start: MOBWParams | None = None,
    rng: np.random.Generator | None = None,
    burn_in: float = 0.1,
) -> PosteriorDraws:
    """Posterior draws by alternating imputation with Gibbs sweeps.

    Each outer round imputes latent lifetimes at the current point, runs
    ``M`` sweeps of (causes, rates, shape), and moves the point to the
    draw averages (first ``burn_in`` fraction discarded).  After ``N``
    rounds the last round's draws are returned; their means are the point
    estimates.  Each round's imputation is summarized once, before its
    sweeps; an imputed zero lifetime, which the shape's full conditional
    cannot accommodate, is reported with its data row.  A sample that does
    not identify every rate is refused as :func:`bdw.fit_ml.nested_em`
    refuses it.
    """
    if M < 100:
        raise ValueError("M must be at least 100")
    if N < 1:
        raise ValueError("N must be at least 1")
    if not 0 <= burn_in < 1:
        raise ValueError("burn_in must lie in [0, 1)")
    prior = DGPrior() if prior is None else prior
    alpha_prior = AlphaPrior() if alpha_prior is None else alpha_prior
    rng = np.random.default_rng() if rng is None else rng
    theta = _identified_start(data, start)
    drop = int(M * burn_in)
    draws = np.empty((M, 4))
    for _ in range(N):
        sample = summarize(impute_dataset(theta, data))
        if sample.first_zero is not None:
            row = sample.first_zero
            raise ValueError(
                f"data row {row} (cell {data.pairs[row]}) imputes a zero "
                f"lifetime at shape {theta.alpha:.6g}: the shape's full "
                f"conditional is improper there"
            )
        alpha = theta.alpha
        lams = (theta.lambda0, theta.lambda1, theta.lambda2)
        for i in range(M):
            lams = sample_lambdas_conditional(prior, alpha, sample, lams, rng)
            alpha = sample_alpha_conditional(
                alpha_prior, lams, sample, alpha, rng
            )
            draws[i, 0] = alpha
            draws[i, 1:] = lams
        center = draws[drop:].mean(axis=0)
        theta = MOBWParams(*center)
    means = {}
    cred = {}
    hpd = {}
    for j, name in enumerate(PARAM_NAMES):
        col = draws[:, j]
        means[name] = float(col.mean())
        cred[name] = credible_interval(col)
        hpd[name] = hpd_interval(col)
    return PosteriorDraws(
        draws=draws.copy(), M=M, N=N, means=means, credible=cred, hpd=hpd
    )
