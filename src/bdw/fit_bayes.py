"""Bayesian fitting of the bivariate discrete Weibull model.

The rates carry a Dirichlet-Gamma prior: the total rate is gamma, the
split between shared and individual shocks is Dirichlet.  The shape has
an independent gamma prior.  Estimation augments the integer data to
latent continuous lifetimes cell by cell with the most likely latent pair
of each cell, summarizes that sample once, and runs Gibbs sweeps over the
latent failure causes, the three rates, and the shape on the summary; the
outer loop re-imputes at the current draw averages and the final round's
draws carry the reported summaries.  The step functions accept a complete
sample or its summary and compute each draw directly: they keep nothing
on the summary but the power pair that :mod:`bdw.mobw` shares between the
exposures and the shape's target.  The rate step draws the causes with
:func:`bdw.mobw.cause_counts` and sums the exposures with
:func:`bdw.mobw.exposures`, so it reads none of the summary's tables; the
slice step binds the shape's target once per call and reads it.

The sweep runs on ``math``: the summary's powers are libm's ``pow``, the
exposures and the shape's target are sums rounded once (``math.fsum``),
the draws are held in one list per parameter, and the intervals sort
lists.  Its random values come from a numpy ``Generator`` or from the
package's generator (:class:`bdw.generator._Generator`), which gives the
same values for the same seed; the command line draws from the latter,
so ``bdw fit-bayes`` loads no numpy, and its report does not depend on
numpy's SIMD kernels.  Only a caller that reads
:attr:`PosteriorDraws.draws` gets, and loads, an array.

The latent-sample path, imputation (:func:`bdw.mobw.impute_dataset`),
summary, causes, exposures and the complete-data log-likelihood (the
shape's target), is :mod:`bdw.mobw`'s; the start point and its
identifiability checks are the ML fit's (:mod:`bdw.fit_ml`).
"""

from __future__ import annotations

import math
import os
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Sequence

from .datasets import BivariateDataset
from .fit_ml import PARAM_NAMES, _identified_start
from .generator import _Generator
from .mobw import (
    MOBWParams, Sample, SampleSummary, _loglik_in_shape, cause_counts, exposures, impute_dataset,
    summarize,
)
from .sampling import _at_least, _binary_size
from .weibull import _left_sum, _number, _Record

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DGPrior",
    "AlphaPrior",
    "PosteriorDraws",
    "dg_logpdf",
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


class DGPrior(_Record):
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


class AlphaPrior(_Record):
    """Gamma prior (shape ``c``, rate ``d``) on the common shape."""

    c: float = 1e-4
    d: float = 1e-4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("shape c must be positive")
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError("rate d must be positive")

    def logpdf(self, alpha: float) -> float:
        if alpha != alpha:
            raise ValueError(f"alpha must be a number, got {alpha}")
        if not 0 < alpha < math.inf:  # the density's limit at infinity too
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
    for name, l in zip(("lambda0", "lambda1", "lambda2"), lams):
        if l != l:
            raise ValueError(f"{name} must be a number, got {l}")
    if any(l <= 0 for l in lams):
        raise ValueError("rates must be strictly positive")
    if math.inf in lams:  # the density's limit
        return -math.inf
    total = _left_sum(lams)
    splits = (prior.a0, prior.a1, prior.a2)
    out = (
        math.lgamma(_left_sum(splits))
        - math.lgamma(prior.a)
        + (prior.a - _left_sum(splits)) * math.log(prior.b * total)
    )
    for ai, li in zip(splits, lams):
        out += (
            ai * math.log(prior.b)
            - math.lgamma(ai)
            + (ai - 1.0) * math.log(li)
            - prior.b * li
        )
    return out


def sample_lambdas_conditional(
    prior: DGPrior, alpha: float, sample: Sample, lambdas: tuple[float, float, float], rng
) -> tuple[float, float, float]:
    """One draw of the three rates given shape, sample, and current rates.

    The latent causes are drawn first; each rate then has a gamma full
    conditional.  When the prior total-shape ``a`` differs from
    ``a0+a1+a2`` the gamma product is only a proposal and a Metropolis
    accept step corrects for the ``(bλ)^(a-a0-a1-a2)`` factor; the
    current rates are kept on rejection.  Exposures past the float range
    are refused by name, as are rates :class:`bdw.mobw.MOBWParams` refuses
    and a shape that is not positive and finite.
    """
    st = sample if sample.__class__ is SampleSummary else summarize(sample)
    # the causes are cause_counts', the exposures exposures' (which refuses
    # them past the float range)
    n0, n1, n2 = cause_counts(st, lambdas, rng)
    t0, t1, t2 = exposures(st, alpha)
    a0, a1, a2, b, gamma = prior.a0, prior.a1, prior.a2, prior.b, rng.gamma
    # near-zero shapes make gamma draws underflow; keep them positive
    # (max(g, 5e-324), written out: the sweep's hottest lines)
    g0 = gamma(a0 + n0, 1.0 / (b + t0))
    g0 = 5e-324 if 5e-324 > g0 else g0
    g1 = gamma(a1 + n1, 1.0 / (b + t1))
    g1 = 5e-324 if 5e-324 > g1 else g1
    g2 = gamma(a2 + n2, 1.0 / (b + t2))
    g2 = 5e-324 if 5e-324 > g2 else g2
    excess = prior.a - (a0 + a1 + a2)
    if excess == 0.0:
        return g0, g1, g2
    l0, l1, l2 = lambdas
    # each total added left to right: weibull._left_sum's bits on positive rates
    ratio = excess * (math.log(g0 + g1 + g2) - math.log(l0 + l1 + l2))
    # rng.uniform() is 0 + 1 * rng.random(): the same bits, called faster
    if math.log(rng.random()) < ratio:
        return g0, g1, g2
    return lambdas


def sample_alpha_conditional(
    alpha_prior: AlphaPrior, lambdas: tuple[float, float, float], sample: Sample, alpha: float, rng
) -> float:
    """One draw of the shape from its conditional given rates and sample.

    Slice sampling with stepping-out and shrinkage; exact in stationarity
    for the conditional known up to its normalizing constant.  A
    log-target so large at the current shape that the slice level rounds
    to it is refused by name, as are rates :class:`bdw.mobw.MOBWParams`
    refuses, a zero shared rate where the sample holds a tie and a current
    shape that is NaN.  A zero lifetime puts the conditional at shape one
    alone, with no slice to draw: it is refused by the observation that
    holds it, before any draw.
    """
    st = sample if sample.__class__ is SampleSummary else summarize(sample)
    if st.first_zero is not None:
        raise ValueError(
            f"observation {st.first_zero} holds a zero lifetime: the shape's "
            "conditional sits at shape one alone, with no slice to draw"
        )
    # the complete-data log-likelihood under the prior's kernel
    g = _loglik_in_shape(alpha_prior.c, alpha_prior.d, st, lambdas)
    lo, hi, width, random = SLICE_ALPHA_LO, SLICE_ALPHA_HI, SLICE_WIDTH, rng.random
    # the clamps are min and max, written out; NaN passes both
    x0 = lo if lo > alpha else alpha
    x0 = hi if hi < x0 else x0
    gx0 = g(x0)
    if not math.isfinite(gx0):
        if x0 != x0:
            raise ValueError(f"the current shape must be a number, got {alpha}")
        raise ValueError("conditional density vanishes at the current shape")
    level = gx0 - rng.exponential()
    if not level < gx0:
        # the slice would not hold x0, and the shrinkage below would
        # close on x0 without ever accepting
        raise ValueError(
            f"the shape's slice cannot be drawn at shape {x0:.6g}: its "
            f"log-density {gx0:.6g} is so large that the slice level rounds to it"
        )
    # lo + (hi - lo) * rng.random() is how numpy computes rng.uniform(lo,
    # hi), so the draws are the same bits without uniform's call overhead
    left = x0 - width * random()
    right = left + width
    while left > lo and g(left) > level:
        left -= width
    while right < hi and g(right) > level:
        right += width
    left = lo if lo > left else left
    right = hi if hi < right else right
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


class PosteriorDraws(_Record, eq=False):
    """Draws of ``(alpha, lambda0, lambda1, lambda2)`` with summaries.

    ``draws`` is the ``(M, 4)`` float64 array of the last round's draws.
    :func:`augmented_gibbs` hands it over as its four columns, which become
    the array when ``draws`` is first read: a run that reads only the
    summaries, as the command line does, loads no numpy.
    """

    draws: np.ndarray
    M: int
    N: int
    means: dict[str, float]
    credible: dict[str, tuple[float, float]]
    hpd: dict[str, tuple[float, float]]


class _Columns(tuple):
    """The draws of each parameter, as lists, before they are an array."""


def _read_draws(self: PosteriorDraws) -> np.ndarray:
    """The ``(M, 4)`` float64 array of the last round's draws."""
    draws = self.__dict__["draws"]
    if isinstance(draws, _Columns):
        import numpy as np

        draws = self.__dict__["draws"] = np.array(draws, dtype=float).T.copy()
    return draws


# set after the class statement, so the property is no field's default
PosteriorDraws.draws = property(_read_draws)


def credible_interval(
    draws: Sequence[float], beta: float = 0.05
) -> tuple[float, float]:
    """Equal-tailed credible interval covering mass ``1 - beta``."""
    g, beta = _sorted_draws(draws, beta)
    if not g:
        raise ValueError("draws must be non-empty")
    return _linear_quantile(g, beta / 2.0), _linear_quantile(g, 1.0 - beta / 2.0)


def _sorted_draws(draws: Sequence[float], beta: float) -> tuple[list[float], float]:
    # the draws in order for an interval of mass 1 - beta, and beta as a
    # float (a Decimal does not mix with float arithmetic); an infinite or
    # NaN draw has no place in an interval and is refused by its index
    if not 0 < _number(beta, "beta") < 1:
        raise ValueError("beta must lie in (0, 1)")
    g = list(map(float, draws))
    if not all(map(math.isfinite, g)):
        i = next(i for i, v in enumerate(g) if not math.isfinite(v))
        raise ValueError(f"draws must be finite, got {g[i]!r} at index {i}")
    g.sort()
    return g, float(beta)


def _linear_quantile(g: list[float], q: float) -> float:
    # np.quantile's default ("linear") rule on sorted draws, with its arithmetic
    h = (len(g) - 1) * q
    k = math.floor(h)
    t = h - k
    a, b = g[k], g[min(k + 1, len(g) - 1)]
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1.0 - t)


def hpd_interval(
    draws: Sequence[float], beta: float = 0.05
) -> tuple[float, float]:
    """Shortest order-statistic window covering mass ``1 - beta``.

    Scans windows ``[g_(i), g_(i+k)]`` with ``k = ceil((1-β) M)`` over
    the sorted draws and keeps the shortest, leftmost on ties.
    """
    g, beta = _sorted_draws(draws, beta)
    m = len(g)
    if m * (1.0 - beta) < 2:
        raise ValueError("too few draws for the requested mass")
    k = math.ceil((1.0 - beta) * m)
    if k >= m:
        raise ValueError("too few draws for the requested mass")
    lengths = [hi - lo for lo, hi in zip(g, g[k:])]
    i = lengths.index(min(lengths))
    return g[i], g[i + k]


def augmented_gibbs(
    data: BivariateDataset,
    prior: DGPrior | None = None,
    alpha_prior: AlphaPrior | None = None,
    M: int = 10_000,
    N: int = 20,
    start: MOBWParams | None = None,
    rng=None,
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

    ``rng`` is a numpy ``Generator`` or the package's seeded generator
    (:class:`bdw.generator._Generator`), which draws the same values for
    the same seed; without one, the latter is seeded from the OS.  The
    averages are numpy's: a round's point sums its draws in order, as
    ``mean(axis=0)`` does, and the reported means pairwise, as a column's
    ``mean()`` does.  The draws are held before the first sweep, and a
    number too large to hold is refused by its size.
    """
    M = _at_least(M, "M", 100, "M must be at least 100")
    N = _at_least(N, "N", 1, "N must be at least 1")
    if not 0 <= _number(burn_in, "burn_in") < 1:
        raise ValueError("burn_in must lie in [0, 1)")
    prior = DGPrior() if prior is None else prior
    alpha_prior = AlphaPrior() if alpha_prior is None else alpha_prior
    if rng is None:
        rng = _Generator(int.from_bytes(os.urandom(16), "little"))
    theta = _identified_start(data, start)
    drop = int(M * burn_in)
    try:
        columns = _Columns([0.0] * M for _ in PARAM_NAMES)
    except (MemoryError, OverflowError):
        raise MemoryError(
            f"Unable to allocate {_binary_size(32 * M)} for {M} draws of the four parameters"
        ) from None
    alphas, rates0, rates1, rates2 = columns
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
            alphas[i] = alpha
            rates0[i], rates1[i], rates2[i] = lams
        theta = MOBWParams(*(reduce(add, col[drop:]) / (M - drop) for col in columns))
    means = {}
    cred = {}
    hpd = {}
    for name, col in zip(PARAM_NAMES, columns):
        means[name] = _pairwise_sum(col, 0, M) / M
        cred[name] = credible_interval(col)
        hpd[name] = hpd_interval(col)
    return PosteriorDraws(
        draws=columns, M=M, N=N, means=means, credible=cred, hpd=hpd
    )


def _pairwise_sum(values: list[float], lo: int, n: int) -> float:
    """``values[lo:lo + n]`` summed as numpy's float64 ``add.reduce`` sums
    it: from 0 below 8 terms, in eight interleaved running sums up to 128,
    and above that by halves cut at a multiple of 8."""
    if n < 8:
        return reduce(add, values[lo : lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(add, values[lo + j : end : 8]) for j in range(8)]
        out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[end : lo + n], out)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)
