"""Continuous and discrete Weibull laws.

The discrete Weibull (DW) distribution places mass ``p**(y**alpha) -
p**((y + 1)**alpha)`` on each non-negative integer ``y``.  It arises as the
integer part of a continuous Weibull lifetime with rate ``lam = -ln(p)``,
which is the representation used throughout this package: survival beyond
``y`` is ``p**(y**alpha)`` with a weak inequality, i.e. ``P(Y >= y)``.
With ``alpha = 1`` the law reduces to the geometric distribution with
success probability ``1 - p``.

scipy is imported inside the two fits that use it, not at import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "SingularDensityError",
    "WeibullParams",
    "DWParams",
    "DWFit",
    "we_pdf",
    "we_cdf",
    "we_mode",
    "we_sample",
    "dw_pmf",
    "dw_logpmf",
    "dw_sf",
    "dw_sample",
    "dw_min_of_n",
    "dw_fit_ml",
    "dw_fit_minchisq",
    "DWChisqFit",
]

# Search box for the shape parameter in all fits; wide enough that real
# count data never touches it.
ALPHA_LO = 1e-2
ALPHA_HI = 1e2


class SingularDensityError(ValueError):
    """The density is infinite at the requested point.

    Raised for the continuous Weibull density at the origin when the shape
    is below one; the pole is a property of the law, not a numerical
    failure, so it is reported as a distinct signal rather than a float.
    """


@dataclass(frozen=True)
class WeibullParams:
    """Continuous Weibull law with density ``alpha*lam*x**(alpha-1)*exp(-lam*x**alpha)``.

    Parameters
    ----------
    alpha : float
        Shape, strictly positive.
    lam : float
        Rate, strictly positive.
    """

    alpha: float
    lam: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"shape must be positive and finite, got {self.alpha}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError(f"rate must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class DWParams:
    """Discrete Weibull law with survival ``p**(y**alpha)``.

    ``p = 1`` is accepted only so that a degenerate component can be carried
    around inside the bivariate model (a never-failing shared shock); every
    standalone operation on the law itself requires ``p < 1``.
    """

    alpha: float
    p: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"shape must be positive and finite, got {self.alpha}")
        if not 0 < self.p <= 1:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")


class DWFit(NamedTuple):
    """Maximum-likelihood fit of a DW law together with its attained log-likelihood."""

    params: DWParams
    loglik: float


def _require_proper(params: DWParams) -> None:
    # p = 1 is the degenerate boundary reserved for the bivariate shared
    # component; as a standalone law it has no distribution on the integers.
    if params.p == 1:
        raise ValueError("operation requires p < 1 (p = 1 is degenerate)")


def we_pdf(params: WeibullParams, x: float) -> float:
    """Density of the continuous Weibull law at ``x >= 0``.

    At ``x = 0`` the density is 0 for ``alpha > 1`` and ``lam`` for
    ``alpha = 1``; for ``alpha < 1`` it diverges and
    :class:`SingularDensityError` is raised.
    """
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    a, lam = params.alpha, params.lam
    if x == 0:
        if a > 1:
            return 0.0
        if a == 1:
            return lam
        raise SingularDensityError("density diverges at 0 for shape below one")
    return a * lam * x ** (a - 1.0) * math.exp(-lam * x**a)


def we_cdf(params: WeibullParams, x: float) -> float:
    """Distribution function ``1 - exp(-lam*x**alpha)`` at ``x >= 0``."""
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    return -math.expm1(-params.lam * x**params.alpha)


def we_mode(alpha: float, lam: float) -> float:
    """Interior mode ``((alpha-1)/(alpha*lam))**(1/alpha)`` of the density.

    Defined only for ``alpha > 1``; below that the density is decreasing and
    has no interior mode.
    """
    if alpha <= 1:
        raise ValueError(f"mode requires shape above one, got {alpha}")
    if lam <= 0:
        raise ValueError(f"rate must be positive, got {lam}")
    return ((alpha - 1.0) / (alpha * lam)) ** (1.0 / alpha)


def we_sample(params: WeibullParams, rng: np.random.Generator, size=None):
    """Draw from the continuous Weibull law by inversion.

    The uniform deviate is confined to the open unit interval by the
    generator's 53-bit grid, so the transform never produces an infinite
    lifetime; a deviate rounding to 0 maps to the value 0.
    """
    u = rng.random(size)
    # -log1p(-u) is an exact Exponential(1) inverse transform on [0, 1).
    e = -np.log1p(-u)
    x = (e / params.lam) ** (1.0 / params.alpha)
    if size is None:
        return float(x)
    return x


def dw_logpmf(params: DWParams, y: int) -> float:
    """Natural log of the DW probability mass at the integer ``y >= 0``."""
    _require_proper(params)
    if y < 0 or y != int(y):
        raise ValueError(f"support is the non-negative integers, got {y}")
    return float(_logpmf_arr(np.asarray([float(y)]), params.alpha, math.log(params.p))[0])


def dw_pmf(params: DWParams, y: int) -> float:
    """Probability mass ``p**(y**alpha) - p**((y+1)**alpha)`` at the integer ``y >= 0``."""
    return math.exp(dw_logpmf(params, y))


def dw_sf(params: DWParams, y: float) -> float:
    """Survival ``P(Y >= y) = p**(floor(y)**alpha)`` for real ``y >= 0``.

    The inequality is weak, so ``dw_sf(params, 0) == 1`` and the function is
    constant on each unit cell.
    """
    _require_proper(params)
    if y < 0:
        raise ValueError(f"y must be non-negative, got {y}")
    k = math.floor(y)
    if k == 0:
        return 1.0
    return math.exp(float(k) ** params.alpha * math.log(params.p))


def dw_sample(params: DWParams, rng: np.random.Generator, size=None):
    """Draw from the DW law as the floor of a continuous Weibull lifetime."""
    _require_proper(params)
    lam = -math.log(params.p)
    w = we_sample(WeibullParams(params.alpha, lam), rng, size=size)
    if size is None:
        return int(w)
    return np.floor(w).astype(np.int64)


def dw_min_of_n(params: DWParams, n: int) -> DWParams:
    """Law of the minimum of ``n`` independent copies: same shape, ``p**n``."""
    if n < 1 or n != int(n):
        raise ValueError(f"n must be a positive integer, got {n}")
    return DWParams(params.alpha, params.p**n)


def _logpmf_arr(y: np.ndarray, alpha: float, lnp: float) -> np.ndarray:
    """log pmf of DW(alpha, e**lnp) on an array of non-negative integer values.

    Evaluated as ``t1*lnp + log1p(-exp((t2 - t1)*lnp))`` with ``t1 = y**alpha``
    and ``t2 = (y+1)**alpha``, which keeps full relative accuracy when the two
    survival terms nearly cancel (p close to 1).  Cells whose mass underflows
    to zero come back as -inf.
    """
    t1 = np.where(y > 0, np.power(y, alpha), 0.0)
    t2 = np.power(y + 1.0, alpha)
    with np.errstate(invalid="ignore", over="ignore"):
        d = (t2 - t1) * lnp
        out = t1 * lnp + np.log1p(-np.exp(d))
    out = np.where(np.isfinite(t1), out, -np.inf)
    return out


def _dataset_1d(data) -> np.ndarray:
    xs = np.asarray(data)
    if xs.size == 0:
        raise ValueError("empty dataset")
    if xs.ndim != 1:
        raise ValueError("expected a one-dimensional collection of counts")
    if not np.issubdtype(xs.dtype, np.number) or np.any(xs != np.floor(xs)) or np.any(xs < 0):
        raise ValueError("data must be non-negative integers")
    return xs.astype(float)


def dw_fit_ml(data: Sequence[int]) -> DWFit:
    """Maximum-likelihood fit of a DW law to a sample of counts.

    The shape is profiled: for each candidate ``alpha`` the likelihood is
    maximised over ``p`` on the logit scale, and the profiled objective is
    then maximised over ``log(alpha)`` on [log(0.01), log(100)].  Both
    one-dimensional searches are derivative-free bracketing to 1e-8 in the
    argument, with a coarse pre-scan so a secondary bump cannot capture the
    refinement.

    Returns
    -------
    DWFit
        Fitted parameters and the attained log-likelihood.

    Raises
    ------
    ValueError
        On an empty sample, or when all observations are equal (the
        likelihood then degenerates towards a boundary point mass).
    """
    from scipy.optimize import minimize_scalar
    from scipy.special import expit

    xs = _dataset_1d(data)
    values, counts = np.unique(xs, return_counts=True)
    if values.size < 2:
        raise ValueError(
            "all observations are equal; the fit degenerates to a boundary point mass"
        )
    wts = counts.astype(float)

    def profile(ln_alpha: float) -> tuple[float, float]:
        alpha = math.exp(ln_alpha)

        def negll(z: float) -> float:
            lnp = -np.logaddexp(0.0, -z)  # log of the logistic function, exactly
            return -float(wts @ _logpmf_arr(values, alpha, lnp))

        res = minimize_scalar(
            negll, bounds=(-35.0, 35.0), method="bounded", options={"xatol": 1e-8}
        )
        return -res.fun, float(expit(res.x))

    grid = np.linspace(math.log(ALPHA_LO), math.log(ALPHA_HI), 61)
    vals = [profile(g)[0] for g in grid]
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(
        lambda g: -profile(g)[0], bounds=(lo, hi), method="bounded", options={"xatol": 1e-8}
    )
    ln_alpha = float(res.x)
    loglik, p = profile(ln_alpha)
    return DWFit(DWParams(math.exp(ln_alpha), p), loglik)


class DWChisqFit(NamedTuple):
    """Minimum-chi-square fit of a DW law with the minimized Pearson statistic."""

    params: DWParams
    chisq: float


def dw_fit_minchisq(data: Sequence[int]) -> DWChisqFit:
    """Fit a DW law by minimizing the Pearson chi-square statistic.

    Cells are the distinct observed values, with expected counts
    ``n * dw_pmf``; no tail cell is appended and no pooling is applied, so
    the minimized statistic is exactly the quantity a goodness-of-fit table
    built on the observed support reports.  Minimum-chi-square estimates
    and maximum-likelihood estimates generally differ at small samples;
    both are exposed because published marginal fits for this family are
    reproducible only under this criterion, while likelihood comparisons
    need :func:`dw_fit_ml`.

    Returns
    -------
    DWChisqFit
        Fitted parameters and the attained (minimized) chi-square.
    """
    from scipy.optimize import minimize
    from scipy.special import expit

    xs = _dataset_1d(data)
    values, counts = np.unique(xs, return_counts=True)
    if values.size < 2:
        raise ValueError(
            "all observations are equal; the fit degenerates to a boundary point mass"
        )
    n = xs.size
    wts = counts.astype(float)

    def pearson(z: np.ndarray) -> float:
        alpha = math.exp(z[0])
        lnp = -np.logaddexp(0.0, -z[1])
        expected = n * np.exp(_logpmf_arr(values, alpha, lnp))
        if not np.all(expected > 0):
            return math.inf
        with np.errstate(over="ignore"):
            out = float(np.sum((wts - expected) ** 2 / expected))
        return out

    la = np.linspace(math.log(ALPHA_LO), math.log(ALPHA_HI), 25)
    lp = np.linspace(-6.0, 6.0, 25)
    grid = [(a, b) for a in la for b in lp]
    z0 = min(grid, key=lambda z: pearson(np.asarray(z)))
    res = minimize(
        pearson,
        np.asarray(z0),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    alpha = math.exp(res.x[0])
    p = float(expit(res.x[1]))
    return DWChisqFit(DWParams(alpha, p), float(res.fun))
