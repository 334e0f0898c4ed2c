"""Continuous and discrete Weibull laws.

The discrete Weibull (DW) distribution places mass ``p**(y**alpha) -
p**((y + 1)**alpha)`` on each non-negative integer ``y``.  It arises as the
integer part of a continuous Weibull lifetime with rate ``lam = -ln(p)``,
which is the representation used throughout this package: survival beyond
``y`` is ``p**(y**alpha)`` with a weak inequality, i.e. ``P(Y >= y)``.
With ``alpha = 1`` the law reduces to the geometric distribution with
success probability ``1 - p``.

Both fits run the package's one optimizer, :func:`_newton_min`: damped
Newton steps in log-parameters on exact derivatives, which the DW
log-pmf's jet (:func:`_dw_jet`) supplies.
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

    The uniform deviate lies in [0, 1) on the generator's 53-bit grid, so
    the exponential deviate is finite and a deviate of 0 maps to the value
    0; a very small shape can still power a lifetime past the float range,
    to inf.
    """
    u = rng.random(size)
    # -log1p(-u) is an exact Exponential(1) inverse transform on [0, 1).
    e = -np.log1p(-u)
    with np.errstate(over="ignore"):
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


def _floor_counts(lifetimes) -> np.ndarray:
    """Floors of non-negative lifetimes as int64 counts; a lifetime at or
    past 2**63, or infinite, is refused rather than wrapped to a negative."""
    y = np.floor(lifetimes)
    beyond = ~(y < 2.0**63)
    if np.any(beyond):
        raise ValueError(
            f"a drawn lifetime of {y[beyond].flat[0]:.6g} exceeds the largest "
            f"count 2**63 - 1: the law's tail is too heavy to sample"
        )
    return y.astype(np.int64)


def dw_sample(params: DWParams, rng: np.random.Generator, size=None):
    """Draw from the DW law as the floor of a continuous Weibull lifetime."""
    _require_proper(params)
    lam = -math.log(params.p)
    counts = _floor_counts(we_sample(WeibullParams(params.alpha, lam), rng, size=size))
    return int(counts) if size is None else counts


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
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        t1 = np.where(y > 0, np.power(y, alpha), 0.0)
        t2 = np.power(y + 1.0, alpha)
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




@dataclass(frozen=True)
class _Jet:
    """Per-cell values with gradients and Hessians in a parameter vector
    ``theta = (alpha, rate, ...)``: the shape first, then any number of rates."""

    v: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def __add__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v + other.v, self.g + other.g, self.h + other.h)

    def __sub__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v - other.v, self.g - other.g, self.h - other.h)

    def __setitem__(self, mask: np.ndarray, other: "_Jet") -> None:
        self.v[mask], self.g[mask], self.h[mask] = other.v, other.g, other.h


def _power_jet(y: np.ndarray, theta: np.ndarray, rates: tuple) -> _Jet:
    """Jet of ``-r * y**alpha``, where ``r`` sums the rates flagged in ``rates``."""
    m = np.array([0.0, *rates])
    shape = np.zeros(m.size)
    shape[0] = 1.0
    r = float(m @ theta)
    ly = np.log(np.where(y > 0, y, 1.0))
    t = y ** theta[0]
    t_a = t * ly
    t_aa = t_a * ly
    cross = np.outer(shape, m) + np.outer(m, shape)
    return _Jet(
        -r * t,
        -(r * t_a)[:, None] * shape - t[:, None] * m,
        -(r * t_aa)[:, None, None] * np.outer(shape, shape) - t_a[:, None, None] * cross,
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


def _in_logs(theta: np.ndarray, value: float, grad: np.ndarray, hess: np.ndarray):
    """Value, gradient and Hessian carried from ``theta`` to ``z = log(theta)``;
    non-finite entries pass through silently."""
    with np.errstate(invalid="ignore", over="ignore"):
        grad_z = theta * grad
        return value, grad_z, np.outer(theta, theta) * hess + np.diag(grad_z)


# longest step of the Newton solver, in log-parameters: at most a factor
# e**2 per parameter, so exp(z) cannot overflow between two evaluations
_MAX_STEP = 2.0
# well-posed fits take 3-20 steps; the cap ends a descent towards an
# infimum at infinity, as on a sample that no DW law fits best
_MAX_ITER = 200
_EPS = np.finfo(float).eps


class _StepCapError(ValueError):
    """:func:`_newton_min` found no minimum: it took ``_MAX_ITER`` steps
    without converging, or its Newton step was too long to represent."""


def _newton_min(fun, z0: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ``fun`` from ``z0`` by damped Newton steps; return the point and value.

    ``fun(z)`` returns the value, gradient and Hessian; a non-finite one
    marks ``z`` as outside the domain.  Each step solves ``(H + mu*I) s =
    -g`` on the eigen-decomposition of ``H``, with ``mu`` raised where
    needed so the system is positive definite, and its length is capped at
    ``_MAX_STEP``.  A step is taken only when the value falls, or, within
    the float resolution of the value, when the gradient shrinks;
    otherwise ``mu`` grows and the step shortens.  The solve ends after
    the first step whose predicted or attained decrease is below that
    resolution, such as a crawl towards a rate of zero.  A solve still
    descending after ``_MAX_ITER`` steps, or whose Newton step overflows
    (no curvature along a descent direction), raises :class:`_StepCapError`.
    """
    def finite(*parts) -> bool:
        return all(bool(np.isfinite(part).all()) for part in parts)

    z = np.asarray(z0, dtype=float)
    f, g, h = fun(z)
    if not finite(f, g, h):
        raise ValueError("the objective is not finite at the start point")
    mu = 0.0
    for _ in range(_MAX_ITER):
        w, vecs = np.linalg.eigh(h)
        scale = max(float(np.abs(w).max()), 1e-300)
        lowest = float(w.min())
        shift = mu if lowest > 0.0 else mu + 1e-10 * scale - lowest
        gv = vecs.T @ g
        with np.errstate(over="ignore"):
            sv = -gv / (w + shift)
            length = float(np.linalg.norm(sv))
        if not finite(sv):
            raise _StepCapError(
                "the Newton step overflows: the objective has no curvature "
                "along its descent, so the infimum is not attained"
            )
        if length == math.inf:
            # the squares of sv overflow; those of sv / max|sv| cannot
            big = float(np.abs(sv).max())
            length = big * float(np.linalg.norm(sv / big))
        if length > _MAX_STEP:
            sv *= _MAX_STEP / length
        predicted = -float(gv @ sv + 0.5 * (w * sv) @ sv)
        resolution = 4.0 * _EPS * max(abs(f), 1.0)
        z_new = z + vecs @ sv
        f_new, g_new, h_new = fun(z_new)
        if finite(f_new, g_new, h_new) and (
            f_new < f
            or (f_new <= f + resolution and np.linalg.norm(g_new) < np.linalg.norm(g))
        ):
            gain = f - f_new
            z, f, g, h = z_new, f_new, g_new, h_new
            mu = mu / 4.0 if mu > 1e-12 * scale else 0.0
        elif predicted > resolution:
            mu = max(4.0 * shift, 1e-4 * scale)
            continue
        else:
            gain = 0.0
        if min(predicted, gain) <= resolution:
            return z, float(f)
    raise _StepCapError(
        f"the Newton solve was still descending after {_MAX_ITER} steps: "
        f"the infimum is not attained"
    )


def _pearson(counts: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Pearson statistic over the last axis; ``inf`` where a cell expects nothing."""
    stat = np.sum((counts - expected) ** 2 / expected, axis=-1)
    return np.where(np.all(expected > 0, axis=-1), stat, np.inf)


def _neg_loglik_jet(z: np.ndarray, values: np.ndarray, counts: np.ndarray):
    """Negative DW log-likelihood of ``counts`` at ``values``, with its
    gradient and Hessian, in ``z = (log alpha, log(-log p))``."""
    theta = np.exp(z)
    with np.errstate(all="ignore"):
        jet = _dw_jet(values, theta, (1,))
        hess = np.tensordot(counts, jet.h, axes=1)
        return _in_logs(theta, -float(counts @ jet.v), -(counts @ jet.g), -hess)


def _pearson_jet(z: np.ndarray, values: np.ndarray, counts: np.ndarray, n: int):
    """Pearson statistic of ``counts`` against ``n`` times the DW pmf, with
    its gradient ``sum((e - o**2/e) * dl)`` and Hessian, in the
    coordinates of :func:`_neg_loglik_jet`; ``l`` is a cell's log-pmf."""
    theta = np.exp(z)
    with np.errstate(all="ignore"):
        jet = _dw_jet(values, theta, (1,))
        e = n * np.exp(jet.v)
        q = counts * counts / e
        grad = (e - q) @ jet.g
        hess = np.einsum("k,ki,kj->ij", e + q, jet.g, jet.g)
        hess += np.tensordot(e - q, jet.h, axes=1)
        return _in_logs(theta, float(_pearson(counts, e)), grad, hess)


def dw_fit_ml(data: Sequence[int]) -> DWFit:
    """Maximum-likelihood fit of a DW law to a sample of counts.

    The likelihood is evaluated at once on a grid over shape in
    [0.01, 100] and ``logit(p)`` in [-35, 35], and :func:`_newton_min`
    refines the best grid point in ``(log alpha, log(-log p))`` with the
    exact score and Hessian.

    Returns
    -------
    DWFit
        Fitted parameters and the attained log-likelihood.

    Raises
    ------
    ValueError
        On an empty sample, when all observations are equal (the
        likelihood then degenerates towards a boundary point mass), when
        no DW law attains the supremum, or when the counts are too large
        for ``p`` to be told from one.  A sample on two adjacent values
        ``{k, k+1}`` is one with no maximizer: as the shape grows with
        ``lambda*(k+1)**alpha`` held, the DW law tends to any two-point
        law on them, so the supremum is the sample's own frequencies.
    """
    values, counts, n = _distinct_values(data)
    if values.size == 2 and values[1] - values[0] == 1:
        sup = float(counts @ np.log(counts / n))
        raise ValueError(
            f"no DW law fits this sample best: on the two adjacent values "
            f"{values[0]:g} and {values[1]:g} the log-likelihood approaches "
            f"its supremum {sup:.6g} only as the shape grows without bound"
        )
    start = _grid_start(
        lambda logpmf: -(logpmf @ counts),
        values,
        np.linspace(math.log(ALPHA_LO), math.log(ALPHA_HI), 61),
        np.linspace(-35.0, 35.0, 71),
    )
    params, value = _solve_fit(lambda z: _neg_loglik_jet(z, values, counts), start, values[-1])
    return DWFit(params, -value)


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

    The statistic is evaluated at once on a 25 x 25 grid over shape in
    [0.01, 100] and ``logit(p)`` in [-6, 6], and :func:`_newton_min`
    refines the best grid point with its exact gradient and Hessian.

    Returns
    -------
    DWChisqFit
        Fitted parameters and the attained (minimized) chi-square.

    Raises
    ------
    ValueError
        As :func:`dw_fit_ml` does.
    """
    values, counts, n = _distinct_values(data)
    start = _grid_start(
        lambda logpmf: _pearson(counts, n * np.exp(logpmf)),
        values,
        np.linspace(math.log(ALPHA_LO), math.log(ALPHA_HI), 25),
        np.linspace(-6.0, 6.0, 25),
    )
    params, value = _solve_fit(lambda z: _pearson_jet(z, values, counts, n), start, values[-1])
    return DWChisqFit(params, value)


def _distinct_values(data) -> tuple[np.ndarray, np.ndarray, int]:
    """Distinct values of a count sample, their multiplicities and the sample size."""
    xs = _dataset_1d(data)
    values, counts = np.unique(xs, return_counts=True)
    if values.size < 2:
        raise ValueError(
            "all observations are equal; the fit degenerates to a boundary point mass"
        )
    return values, counts.astype(float), xs.size


def _grid_start(objective, values: np.ndarray, log_alpha: np.ndarray, logit_p: np.ndarray) -> np.ndarray:
    """``(log alpha, log(-log p))`` of the grid point where ``objective``, a
    function of the log-pmf table over ``values``, is least (the first in
    row-major order on ties)."""
    lnp = -np.logaddexp(0.0, -logit_p)
    with np.errstate(all="ignore"):
        table = _logpmf_arr(values, np.exp(log_alpha)[:, None, None], lnp[None, :, None])
        obj = objective(table)
    i, j = np.unravel_index(int(np.argmin(obj)), obj.shape)
    return np.array([log_alpha[i], math.log(-lnp[j])])


def _solve_fit(fun, start: np.ndarray, top: float) -> tuple[DWParams, float]:
    """Minimize a DW fit's objective ``fun`` of ``z = (log alpha, log(-log p))``
    from ``start``; return the law at the minimum and the minimum value.
    ``top`` is the largest count of the sample."""
    try:
        z, value = _newton_min(fun, start)
    except _StepCapError as exc:
        raise ValueError(f"no DW law fits this sample best: {exc}") from None
    return DWParams(math.exp(z[0]), _survival_base("lambda", math.exp(z[1]), top)), value


def _survival_base(name: str, rate: float, top: float) -> float:
    """``exp(-rate)``, refused by name when it rounds to one."""
    p = math.exp(-rate)
    if p == 1.0:
        raise ValueError(
            f"the fitted rate {name} = {rate:.3g} rounds its survival base "
            f"exp(-{name}) to 1: counts up to {top:g} need a base closer to "
            f"1 than a float resolves"
        )
    return p

