"""Fits of the discrete Weibull law to a sample of counts.

The DW law itself, its records and its log-mass kernels live in
:mod:`bdw.weibull`; this module fits it.  Both fits, by maximum
likelihood (:func:`dw_fit_ml`) and by minimum chi-square
(:func:`dw_fit_minchisq`), run the package's one optimizer,
:func:`_newton_min`: damped Newton steps in log-parameters on exact
derivatives, which the DW log-pmf's jet (:func:`_dw_jet`) supplies.  They
hold the fitted rate, and compute its survival base only on demand,
through :func:`~bdw.weibull._to_base`.

The law's public names are imported here too, so ``bdw.univariate.DWParams``
and pickles that name this module still resolve.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .weibull import (
    _MAX_COUNT,
    DWParams,
    SingularDensityError,
    WeibullParams,
    _log1mexp,
    _logpmf_arr,
    _Record,
    _to_base,
    dw_logpmf,
    dw_min_of_n,
    dw_pmf,
    dw_sample,
    dw_sf,
    we_cdf,
    we_mode,
    we_pdf,
    we_sample,
)

if TYPE_CHECKING:
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


class DWFit(NamedTuple):
    """Maximum-likelihood fit of a DW law together with its attained
    log-likelihood; ``law`` is the fitted latent Weibull law, in its rate."""

    law: WeibullParams
    loglik: float

    @property
    def params(self) -> DWParams:
        """The fitted law in its survival base, computed on demand; refused
        by name when the fitted rate rounds the base to 1."""
        return DWParams(self.law.alpha, _to_base("lambda", self.law.lam))


def _dataset_1d(data) -> np.ndarray:
    import numpy as np

    xs = np.asarray(data)
    if xs.size == 0:
        raise ValueError("empty dataset")
    if xs.ndim != 1:
        raise ValueError("expected a one-dimensional collection of counts")
    finite = np.issubdtype(xs.dtype, np.number) and np.all(np.isfinite(xs))
    if not finite or np.any(xs != np.floor(xs)) or np.any(xs < 0):
        raise ValueError("data must be non-negative integers")
    # int() of the largest entry is exact in every dtype; a float past the
    # int64 range would wrap where a count is cast to int64
    top = int(xs.max())
    if top > _MAX_COUNT:
        raise ValueError(f"data must not exceed the largest count 2**63 - 1, got {top}")
    return xs.astype(float)


class _Jet(_Record):
    """Per-entry values with gradients and Hessians in a parameter vector
    ``theta = (alpha, rate, ...)``: the shape first, then any number of rates."""

    v: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def __add__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v + other.v, self.g + other.g, self.h + other.h)

    def __sub__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v - other.v, self.g - other.g, self.h - other.h)


def _power_jet(y: np.ndarray, alpha: float, rate) -> _Jet:
    """Jet of ``-rate * y**alpha`` in ``(alpha, rate)``, over the broadcast of
    ``rate`` against ``y``: a ``(R, 1)`` rate column gives one row per rate."""
    import numpy as np

    ly = np.log(np.where(y > 0, y, 1.0))
    t = y**alpha
    t_a = t * ly
    v = -rate * t
    g, h = np.empty(v.shape + (2,)), np.zeros(v.shape + (2, 2))
    g[..., 0], g[..., 1] = -(rate * t_a), -t
    h[..., 0, 0], h[..., 0, 1], h[..., 1, 0] = -(rate * (t_a * ly)), -t_a, -t_a
    return _Jet(v, g, h)


def _log1mexp_jet(u: _Jet) -> _Jet:
    """Jet of ``log(1 - exp(-u))`` over any leading axes: its derivatives in
    ``u`` are ``g1 = 1/expm1(u)`` and ``-(g1 + g1**2)``."""
    import numpy as np

    g1 = 1.0 / np.expm1(u.v)
    g2 = -(g1 + g1 * g1)
    return _Jet(
        _log1mexp(u.v),
        g1[..., None] * u.g,
        g2[..., None, None] * (u.g[..., :, None] * u.g[..., None, :]) + g1[..., None, None] * u.h,
    )


def _dw_jet(y: np.ndarray, alpha: float, rate) -> _Jet:
    """Jet of the DW log-pmf at ``y`` in ``(alpha, rate)``, the survival base
    being ``exp(-rate)``; ``rate`` broadcasts against ``y`` as in :func:`_power_jet`."""
    here = _power_jet(y, alpha, rate)
    return here + _log1mexp_jet(here - _power_jet(y + 1.0, alpha, rate))


def _in_logs(theta: np.ndarray, value: float, grad: np.ndarray, hess: np.ndarray):
    """Value, gradient and Hessian carried from ``theta`` to ``z = log(theta)``;
    non-finite entries pass through silently."""
    import numpy as np

    with np.errstate(invalid="ignore", over="ignore"):
        grad_z = theta * grad
        return value, grad_z, np.outer(theta, theta) * hess + np.diag(grad_z)


# longest step of the Newton solver, in log-parameters: at most a factor
# e**2 per parameter, so exp(z) cannot overflow between two evaluations
_MAX_STEP = 2.0
# well-posed fits take 3-20 steps; the cap ends a descent towards an
# infimum at infinity, as on a sample that no DW law fits best
_MAX_ITER = 200
_EPS = sys.float_info.epsilon


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
    import numpy as np

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
    import numpy as np

    stat = np.sum((counts - expected) ** 2 / expected, axis=-1)
    return np.where(np.all(expected > 0, axis=-1), stat, np.inf)


def _neg_loglik_jet(z: np.ndarray, values: np.ndarray, counts: np.ndarray):
    """Negative DW log-likelihood of ``counts`` at ``values``, with its
    gradient and Hessian, in ``z = (log alpha, log(-log p))``."""
    import numpy as np

    theta = np.exp(z)
    with np.errstate(all="ignore"):
        jet = _dw_jet(values, theta[0], theta[1])
        hess = np.tensordot(counts, jet.h, axes=1)
        return _in_logs(theta, -float(counts @ jet.v), -(counts @ jet.g), -hess)


def _pearson_jet(z: np.ndarray, values: np.ndarray, counts: np.ndarray, n: int):
    """Pearson statistic of ``counts`` against ``n`` times the DW pmf, with
    its gradient ``sum((e - o**2/e) * dl)`` and Hessian, in the
    coordinates of :func:`_neg_loglik_jet`; ``l`` is a cell's log-pmf."""
    import numpy as np

    theta = np.exp(z)
    with np.errstate(all="ignore"):
        jet = _dw_jet(values, theta[0], theta[1])
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
        The fitted law in its rate and the attained log-likelihood.  A
        rate too small for ``p`` to be told from one, as on counts past
        100, is fitted; only :attr:`DWFit.params` refuses it.

    Raises
    ------
    ValueError
        On an empty sample, when all observations are equal (the
        likelihood then degenerates towards a boundary point mass), or
        when no DW law attains the supremum.  A sample on two adjacent values
        ``{k, k+1}`` is one with no maximizer: as the shape grows with
        ``lambda*(k+1)**alpha`` held, the DW law tends to any two-point
        law on them, so the supremum is the sample's own frequencies.
    """
    import numpy as np

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
    law, value = _solve_fit(lambda z: _neg_loglik_jet(z, values, counts), start)
    return DWFit(law, -value)


class DWChisqFit(NamedTuple):
    """Minimum-chi-square fit of a DW law with the minimized Pearson
    statistic; ``law`` is the fitted latent Weibull law, in its rate."""

    law: WeibullParams
    chisq: float
    # the law in its survival base, as for the ML fit
    params = DWFit.params


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
        The fitted law in its rate and the attained (minimized) chi-square.

    Raises
    ------
    ValueError
        As :func:`dw_fit_ml` does.
    """
    import numpy as np

    values, counts, n = _distinct_values(data)
    start = _grid_start(
        lambda logpmf: _pearson(counts, n * np.exp(logpmf)),
        values,
        np.linspace(math.log(ALPHA_LO), math.log(ALPHA_HI), 25),
        np.linspace(-6.0, 6.0, 25),
    )
    law, value = _solve_fit(lambda z: _pearson_jet(z, values, counts, n), start)
    return DWChisqFit(law, value)


def _distinct_values(data) -> tuple[np.ndarray, np.ndarray, int]:
    """Distinct values of a count sample, their multiplicities and the sample size."""
    import numpy as np

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
    import numpy as np

    rate = np.logaddexp(0.0, -logit_p)
    with np.errstate(all="ignore"):
        table = _logpmf_arr(values, np.exp(log_alpha)[:, None, None], rate[None, :, None])
        obj = objective(table)
    i, j = np.unravel_index(int(np.argmin(obj)), obj.shape)
    return np.array([log_alpha[i], math.log(rate[j])])


def _solve_fit(fun, start: np.ndarray) -> tuple[WeibullParams, float]:
    """Minimize a DW fit's objective ``fun`` of ``z = (log alpha, log(-log p))``
    from ``start``; return the law at the minimum, in its rate, and the
    minimum value."""
    try:
        z, value = _newton_min(fun, start)
    except _StepCapError as exc:
        raise ValueError(f"no DW law fits this sample best: {exc}") from None
    return WeibullParams(math.exp(z[0]), math.exp(z[1])), value
