"""Continuous and discrete Weibull laws.

The discrete Weibull (DW) distribution places mass ``p**(y**alpha) -
p**((y + 1)**alpha)`` on each non-negative integer ``y``.  It arises as the
integer part of a continuous Weibull lifetime with rate ``lam = -ln(p)``,
which is the representation used throughout this package: survival beyond
``y`` is ``p**(y**alpha)`` with a weak inequality, i.e. ``P(Y >= y)``.
With ``alpha = 1`` the law reduces to the geometric distribution with
success probability ``1 - p``.

Every function of the DW law reads its rate through one conversion,
:func:`_rate`, and takes the law as its survival base (:class:`DWParams`)
or as the continuous Weibull law whose floor it is
(:class:`WeibullParams`).  Both fits run the package's one optimizer,
:func:`_newton_min`: damped Newton steps in log-parameters on exact
derivatives, which the DW log-pmf's jet (:func:`_dw_jet`) supplies.  They
hold the fitted rate, and compute its survival base only on demand,
through :func:`_to_base`.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple, Sequence

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


class SingularDensityError(ValueError):
    """The density is infinite at the requested point.

    Raised for the continuous Weibull density at the origin when the shape
    is below one; the pole is a property of the law, not a numerical
    failure, so it is reported as a distinct signal rather than a float.
    """


class _Record:
    """Base of the package's immutable records.

    A subclass's fields are its own annotated names, in order; a
    class-level value is that field's default.  Construction takes the
    fields by position or keyword and then calls ``__post_init__``, which
    validates and may set a field with ``object.__setattr__``.  Assignment
    and deletion raise ``AttributeError``.  Equality and hashing go by the
    fields, between instances of the same class, unless the class
    statement passes ``eq=False``, which keeps identity.  The repr is
    ``Name(field=value, ...)``.

    The methods are written out once here, so creating a record class
    compiles no generated code.
    """

    _fields: tuple[str, ...]
    _defaults: dict[str, object]

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} arguments but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for field in fields[len(args):]:
            if field in kwargs:
                values[field] = kwargs.pop(field)
            elif field in self._defaults:
                values[field] = self._defaults[field]
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        for key in kwargs:
            problem = "multiple values for" if key in fields else "an unexpected keyword"
            raise TypeError(f"{name}() got {problem} argument {key!r}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(self.__dict__[field] for field in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{field}={self.__dict__[field]!r}" for field in self._fields)
        return f"{type(self).__qualname__}({body})"


class WeibullParams(_Record):
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


class DWParams(_Record):
    """Discrete Weibull law with survival ``p**(y**alpha)``, ``0 < p < 1``.

    ``p = 1`` has no distribution on the integers and is refused; the
    bivariate model's never-failing shared shock is its ``p0 = 1``, and a
    rate too small for its base to differ from 1 is held as a
    :class:`WeibullParams`.
    """

    alpha: float
    p: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"shape must be positive and finite, got {self.alpha}")
        if not 0 < self.p < 1:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")


def _rate(params) -> tuple[float, float]:
    """``(alpha, lambda)`` of a DW law given as its survival base
    (:class:`DWParams`, ``lambda = -ln(p)``) or as its latent Weibull law."""
    if isinstance(params, DWParams):
        return params.alpha, -math.log(params.p)
    return params.alpha, params.lam


def _to_base(name: str, rate: float) -> float:
    """The survival base ``exp(-rate)`` of the rate called ``name``; a
    positive rate below ~1.1e-16 rounds it to 1, and is refused by name."""
    base = math.exp(-rate)
    if base == 1.0 and rate > 0.0:
        raise ValueError(
            f"the rate {name} = {rate:.3g} rounds its survival base "
            f"exp(-{name}) to 1: survival bases cannot hold this law, "
            f"its rates can"
        )
    return base


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


def we_pdf(params: WeibullParams, x: float) -> float:
    """Density of the continuous Weibull law at ``x >= 0``.

    At ``x = 0`` the density is 0 for ``alpha > 1`` and ``lam`` for
    ``alpha = 1``; for ``alpha < 1`` it diverges and
    :class:`SingularDensityError` is raised.  Where ``x**alpha`` passes the
    float range the density is 0.
    """
    if not x >= 0:
        raise ValueError(f"x must be non-negative, got {x}")
    a, lam = params.alpha, params.lam
    if x == 0:
        if a > 1:
            return 0.0
        if a == 1:
            return lam
        raise SingularDensityError("density diverges at 0 for shape below one")
    survival = math.exp(-lam * _power(x, a))
    # a power past the float range leaves no survival, and no density
    return a * lam * _power(x, a - 1.0) * survival if survival > 0 else 0.0


def we_cdf(params: WeibullParams, x: float) -> float:
    """Distribution function ``1 - exp(-lam*x**alpha)`` at ``x >= 0``; 1 past
    the float range."""
    if not x >= 0:
        raise ValueError(f"x must be non-negative, got {x}")
    return -math.expm1(-params.lam * _power(x, params.alpha))


def we_mode(alpha: float, lam: float) -> float:
    """Interior mode ``((alpha-1)/(alpha*lam))**(1/alpha)`` of the density.

    Defined only for ``alpha > 1``; below that the density is decreasing and
    has no interior mode.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"shape must be positive and finite, got {alpha}")
    if alpha <= 1:
        raise ValueError(f"mode requires shape above one, got {alpha}")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"rate must be positive and finite, got {lam}")
    return ((alpha - 1.0) / (alpha * lam)) ** (1.0 / alpha)


def we_sample(params: WeibullParams, rng: np.random.Generator, size=None):
    """Draw from the continuous Weibull law by inversion.

    The uniform deviate lies in [0, 1) on the generator's 53-bit grid, so
    the exponential deviate is finite and a deviate of 0 maps to the value
    0; a very small shape can still power a lifetime past the float range,
    to inf.
    """
    import numpy as np

    u = rng.random(size)
    # -log1p(-u) is an exact Exponential(1) inverse transform on [0, 1).
    e = -np.log1p(-u)
    with np.errstate(over="ignore"):
        x = (e / params.lam) ** (1.0 / params.alpha)
    if size is None:
        return float(x)
    return x


def _count(value, name: str, positive: bool = False) -> int:
    """``value`` as an int, when it is a non-negative (or ``positive``) whole
    number at most ``_MAX_COUNT``: an int, an integral float or a numpy
    integer.  Anything else, an infinity, NaN, a string or a count past
    the int64 range among them, is refused by ``name``."""
    least = 1 if positive else 0
    try:
        whole = value >= least and value == int(value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        what = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a {what} integer, got {value!r}")
    if value > _MAX_COUNT:
        raise ValueError(f"{name} must not exceed the largest count 2**63 - 1, got {value!r}")
    return int(value)


def dw_logpmf(params, y: int) -> float:
    """Natural log of the DW probability mass at the integer ``y >= 0``."""
    return _logpmf_float(float(_count(y, "y")), *_rate(params))


def dw_pmf(params, y: int) -> float:
    """Probability mass ``p**(y**alpha) - p**((y+1)**alpha)`` at the integer ``y >= 0``."""
    return math.exp(dw_logpmf(params, y))


def dw_sf(params, y: float) -> float:
    """Survival ``P(Y >= y) = p**(floor(y)**alpha)`` for real ``y >= 0``.

    The inequality is weak, so ``dw_sf(params, 0) == 1`` and the function is
    constant on each unit cell; at ``y = inf`` it is its limit 0.
    """
    if not y >= 0:
        raise ValueError(f"y must be non-negative, got {y}")
    k = _floor(y)
    if k == 0:
        return 1.0
    alpha, lam = _rate(params)
    return math.exp(-(_power(float(k), alpha) * lam))


# the largest count, 2**63 - 1: every count array is int64
_MAX_COUNT = 2**63 - 1


def _floor_counts(lifetimes) -> np.ndarray:
    """Floors of non-negative lifetimes as int64 counts; a lifetime at or
    past 2**63, or infinite, is refused rather than wrapped to a negative."""
    import numpy as np

    y = np.floor(lifetimes)
    beyond = ~(y < 2.0**63)
    if np.any(beyond):
        raise ValueError(
            f"a drawn lifetime of {y[beyond].flat[0]:.6g} exceeds the largest "
            f"count 2**63 - 1: the law's tail is too heavy to sample"
        )
    return y.astype(np.int64)


def dw_sample(params, rng: np.random.Generator, size=None):
    """Draw from the DW law as the floor of a continuous Weibull lifetime."""
    counts = _floor_counts(we_sample(WeibullParams(*_rate(params)), rng, size=size))
    return int(counts) if size is None else counts


def dw_min_of_n(params: DWParams, n: int) -> DWParams:
    """Law of the minimum of ``n`` independent copies: same shape, ``p**n``."""
    n = _count(n, "n", positive=True)
    return DWParams(params.alpha, params.p**n)


def _floor(y: float) -> float:
    """``floor(y)`` for ``y >= 0``, with ``inf`` kept, where ``math.floor`` raises."""
    return y if y == math.inf else math.floor(y)


def _power(y: float, alpha: float) -> float:
    """``y**alpha`` for ``y >= 0``; ``inf`` past the float range, where the
    float power raises."""
    try:
        return y**alpha
    except OverflowError:
        return math.inf


def _log1mexp(u):
    """``log(1 - exp(-u))`` as ``log(-expm1(-u))``, which keeps full relative
    accuracy for small ``u`` (Mächler 2012, "Accurately computing
    log(1 - exp(-|a|))"); ``-inf`` for ``u <= 0`` and for NaN."""
    import numpy as np

    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(u > 0, np.log(-np.expm1(-u)), -np.inf)


def _log1mexp_float(u: float) -> float:
    """:func:`_log1mexp` of one float, on ``math``: ``log(-expm1(-u))``, and
    ``-inf`` for ``u <= 0`` and for NaN."""
    return math.log(-math.expm1(-u)) if u > 0 else -math.inf


def _logpmf_float(y: float, alpha: float, rate: float) -> float:
    """:func:`_logpmf_arr` at one non-negative integer-valued float, on
    ``math``: ``-rate*t1 + log1mexp(rate*(t2 - t1))`` with ``t1 = y**alpha``
    and ``t2 = (y+1)**alpha``.  A power past the float range gives -inf."""
    t1 = _power(y, alpha)
    return t1 * -rate + _log1mexp_float((_power(y + 1.0, alpha) - t1) * rate)


def _logpmf_arr(y: np.ndarray, alpha: float, rate: float) -> np.ndarray:
    """log pmf of DW(alpha, e**-rate) on an array of non-negative integer values.

    Evaluated as ``-rate*t1 + log1mexp(rate*(t2 - t1))`` with ``t1 =
    y**alpha`` and ``t2 = (y+1)**alpha``, which keeps full relative accuracy
    when the two survival terms nearly cancel (a rate close to 0).  Cells
    whose mass underflows to zero, a power past the float range among
    them, come back as -inf.
    """
    import numpy as np

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        t1 = np.where(y > 0, np.power(y, alpha), 0.0)
        t2 = np.power(y + 1.0, alpha)
        return t1 * -rate + _log1mexp((t2 - t1) * rate)


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
    """Jet of ``-rate * y**alpha`` in ``(alpha, rate)``; ``rate`` is one
    float or one per entry of ``y``."""
    import numpy as np

    ly = np.log(np.where(y > 0, y, 1.0))
    t = y**alpha
    t_a = t * ly
    t_aa = t_a * ly
    h = np.stack([-(rate * t_aa), -t_a, -t_a, np.zeros_like(t)], axis=-1)
    return _Jet(-rate * t, np.stack([-(rate * t_a), -t], axis=-1), h.reshape(t.shape + (2, 2)))


def _log1mexp_jet(u: _Jet) -> _Jet:
    """Jet of ``log(1 - exp(-u))``: its first derivative in ``u`` is
    ``g1 = 1/expm1(u)`` and its second ``-(g1 + g1**2)``."""
    import numpy as np

    g1 = 1.0 / np.expm1(u.v)
    g2 = -(g1 + g1 * g1)
    return _Jet(
        _log1mexp(u.v),
        g1[:, None] * u.g,
        g2[:, None, None] * (u.g[:, :, None] * u.g[:, None, :]) + g1[:, None, None] * u.h,
    )


def _dw_jet(y: np.ndarray, alpha: float, rate) -> _Jet:
    """Jet of the DW log-pmf at ``y`` in ``(alpha, rate)``, the survival base
    being ``exp(-rate)``; ``rate`` is one float or one per entry of ``y``."""
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
