"""The discrete Weibull law and the package's lowest-layer helpers.

The discrete Weibull (DW) distribution places mass ``p**(y**alpha) -
p**((y + 1)**alpha)`` on each non-negative integer ``y``.  It arises as the
integer part of a continuous Weibull lifetime with rate ``lam = -ln(p)``,
which is the representation used throughout this package: survival beyond
``y`` is ``p**(y**alpha)`` with a weak inequality, i.e. ``P(Y >= y)``.
With ``alpha = 1`` the law reduces to the geometric distribution with
success probability ``1 - p``.

Every function of the DW law reads its rate through one conversion,
:func:`_rate`, from the survival base (:class:`DWParams`) or the Weibull
law whose floor it is (:class:`WeibullParams`), and refuses anything else
by name; :func:`_in_bases` refuses rates where only bases serve, and
:func:`_to_base` a base that rounds to 1.  The DW log-mass is written once,
on ``math``, from one power step (:func:`_power_step`, the only place where
``(y+1)**alpha - y**alpha`` is formed) and ``log1mexp`` (:func:`_log_dw`).
This module is the package's lowest layer: it holds the records' base
class, :class:`_Record`, the one count rule, :func:`_as_counts`, and the
one reader of a fraction argument, :func:`_number`, and imports no other
module of the package, nor numpy.  The samplers and the seeded stream live
in :mod:`bdw.sampling`, the continuous Weibull density in :mod:`bdw.mobw`
and the DW fits in :mod:`bdw.univariate`.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from operator import add, eq

__all__ = [
    "SingularDensityError",
    "WeibullParams",
    "DWParams",
    "dw_pmf",
    "dw_logpmf",
    "dw_sf",
]


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
    validates and may set a field with ``object.__setattr__``; when its
    checks meet a field annotated ``float`` that holds no number, the
    ``TypeError`` (or, for a NaN ``Decimal``, the ``ArithmeticError``)
    becomes a ``ValueError`` that names the field.  Assignment
    and deletion raise ``AttributeError``.  Equality and hashing go by the
    fields, between instances of the same class, unless the class
    statement passes ``eq=False``, which keeps identity.  The repr is
    ``Name(field=value, ...)``.

    The methods are written out once here, so creating a record class
    compiles no generated code.
    """

    _fields: tuple[str, ...]
    _floats: tuple[str, ...]
    _defaults: dict[str, object]

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        annotations = cls.__dict__.get("__annotations__", {})
        cls._fields = tuple(annotations)
        cls._floats = tuple(name for name, kind in annotations.items() if kind == "float")
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
        try:
            self.__post_init__()
        except (TypeError, ArithmeticError):
            # a check compared a field that is no number (a NaN Decimal
            # signals): name the first
            for field in self._floats:
                _number(values[field], field)
            raise

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
    """``(alpha, lambda)`` of a DW law given as its survival base (:class:`DWParams`,
    ``lambda = -ln(p)``) or as its latent Weibull law; anything else is refused by name."""
    if isinstance(params, DWParams):
        return params.alpha, -math.log(params.p)
    if isinstance(params, WeibullParams):
        return params.alpha, params.lam
    raise ValueError(f"a DW law must be DWParams or WeibullParams, got {type(params).__name__}")


def _in_bases(params, record: type, read, convert: str) -> None:
    """Refuses ``params`` unless it is a law in survival bases, a ``record``: a
    non-law by its reader ``read``, and a law in rates by name, with the call to convert it."""
    if not isinstance(params, record):
        read(params)
        raise ValueError(
            f"the result is defined on survival bases and takes {record.__name__}, "
            f"got {type(params).__name__}: convert a law in rates with {convert}"
        )


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


def _as_counts(values, least: int = 0) -> list[int] | None:
    """``values`` as ints if each is a whole number at least ``least`` (an int,
    an integral float, a numpy integer), else None: a bool, Python's or numpy's
    (matched once per type), an infinity, NaN, a string or an array is not one."""
    np = sys.modules.get("numpy")  # a numpy bool exists only once numpy is loaded
    bools = bool if np is None else (bool, np.bool_)
    if any(issubclass(t, bools) for t in set(map(type, values))):
        return None
    try:
        ints = list(map(int, values))  # exact, where a cast to int64 would wrap
        return ints if all(map(eq, values, ints)) and min(values) >= least else None
    except (TypeError, ValueError, OverflowError):
        return None


def _count(value, name: str, positive: bool = False) -> int:
    """``value`` as an int, when it is a non-negative (or ``positive``) whole
    number at most ``_MAX_COUNT`` (an int as it is, else :func:`_as_counts`).
    Anything else, a count past the int64 range among them, is refused by ``name``."""
    least = 1 if positive else 0
    if not (value >= least if type(value) is int else _as_counts((value,), least)):
        what = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a {what} integer, got {value!r}")
    if value > _MAX_COUNT:
        raise ValueError(f"{name} must not exceed the largest count 2**63 - 1, got {value!r}")
    return int(value)


def _number(value, name: str):
    """``value`` if it compares with a float, as a number does; anything else,
    a string, ``None`` or a NaN ``Decimal`` (whose comparison signals) among
    them, is refused by ``name``.  The caller checks the range."""
    try:
        value < 0.0
    except (TypeError, ArithmeticError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    return value


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

# the largest bound K of a grid [0, K]^2 that is built, as the (K + 1)^2 table
# of a wider grid does not fit in memory; moments' box and chisq_dw keep it
_MAX_GRID_BOUND = 10_000


def _floor(y: float) -> float:
    """``floor(y)`` for ``y >= 0``, with ``inf`` kept, where ``math.floor`` raises."""
    return y if y == math.inf else math.floor(y)


def _left_sum(xs) -> float:
    """The floats ``xs`` added left to right from 0.0, each sum rounded: what
    ``sum`` computes before Python 3.12, whose ``sum`` compensates, so the
    reports do not depend on the Python version."""
    return reduce(add, xs, 0.0)


def _power(y: float, alpha: float) -> float:
    """``y**alpha`` for ``y >= 0``; ``inf`` past the float range, where the
    float power raises."""
    try:
        return y**alpha
    except OverflowError:
        return math.inf


def _power_step(y: float, alpha: float) -> tuple[float, float]:
    """``t = y**alpha`` at an integer-valued ``y >= 0`` and the step ``d =
    (y+1)**alpha - t``, the package's one difference of powers: ``t *
    expm1(alpha*log1p(1/y))``, exact where the powers nearly cancel, and 1
    at ``y = 0``.  A power past the float range is ``inf``."""
    if y == 0.0:
        return 0.0, 1.0
    t = _power(y, alpha)
    try:
        return t, t * math.expm1(alpha * math.log1p(1.0 / y))
    except OverflowError:
        return t, math.inf


def _log_dw(t: float, d: float, rate: float) -> float:
    """The DW log-mass ``-rate*t + log(-expm1(-rate*d))`` from a power step,
    to full relative accuracy at small ``rate*d`` (Mächler 2012); a mass
    that underflows, a power past the float range among them, gives -inf."""
    u = d * rate
    return t * -rate + (math.log(-math.expm1(-u)) if u > 0.0 else -math.inf)


def _logpmf_float(y: float, alpha: float, rate: float) -> float:
    """The DW log-mass of the rate ``rate`` at an integer-valued float."""
    return _log_dw(*_power_step(y, alpha), rate)
