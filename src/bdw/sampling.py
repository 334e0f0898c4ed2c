"""The package's samplers and its seeded stream.

Every sampler draws through one lifetime kernel on ``math``
(:func:`_lifetimes`): ``(-log1p(-u) / lambda) ** (1/alpha)`` of one
``rng.random(n)`` per exposure.  ``rng`` is a numpy ``Generator``, whose
caller gets an array (:func:`_as_drawn`, the samplers' one numpy import),
or :class:`_Stream`, which gives the uniforms of ``default_rng(seed)``
without numpy, and whose caller gets lists.  :func:`we_sample` and
:func:`dw_sample` draw the DW laws of :mod:`bdw.weibull`, read by ``_rate``;
:func:`mobw_sample` draws the latent pair of the joint law, read by
``_rates``, by the shock construction, and :func:`sample` floors it.  Each
takes its law in either form, as does :func:`dw_min_of_n`, the DW law of
the minimum of ``n`` copies, which returns in its base.

Of the commands, only ``simulate`` and ``fit-bayes``, whose generator
(:mod:`bdw.generator`) extends the stream, load this module: ``moments``
and ``pmf-table`` compile none of it.
"""

from __future__ import annotations

import math
from operator import index

from .bivariate import _rates
from .weibull import DWParams, _count, _power, _rate, _to_base

__all__ = ["we_sample", "dw_sample", "dw_min_of_n", "mobw_sample", "sample"]

# SeedSequence's hash and mix constants, and the multiplier of PCG64's
# 128-bit LCG, as numpy writes them
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK53, _MASK64, _MASK128 = 2**32 - 1, 2**53 - 1, 2**64 - 1, 2**128 - 1
# x * _TWICE is x << 64 | x for a 64-bit x: its rotations are windows of it
_TWICE = 2**64 + 1


def _fold(value: int) -> int:
    # a 32-bit product with its high half xor-folded into its low half
    value &= _MASK32
    return value ^ value >> 16


def _seed_words(seed: int) -> list[int]:
    """The four 64-bit words of ``SeedSequence(seed).generate_state(4,
    uint64)``: the seed's 32-bit words, least significant first, hashed
    and mixed into a pool of four, which is then hashed out to eight
    32-bit words, paired little-endian."""
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = _HASH_INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _HASH_MULT_A & _MASK32
        return _fold(value * const)

    def mix(x: int, y: int) -> int:
        return _fold(_MIX_MULT_L * x - _MIX_MULT_R * y)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = _HASH_INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _HASH_MULT_B & _MASK32
        words.append(_fold(value * const))
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _binary_size(size: int) -> str:
    # a byte count in binary units, as numpy's allocation errors give it
    k = min(max(size.bit_length() - 1, 0) // 10, 6)
    return f"{size / 1024**k:.3g} {('bytes', 'KiB', 'MiB', 'GiB', 'TiB', 'PiB', 'EiB')[k]}"


def _at_least(value, name: str, least: int, small: str) -> int:
    """``value`` as a count of at least ``least``: a number below it is
    refused with the message ``small``, an int is taken as it is (one too
    large to hold is refused by its size where it is held), and any other
    value by :func:`bdw.weibull._count`."""
    try:
        below = bool(value < least)
    except (TypeError, ValueError):
        below = False
    if below:
        raise ValueError(small)
    return value if type(value) is int else _count(value, name, positive=least > 0)


def _size(size) -> int:
    # a count of draws; a negative one is refused in numpy's words
    return _at_least(size, "size", 0, "negative dimensions are not allowed")


class _Stream:
    """The uniform stream of ``numpy.random.default_rng(seed)`` for an int
    ``seed >= 0``, on ``int`` arithmetic: ``random(n)`` returns as a list
    the floats that the generator's ``random(n)`` returns, bit for bit, and
    successive calls continue one stream, as the generator's do.

    ``default_rng`` is PCG64 (O'Neill 2014) seeded by numpy's
    ``SeedSequence`` (:func:`_seed_words`): the first two words are the
    initial state and the last two the stream, whose increment is odd.
    Each draw steps the 128-bit LCG, takes its XSL-RR output (the halves'
    xor rotated right by the state's top six bits) and keeps that output's
    top 53 bits, times 2**-53.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int) -> None:
        # numpy's seeds: a Python or numpy integer >= 0, of any size
        try:
            value = index(seed)
        except TypeError:
            value = -1
        if value < 0 or type(seed) is bool:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        w = _seed_words(value)
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
        # numpy's seeding: one step from 0, the initial state added, one more step
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT + self._inc) & _MASK128

    def random(self, n: int) -> list[float]:
        """The next ``n`` uniforms on [0, 1); ``n`` is read by :func:`_size`,
        and a list too long to allocate at once is refused by its size."""
        n = _size(n)
        try:
            out = [0.0] * n
        except (MemoryError, OverflowError):
            raise MemoryError(
                f"Unable to allocate {_binary_size(8 * n)} for a list of {n} uniform draws"
            ) from None
        s, inc, mult, twice, mask128, mask64, mask53 = (
            self._state, self._inc, _PCG_MULT, _TWICE, _MASK128, _MASK64, _MASK53
        )
        for i in range(n):
            s = (s * mult + inc) & mask128
            x = s >> 64 ^ s & mask64
            out[i] = (x * twice >> (s >> 122) + 11 & mask53) * 2.0**-53
        self._state = s
        return out


def _uniforms(rng, size) -> list[float]:
    # the draws of rng.random(size) as one flat list: the stream's own list,
    # or a numpy generator's array converted; without a size, one draw
    u = rng.random(1 if size is None else size)
    return u if isinstance(u, list) else u.ravel().tolist()


def _as_drawn(values: list, rng, size, dtype: str):
    """``values`` in the caller's form: the first for no ``size``, the
    list itself for the stream, and for a numpy generator an array of
    ``dtype`` and shape ``size``, the only place a sampler imports numpy."""
    if size is None:
        return values[0]
    if isinstance(rng, _Stream):
        return values
    import numpy as np

    return np.array(values, dtype).reshape(size)


def _lifetimes(alpha: float, lam: float, u: list[float]) -> list[float]:
    """Weibull lifetimes ``(-log1p(-u) / lam) ** (1/alpha)`` of uniforms
    on [0, 1), the one lifetime kernel of every sampler, on ``math``.
    ``-log1p(-u)`` is an exact Exponential(1) inverse transform there, so
    it is finite and a deviate of 0 maps to the value 0; a very small
    shape can still power a lifetime past the float range, to inf."""
    power = 1.0 / alpha
    log1p = math.log1p
    try:
        return [(-log1p(-v) / lam) ** power for v in u]
    except OverflowError:
        return [_power(-log1p(-v) / lam, power) for v in u]


def _floor_counts(lifetimes: list[float]) -> list[int]:
    """Floors of non-negative lifetimes as counts; the first lifetime at or
    past 2**63, or infinite, is refused by its value, as no count holds it."""
    if lifetimes and not max(lifetimes) < 2.0**63:
        y = next(y for y in lifetimes if not y < 2.0**63)
        raise ValueError(
            f"a drawn lifetime of {y:.6g} exceeds the largest "
            f"count 2**63 - 1: the law's tail is too heavy to sample"
        )
    return list(map(int, lifetimes))


def we_sample(params, rng, size=None):
    """Draw from the continuous Weibull law by inversion (:func:`_lifetimes`).

    ``rng`` is a numpy ``Generator``, whose caller gets an array of shape
    ``size``, or the package's seeded stream (:class:`_Stream`), whose
    caller gets a list; either way ``rng.random`` is read once.  Without a
    size one float is drawn.
    """
    alpha, lam = _rate(params)
    return _as_drawn(_lifetimes(alpha, lam, _uniforms(rng, size)), rng, size, "float64")


def dw_sample(params, rng, size=None):
    """Draw from the DW law as the floor of a continuous Weibull lifetime,
    in the caller's form (:func:`we_sample`): int64 for numpy, ints for
    the stream, one int without a size."""
    counts = _floor_counts(_lifetimes(*_rate(params), _uniforms(rng, size)))
    return _as_drawn(counts, rng, size, "int64")


def dw_min_of_n(params, n: int) -> DWParams:
    """Law of the minimum of ``n`` independent copies: same shape, rate
    ``n * lambda``, the survival base ``p**n``."""
    alpha, lam = _rate(params)
    n = _count(n, "n", positive=True)
    return DWParams(alpha, _to_base("n * lambda", n * lam))


def _shock_lifetimes(rates: tuple, rng, n: int) -> list[float]:
    """``n`` draws of the shared-shock construction's latent pair at ``rates``
    (:func:`bdw.bivariate._rates`), flat ``y1, y2, y1, ...``: one ``rng.random(n)``
    per exposure, lambda1's, lambda2's, then lambda0's where positive, through
    the lifetime kernel, each coordinate the minimum of its own and the shock's."""
    a, l0, l1, l2 = rates
    y1 = _lifetimes(a, l1, _uniforms(rng, n))
    y2 = _lifetimes(a, l2, _uniforms(rng, n))
    if l0 > 0:
        y0 = _lifetimes(a, l0, _uniforms(rng, n))
        y1, y2 = list(map(min, y1, y0)), list(map(min, y2, y0))
    flat = y1 + y2
    flat[::2], flat[1::2] = y1, y2
    return flat


def _as_pairs(flat: list, rng, size, dtype: str):
    # flat row-major pairs in the caller's form (_as_drawn): one
    # tuple without a size, a list of tuples for the stream, else an array
    if size is not None and not isinstance(rng, _Stream):
        return _as_drawn(flat, rng, (len(flat) // 2, 2), dtype)
    pairs = list(zip(flat[::2], flat[1::2]))
    return pairs[0] if size is None else pairs


def mobw_sample(params, rng, size=None):
    """Draw latent pairs through the shared-shock construction.

    With ``size`` given, returns an array of shape (size, 2) for a numpy
    generator and a list of tuples for the seeded stream; otherwise a
    single tuple.  Floors of the output follow the discrete pair law with
    survival bases ``exp(-lambda_i)``.
    """
    n = 1 if size is None else _size(size)
    return _as_pairs(_shock_lifetimes(_rates(params), rng, n), rng, size, "float64")


def sample(params, rng, size=None):
    """Draw pairs by the shock construction: the floors of the latent pair
    :func:`mobw_sample` draws at the law's rates, read in either form.

    With ``size`` given, returns an int64 array of shape (size, 2) for a
    numpy generator and a list of int tuples for the seeded stream;
    otherwise a single tuple.  A lifetime past the int64 range is refused.
    A count at or past 2**53 is the float lifetime itself, so it follows
    the platform's ``log1p`` and ``pow`` in its last unit; the DW fits
    refuse such counts.
    """
    n = 1 if size is None else _size(size)
    counts = _floor_counts(_shock_lifetimes(_rates(params), rng, n))
    return _as_pairs(counts, rng, size, "int64")
