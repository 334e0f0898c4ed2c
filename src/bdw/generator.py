"""numpy ``Generator``'s scalar draws on the package's seeded stream.

:class:`_Generator` extends :class:`bdw.sampling._Stream`, the uniforms of
``numpy.random.default_rng(seed)`` on ``int`` arithmetic, with the scalar
draws of the Gibbs sweep (:mod:`bdw.fit_bayes`): ``random()``,
``exponential()``, ``gamma(shape, scale)`` and ``binomial(n, p)``.  Each
returns what the numpy generator returns for the same seed and the same
sequence of calls, bit for bit, computed on ``math`` (whose ``exp``,
``log``, ``log1p`` and ``pow`` are the C library's, as numpy's are).

The algorithms are numpy's (``numpy/random/src/distributions``):

- normal and exponential deviates by numpy's 256-layer ziggurats, read
  from one 64-bit output each (Marsaglia & Tsang 2000, J. Stat. Softw. 5:8);
- gamma deviates by Marsaglia & Tsang's squeeze over normals for shape
  above one (2000, ACM TOMS 26:363), by rejection from a power and an
  exponential below one, the exponential itself at one and 0 at zero;
- binomial deviates by inversion where ``n * min(p, 1 - p) <= 30`` and by
  BTPE above (Kachitvichyanukul & Schmeiser 1988, CACM 31:216), each on
  ``min(p, 1 - p)``, the count reflected to ``n - count`` for ``p > 0.5``.

The six ziggurat tables are numpy's own, copied byte for byte from the
``numpy.random._generator`` extension of numpy 2.4.6 (``numpy.random`` is
Copyright (c) 2019 Kevin Sheppard, dual-licensed under the NCSA and
3-Clause BSD licenses): their entries cannot be recomputed in floats,
where the normal's layer-width recurrence gives only 219 of its 256 ``wi``.
"""

from __future__ import annotations

import math
import struct

from .sampling import _MASK53, _MASK64, _MASK128, _PCG_MULT, _TWICE, _Stream

__all__: list[str] = []

# numpy's ziggurat radii: where the normal's base layer and the
# exponential's begin their tails, and the normal's reciprocal
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596
_EXP_R = 7.6971174701310497140446280481


class _Generator(_Stream):
    """:class:`_Stream` with the scalar draws of numpy's ``Generator``:
    ``random()``, ``exponential()``, ``gamma(shape, scale)`` and
    ``binomial(n, p)`` return, call after call, the values that
    ``numpy.random.default_rng(seed)`` returns, bit for bit, for shapes and
    scales that are finite and non-negative, ``n >= 0`` and ``0 <= p <= 1``.
    ``random(n)`` still returns the next ``n`` uniforms as a list."""

    __slots__ = ()

    def random(self, n: int | None = None):
        """The next uniform on [0, 1), or with ``n`` the next ``n`` as a list."""
        if n is not None:
            return super().random(n)
        # one PCG64 step and the top 53 bits of its XSL-RR output, inlined
        # from _Stream.random: the sweep draws most of its values here
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = s >> 64 ^ s & _MASK64
        return (x * _TWICE >> (s >> 122) + 11 & _MASK53) * 2.0**-53

    def _standard_normal(self) -> float:
        # numpy's ziggurat: the low byte picks the layer, the next bit the
        # sign and the 52 above it the abscissa; the base layer's tail is
        # drawn by Marsaglia's exponential pairs; each try reads one whole
        # 64-bit output, the PCG64 step inlined as in random()
        while True:
            s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
            r = (s >> 64 ^ s & _MASK64) * _TWICE >> (s >> 122) & _MASK64
            idx = r & 0xFF
            r >>= 8
            rabs = r >> 1 & 0x000FFFFFFFFFFFFF
            x = rabs * _WI[idx]
            if r & 1:
                x = -x
            if rabs < _KI[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -_NOR_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return -(_NOR_R + xx) if rabs >> 8 & 1 else _NOR_R + xx
            elif (_FI[idx - 1] - _FI[idx]) * self.random() + _FI[idx] < math.exp(-0.5 * x * x):
                return x

    def exponential(self) -> float:
        """A standard exponential deviate, by numpy's ziggurat: bits 3-10
        pick the layer and the 53 above them the abscissa; the base layer's
        tail is the radius plus a fresh deviate by inversion.  Each try reads
        one whole 64-bit output, the PCG64 step inlined as in random()."""
        while True:
            s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
            r = ((s >> 64 ^ s & _MASK64) * _TWICE >> (s >> 122) & _MASK64) >> 3
            idx = r & 0xFF
            r >>= 8
            x = r * _WE[idx]
            if r < _KE[idx]:
                return x
            if idx == 0:
                return _EXP_R - math.log1p(-self.random())
            if (_FE[idx - 1] - _FE[idx]) * self.random() + _FE[idx] < math.exp(-x):
                return x

    def gamma(self, shape: float, scale: float = 1.0) -> float:
        """A gamma deviate of ``shape`` and ``scale``: ``scale`` times a
        standard one, as numpy scales it."""
        if shape == 1.0:
            return scale * self.exponential()
        if shape == 0.0:
            return scale * 0.0
        log = math.log
        if shape < 1.0:
            # below one: U**(1/shape) against an exponential on [0, 1 - shape],
            # a transformed exponential tail above
            while True:
                u = self.random()
                v = self.exponential()
                if u <= 1.0 - shape:
                    x = u ** (1.0 / shape)
                    if x <= v:
                        return scale * x
                else:
                    y = -log((1 - u) / shape)
                    x = (1.0 - shape + shape * y) ** (1.0 / shape)
                    if x <= v + y:
                        return scale * x
        b = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9 * b)
        while True:
            while True:
                x = self._standard_normal()
                v = 1.0 + c * x
                if v > 0.0:
                    break
            v = v * v * v
            u = self.random()
            if u < 1.0 - 0.0331 * (x * x) * (x * x):
                return scale * (b * v)
            # log(0) is -inf in C, where the comparison accepts
            if u == 0.0 or log(u) < 0.5 * x * x + b * (1.0 - v + log(v)):
                return scale * (b * v)

    def binomial(self, n: int, p: float) -> int:
        """A binomial deviate of ``n`` trials of success probability ``p``."""
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            if p * n <= 30.0:
                return self._binomial_inversion(n, p)
            return self._binomial_btpe(n, p)
        q = 1.0 - p
        if q * n <= 30.0:
            return n - self._binomial_inversion(n, q)
        return n - self._binomial_btpe(n, q)

    def _binomial_inversion(self, n: int, p: float) -> int:
        # the count whose cumulative mass first passes a uniform, the mass
        # stepped by its ratio; a count past ten deviations restarts
        q = 1.0 - p
        qn = math.exp(n * math.log(q))
        mean = n * p
        bound = mean + 10.0 * math.sqrt(mean * q + 1)
        bound = int(n if n < bound else bound)
        x = 0
        px = qn
        u = self.random()
        while u > px:
            x += 1
            if x > bound:
                x = 0
                px = qn
                u = self.random()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _binomial_btpe(self, n: int, p: float) -> int:
        # Kachitvichyanukul & Schmeiser's BTPE with numpy's constants and
        # operation order: a triangle, two parallelograms and two
        # exponential tails majorize the mass; steps 10-60 are the paper's
        log, floor = math.log, math.floor
        r = min(p, 1.0 - p)
        q = 1.0 - r
        fm = n * r + r
        m = floor(fm)
        p1 = floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl = xm - p1
        xr = xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * r)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        nrq = n * r * q
        while True:
            # step 10: the triangle's region accepts at once
            u = self.random() * p4
            v = self.random()
            if u <= p1:
                return floor(xm - p1 * v + u)
            if u <= p2:
                # step 20: the parallelograms
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = floor(x)
            elif u <= p3:
                # step 30: the left tail; v = 0 is refused before its log
                if v == 0.0:
                    continue
                y = floor(xl + log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:
                # step 40: the right tail
                if v == 0.0:
                    continue
                y = floor(xr - log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            # step 50: near the mode, the mass ratio by recursion
            k = abs(y - m)
            if not (k > 20 and k < nrq / 2.0 - 1):
                s = r / q
                a = s * (n + 1)
                f = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        f *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        f /= a / i - s
                if v > f:
                    continue
                return y
            # step 52: far from it, squeezes and then Stirling's bounds; a
            # v at or below 0 has log -inf or NaN in C, which accepts
            if v <= 0.0:
                return y
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = -k * k / (2 * nrq)
            big_a = log(v)
            if big_a < t - rho:
                return y
            if big_a > t + rho:
                continue
            x1 = y + 1.0
            f1 = m + 1.0
            z = n + 1.0 - m
            w = n - y + 1.0
            bound = (
                xm * log(f1 / x1)
                + (n - m + 0.5) * log(z / w)
                + (y - m) * log(w * r / (x1 * q))
                + _stirling(f1) + _stirling(z) + _stirling(x1) + _stirling(w)
            )
            if big_a > bound:
                continue
            return y


def _stirling(x: float) -> float:
    # the BTPE bound's Stirling correction term at x, in numpy's order and with
    # numpy's 13680 where Stirling's series has 13860, so BTPE gives numpy's bits
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


# numpy's ziggurat tables, each as its 2048 little-endian bytes: the layer
# widths wi (doubles), the acceptance bounds ki (uint64) and the density at
# each layer's edge fi (doubles), for the normal, then the same for the
# exponential (we, ke, fe)


def _table(code: str, hex_bytes: str) -> tuple:
    return struct.unpack(f"<256{code}", bytes.fromhex(hex_bytes))


_WI = _table("d", (
    "79d915783b49cf3cc6f6fde30b8d8b3cb45b2c3caf50923c613b4438b97c953c0ca72fe8fc01983c"
    "bcd04c2e0c239a3cf761382f4d009c3c7472745a2fac9d3cc3d54c2d48329f3cadbb8e27324da03c"
    "435d023b05f5a03c77364197a692a13cf51a7a8fa227a23c80d863382eb5a23cf59157c03f3ca33c"
    "2fb1a2c19ebda33c559bff8def39a43ca7fe3d36bbb1a43c74d31a627525a53c96ce07a78095a53c"
    "ea7ed9cf3102a63c3d7ca361d26ba63c70050092a2d2a63ca6f846d3da36a73c772ab310ad98a73c"
    "43f546ad45f8a73c770a4353cc55a83c9a767b9e64b1a83c98cf4ea92e0ba93cea1e2c824763a93c"
    "46c5388ec9b9a93c2ca7a4dccc0eaa3c59cd776d6762aa3c3016106eadb4aa3c9c6c136db105ab3c"
    "297a42878455ab3c3a9f528e36a4ab3c3282bf2ad6f1ab3cf34e59f9703eac3c613b32a5138aac3c"
    "8b2672fec9d4ac3c48b7800e9f1ead3c101fe4299d67ad3cc3b82300ceafad3c5376f1a93af7ad3c"
    "feedd2b5eb3dae3c006f7a33e983ae3cce82f9bd3ac9ae3c2662f084e70daf3c88f6d854f651af3c"
    "aed7879e6d95af3cac2efa7d53d8af3cec3442e0560db03c9a8f39f5402eb03cfca5169eea4eb03c"
    "10a0725b566fb03c0bf47190868fb03c1361bc847dafb03c7fcc4b663dcfb03c6b08164bc8eeb03c"
    "ee159532200eb13cbe0f3107472db13c41918e9f3e4cb13c1e20c4bf086bb13c34da781aa789b13c"
    "886dee511ba8b13ccb2af8f866c6b13c2ed4e0938be4b13c9fa040998a02b23ce9c6c4726520b23c"
    "1fc3e97d1d3eb23cfb6ba90cb45bb23c7fd31d662a79b23c1bd719c78196b23cda2eb862bbb3b23c"
    "53b8e162d8d0b23c8ea9cbe8d9edb23cd7486e0dc10ab33c30b9f4e18e27b33ca15e26704444b33c"
    "d552cabae260b33c6a5805be6a7db33c64b2b26fdd99b33c033db8bf3bb6b33ce01d569886d2b33c"
    "835a72debeeeb33c749ee071e50ab43c5d74a62dfb26b43ca4303ce80043b43c5dc7ca73f75eb43c"
    "36c3669edf7ab43c2f8f4832ba96b43c5d4102f687b2b43cdc11b3ac49ceb43c05a6381600eab43c"
    "62555eefab05b53c5a8b0af24d21b53c4f666ad5e63cb53cc8b21b4e7758b53c785f550e0074b53c"
    "14850ec6818fb53c591b2423fdaab53c3d737dd172c6b53cd38c2f7be3e1b53c385e9fc84ffdb53c"
    "c31fa360b818b63ca2b0a2e81d34b63c0b26b704814fb63c7296c957e26ab63c3731b1834286b63c"
    "b1b25029a2a1b63cbb43b3e801bdb63c52d3286162d8b63c54f86131c4f3b63ceb688bf7270fb73c"
    "c61469518e2ab73cdcee70dcf745b73c1f73e5356561b73c49f4effad67cb73c93bdbac84d98b73c"
    "09148b3ccab3b73cfb22dbf34ccfb73ce7de738cd6eab73c1fea86a46706b83c7686c8da0022b83c"
    "159f89cea23db83cbdf5d11f4e59b83cc57e7a6f0375b83c2df7475fc390b83c43c005928eacb83c"
    "9c0ca1ab65c8b83c276a445149e4b83c8fb573293a00b93c478328dc381cb93cfc0aef124638b93c"
    "8aa203796254b93ceed570bb8e70b93c312a2e89cb8cb93cbf993f9319a9b93c2cd9d58c79c5b93c"
    "11746f2bece1b93c4ad2fa2672feb93c9236f9390c1bba3c5bc8a221bb37ba3c88bb0b9e7f54ba3c"
    "a4a94a725a71ba3c3d31a0644c8eba3c08f19f3e56abba3ccef55acd78c8ba3c36b38be1b4e5ba3c"
    "1aa1c34f0b03bb3c5b989af07c20bb3c000ce0a00a3ebb3c033dce41b55bbb3c27893fb97d79bb3c"
    "3cf7e5f16497bb3c6e2585db6bb5bb3ca2c02e6b93d3bb3c83ae819bdcf1bb3ca016ec6c4810bc3c"
    "2d7af0e5d72ebc3c1c0d6e138c4dbc3c0587ec08666cbc3c17a6ebe0668bbc3caba236bd8faabc3c"
    "90d63bc7e1c9bc3c37e068305ee9bc3c6e8f8b320609bd3c20ef3710db28bd3c47c63315de48bd3c"
    "23f1e7961069bd3ca5fbd7f47389bd3c706e209909aabd3c0e49fcf8d2cabd3c372e5295d1ebbd3c"
    "1cd249fb060dbe3cf646eac4742ebe3c88d1c1991c50be3c25fe972f0072be3c0abf2a4b2194be3c"
    "086ff7c081b6be3c3aa7107623d9be3ca9ec016108fcbe3c2153c28a321fbf3c6d4db70fa442bf3c"
    "6801c9205f66bf3c82978904668abf3cbf227118bbaebf3c85e72fd260d3bf3c0bf618c159f8bf3c"
    "75a0d347d40ec03c47c98f02a821c03cab02a983a934c03cc7f53e4eda47c03c7eb3adf63b5bc03c"
    "6826a723d06ec03c172e638f9882c03c54a2e8089796c03cc4c07175cdaac03c48d4eed13dbfc03c"
    "303daa34ead3c03c936511cfd4e8c03cb69fa6effffdc03c417020046e13c13c355dbb9b2129c13c"
    "6d09c4691d3fc13c3b2e60486455c13cf3ee9d3bf96bc13c6112d274df82c13caceb4e561a9ac13c"
    "8e2f7f77adb1c13c94a671a99cc9c13c39aee4fbebe1c13c01d9e2c29ffac13c81cc049dbc13c23c"
    "eed36f7a472dc23c249caca44547c23ce05876c7bc61c23c2e59a8fab27cc23c780e77cd2e98c23c"
    "520a2a5337b4c23c97db9631d4d0c23cf578a9b10deec23ceeae56d2ec0bc33ca3a4685e7b2ac33c"
    "a312ae05c449c33c40a8337ad269c33c0a415692b38ac33cfa88ae7075acc33ca60417b327cfc33c"
    "75f460aadbf2c33cdae5b99ca417c43c945e5415983dc43c153aa744ce64c43cbc439c75628dc43c"
    "275a6b9d73b7c43c0289cd0d25e3c43c41ace9539f10c53c427e3a521140c53c1be44aa9b171c53c"
    "d98d718bc0a5c53cfed03a248adcc53c4c1e86cf6916c63cea6a007bce53c63cc3e59fbe4095c63c"
    "32e2098d6bdbc63c347a5ff02827c73c730609569579c73c8cced6f42dd4c73c34f229050339c83c"
    "147caabf0fabc83c96446f94e02ec93cab574001eecbc93c5a779478dc8fca3cb1fd78381f98cb3c"
    "33ad0982b43bcd3c"
))
_KI = _table("Q", (
    "6aef25803df30e000000000000000000a8c6fb98be080c004281bdfa54a30d00eaeec17ef6510e00"
    "7ef7d3e955b20e00b9ca7e814bef0e00aa44fa0a47190f0018cbff61ed370f005c256195464f0f00"
    "96a31be4a5610f00a49653757a700f009a4428ecb27c0f00d357630cf1860f00de258357a68f0f00"
    "dad04dc724970f0009f5db07a99d0f0074fa81f560a30f00f84b5bde6fa80f00dc54d360f1ac0f00"
    "0fb91867fbb00f00c674538d9fb40f0077fe6623ecb70f000ee5a1e9ecba0f00ed0b049dabbd0f00"
    "576cff6030c00f0048a2371082c20f00d15be27aa6c40f0031ee7a97a2c60f00a49628a97ac80f00"
    "85de4b5e32ca0f001a2302e9cccb0f00c439f8124dcd0f0099ec8f4db5ce0f0030c91dbf07d00f00"
    "e6c4d64d46d10f0050f4e2a872d20f001ec9f04f8ed30f0078b490999ad40f00530f92b898d50f00"
    "ec998ec089d60f0032e8c8a96ed70f00e8087b5448d80f008c2cad8b17d90f00d2ada707ddd90f00"
    "8c5e107099da0f00202ec05d4ddb0f00d0fc5b5cf9db0f007d9ab9eb9ddc0f009d7218813bdd0f00"
    "902f3488d2dd0f00649f366463de0f004e518d70eede0f002eb4a60174df0f0040ed9965f4df0f00"
    "f224bce46fe00f0058a225c2e6e00f004cb8283c59e10f00993fbc8cc7e10f00aa1cdbe931e20f00"
    "911bda8598e20f008641b58ffbe20f004a8d55335be30f002a00d099b7e30f007fad9ee910e40f00"
    "3477d44667e40f005c094cd3bae40f002495d2ae0be50f0078bc4ef759e50f001212e4c8a5e50f00"
    "8986133eefe50f007810d96f36e60f0078d5c6757be60f00aa111e66bee60f00f2f4e555ffe60f00"
    "02a700593ee70f00399e3e827be70f00a27070e3b6e70f004342778df0e70f008cf0539028e80f00"
    "3a1735fb5ee80f00640884dc93e80f00bccef041c7e80f00f64e7d38f9e80f001d9b87cc29e90f00"
    "ea88d30959e90f00a29a93fb86e90f00664871acb3e90f00d5b69426dfe90f007ce6ab7309ea0f00"
    "a466f19c32ea0f002c9532ab5aea0f001a74d5a681ea0f00f01cde97a7ea0f0020d9f385ccea0f00"
    "3ce66578f0ea0f0013ec2f7613eb0f004a2afe8535eb0f00b46231ae56eb0f00fa84e2f476eb0f00"
    "1420e65f96eb0f007c9dcff4b4eb0f00d049f4b8d2eb0f003e2e6eb1efeb0f00e8bd1ee30bec0f00"
    "155ab15227ec0f00d3af9d0442ec0f0096f129fd5bec0f00f4ee6c4075ec0f00b40c50d28dec0f00"
    "121f91b6a5ec0f00fe27c4f0bcec0f0015fb5484d3ec0f00b3c88874e9ec0f00b7917fc4feec0f00"
    "2885357713ed0f000349848f27ed0f004c2f24103bed0f006e58adfb4ded0f00ddc3985460ed0f00"
    "e84f411d72ed0f0082a9e45783ed0f00c82ca40694ed0f0004b7852ba4ed0f00b46a74c8b3ed0f00"
    "526641dfc2ed0f00526ea471d1ed0f00d38a3c81dfed0f008099900feded0f0014d40f1efaed0f00"
    "c44b12ae06ee0f00065ad9c012ee0f00e00690571eee0f0024654b7329ee0f00bce40a1534ee0f00"
    "3c9bb83d3eee0f00f48229ee47ee0f0086b01d2751ee0f00417f40e959ee0f002eb4283562ee0f00"
    "f197580b6aee0f007a073e6c71ee0f00827b325878ee0f00ba067bcf7eee0f00b24a48d284ee0f00"
    "4363b6608aee0f0051c8cc7a8fee0f00da257e2094ee0f00ea29a85198ee0f005c48130e9cee0f00"
    "f47372559fee0f00aecc6227a2ee0f00ac426b83a4ee0f00712dfc68a6ee0f00fad66ed7a7ee0f00"
    "0afa04cea8ee0f003b33e84ba9ee0f0010642950a9ee0f005e07c0d9a8ee0f00547689e7a7ee0f00"
    "241d4878a6ee0f00839ea28aa4ee0f00dae4221da2ee0f002420352e9fee0f002eaf26bc9bee0f00"
    "e4f224c597ee0f003a0a3c4793ee0f00167555408eee0f007a9c36ae88ee0f00fd3d7f8e82ee0f00"
    "88b8a7de7bee0f00ff37ff9b74ee0f005ebda9c36cee0f007e009e5264ee0f008828a3455bee0f00"
    "b6574e9951ee0f00cf06004a47ee0f00502ce1533cee0f00d82ae0b230ee0f000582ad6224ee0f00"
    "5a3cb85e17ee0f0047142aa209ee0f00cc49e327fbed0f006c2176eaebed0f007e0422e4dbed0f00"
    "d339ce0ecbed0f00f42c0464b9ed0f00c938e9dca6ed0f008de9377293ed0f0036a8381c7fed0f00"
    "2bc0b9d269ed0f0000ae068d53ed0f0022a4de413ced0f00d82f6ae723ed0f0044e62f730aed0f00"
    "34fe07daefec0f00b8b70e10d4ec0f00b46e9508b7ec0f00c13012b698ec0f0078a90d0a79ec0f00"
    "fe310ff557ec0f0062c9866635ec0f0035b3b44c11ec0f00d06f8e94ebeb0f0092b6a029c4eb0f00"
    "dc0ceef59aeb0f004285c9e16feb0f009e1fadd342eb0f004b2d0bb013eb0f00e9021a59e2ea0f00"
    "572299aeaeea0f0026e38e8d78ea0f00e573fdcf3fea0f00f6d98d4c04ea0f003b562fd6c5e90f00"
    "a447a93b84e90f0028471d473fe90f00d6c576bdf6e80f00e6e8c45daae80f00eab17ae059e80f00"
    "40a990f604e80f00c0338248abe70f00a56a1f754ce70f0002a22a10e8e60f00d8abb6a07de60f00"
    "7e30389f0ce60f0042f7387394e50f008072977014e50f0058f436d48be40f00371efdbff9e30f00"
    "9cb1ee355de30f00fee42f12b5e20f005755990300e20f00148378823ce10f00b067eec468e00f00"
    "aa712bb082df0f00aafe7ec587de0f00fd3bc60975dd0f0013bf29e546dc0f0082022ef8f8da0f00"
    "75bab2e185d90f0004cf48efe6d70f000b65bdad13d60f0012f0e24901d40f00acc7b4a7a1d10f00"
    "9e1f7604e2ce0f00b2115ed8a8cb0f00222dcd6ed2c70f00ed221e2f2bc30f003ab8c08165bd0f00"
    "345400c406b60f0074282a5840ac0f009845011e979e0f00fc1da448fa890f002c30f0f7c5660f00"
    "4a1c334b5a1a0f00"
))
_FI = _table("d", (
    "000000000000f03f87f079c96a44ef3f15a96c5b54b7ee3f77f027e0113fee3f95de04a76fd3ed3f"
    "f2bc57069270ed3fdc19a1784914ed3feb2da7a833bdec3f7f78a9ce5e6aec3feabaeed91c1bec3f"
    "82dce14eebceeb3f52f58f3a6585eb3f10dd34823a3eeb3fa2e86c3f2af9ea3f04257af1feb5ea3f"
    "e1c950d58b74ea3f0faff5fdaa34ea3fd81f65ee3bf6e93f8106248d22b9e93fc17a6157467de93f"
    "477a1bc29142e93f4f7131bdf108e93fa80ae64f55d0e83f02dfba48ad98e83facbc37fceb61e83f"
    "6ecf560f052ce83fcbe2204bedf6e73f58689c779ac2e73fd5b0a03c038fe73f56d870071f5ce73f"
    "126d3ff4e529e73fee7aeaba50f8e63f895a639e58c7e63f2a3b515ef796e63f23e3922a2767e63f"
    "180c5598e237e63f652680982409e63f6aff4a6fe8dae53f895cc8ac29ade53f8f8d4c26e47fe53f"
    "469e8df01353e53fd56c655ab526e53f67b620e8c4fae43fc04e494f3fcfe43f7852dc7221a4e43f"
    "1250df5f6879e43f7936494a114fe43fe35f358a1925e43f825b58997efbe33fa331af103ed2e33f"
    "0ecd62a655a9e33fd500da2bc380e33fe950f58b8458e33f353a70c99730e33fef3864fdfa08e33f"
    "ee3bea55ace1e23f4a95d714aabae23f15cd938ef293e23fed040529846de23f84db905a5d47e23f"
    "f2f72fa97c21e23f209692a9e0fbe13f699954fe87d6e13f11d13f5771b1e13f503c9b709b8ce13f"
    "da3986120568e13f9ca95e10ad43e13f381f3148921fe13f135932a2b3fbe03fa042411010d8e03f"
    "aed9708da6b4e03f815d991d7691e03f363cf0cc7d6ee03f2e3fa6afbc4be03f2a828be13129e03f"
    "c4cab885dc06e03fa1bd7b8c77c9df3fca00a9a79d85df3ff37a2fcb2942df3f958f7e711affde3f"
    "541fbd206ebcde3fc5c34e6a237ade3f859b5fea3838de3f093a7647adf6dd3fb1560b327fb5dd3f"
    "33de2664ad74dd3f801002a13634dd3f6d5baeb419f4dc3f48a8c07355b4dc3fc7d700bbe874dc3f"
    "b82c1d6fd235dc3f176a617c11f7db3f916d71d6a4b8db3f1b1307788b7adb3fca31b362c43cdb3f"
    "5285a19e4effda3f9e5a5f3a29c2da3f80d8a44a5385da3f4dc020eacb48da3f3e844639920cda3f"
    "df931e5ea5d0d93fc6c018840495d93f939fe0dbae59d93f17cb339ba31ed93f15f1b9fce1e3d83f"
    "8891de3f69a9d83fb65aaca8386fd83fd90daa7f4f35d83f11d9b811adfbd73fb014f4af50c2d73f"
    "eb5292af3989d73fedb1c7696750d73f4c61a93bd917d73faa4c12868edfd63f21de88ad86a7d63f"
    "e2cb251ac16fd63f15e57b373d38d63fc8d28074fa00d63f44c27643f8c9d53fbeeed6193693d53f"
    "00013d70b35cd53fed3b53c26f26d53f926dbf8e6af0d43fa29c1057a3bad43fd46aad9f1985d43f"
    "fe24c3efcc4fd43f197a35d1bc1ad43fdbd28ed0e8e5d33fae43f17c50b1d33f79130868f37cd33f"
    "9ed1f925d148d33f2ff65a4de914d33f660721773be1d23fdd3f963ec7add23f1eb14d418c7ad23f"
    "89de171f8a47d23f9eccf779c014d23f168118f62ee2d13f50f0c239d5afd13fe85454edb27dd13f"
    "67ee34bbc74bd13f2324cf4f131ad13fc409875995e8d03fda42b2884db7d03f3643908f3b86d03f"
    "d9e942225f55d03f7e74c7f6b724d03fc593df898be8cf3f3532b88c1088cf3fd298e96cfe27cf3f"
    "449cc9a454c8ce3fdd3c28b21269ce3f84714516380ace3f0a90c755c4abcd3f4f51b2f8b64dcd3f"
    "cc6f5e8a0ff0cc3f53df7199cd92cc3f479dd8b7f035cc3fa118be7a78d9cb3faa31877a647dcb3f"
    "3ad1cc52b421cb3f071857a267c6ca3f7e26190b7e6bca3f3d7e2d32f710ca3f5afed2bfd2b6c93f"
    "277c6a5f105dc93f69fa74bfaf03c93f5b819291b0aac83f389a818a1252c83f75711f62d5f9c73f"
    "23a368d3f8a1c73fa6b57a9c7c4ac73f1647967e60f3c63f5cf2213ea49cc63f9cf1ada24746c63f"
    "f983f8764af0c53f6c1df388ac9ac53f3568c8a96d45c53fc11fe3ad8df0c43f2dcef56c0c9cc43f"
    "d57503c2e947c43fae31698b25f4c33feed7e8aabfa0c33f88abb405b84dc33f652a7c840efbc23f"
    "1a077a13c3a8c23fb75e83a2d556c23f343c18254605c23f427d759214b4c13f632da8e54063c13f"
    "b96ea21dcb12c13fba09523db3c2c03f85bfb84bf972c03f2a7d06549d23c03f2c226bcb3ea9bf3f"
    "1c0e5229ff0bbf3f4ba59af27b6fbe3f8fe87661b5d3bd3fe591bdb9ab38bd3f0a743b495f9ebc3f"
    "15100b68d004bc3f33e2f278ff6bbb3f33f6cae9ecd3ba3f8662ea33993cba3f195b9ddc04a6b93f"
    "aba0a4753010b93f5228bf9d1c7bb83fd6ef3e01cae6b73f7611aa5a3953b73f4c4a69736bc0b63f"
    "184d8524612eb63fa46674571b9db53fae2bfa069b0cb53f13221b40e17cb43f869a2623efedb33f"
    "703ed9e4c55fb33f11319bcf66d2b23f910ddd44d345b23f7d8997be0cbab13f9d17f2d0142fb13f"
    "2596152ceda4b03f97e4309e971bb03f356e6c2b2c26af3f8151b247d516ae3f62f1adfe2e09ad3f"
    "2c2a280f3efdab3f705f389007f3aa3f635529f990eaa93fabb5682ae0e3a83f1e27af77fbdea73f"
    "64d098b3e9dba63fd4adf23cb2daa53f5d27110e5ddba43fcbee98cef2dda33f97f43de87ce2a23f"
    "bc6a1f9f05e9a13f1180962e98f1a03fc4a518d781f89f3f758c82db1a129e3f1a09cd8319309c3f"
    "f8eb224e9f529a3f0ac100b6d179983f82bf0bf4daa5963f64b0fbf2ead6943f135eab8d380d933f"
    "123060340349913f49dd724f2a158f3fac8f4f278da48b3f78a48d0d0441883fe0cf1a4296eb843f"
    "922f952992a5813f3768ecf860e17c3f5db80cd9a89e763ffdb1b0031f8a703f67b0c1439f5f653f"
    "0ff7b9b605a6543f"
))
_WE = _table("d", (
    "c15dbf94ec64d13c19415d8b9d58603c2b4d5b49b2d66a3cba8d5ba93593713c732a4ae5e622753c"
    "807ac2fb9050783cccb779efd1387b3c98bd6db7d8ec7d3c3c5cc649f03b803c70f6d624db70813c"
    "3326da900298823cca6e3dfe88b3833c21fe0bc615c5843cc34a029df8cd853cbd2ba7f040cf863c"
    "19d017dacdc9873c6f60d35459be883cd237225580ad893c03525dbec8978a3cc4a3dddda57d8b3c"
    "893f8cd77b5f8c3c367cf14da23d8d3c5a73f17866188e3caa4f5fcf0cf08e3c0932685dd2c48f3c"
    "58756aed764b903cfc809b4748b3903caff54987f319913ca0df4beb8c7f913ce7493ee926e4913c"
    "2eff3865d247923c0b6823e19eaa923c4bda26a59a0c933c02826de2d26d933ca06221d153ce933c"
    "486770ca282e943c12e7355f5c8d943c930bcd6bf8eb943c4d6f7829064a953cfdbeb83d8ea7953c"
    "cf2eddc79804963ce0680c6d2d61963c44a9fa6253bd963cbb9079791119973c737907236e74973c"
    "72817e7c6fcf973c99d5fe531b2a983cece12b2f7784983c2ac5d05088de983c44a2fdbd5338993c"
    "3813ad42de91993cbf03ff752ceb993c4a8814be42449a3c61d29653259d9a3cc924f244d8f59a3c"
    "9b974c795f4e9b3c898f3fb3bea69b3c99fe5993f9fe9b3c9fd2709a13579c3cdb5ac22b10af9c3c"
    "fbe6f08ef2069d3c8d6bd8f1bd5e9d3c5790426a75b69d3cfe317cf71b0e9e3c4410cf83b4659e3c"
    "621be2e541bd9e3c9f9402e2c6149f3cb5fe572b466c9f3ca1a90465c2c39f3cd93c9a119f0da03c"
    "62b10df65d39a03cf876721c1f65a03c72004bbbe390a03c37017103adbca03c662f7a207ce8a03c"
    "15ac17395214a13cbe7d706f3040a13cfb7f77e1176ca13c96233da90998a13c83523ddd06c4a13c"
    "e2c4a99010f0a13c050eb1d3271ca23c29a3c2b34d48a23c9f18d03b8374a23caacd8b74c9a0a23c"
    "5d3ba56421cda23c211703118cf9a23c1176fb7c0a26a33ca11b8aaa9d52a33cf01a859a467fa33c"
    "fcefcf4c06aca33c6d338dc0ddd8a33cc4094ff4cd05a43cd06c46e6d732a43ca76c7194fc5fa43c"
    "c483c8fc3c8da43ca4186b1d9abaa43cea45cbf414e8a43cfb00d981ae15a53cf8b52cc46743a53c"
    "276f31bc4171a53cf99c4e6b3d9fa53c359311d45bcda53c26cf56fa9dfba53c2e1a73e3042aa63c"
    "8c9b5c969158a63ceeebd31b4587a63cdf3c8d7e20b6a63c08a659cb24e5a63cfba950115314a73c"
    "1c04fa61ac43a73c30d177d13173a73c0a24b176e4a2a73cf7177d6bc5d2a73c7772ceccd502a83c"
    "2ae6dfba1633a83ce70861598963a83c540fa4cf2e94a83c9460cc4808c5a83c1315fef316f6a83c"
    "e1738e045c27a93c8a8235b2d858a93cf4bb40398e8aa93c5d03c7da7dbca93c51e9dddca8eea93c"
    "2d59d08a1021aa3c90c65635b653aa3c0ff3d0329b86aa3c7a6581dfc0b9aa3cffacca9d28edaa3c"
    "b58b6ed6d320ab3c4225cff8c354ab3cb64f327bfa88ab3c102607db78bdab3c85fd2d9d40f2ab3c"
    "2de0424e5327ac3ca4b1ea82b25cac3cfb2323d85f92ac3c6ca595f35cc8ac3c8071ed83abfeac3c"
    "adf230414d35ad3cfea31eed436cad3c0aa58d5391a3ad3c7f35d24a37dbad3c9b5026b43713ae3c"
    "52a4167c944bae3c7f23f49a4f84ae3c78764a156bbdae3c68915bfce8f6ae3c7fbca06ecb30af3c"
    "d05e5198146baf3ce5e1efb3c6a5af3cd809dd0ae4e0af3cd411f97a370eb03c1b3911ef342cb03c"
    "a324929e6b4ab03cdb2611cfdc68b03c0fad3acf8987b03c19c833f773a6b03c6f9400a99cc5b03c"
    "b7cfef5005e5b03cceef0b66af04b13c4a15926a9c24b13c2b3a6feccd44b13cc104c4854565b13c"
    "9eae6fdd0486b13c2078a2a70da7b13c5a2a78a661c8b13c70339baa02eab13ca2f4f093f20bb23c"
    "50e54f52332eb23cba3b40e6c650b23ca6dac761af73b23c2b5342e9ee96b23c51db45b487bab23c"
    "702d960e7cdeb23c65592659ce02b33cd0a72a0b8127b33c65c93bb3964cb33c56a88cf81172b33c"
    "4351349cf597b33c838b8d7a44beb33cd0dead8c01e5b33cadeef5e92f0cb43cf842bdc9d233b43c"
    "2cc91b85ed5bb43c3294d3988384b43c4ca15da798adb43c27b11c7b30d7b43c0895b9084f01b53c"
    "b2aaac71f82bb53c5aa7f8063157b53c61441b4cfd82b53c07e138fa61afb53c9ebd880364dcb53c"
    "79180897080ab63c942e7b245538b63c32f4c3604f67b63cee48974afd96b63c1e7b9a2f65c7b63c"
    "0725f4b18df8b63c18d25cce7d2ab73cc371bde23c5db73cf9716bb5d290b73cd376147d47c5b73c"
    "12146ee9a3fab73cc3bec02cf130b83c427368063968b83cab5b69ce85a0b83c95363b82e2d9b83c"
    "4475f3d25a14b93c0e2afc34fb4fb93cd81a8df1d08cb93cead9243aeacab93c78f1493e560aba3c"
    "3b4ce843254bba3cea86adc2688dba3cc445d88233d1ba3c0ab603c09916bb3c0fea9150b15dbb3c"
    "5eda76d291a6bb3c77ef4bde54f1bb3ca7e0c241163ebc3cf4c8c842f48cbc3c7fa9f2ec0fdebc3c"
    "c538276b8d31bd3cec3bec6f9487bd3c9ff14eaf50e0bd3c6009196ef23bbe3cc183f32aaf9abe3c"
    "4aea5067c2fcbe3ca7f791976e62bf3ce5c6f643fecbbf3c2eec62b3e21cc03cef8ef58b1156c03c"
    "4ea5cbcdc191c03ca0485d7831d0c03ca6924303a811c13c2a4475677856c13cd6c2b3bc039fc13c"
    "7cfac9a0bcebc13c9f9159b62b3dc23ca5aa49aef593c23cf011448ae3f0c23c5ef7cc27ee54c33c"
    "61b8c8c74ec1c33c6213e4669737c43cd15147cdd7b9c43cf673cf3cd84ac53cd21373e17aeec53c"
    "72bf4b6d67aac63c2fc6ead65087c73c19edf2e69f93c83c857b480ddce9c93cfc71da519ec3cb3c"
    "83bb7e29d9c9ce3c"
))
_KE = _table("Q", (
    "c697242714521c0000000000000000007e319cd75b7d1300103c3f8ef56e1800aeb00e32b79b1a00"
    "7c4419f727d11b001a65880f1d951c0072395c2dfe1b1d00b2186bd55b7e1d00702c17dd34c91d00"
    "c89dacdf09041e003678d4717b331e00a2b77c178b5a1e006c046f09427b1e003eae08af0d971e00"
    "9ef04eb1f5ae1e005665b407bdc31e00ce9987f0f6d51e0088566eae14e61e00d01c36ca6ef41e00"
    "a4d4dd764b011f00b696a713e30c1f007af7f16963171f007025450cf2201f0074a85119ae291f00"
    "3255b98fb1311f0006c1575112391f004c696eebe23f1f00fa88d73233461f000e3a1dbf104c1f00"
    "22335c4c87511f00c0ecc309a1561f00969909d9665b1f008cd01082e05f1f00725744dd14641f00"
    "789685f609681f00e6022b2ac56b1f00f4e4323d4b6f1f003af19071a0721f00d6094d97c8751f00"
    "c05c041bc7781f00f43f41129f7b1f008a9f0746537e1f003811e23be6801f006291ad3d5a831f00"
    "12b95660b1851f006242b289ed871f00fa749375108a1f00ac393dba1b8c1f004ad045cc108e1f00"
    "163e0102f18f1f00e0588396bd911f00d8af47ac77931f00da648b4f20951f0092386378b8961f00"
    "9288960c41981f0080ba46e1ba991f00007f69bc269b1f007a711b56859c1f0002d8cf59d79d1f00"
    "cea161671d9f1f00c036091458a01f0038333aeb87a11f00fcc46b6fada21f008206ce1ac9a31f00"
    "a26aee5fdba41f007c094daae4a51f008267e45ee5a61f00c41ea5dcdda71f0074a8e67ccea81f00"
    "ee5fce93b7a91f0058b8ad7099aa1f003282585e74ab1f00840574a348ac1f00e89fbf8216ad1f00"
    "c082573bdead1f006c1df208a0ae1f007eb018245caf1f00127a5bc212b01f00f4df8116c4b01f00"
    "faf1b65070b11f003a96b29e17b21f004aa8df2bbab21f00184e7f2158b31f000cbec9a6f1b31f00"
    "d6ac0ce186b41f00fc93c7f317b51f00aafdc500a5b51f0058fe37282eb61f000a01c988b3b61f00"
    "9807b53f35b71f00a87ddc68b3b71f0008bad61e2eb81f00f647037ba5b81f00740f9a9519b91f00"
    "0472ba858ab91f00266f7961f8b91f0086e2ee3d63ba1f0016ec412fcbba1f004491b44830bb1f00"
    "e2a4ae9c92bb1f009e02c83cf2bb1f009429d2394fbc1f00d440e1a3a9bc1f009e8f548a01bd1f00"
    "9c72defb56bd1f006ad68b06aabd1f00403fcbb7fabd1f00de64731c49be1f005e69c94095be1f00"
    "28b18630dfbe1f007461def626bf1f00e28a829e6cbf1f00c404a931b0bf1f00b0fd0fbaf1bf1f00"
    "8845024131c01f00b2545bcf6ec01f0026148b6daac01f008a699923e4c01f00648a29f91bc11f00"
    "42197df551c11f004a0f771f86c11f00b4749e7db8c11f0042ea2016e9c11f00de05d5ee17c21f00"
    "fe833c0d45c21f00c24f867670c21f000e63902f9ac21f004680e93cc2c21f00b4c6d2a2e8c21f00"
    "ec2241650dc31f000e9cde8730c31f00c67e0b0e52c31f00f866dffa71c31f0086282a5190c31f00"
    "fa977413adc31f0048330144c8c31f0040abcce4e1c31f00a84d8ef7f9c31f006050b87d10c41f00"
    "68fd777825c41f00c6bfb5e838c41f002a1115cf4ac41f00e847f42b5bc41f0004456cff69c41f00"
    "b201504977c41f00b8fb2b0983c41f00f67f453e8dc41f001ad299e795c41f00b030dd039dc41f00"
    "32b47991a2c41f00fc078e8ea6c41f008cfbebf8a8c41f009eea16cea9c41f0034fa410ba9c41f00"
    "a0284eada6c41f00742ec8b0a2c41f00e22de6119dc41f00f42d85cc95c41f00c05e26dc8cc41f00"
    "7a23ec3b82c41f00e6de96e675c41f00827e81d667c41f0036c09d0558c41f00202e706d46c41f00"
    "98cb0b0733c41f000e6e0dcb1dc41f00f6bb96b106c41f0062cb48b2edc31f003c593ec4d2c31f00"
    "b49105deb5c31f004c6199f596c31f0092455a0076c31f00709306f352c31f001828b2c12dc31f00"
    "8878bd5f06c31f0062f2cbbfdcc21f009e9fb9d3b0c21f00f0fc8f8c82c21f0064f179da51c21f00"
    "9ed3b6ac1ec21f0056678cf1e8c11f003cbb3796b0c11f0010cddc8675c11f00b6d674ae37c11f00"
    "1424bbf6f6c01f00a44d1848b3c01f00f0af8b896cc01f0064f392a022c01f00b8720f71d5bf1f00"
    "8e4829dd84bf1f000ac62fc530bf1f00c60c7707d9be1f00da7d32807dbe1f0014a64b091ebe1f00"
    "0844357ababd1f0026f8b9a752bd1f001a20c663e6bc1f00e44d2c7d75bc1f00aab763bfffbb1f00"
    "a2e63ff284bb1f008cd1a0d904bb1f00ac701a357fba1f0018b692bff3b91f00fcabd42e62b91f00"
    "164a1733cab81f00545b76762bb81f005c895b9c85b71f009455d540d8b61f004269d9f722b61f00"
    "e0376f4c65b51f00d269bfbf9eb41f0046e703c8ceb31f003e9c53cff4b21f005228443210b21f00"
    "04965a3e20b11f00c2e1423024b01f00a679c4311baf1f0004e1675704ae1f00722dbf9ddeac1f00"
    "0a0640e6a8ab1f0028ff99f361aa1f00a2666f6508a91f003c8d50b39aa71f0014f2d12617a61f00"
    "00ea8bd47ba41f0094c0c593c6a21f0014f37df4f4a01f000abe6b33049f1f00bcf9792bf19c1f00"
    "c4ab1544b89a1f00b82f785b55981f00783fd0abc3951f00f2f1cea9fd921f001ce49adafc8f1f00"
    "f885739eb98c1f00069647ec2a891f008edb04f945851f009a0336c3fd801f0026e93978427c1f00"
    "cc2a58a300771f001c241a0f20711f002a35b734826a1f0066e2a80000631f00c4e34f90665a1f00"
    "7211ce4e72501f00da6f5c66c7441f00a2598aa3e5361f000a34503414261f0014047b043e111f00"
    "e6cb57faaef61e001e1588a18cd31e00b02d121ea6a21e007c268bc761591e00b00bac2bf6dd1d00"
    "c0e8e4d94ddb1c00"
))
_FE = _table("d", (
    "000000000000f03f371188e54505ee3ff1ff8150a6d0ec3f277beb7b00e5eb3f2a7fe60e0f21eb3f"
    "e7fa62a5ba76ea3f9b6d551597dee93f39aa55c43154e93f2fd2d376a3d4e83fb8c50678e85de83f"
    "2631242d8aeee73f7ed4099b6e85e73f634ba95bbb21e73fc6188449c3c2e63f065c4f6dfa67e63f"
    "66afa7c1ed10e63f75ac4c693dbde53f7387da82986ce53f9a897815ba1ee53faff851c166d3e43f"
    "69e08efb6a8ae43f25e1a8af9943e43f808bb12bcbfee33f14d1e144dcbbe33fd9dd08a7ad7ae33f"
    "18630e45233be33f5eda45e323fde23f244f1fb698c0e23fbd3211116d85e23fa3508c228e4be23f"
    "c83e81baea12e23f897b871973dbe13f253b1ec718a5e13fee6fce6dce6fe13f9c1633bc873be13f"
    "8dc31c4a3908e13f2b1e2b81d8d5e03f2ad054885ba4e03f7d3bee31b973e03f4865d2ebe843e03f"
    "24f360b1e214e03f764521fe3dcddf3ffac5bf8e2d72df3f4d42ebd18618df3f909d964b3dc0de3f"
    "51d37d364569de3ffc37e1759313de3f0c21a7881dbfdd3f7aedb97dd96bdd3f0b1a7ee9bd19dd3f"
    "92e040dcc1c8dc3f60fb83d9dc78dc3f83a50ed0062adc3fb5eeae1238dcdb3f880b9951698fdb3f"
    "6f8054949343db3f5fef2834b0f8da3fe5f6fdd6b8aeda3f4001a36aa765da3ff4217520761dda3f"
    "92375a691fd6d93fa87b09f29d8fd93f10819a9fec49d93f045d548c0605d93f395db704e7c0d83f"
    "8c3fbc84897dd83f386144b5e93ad83f59ceb66903f9d73f1e80c69dd2b7d73fe3725e735377d73f"
    "ea8db0308237d73f9d9e643e5bf8d63f9ce9e425dbb9d63f9f0dc68ffe7bd63fe4274842c23ed63f"
    "7658ef1f2302d63f6cee31261ec6d53fefa93a6cb08ad53fe7a3bd21d74fd53ff589de8d8f15d53f"
    "1df9260ed7dbd43fd3da8b15aba2d43fefbe802b096ad43fe24118ebee31d43f4ea130025afad33f"
    "85b2ab3048c3d33fef7db147b78cd33fddd0fc28a556d33f352431c60f21d33f70423920f5ebd23f"
    "6222ae4653b7d23f297645572883d23ffd76477d724fd23fff7e0bf12f1cd23fdb097bf75ee9d13f"
    "5abc9ae1fdb6d13f8219190c0b85d13fef91e2de8453d13fba9fbacc6922d13f6ca6d952b8f1d03f"
    "33538ff86ec1d03f133ee94e8c91d03fd2905df00e62d03f2c7c7980f532d03f6a4793ab3e04d03f"
    "5493ff4cd2abcf3f7e3e965ce74fcf3f9be0e80fbaf4ce3ff2405900489ace3fa7832fd68e40ce3f"
    "394f22488ce7cd3fb8eee31a3e8fcd3ffd31b420a237cd3f9fd0f638b6e0cc3f0218ce4f788acc3f"
    "eeafb95de634cc3f35443967fedfcb3fa5e4727cbe8bcb3f3eefdcb82438cb3f0b5beb422fe5ca3f"
    "493cc04bdc92ca3fbc5cdf0e2a41ca3f12c5e4d116f0c93f23163ee4a09fc93fa192e69ec64fc93f"
    "79bb25648600c93fd562509fdeb1c83ff91a8cc4cd63c83fe6e794505216c83fae1b85c86ac9c73f"
    "fe469fb9157dc73f39281ab95131c73fea84ee631de6c63f28daa65e779bc63facd130555e51c63f"
    "316ab0fad007c63fb6c25409cebec53ff5782e425476c53f498c076d622ec53ffab63c58f7e6c43f"
    "963098d811a0c43fc6cc2dc9b059c43f9a6a380bd313c43f05a9f88577cec33fc9d594269d89c33f"
    "af0cfadf4245c33f6e7dbeaa6701c33f34cf04850abec23f409960722a7bc23f78e8bb7bc638c23f"
    "65ca3dafddf6c13f66d631206fb5c13f78aef0e67974c13f2f71c920fd33c13f2017eceff7f3c03f"
    "2fb6547b69b4c03fbea5b7ee5075c03f047f6e7aad36c03f8deacba6fcf0bf3f140419668575bf3f"
    "3cc383aef3fabe3fccb98e044681be3ffbba61f57a08be3f9893ad169190bd3fd74d91068719bd3f"
    "57fd806b5ba3bc3faf102ef40c2ebc3f8f2671579ab9bb3f486535540246bb3f655465b143d3ba3f"
    "b738d93d5d61ba3f28f446d04df0b93f706b33471480b93fb974e588af10b93f3b535a831ea2b83f"
    "bac43b2c6034b83ff3a6d78073c7b73f1e3c1986575bb73fb61684480bf0b63f20b630dc8d85b63f"
    "f7deca5cde1bb63f3ebb91edfbb2b53f36d059b9e54ab53f29d990f29ae3b43f5c9843d31a7db43f"
    "0eb1259d6417b43f9e9f9b9977b2b33f18e7c619534eb33fd18d9476f6eab23f7005ce106188b23f"
    "8c9d2c519226b23f40a36fa889c5b13f9253758f4665b13f50ca5687c805b13f3b1b87190fa7b03f"
    "17c8f5d71949b03f769669bad0d7af3f34e84499f41eaf3fe5b22ea59e67ae3f10583149ceb1ad3f"
    "4a791e0383fdac3fe9210764bc4aac3f85d9be107a99ab3f84806ac2bbe9aa3f38f11b47813baa3f"
    "4c7c7b82ca8ea93f6d77806e97e3a83f6b393a1ce839a83f9e08abb4bc91a73f52afb67915eba63f"
    "41a026c7f245a63fcad2c51355a2a53febc596f23c00a53f196b2614ab5fa43fff18ff47a0c0a33f"
    "ae143f7e1d23a33f0cc056c92387a23fd412f35fb4eca13fa1b3199fd053a13f51d67c0c7abca03f"
    "eefa0d59b226a03f9098afc7f6249f3f6874517aaeff9d3f0c1b335490dd9c3f7058fa50a1be9b3f"
    "9b4e92e6e6a29a3f482a130f678a993f6799ec532875983f96fc87da3163973f7740a2728b54963f"
    "5102aba63d49953fbef087ce5141943f845d3125d23c933f323ab9e1c93b923f5f5f7254453e913f"
    "f0021e095244903fcec789defd9b8e3f57276e14b9b68c3f2dc94255fad88a3fbda78f68ea02893f"
    "f574aae6b634873fcb16e40b936e853f626f51c1b8b0833f7176b3ed69fb813ff9d75f29f24e803f"
    "c55d74fa51577d3f364897d4e9237a3f2036ec379f04773ffd22e3ce97fa733f434057693d07713f"
    "114bcd81b3586c3ffffea1f388d8663f24a3e1a86b94613f253e0c54b52b593fb9fc8df70ab24f3f"
    "4b0b9f321cc33d3f"
))
