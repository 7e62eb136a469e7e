r"""The cyclotomic field :math:`\mathbb{Q}[\omega]` -- algebraic closure
of :math:`\mathbb{D}[\omega]` under division.

Algorithm 2 of the paper normalises QMDD nodes by *dividing* all
outgoing edge weights by the leftmost non-zero weight.  That division
generally leaves :math:`\mathbb{D}[\omega]` (odd integers have no dyadic
inverse), so the paper's first normalisation scheme "spends one
additional integer" and works in the field :math:`\mathbb{Q}[\omega]`:
every element has the unique shape

.. math::  \frac{\alpha}{e}, \qquad \alpha \in \mathbb{D}[\omega],\;
           e \in 2\mathbb{Z}+1,\; \gcd(\mathrm{content}(\alpha), e) = 1.

An element is the value ``zeta / (sqrt2**k * e)`` with

* ``zeta`` a :class:`~repro.rings.zomega.ZOmega` numerator with all
  ``sqrt2`` factors removed (Algorithm 1 canonical form),
* ``e`` an odd positive integer coprime to the numerator content.

Inverses follow the paper's recipe: for ``z`` with relative norm
``N(z) = z * conj(z) = u + v*sqrt2``,

.. math::  z^{-1} = \overline{z}\,(u - v\sqrt2)\,/\,(u^2 - 2v^2).

An instance stores its canonical key ``(a, b, c, d, k, e)`` directly
and builds the :class:`ZOmega` numerator only on demand; arithmetic runs
on the integers through the module-level kernels (:func:`qomega_mul`,
:func:`qomega_add`, :func:`qomega_inverse`, ...).  The public
constructor keeps the original :class:`ZOmega`-based reduction as the
independent reference (the DD sanitizer recanonicalises with it).
"""

from __future__ import annotations

from math import gcd as int_gcd  # repro-lint: allow[RL002] (integer gcd is exact)
from typing import Tuple

from repro.errors import InexactDivisionError, ZeroDivisionRingError
from repro.rings.domega import DOmega, domega_key
from repro.rings.zomega import ZOmega, coefficients_inverse, coefficients_mul, coefficients_scale

__all__ = [
    "ONE_KEY",
    "QKey",
    "QOmega",
    "ZERO_KEY",
    "qomega_add",
    "qomega_conj",
    "qomega_inverse",
    "qomega_key",
    "qomega_mul",
]

_SQRT2 = 1.4142135623730951  # repro-lint: allow[RL002] (to_complex conversion boundary)

#: A canonical ``(a, b, c, d, k, e)`` key of ``Q[omega]``.
QKey = Tuple[int, int, int, int, int, int]

ZERO_KEY: QKey = (0, 0, 0, 0, 0, 1)
ONE_KEY: QKey = (0, 0, 0, 1, 0, 1)


# ---------------------------------------------------------------------------
# Integer-level kernels: canonical keys in, canonical keys out
# ---------------------------------------------------------------------------


def qomega_key(a: int, b: int, c: int, d: int, k: int, e: int) -> QKey:
    """The canonical key of ``(a w^3 + b w^2 + c w + d) / (sqrt2**k * e)``."""
    if not e:
        raise ZeroDivisionRingError("zero denominator in Q[omega]")
    if not (a or b or c or d):
        return ZERO_KEY
    if e < 0:
        a, b, c, d, e = -a, -b, -c, -d, -e
    # Even denominator factors fold into the sqrt2 exponent (2 = sqrt2**2).
    twos = (e & -e).bit_length() - 1
    if twos:
        e >>= twos
        k += twos << 1
    a, b, c, d, k = domega_key(a, b, c, d, k)  # Algorithm 1 on the numerator
    # The odd denominator reduces against the numerator content.
    if e > 1:
        common = int_gcd(a, b, c, d, e)
        if common > 1:
            a, b, c, d, e = a // common, b // common, c // common, d // common, e // common
    return (a, b, c, d, k, e)


def qomega_mul(x: QKey, y: QKey) -> QKey:
    """``x * y``."""
    a, b, c, d = coefficients_mul((x[0], x[1], x[2], x[3]), (y[0], y[1], y[2], y[3]))
    return qomega_key(a, b, c, d, x[4] + y[4], x[5] * y[5])


def qomega_add(x: QKey, y: QKey) -> QKey:
    """``x + y`` over the common denominator ``sqrt2**max(k) * lcm(e)``."""
    a1, b1, c1, d1, k1, e1 = x
    a2, b2, c2, d2, k2, e2 = y
    if k1 < k2:
        a1, b1, c1, d1 = coefficients_scale(a1, b1, c1, d1, k2 - k1)
        k1 = k2
    elif k2 < k1:
        a2, b2, c2, d2 = coefficients_scale(a2, b2, c2, d2, k1 - k2)
    if e1 != e2:
        common = int_gcd(e1, e2)
        m1, m2 = e2 // common, e1 // common
        a1, b1, c1, d1 = a1 * m1, b1 * m1, c1 * m1, d1 * m1
        a2, b2, c2, d2 = a2 * m2, b2 * m2, c2 * m2, d2 * m2
        e1 *= m1
    return qomega_key(a1 + a2, b1 + b2, c1 + c2, d1 + d2, k1, e1)


def qomega_conj(x: QKey) -> QKey:
    """Complex conjugation (canonical as it stands: parity and content
    are unchanged)."""
    a, b, c, d, k, e = x
    return (-c, -b, -a, d, k, e)


def qomega_inverse(x: QKey) -> QKey:
    """``1 / x`` (paper, Section IV-B / Example 8): with
    ``1/zeta = p / n`` (:func:`coefficients_inverse`),
    ``1/x = e * sqrt2**k * p / n``."""
    a, b, c, d, k, e = x
    if not (a or b or c or d):
        raise ZeroDivisionRingError("inverse of zero in Q[omega]")
    pa, pb, pc, pd, norm = coefficients_inverse(a, b, c, d)
    return qomega_key(pa * e, pb * e, pc * e, pd * e, -k, norm)


# ---------------------------------------------------------------------------
# The field element
# ---------------------------------------------------------------------------

_set = object.__setattr__


class QOmega:
    """A canonical element ``zeta / (sqrt2**k * e)`` of ``Q[omega]``.

    Immutable and hashable; the constructor canonicalises arbitrary
    integer inputs (any sign/parity of ``e``).
    """

    __slots__ = ("_key", "_zeta")
    _key: QKey
    _zeta: ZOmega

    def __init__(self, zeta: ZOmega, k: int = 0, e: int = 1) -> None:
        if not isinstance(zeta, ZOmega):
            raise TypeError("numerator must be a ZOmega")
        if not isinstance(k, int) or not isinstance(e, int):
            raise TypeError("k and e must be int")
        if e == 0:
            raise ZeroDivisionRingError("zero denominator in Q[omega]")
        if zeta.is_zero():
            zeta, k, e = ZOmega.zero(), 0, 1
        else:
            if e < 0:
                zeta, e = -zeta, -e
            # Fold even denominator factors into the sqrt2 exponent.
            while e % 2 == 0:
                e //= 2
                k += 2
            # Remove sqrt2 factors from the numerator (Algorithm 1).
            while zeta.divisible_by_sqrt2():
                zeta = zeta.divide_by_sqrt2()
                k -= 1
            # Reduce the odd denominator against the numerator content.
            common = int_gcd(zeta.content(), e)
            if common > 1:
                zeta = ZOmega(*(coefficient // common for coefficient in zeta.coefficients()))
                e //= common
        _set(self, "_key", zeta.coefficients() + (k, e))
        _set(self, "_zeta", zeta)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QOmega instances are immutable")

    def __reduce__(self) -> "tuple[type, tuple[ZOmega, int, int]]":
        # Pickle via the constructor (the canonical form round-trips).
        return (type(self), (self.zeta, self.k, self.e))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_canonical_key(cls, key: QKey) -> "QOmega":
        """Wrap a key that is *already canonical* (a kernel result).

        No validation: this is the cold-insert path of the weight
        tables.  Arbitrary input belongs in the public constructor.
        """
        value = object.__new__(cls)
        _set(value, "_key", key)
        return value

    @classmethod
    def zero(cls) -> "QOmega":
        return _ZERO

    @classmethod
    def one(cls) -> "QOmega":
        return _ONE

    @classmethod
    def from_int(cls, n: int) -> "QOmega":
        return cls(ZOmega.from_int(n), 0, 1)

    @classmethod
    def from_domega(cls, value: DOmega) -> "QOmega":
        """Embed a ``D[omega]`` element (denominator ``e = 1``)."""
        return cls(value.zeta, value.k, 1)

    @classmethod
    def from_rational(cls, numerator: int, denominator: int) -> "QOmega":
        return cls(ZOmega.from_int(numerator), 0, denominator)

    @classmethod
    def one_over_sqrt2(cls, power: int = 1) -> "QOmega":
        return cls(ZOmega.one(), power, 1)

    @classmethod
    def omega_power(cls, exponent: int) -> "QOmega":
        return cls(ZOmega.omega_power(exponent), 0, 1)

    @classmethod
    def imag_unit(cls) -> "QOmega":
        return cls(ZOmega.imag_unit(), 0, 1)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    @property
    def zeta(self) -> ZOmega:
        """The ``Z[omega]`` numerator (built on first access)."""
        try:
            return self._zeta
        except AttributeError:
            a, b, c, d, _k, _e = self._key
            zeta = ZOmega(a, b, c, d)
            _set(self, "_zeta", zeta)
            return zeta

    @property
    def k(self) -> int:
        """The sqrt2 denominator exponent."""
        return self._key[4]

    @property
    def e(self) -> int:
        """The odd positive denominator."""
        return self._key[5]

    def key(self) -> QKey:
        """Canonical hashable key ``(a, b, c, d, k, e)``."""
        return self._key

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = QOmega.from_int(other)
        if not isinstance(other, QOmega):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(("QOmega",) + self._key)

    def __bool__(self) -> bool:
        a, b, c, d, _k, _e = self._key
        return bool(a or b or c or d)

    def is_zero(self) -> bool:
        a, b, c, d, _k, _e = self._key
        return not (a or b or c or d)

    def is_one(self) -> bool:
        return self._key == ONE_KEY

    def is_domega(self) -> bool:
        """True iff the value lies in the subring ``D[omega]`` (``e == 1``)."""
        return self._key[5] == 1

    def to_domega(self) -> DOmega:
        """Convert to ``D[omega]``; raises if ``e != 1``."""
        if self.e != 1:
            raise InexactDivisionError(f"{self!r} has odd denominator {self.e}, not in D[omega]")
        return DOmega(self.zeta, self.k)

    # ------------------------------------------------------------------
    # Field arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: "QOmega") -> "QOmega":
        if isinstance(other, int):
            other = QOmega.from_int(other)
        if not isinstance(other, QOmega):
            return NotImplemented
        return _from_key(qomega_add(self._key, other._key))

    __radd__ = __add__

    def __neg__(self) -> "QOmega":
        a, b, c, d, k, e = self._key
        return _from_key((-a, -b, -c, -d, k, e))

    def __sub__(self, other: "QOmega") -> "QOmega":
        if isinstance(other, int):
            other = QOmega.from_int(other)
        if not isinstance(other, QOmega):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "QOmega":
        if isinstance(other, int):
            return QOmega.from_int(other) - self
        return NotImplemented

    def __mul__(self, other: "QOmega") -> "QOmega":
        if isinstance(other, int):
            a, b, c, d, k, e = self._key
            return _from_key(qomega_key(a * other, b * other, c * other, d * other, k, e))
        if not isinstance(other, QOmega):
            return NotImplemented
        return _from_key(qomega_mul(self._key, other._key))

    __rmul__ = __mul__

    def inverse(self) -> "QOmega":
        """The multiplicative inverse (paper, Section IV-B / Example 8)."""
        return _from_key(qomega_inverse(self._key))

    def __truediv__(self, other: "QOmega") -> "QOmega":
        if isinstance(other, int):
            other = QOmega.from_int(other)
        if not isinstance(other, QOmega):
            return NotImplemented
        return _from_key(qomega_mul(self._key, qomega_inverse(other._key)))

    def __pow__(self, exponent: int) -> "QOmega":
        if not isinstance(exponent, int):
            raise ValueError("exponent must be int")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = _ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conj(self) -> "QOmega":
        """Complex conjugation."""
        return _from_key(qomega_conj(self._key))

    def abs_squared(self) -> "QOmega":
        """``|alpha|^2`` as a real ``Q[omega]`` element."""
        return self * self.conj()

    # ------------------------------------------------------------------
    # Evaluation and metrics
    # ------------------------------------------------------------------

    def to_complex(self) -> complex:
        """Evaluate as a ``complex`` double (display and metrics only).

        For very large coefficients the naive float conversion can
        overflow, so the numerator and the scale are combined through
        integer ratios before the final float step.
        """
        a, b, c, d, _k, _e = self._key
        # value = [d + (c-a)/sqrt2] + i[b + (c+a)/sqrt2], all over sqrt2^k e
        magnitude = max(abs(a), abs(b), abs(c), abs(d), 1)
        if magnitude.bit_length() > 900 or abs(self.k) > 1800 or self.e.bit_length() > 900:
            return self._to_complex_scaled()
        inv = 1.0 / _SQRT2  # repro-lint: allow[RL002] (to_complex conversion boundary)
        re = float(d) + (float(c) - float(a)) * inv
        im = float(b) + (float(c) + float(a)) * inv
        scale = _SQRT2 ** (-self.k) / float(self.e)
        return complex(re * scale, im * scale)

    def _to_complex_scaled(self) -> complex:
        """Overflow-safe conversion using integer ratio reduction."""
        from fractions import Fraction

        a, b, c, d, _k, _e = self._key
        half_k, odd_k = divmod(self.k, 2)
        # denominator = 2**half_k * sqrt2**odd_k * e
        base = Fraction(1, 1)
        if half_k >= 0:
            base = Fraction(1, (1 << half_k) * self.e)
        else:
            base = Fraction(1 << (-half_k), self.e)
        sqrt_scale = _SQRT2 ** (-odd_k)
        re = (Fraction(d) * base, Fraction(c - a) * base)
        im = (Fraction(b) * base, Fraction(c + a) * base)
        real = float(re[0]) + float(re[1]) / _SQRT2
        imag = float(im[0]) + float(im[1]) / _SQRT2
        return complex(real * sqrt_scale, imag * sqrt_scale)

    def max_bit_width(self) -> int:
        """Largest bit-width over numerator coefficients and denominator.

        The evaluation harness tracks this to reproduce the paper's
        observation that the *denominators* dominate the growth under
        the Q[omega] normalisation scheme (Section V-B).
        """
        a, b, c, d, _k, e = self._key
        return max(abs(a), abs(b), abs(c), abs(d), e).bit_length()

    def denominator_bit_width(self) -> int:
        return self.e.bit_length()

    def __repr__(self) -> str:
        a, b, c, d, k, e = self._key
        return f"QOmega(ZOmega({a}, {b}, {c}, {d}), k={k}, e={e})"

    def __str__(self) -> str:
        text = str(self.zeta)
        if self.k or self.e != 1:
            denominator = []
            if self.k:
                denominator.append(f"sqrt2^{self.k}")
            if self.e != 1:
                denominator.append(str(self.e))
            text = f"({text}) / ({' * '.join(denominator)})"
        return text


_from_key = QOmega.from_canonical_key

_ZERO = QOmega(ZOmega.zero())
_ONE = QOmega(ZOmega.one())
