r"""The cyclotomic integer ring :math:`\mathbb{Z}[\omega]`.

Elements are integer combinations of the powers of the primitive 8-th
root of unity :math:`\omega = e^{i\pi/4} = (1+i)/\sqrt{2}`:

.. math::  z = a\,\omega^3 + b\,\omega^2 + c\,\omega + d,
           \qquad a, b, c, d \in \mathbb{Z}.

Since :math:`\omega^4 = -1`, the powers :math:`1, \omega, \omega^2,
\omega^3` form a :math:`\mathbb{Z}`-basis, so this coefficient quadruple
is a *unique* representation.  :math:`\mathbb{Z}[\omega]` is the ring of
integers of the cyclotomic field :math:`\mathbb{Q}(\zeta_8)` and is the
integer backbone of every exact number system in this package:
:math:`\mathbb{D}[\omega]` and :math:`\mathbb{Q}[\omega]` elements carry
a :class:`ZOmega` numerator.

Useful identities (used throughout)::

    sqrt(2) = omega - omega**3        i = omega**2
    conj(omega) = -omega**3           sigma(omega) = omega**3

where ``conj`` is complex conjugation and ``sigma`` is the ring
automorphism mapping ``sqrt(2) -> -sqrt(2)``.

The *relative norm* ``z * conj(z)`` lands in :math:`\mathbb{Z}[\sqrt2]`
(see :meth:`ZOmega.norm_zsqrt2`), and the *absolute norm*
:math:`E(z) = |u^2 - 2v^2|` (for ``z*conj(z) = u + v*sqrt2``) is a
Euclidean function: :math:`\mathbb{Z}[\omega]` is norm-Euclidean, which
is what makes GCD-based edge-weight normalisation (Algorithm 3 of the
paper) possible.

.. note::
   The paper prints the Euclidean function as
   ``E(z) = |(a^2+b^2+c^2+d^2)^2 - 2*(ab+bc+cd+da)^2|``.  Direct
   computation of ``z*conj(z)`` shows the cross term is
   ``ab + bc + cd - ad`` (the last sign is negative); the printed ``+da``
   is a typo.  Example: ``z = omega**3 + 1`` has ``|z|^2 = 2 - sqrt(2)``,
   which requires ``v = -1``, not ``+1``.  We implement the corrected
   form, which is the actual field norm and is multiplicative.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import InexactDivisionError, ZeroDivisionRingError

__all__ = [
    "Coefficients",
    "ZOmega",
    "coefficients_euclidean_norm",
    "coefficients_inverse",
    "coefficients_mul",
    "coefficients_scale",
]

#: A bare ``(a, b, c, d)`` coefficient quadruple: the integer-level form
#: the hot ring kernels (:mod:`repro.rings.domega`,
#: :mod:`repro.rings.qomega`, :mod:`repro.rings.euclid`) compute on,
#: without building a :class:`ZOmega` per intermediate.
Coefficients = Tuple[int, int, int, int]


class ZOmega:
    """An element ``a*w^3 + b*w^2 + c*w + d`` of ``Z[omega]``.

    Instances are immutable and hashable; all arithmetic returns new
    objects.  Coefficients are plain Python integers and therefore have
    arbitrary precision (the GMP substitute, see DESIGN.md section 3).
    """

    __slots__ = ("a", "b", "c", "d", "_norm2")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int):
            for name, value in (("a", a), ("b", b), ("c", c), ("d", d)):
                if not isinstance(value, int):
                    raise TypeError(f"coefficient {name} must be int, got {type(value).__name__}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ZOmega instances are immutable")

    def __reduce__(self) -> "tuple[type, tuple[int, int, int, int]]":
        # Pickle via the constructor: the immutability guard in
        # __setattr__ rejects the default slot-restoring protocol.
        return (type(self), (self.a, self.b, self.c, self.d))

    # ------------------------------------------------------------------
    # Constructors for distinguished elements
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls) -> "ZOmega":
        """The additive identity."""
        return _ZERO

    @classmethod
    def one(cls) -> "ZOmega":
        """The multiplicative identity."""
        return _ONE

    @classmethod
    def from_int(cls, n: int) -> "ZOmega":
        """Embed a rational integer ``n`` as ``0*w^3 + 0*w^2 + 0*w + n``."""
        return cls(0, 0, 0, n)

    @classmethod
    def omega(cls) -> "ZOmega":
        """The primitive 8-th root of unity ``w = e^{i pi/4}``."""
        return _OMEGA

    @classmethod
    def imag_unit(cls) -> "ZOmega":
        """The imaginary unit ``i = w^2``."""
        return cls(0, 1, 0, 0)

    @classmethod
    def sqrt2(cls) -> "ZOmega":
        """The real number ``sqrt(2) = w - w^3``."""
        return cls(-1, 0, 1, 0)

    @classmethod
    def from_gaussian(cls, re: int, im: int) -> "ZOmega":
        """Embed the Gaussian integer ``re + i*im``."""
        return cls(0, im, 0, re)

    @classmethod
    def omega_power(cls, exponent: int) -> "ZOmega":
        """Return ``w**exponent`` for any integer exponent (``w^8 = 1``)."""
        exponent %= 8
        sign = 1 if exponent < 4 else -1
        exponent %= 4
        coeffs = [0, 0, 0, 0]
        # index 0 <-> w^3, 1 <-> w^2, 2 <-> w^1, 3 <-> w^0
        coeffs[3 - exponent] = sign
        return cls(*coeffs)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------

    def coefficients(self) -> Tuple[int, int, int, int]:
        """Return the coefficient quadruple ``(a, b, c, d)``."""
        return (self.a, self.b, self.c, self.d)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coefficients())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = ZOmega.from_int(other)
        if not isinstance(other, ZOmega):
            return NotImplemented
        return self.coefficients() == other.coefficients()

    def __hash__(self) -> int:
        return hash(("ZOmega",) + self.coefficients())

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def is_zero(self) -> bool:
        """True iff this is the additive identity."""
        return not (self.a or self.b or self.c or self.d)

    def is_one(self) -> bool:
        """True iff this is the multiplicative identity."""
        return self.coefficients() == (0, 0, 0, 1)

    def is_rational_integer(self) -> bool:
        """True iff the element lies in ``Z`` (only the constant term set)."""
        return self.a == 0 and self.b == 0 and self.c == 0

    def is_real(self) -> bool:
        """True iff the complex value is real, i.e. lies in ``Z[sqrt2]``.

        Real elements have the shape ``d + v*sqrt2 = -v*w^3 + v*w + d``,
        i.e. ``b == 0`` and ``a == -c``.
        """
        return self.b == 0 and self.a == -self.c

    # ------------------------------------------------------------------
    # Ring arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: "ZOmega") -> "ZOmega":
        if isinstance(other, int):
            other = ZOmega.from_int(other)
        if not isinstance(other, ZOmega):
            return NotImplemented
        return ZOmega(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self) -> "ZOmega":
        return ZOmega(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other: "ZOmega") -> "ZOmega":
        if isinstance(other, int):
            other = ZOmega.from_int(other)
        if not isinstance(other, ZOmega):
            return NotImplemented
        return ZOmega(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __rsub__(self, other: object) -> "ZOmega":
        if isinstance(other, int):
            return ZOmega.from_int(other) - self
        return NotImplemented

    def __mul__(self, other: "ZOmega") -> "ZOmega":
        if isinstance(other, int):
            return ZOmega(self.a * other, self.b * other, self.c * other, self.d * other)
        if not isinstance(other, ZOmega):
            return NotImplemented
        a1, b1, c1, d1 = self.coefficients()
        a2, b2, c2, d2 = other.coefficients()
        # Convolution of the omega-power expansions reduced with w^4 = -1.
        return ZOmega(
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            b1 * d2 + c1 * c2 + d1 * b2 - a1 * a2,
            c1 * d2 + d1 * c2 - a1 * b2 - b1 * a2,
            d1 * d2 - a1 * c2 - b1 * b2 - c1 * a2,
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ZOmega":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("ZOmega exponent must be a non-negative integer")
        result = _ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # ------------------------------------------------------------------
    # Involutions and norms
    # ------------------------------------------------------------------

    def conj(self) -> "ZOmega":
        """Complex conjugation: ``w -> w^{-1} = -w^3``."""
        return ZOmega(-self.c, -self.b, -self.a, self.d)

    def sqrt2_conj(self) -> "ZOmega":
        """The Galois automorphism ``sigma`` with ``sigma(sqrt2) = -sqrt2``.

        Defined by ``w -> w^3``; fixes ``i = w^2`` up to sign bookkeeping
        (``sigma(w^2) = w^6 = -w^2`` -- note ``sigma`` maps ``i -> -i``
        composed with conjugation data; what matters here is only that
        ``sigma`` fixes ``Q`` and negates ``sqrt2``).
        """
        return ZOmega(self.c, -self.b, self.a, self.d)

    def norm_zsqrt2(self) -> Tuple[int, int]:
        """Return ``(u, v)`` with ``z * conj(z) = u + v*sqrt2``.

        ``u = a^2 + b^2 + c^2 + d^2`` and ``v = ab + bc + cd - ad``
        (corrected sign; see module docstring).  Both are non-negative
        in absolute value bounded by ``u`` since ``|z|^2 >= 0``.
        """
        cached = getattr(self, "_norm2", None)
        if cached is None:
            a, b, c, d = self.a, self.b, self.c, self.d
            cached = (a * a + b * b + c * c + d * d, a * b + b * c + c * d - a * d)
            object.__setattr__(self, "_norm2", cached)
        return cached

    def euclidean_norm(self) -> int:
        """The absolute field norm ``E(z) = |u^2 - 2 v^2|``.

        This is multiplicative (``E(xy) = E(x) E(y)``), zero only for
        ``z = 0``, and serves as the Euclidean function for division with
        remainder (paper, Section IV-B).
        """
        u, v = self.norm_zsqrt2()
        return abs(u * u - 2 * v * v)

    def is_unit(self) -> bool:
        """True iff ``z`` is invertible in ``Z[omega]`` (``E(z) == 1``)."""
        return self.euclidean_norm() == 1

    # ------------------------------------------------------------------
    # Divisibility
    # ------------------------------------------------------------------

    def divisible_by_sqrt2(self) -> bool:
        """True iff ``z / sqrt2`` stays in ``Z[omega]``.

        The constructive parity criterion of the paper's Algorithm 1:
        divisibility holds iff ``a = c (mod 2)`` and ``b = d (mod 2)``.
        Zero is (vacuously) divisible.
        """
        return (self.a - self.c) % 2 == 0 and (self.b - self.d) % 2 == 0

    def divide_by_sqrt2(self) -> "ZOmega":
        """Return ``z / sqrt2``; raises if the quotient is not integral."""
        if not self.divisible_by_sqrt2():
            raise InexactDivisionError(f"{self!r} is not divisible by sqrt2 in Z[omega]")
        a, b, c, d = self.coefficients()
        # z / sqrt2 = z * sqrt2 / 2; multiplying by sqrt2 maps
        # (a, b, c, d) -> (b - d, c + a, b + d, c - a), then halve.
        return ZOmega((b - d) // 2, (c + a) // 2, (b + d) // 2, (c - a) // 2)

    def mul_sqrt2(self) -> "ZOmega":
        """Return ``z * sqrt2`` without constructing a temporary."""
        a, b, c, d = self.coefficients()
        return ZOmega(b - d, c + a, b + d, c - a)

    def content(self) -> int:
        """The GCD of the absolute coefficient values (0 for zero)."""
        from math import gcd  # repro-lint: allow[RL002] (integer gcd is exact)

        return gcd(gcd(abs(self.a), abs(self.b)), gcd(abs(self.c), abs(self.d)))

    def exact_divide(self, divisor: "ZOmega") -> "ZOmega":
        """Exact division in ``Z[omega]``.

        Raises :class:`InexactDivisionError` when ``divisor`` does not
        divide ``self`` and :class:`ZeroDivisionRingError` on a zero
        divisor.
        """
        if divisor.is_zero():
            raise ZeroDivisionRingError("division by zero in Z[omega]")
        numerator = self * divisor.conj()
        u, v = divisor.norm_zsqrt2()
        # 1/(u + v sqrt2) = (u - v sqrt2) / (u^2 - 2 v^2)
        numerator = numerator * (ZOmega.from_int(u) - ZOmega.sqrt2() * v)
        denominator = u * u - 2 * v * v
        coeffs = []
        for coefficient in numerator.coefficients():
            quotient, remainder = divmod(coefficient, denominator)
            if remainder:
                raise InexactDivisionError(f"{self!r} is not divisible by {divisor!r} in Z[omega]")
            coeffs.append(quotient)
        return ZOmega(*coeffs)

    def divides(self, other: "ZOmega") -> bool:
        """True iff ``self`` divides ``other`` in ``Z[omega]``."""
        if self.is_zero():
            return other.is_zero()
        try:
            other.exact_divide(self)
        except InexactDivisionError:
            return False
        return True

    # ------------------------------------------------------------------
    # Numeric evaluation & display
    # ------------------------------------------------------------------

    def to_complex(self) -> complex:
        """Evaluate as a Python ``complex`` (IEEE-754 doubles).

        Bit-widths beyond the double mantissa lose precision -- use only
        for display, plotting and the accuracy *metric* (where the
        numeric side is the noisy one anyway).
        """
        inv_sqrt2 = 0.7071067811865476  # repro-lint: allow[RL002] (to_complex conversion boundary)
        # w = (1+i)/sqrt2, w^2 = i, w^3 = (-1+i)/sqrt2
        re = float(self.d) + (float(self.c) - float(self.a)) * inv_sqrt2
        im = float(self.b) + (float(self.c) + float(self.a)) * inv_sqrt2
        return complex(re, im)

    def max_bit_width(self) -> int:
        """The largest coefficient bit-width (0 for the zero element).

        Used by the evaluation harness to reproduce the paper's
        observation that GSE blows up the integer sizes (Section V-B).
        """
        return max(abs(coefficient).bit_length() for coefficient in self.coefficients())

    def __repr__(self) -> str:
        return f"ZOmega({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self) -> str:
        terms = []
        for coefficient, symbol in zip(self.coefficients(), ("w^3", "w^2", "w", "")):
            if coefficient == 0:
                continue
            if symbol:
                prefix = {1: "", -1: "-"}.get(coefficient, f"{coefficient}*")
                terms.append(f"{prefix}{symbol}")
            else:
                terms.append(str(coefficient))
        if not terms:
            return "0"
        text = " + ".join(terms)
        return text.replace("+ -", "- ")


_ZERO = ZOmega(0, 0, 0, 0)
_ONE = ZOmega(0, 0, 0, 1)
_OMEGA = ZOmega(0, 0, 1, 0)


# ---------------------------------------------------------------------------
# Integer-level kernels on bare coefficient quadruples
# ---------------------------------------------------------------------------


def coefficients_mul(x: Coefficients, y: Coefficients) -> Coefficients:
    """The product of two quadruples (same convolution as ``ZOmega.__mul__``)."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
        b1 * d2 + c1 * c2 + d1 * b2 - a1 * a2,
        c1 * d2 + d1 * c2 - a1 * b2 - b1 * a2,
        d1 * d2 - a1 * c2 - b1 * b2 - c1 * a2,
    )


def coefficients_scale(a: int, b: int, c: int, d: int, power: int) -> Coefficients:
    """``z * sqrt2**power`` for ``power >= 0``."""
    half = power >> 1
    if half:
        a, b, c, d = a << half, b << half, c << half, d << half
    if power & 1:
        # z * sqrt2 maps (a, b, c, d) -> (b - d, c + a, b + d, c - a).
        a, b, c, d = b - d, c + a, b + d, c - a
    return (a, b, c, d)


def coefficients_euclidean_norm(a: int, b: int, c: int, d: int) -> int:
    """``E(z) = |u^2 - 2 v^2|`` of ``z = a w^3 + b w^2 + c w + d``."""
    u = a * a + b * b + c * c + d * d
    v = a * b + b * c + c * d - a * d
    return abs(u * u - 2 * v * v)


def coefficients_inverse(a: int, b: int, c: int, d: int) -> Tuple[int, int, int, int, int]:
    """``(p_a, p_b, p_c, p_d, n)`` with ``1/z = p / n`` for a non-zero ``z``.

    ``p = conj(z) * (u - v*sqrt2)`` and ``n = u^2 - 2 v^2`` (signed, never
    zero) for the relative norm ``z * conj(z) = u + v*sqrt2``: the
    numerator of every exact division and inverse in the ring layer.
    """
    u = a * a + b * b + c * c + d * d
    v = a * b + b * c + c * d - a * d
    # conj(z) = (-c, -b, -a, d) times (u - v*sqrt2) = (v, 0, -v, u).
    return (
        (b + d) * v - c * u,
        (a + c) * v - b * u,
        (b - d) * v - a * u,
        (a - c) * v + d * u,
        u * u - 2 * v * v,
    )
