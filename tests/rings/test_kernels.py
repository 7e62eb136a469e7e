"""Integer-level ring kernels against the public-constructor reference.

``DOmega``/``QOmega`` arithmetic runs on canonical integer keys
(:func:`repro.rings.domega.domega_mul` and friends) and never builds a
``ZOmega`` on the way.  The public constructors keep the original
``ZOmega``-based canonicalisation, so they are an independent oracle:
every reference below computes with ``ZOmega`` arithmetic and lets the
constructor canonicalise.  Inputs include coefficients far wider than
64 bits, negative denominator exponents and (for ``Q[omega]``) odd,
even and negative denominators.

Each result must also be a canonical, registrable weight: it
recanonicalises to itself through the number systems' sanitizer hook,
survives ``pickle`` and evaluates to the exact value (computed with
:class:`fractions.Fraction`) within double rounding.
"""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dd.number_system import AlgebraicGcdSystem, AlgebraicQOmegaSystem
from repro.errors import InexactDivisionError, ZeroDivisionRingError
from repro.rings.domega import (
    DOmega,
    domega_add,
    domega_canonical_associate,
    domega_conj,
    domega_divide,
    domega_mul,
    domega_unit_inverse,
)
from repro.rings.qomega import QOmega, qomega_add, qomega_conj, qomega_inverse, qomega_mul
from repro.rings.zomega import ZOmega

coefficients = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-(1 << 100), max_value=1 << 100),
)
exponents = st.integers(min_value=-12, max_value=12)
denominators = st.one_of(
    st.integers(min_value=-45, max_value=45),
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
).filter(bool)

domegas = st.builds(
    lambda a, b, c, d, k: DOmega(ZOmega(a, b, c, d), k),
    coefficients, coefficients, coefficients, coefficients, exponents,
)
#: Small divisors: their norms have small odd parts (3, 7, 9, ...), the
#: case where D[omega] division must check and divide out the odd part.
small_domegas = st.builds(
    lambda a, b, c, d, k: DOmega(ZOmega(a, b, c, d), k),
    *[st.integers(min_value=-3, max_value=3)] * 4, exponents,
)
qomegas = st.builds(
    lambda a, b, c, d, k, e: QOmega(ZOmega(a, b, c, d), k, e),
    coefficients, coefficients, coefficients, coefficients, exponents, denominators,
)

#: Products of the unit generators 1/sqrt2, omega and omega +- 1.
_GENERATORS = (
    DOmega.one_over_sqrt2(),
    DOmega.omega_power(1),
    DOmega.from_coefficients(0, 0, 1, 1),
    DOmega.from_coefficients(0, 0, 1, -1),
)
units = st.lists(st.sampled_from(_GENERATORS), max_size=8).map(
    lambda factors: math.prod(factors, start=DOmega.one())
)

KERNEL_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)

_GCD_SYSTEM = AlgebraicGcdSystem()
_Q_SYSTEM = AlgebraicQOmegaSystem()


# ---------------------------------------------------------------------------
# References: ZOmega arithmetic, canonicalised by the public constructors
# ---------------------------------------------------------------------------


def _scaled(zeta, power):
    for _ in range(power):
        zeta = zeta.mul_sqrt2()
    return zeta


def d_add_ref(x, y):
    k = max(x.k, y.k)
    return DOmega(_scaled(x.zeta, k - x.k) + _scaled(y.zeta, k - y.k), k)


def d_mul_ref(x, y):
    return DOmega(x.zeta * y.zeta, x.k + y.k)


def q_add_ref(x, y):
    k = max(x.k, y.k)
    lcm = x.e * y.e // math.gcd(x.e, y.e)
    return QOmega(
        _scaled(x.zeta, k - x.k) * (lcm // x.e) + _scaled(y.zeta, k - y.k) * (lcm // y.e),
        k,
        lcm,
    )


def q_mul_ref(x, y):
    return QOmega(x.zeta * y.zeta, x.k + y.k, x.e * y.e)


def q_inverse_ref(x):
    u, v = x.zeta.norm_zsqrt2()
    numerator = x.zeta.conj() * (ZOmega.from_int(u) - ZOmega.sqrt2() * v)
    return QOmega(numerator * x.e, -x.k, u * u - 2 * v * v)


def d_divide_ref(x, y):
    """``x / y`` through the field Q[omega]; ``None`` outside D[omega]."""
    quotient = q_mul_ref(QOmega(x.zeta, x.k), q_inverse_ref(QOmega(y.zeta, y.k)))
    return DOmega(quotient.zeta, quotient.k) if quotient.e == 1 else None


def _sign(value):
    return (value > 0) - (value < 0)


def _strip_sqrt2(zeta):
    while zeta and zeta.divisible_by_sqrt2():
        zeta = zeta.divide_by_sqrt2()
    return zeta


def _norm_measure(zeta):
    def twos(first, second):
        while first and second and first % 2 == 0 and second % 2 == 0:
            first, second = first // 2, second // 2
        return (first, second)

    u, v = zeta.norm_zsqrt2()
    return min(twos(abs(u), abs(v)), twos(abs(2 * v), abs(u)))


def canonical_associate_ref(x):
    """Properties (a)-(c) of Section IV-B, step by step on ZOmega."""
    if x.is_zero():
        return (DOmega.zero(), DOmega.one())
    best = _strip_sqrt2(x.zeta)
    best_measure = _norm_measure(best)
    improved = True
    while improved:
        improved = False
        for generator in (ZOmega(0, 0, 1, 1), ZOmega(0, 0, 1, -1)):
            candidate = _strip_sqrt2(best * generator)
            measure = _norm_measure(candidate)
            if measure < best_measure:
                best, best_measure, improved = candidate, measure, True
    ranked = []
    current = best
    for _ in range(4):
        for signed in (current, -current):
            a, b, c, d = signed.coefficients()
            ranked.append(
                (
                    (abs(a), abs(b), abs(c), abs(d)),
                    (-_sign(d), -_sign(c), -_sign(b), -_sign(a)),
                    (a, b, c, d),
                )
            )
        current = current * ZOmega.omega()
    canonical = DOmega(ZOmega(*min(ranked)[2]), 0)
    return (canonical, d_divide_ref(x, canonical))


# ---------------------------------------------------------------------------
# Per-result checks
# ---------------------------------------------------------------------------

_SQRT2_HALF = Fraction(1, 2)


def _exact_parts(value):
    """``(re, im)`` as pairs ``(p, q)`` meaning ``p + q*sqrt2`` exactly."""
    key = value.key()
    a, b, c, d, k = key[:5]
    e = key[5] if len(key) == 6 else 1
    # value = [d + (c - a) sqrt2/2] + i [b + (c + a) sqrt2/2], over sqrt2**k * e.
    re = (Fraction(d), Fraction(c - a) * _SQRT2_HALF)
    im = (Fraction(b), Fraction(c + a) * _SQRT2_HALF)
    half, odd = divmod(k, 2)
    scale = Fraction(1, e) / Fraction(2) ** half
    if odd:  # one more 1/sqrt2: (p + q sqrt2)/sqrt2 = q + (p/2) sqrt2
        re, im = (re[1], re[0] / 2), (im[1], im[0] / 2)
    return (re[0] * scale, re[1] * scale), (im[0] * scale, im[1] * scale)


def _check_result(value, system):
    assert system._recanonicalize(value).key() == value.key()
    clone = pickle.loads(pickle.dumps(value))
    assert type(clone) is type(value) and clone.key() == value.key() and clone == value
    (re_p, re_q), (im_p, im_q) = _exact_parts(value)
    root2 = math.sqrt(2)
    got = value.to_complex()
    # Double rounding of the coefficients bounds the evaluation error.
    key = value.key()
    denominator = key[5] if len(key) == 6 else 1
    magnitude = float(max(abs(part) for part in key[:4])) * 4 / (root2 ** key[4] * denominator)
    for part, (p, q) in ((got.real, (re_p, re_q)), (got.imag, (im_p, im_q))):
        assert abs(part - (float(p) + float(q) * root2)) <= 1e-12 * magnitude


def check_d(value):
    _check_result(value, _GCD_SYSTEM)


def check_q(value):
    _check_result(value, _Q_SYSTEM)


# ---------------------------------------------------------------------------
# D[omega]
# ---------------------------------------------------------------------------


class TestDOmegaKernels:
    @KERNEL_SETTINGS
    @given(domegas, domegas)
    def test_add(self, x, y):
        reference = d_add_ref(x, y)
        assert domega_add(x.key(), y.key()) == reference.key()
        assert (x + y).key() == reference.key()
        check_d(x + y)

    @KERNEL_SETTINGS
    @given(domegas, domegas)
    def test_mul(self, x, y):
        reference = d_mul_ref(x, y)
        assert domega_mul(x.key(), y.key()) == reference.key()
        assert (x * y).key() == reference.key()
        check_d(x * y)

    @KERNEL_SETTINGS
    @given(domegas)
    def test_conj(self, x):
        reference = DOmega(x.zeta.conj(), x.k)
        assert domega_conj(x.key()) == reference.key()
        check_d(x.conj())

    @KERNEL_SETTINGS
    @given(domegas, st.one_of(small_domegas, domegas))
    def test_exact_divide_of_product(self, x, y):
        if y.is_zero():
            with pytest.raises(ZeroDivisionRingError):
                x.exact_divide(y)
            return
        product = d_mul_ref(x, y)
        assert domega_divide(product.key(), y.key()) == x.key()
        assert product.exact_divide(y) == x
        check_d(product.exact_divide(y))

    @KERNEL_SETTINGS
    @given(st.one_of(small_domegas, domegas), st.one_of(small_domegas, domegas))
    def test_exact_divide(self, x, y):
        if y.is_zero():
            return
        reference = d_divide_ref(x, y)
        if reference is None:
            assert domega_divide(x.key(), y.key()) is None
            with pytest.raises(InexactDivisionError):
                x.exact_divide(y)
        else:
            assert domega_divide(x.key(), y.key()) == reference.key()
            check_d(x.exact_divide(y))

    @KERNEL_SETTINGS
    @given(units, domegas)
    def test_unit_inverse(self, unit, x):
        reference = d_divide_ref(DOmega.one(), unit)
        assert domega_unit_inverse(unit.key()) == reference.key()
        inverse = unit.unit_inverse()
        assert d_mul_ref(unit, inverse).is_one()
        check_d(inverse)
        if not x.is_unit():
            assert domega_unit_inverse(x.key()) is None
            with pytest.raises(InexactDivisionError):
                x.unit_inverse()

    @KERNEL_SETTINGS
    @given(domegas, units)
    def test_canonical_associate(self, x, unit):
        canonical, factor = canonical_associate_ref(x)
        assert domega_canonical_associate(x.key()) == (canonical.key(), factor.key())
        got_canonical, got_unit = x.canonical_associate()
        assert d_mul_ref(got_canonical, got_unit) == x
        # Associates share their canonical associate (Algorithm 3 relies on it).
        associate = x * unit
        reference = canonical_associate_ref(associate)
        assert domega_canonical_associate(associate.key()) == tuple(v.key() for v in reference)
        assert associate.canonical_associate()[0] == got_canonical
        check_d(got_canonical)
        check_d(got_unit)


# ---------------------------------------------------------------------------
# Q[omega]
# ---------------------------------------------------------------------------


class TestQOmegaKernels:
    @KERNEL_SETTINGS
    @given(qomegas, qomegas)
    def test_add(self, x, y):
        reference = q_add_ref(x, y)
        assert qomega_add(x.key(), y.key()) == reference.key()
        assert (x + y).key() == reference.key()
        check_q(x + y)

    @KERNEL_SETTINGS
    @given(qomegas, qomegas)
    def test_mul(self, x, y):
        reference = q_mul_ref(x, y)
        assert qomega_mul(x.key(), y.key()) == reference.key()
        assert (x * y).key() == reference.key()
        check_q(x * y)

    @KERNEL_SETTINGS
    @given(qomegas)
    def test_conj(self, x):
        reference = QOmega(x.zeta.conj(), x.k, x.e)
        assert qomega_conj(x.key()) == reference.key()
        check_q(x.conj())

    @KERNEL_SETTINGS
    @given(qomegas, qomegas)
    def test_inverse_and_division(self, x, y):
        if x.is_zero():
            with pytest.raises(ZeroDivisionRingError):
                x.inverse()
            return
        reference = q_inverse_ref(x)
        assert qomega_inverse(x.key()) == reference.key()
        assert q_mul_ref(x, x.inverse()).is_one()
        check_q(x.inverse())
        quotient = y / x
        assert quotient.key() == q_mul_ref(y, reference).key()
        check_q(quotient)

    @KERNEL_SETTINGS
    @given(qomegas)
    def test_trusted_constructor_round_trips(self, x):
        rebuilt = QOmega.from_canonical_key(x.key())
        assert rebuilt == x and rebuilt.zeta == x.zeta and (rebuilt.k, rebuilt.e) == (x.k, x.e)
