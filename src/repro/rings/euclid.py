r"""Euclidean division and greatest common divisors in :math:`\mathbb{Z}[\omega]`.

The paper's second normalisation scheme (Algorithm 3) divides QMDD edge
weights by a *greatest common divisor*, which requires
:math:`\mathbb{Z}[\omega]` to be a Euclidean ring.  It is: the absolute
field norm ``E`` (:meth:`repro.rings.zomega.ZOmega.euclidean_norm`) is a
Euclidean function, with the quotient obtained by performing the
division in :math:`\mathbb{Q}[\omega]` and rounding each coefficient to
the nearest integer (paper, Section IV-B; the remainder then satisfies
``E(r) <= (9/16) E(z2)``).

The rounding quotient occasionally needs adjustment in corner cases, so
:func:`euclidean_divmod` falls back to scanning the 3^4 nearest integer
quotients; norm-Euclideanity of :math:`\mathbb{Q}(\zeta_8)` guarantees a
remainder with strictly smaller norm exists.
"""

from __future__ import annotations

from itertools import product
from typing import Tuple

from repro.errors import ZeroDivisionRingError
from repro.rings.zomega import (
    Coefficients,
    ZOmega,
    coefficients_euclidean_norm,
    coefficients_inverse,
    coefficients_mul,
)

__all__ = [
    "coefficients_divmod",
    "coefficients_gcd",
    "euclidean_divmod",
    "gcd_many",
    "gcd_zomega",
]


def _round_ratio_half_even(numerator: int, denominator: int) -> int:
    """Round ``numerator / denominator`` (``denominator > 0``) to the
    nearest integer, ties to even -- pure integer arithmetic (the hot
    loop used to route through :class:`fractions.Fraction`, whose
    constructor runs an integer gcd per call)."""
    floor, remainder = divmod(numerator, denominator)
    doubled = remainder << 1
    if doubled > denominator:
        return floor + 1
    if doubled < denominator:
        return floor
    return floor + (floor & 1)


def _remainder(x: Coefficients, quotient: Coefficients, y: Coefficients) -> Coefficients:
    """``x - quotient * y``."""
    qa, qb, qc, qd = coefficients_mul(quotient, y)
    return (x[0] - qa, x[1] - qb, x[2] - qc, x[3] - qd)


def coefficients_divmod(
    x: Coefficients, y: Coefficients
) -> Tuple[Coefficients, Coefficients]:
    """:func:`euclidean_divmod` on bare coefficient quadruples."""
    if not (y[0] or y[1] or y[2] or y[3]):
        raise ZeroDivisionRingError("Euclidean division by zero in Z[omega]")
    # The exact quotient in Q[omega] is x * p / n (see coefficients_inverse).
    pa, pb, pc, pd, denominator = coefficients_inverse(*y)
    numerator = coefficients_mul(x, (pa, pb, pc, pd))
    bound = abs(denominator)
    if denominator < 0:
        numerator = (-numerator[0], -numerator[1], -numerator[2], -numerator[3])
    rounded = (
        _round_ratio_half_even(numerator[0], bound),
        _round_ratio_half_even(numerator[1], bound),
        _round_ratio_half_even(numerator[2], bound),
        _round_ratio_half_even(numerator[3], bound),
    )
    remainder = _remainder(x, rounded, y)
    best_norm = coefficients_euclidean_norm(*remainder)
    if best_norm < bound:
        return (rounded, remainder)
    # Nearest-integer rounding can fail on the boundary of the fundamental
    # domain; scan the neighbouring lattice quotients (norm-Euclideanity
    # guarantees a suitable one exists).
    best = (rounded, remainder)
    for offsets in product((-1, 0, 1), repeat=4):
        candidate = (
            rounded[0] + offsets[0],
            rounded[1] + offsets[1],
            rounded[2] + offsets[2],
            rounded[3] + offsets[3],
        )
        candidate_remainder = _remainder(x, candidate, y)
        candidate_norm = coefficients_euclidean_norm(*candidate_remainder)
        if candidate_norm < best_norm:
            best = (candidate, candidate_remainder)
            best_norm = candidate_norm
            if best_norm < bound:
                break
    if best_norm >= bound:  # pragma: no cover - mathematically unreachable
        raise ArithmeticError(f"Euclidean step failed for {x!r} / {y!r}")
    return best


def coefficients_gcd(x: Coefficients, y: Coefficients) -> Coefficients:
    """:func:`gcd_zomega` on bare coefficient quadruples."""
    if not (x[0] or x[1] or x[2] or x[3]):
        return y
    while y[0] or y[1] or y[2] or y[3]:
        x, y = y, coefficients_divmod(x, y)[1]
    return x


def euclidean_divmod(z1: ZOmega, z2: ZOmega) -> Tuple[ZOmega, ZOmega]:
    """Division with remainder: ``z1 = q * z2 + r`` with ``E(r) < E(z2)``.

    Raises :class:`ZeroDivisionRingError` for a zero divisor.
    """
    quotient, remainder = coefficients_divmod(z1.coefficients(), z2.coefficients())
    return (ZOmega(*quotient), ZOmega(*remainder))


def gcd_zomega(z1: ZOmega, z2: ZOmega) -> ZOmega:
    """A greatest common divisor of two ``Z[omega]`` elements.

    GCDs are only defined up to multiplication by units; the caller
    (Algorithm 3's normalisation) applies its own unit-selection rules
    afterwards.  ``gcd(0, 0) = 0`` by convention.
    """
    return ZOmega(*coefficients_gcd(z1.coefficients(), z2.coefficients()))


def gcd_many(*elements: ZOmega) -> ZOmega:
    """Iterated GCD of any number of elements (``0`` if all are zero)."""
    result = ZOmega.zero()
    for element in elements:
        result = gcd_zomega(result, element)
        if result.is_unit():
            break
    return result
