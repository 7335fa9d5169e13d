"""GF(p) moduli are checked by deterministic Miller-Rabin, whose cost grows
with the digits of p rather than with its square root."""

from __future__ import annotations

from fractions import Fraction

import pytest

from leavitt import NotSupportedError, PrimeField
from leavitt.algebra import _MR_BOUND, _is_prime


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_agrees_with_trial_division_below_10_000():
    assert [n for n in range(10_000) if _is_prime(n)] == [n for n in range(10_000) if _trial_division(n)]


def test_rejects_strong_pseudoprimes():
    # strong pseudoprime to the bases 2, 3, 5 and 7
    assert not _is_prime(3215031751)
    # strong pseudoprime to each of the first 12 prime bases, the reason a
    # 13th base is needed: 399165290221 * 798330580441
    assert not _is_prime(318665857834031151167461)
    # the bound itself is a strong pseudoprime to all 13 bases
    assert _MR_BOUND == 1287836182261 * 2575672364521
    with pytest.raises(NotSupportedError):
        PrimeField(3215031751)


def test_large_prime_field():
    field = PrimeField(10**18 + 3)
    assert field.mul(field.invert(7), 7) == 1
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert not _is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_modulus_above_the_bound_is_rejected():
    with pytest.raises(NotSupportedError, match=str(_MR_BOUND)):
        PrimeField(_MR_BOUND)
    with pytest.raises(NotSupportedError, match=str(_MR_BOUND)):
        PrimeField(2**89 - 1)


def test_an_order_too_long_to_print_is_rejected_by_its_size():
    # str() of these raises ValueError past sys.get_int_max_str_digits() digits
    for p in (10**5000, -(10**5000)):
        with pytest.raises(NotSupportedError, match="not for an integer of 16610 bits"):
            PrimeField(p)


def test_scalar_whose_denominator_p_divides_is_rejected():
    field = PrimeField(7)
    for x in ("1/7", Fraction(1, 7), "3/14"):
        with pytest.raises(NotSupportedError, match=r"has no value in GF\(7\): 7 divides its denominator"):
            field.coerce(x)
    assert field.coerce("2/3") == field.coerce(Fraction(2, 3)) == 3
    with pytest.raises(NotSupportedError, match=r"cannot coerce 'x' into GF\(7\)"):
        field.coerce("x")
