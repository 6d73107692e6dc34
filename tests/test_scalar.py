from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polydep import Field, parse_field, prime_field, rationals
from polydep.errors import CoefficientNotInField, DivisionByZero, InvalidFieldSpec, NotPrime
from polydep.scalar import _strong_lucas_probable_prime, clear_denominators, is_prime

Q = rationals()
F2 = prime_field(2)
F7 = prime_field(7)


def test_make_field_rationals():
    field = Field()
    assert field.characteristic() == 0
    assert field.name() == "q"
    assert field == rationals() and hash(field) == hash(rationals())


def test_make_field_f2():
    field = Field(2)
    assert field.characteristic() == 2
    assert field == F2 and field != Field() and field != F7


def test_make_field_rejects_composite():
    with pytest.raises(NotPrime):
        Field(4)
    with pytest.raises(NotPrime):
        Field(1)


def trial_division(n):
    """The reference: n is prime when no d <= sqrt(n) divides it."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == trial_division(n) for n in range(-5, 200_000))


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers, and strong pseudoprimes to bases 2..5 and 2..23
    for n in (561, 41041, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    # passes bases 2..37 and fails only 41
    n = 318665857834031151167461
    assert [a for a in MR_BASES if not strong_probable_prime(n, a)] == [41]
    assert not is_prime(n)
    # passes all thirteen bases, so only the Lucas half of Baillie-PSW rejects it
    n = 3317044064679887385961981
    assert all(strong_probable_prime(n, a) for a in MR_BASES)
    assert not is_prime(n)


def test_is_prime_large_primes_and_composites():
    for k in (61, 89, 127):
        assert is_prime(2**k - 1)
    # a square (no Selfridge parameter exists) and a product of two primes
    for n in ((2**61 - 1) ** 2, (2**61 - 1) * (2**89 - 1)):
        assert not is_prime(n)


def test_strong_lucas_pseudoprimes():
    # the least strong Lucas pseudoprimes with Selfridge's parameters (OEIS A217255)
    found = [n for n in range(43, 30_000, 2) if _strong_lucas_probable_prime(n)
             and not trial_division(n)]
    assert found == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
    assert all(_strong_lucas_probable_prime(n) for n in range(43, 30_000, 2)
               if trial_division(n))


def test_rational_arithmetic():
    half, third = Q.element(Fraction(1, 2)), Q.element(Fraction(1, 3))
    assert Q.reduce(half + third) == Fraction(5, 6)
    assert Q.div(half, third) == Fraction(3, 2)
    assert Q.inv(Q.element(-2)) == Fraction(-1, 2)


def test_char2_addition():
    assert F2.reduce(F2.one + F2.one) == 0
    assert F2.reduce(-F2.one) == 1


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.div(Q.one, Q.zero)
    with pytest.raises(DivisionByZero):
        F7.inv(0)


def test_element_coercion():
    assert F7.element(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    assert F7.element(-1) == 6
    assert Q.element("2/4") == Fraction(1, 2)
    with pytest.raises(CoefficientNotInField):
        F2.element(Fraction(1, 2))


def test_parse_field():
    assert parse_field("q").name() == "q"
    assert parse_field("fp:7").characteristic() == 7
    with pytest.raises(NotPrime):
        parse_field("fp:4")
    with pytest.raises(InvalidFieldSpec):
        parse_field("fp:")
    with pytest.raises(InvalidFieldSpec):
        parse_field("r")
    for digits in ("²", "٧", "1٧"):  # str.isdigit accepts these, and int() reads the last two
        with pytest.raises(InvalidFieldSpec):
            parse_field("fp:" + digits)
    with pytest.raises(InvalidFieldSpec, match="longer than 4300 digits"):
        parse_field("fp:1" + "0" * 4299 + "3")


def test_pow_negative_exponent():
    assert F7.pow(3, -1) == 5  # 3 * 5 = 15 = 1 mod 7
    assert Q.pow(Q.element(2), -2) == Fraction(1, 4)


rational_scalars = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)
f7_scalars = st.integers(min_value=0, max_value=6)


@given(rational_scalars, rational_scalars, rational_scalars)
def test_rational_field_axioms(a, b, c):
    r = Q.reduce
    assert r(r(a + b) + c) == r(a + r(b + c))
    assert r(r(a * b) * c) == r(a * r(b * c))
    assert r(a * r(b + c)) == r(r(a * b) + r(a * c))
    assert r(a + r(-a)) == Q.zero
    if a:
        assert r(a * Q.inv(a)) == Q.one
        assert Q.div(r(a * b), a) == b


@given(f7_scalars, f7_scalars, f7_scalars)
def test_prime_field_axioms(a, b, c):
    r = F7.reduce
    assert r(r(a + b) + c) == r(a + r(b + c))
    assert r(a * r(b + c)) == r(r(a * b) + r(a * c))
    assert r(a + r(-a)) == 0
    assert all(0 <= r(x) < 7 for x in (a + b, a - b, a * b, -a))
    if a:
        assert r(a * F7.inv(a)) == 1
        assert F7.div(r(a * b), a) == b


@given(rational_scalars, rational_scalars)
def test_canonical_equality(a, b):
    # canonical form is unique, so equality is representation identity
    assert (a == b) == ((a.numerator, a.denominator) == (b.numerator, b.denominator))


@given(st.lists(rational_scalars, min_size=1, max_size=8))
def test_clear_denominators_roundtrip(values):
    ints, den = clear_denominators(values)
    assert all(Fraction(i, den) == v for i, v in zip(ints, values))
