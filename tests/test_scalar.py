from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polydep import Field, parse_field, prime_field, rationals
from polydep.errors import (
    CoefficientNotInField,
    DivisionByZero,
    FieldMismatch,
    InvalidFieldSpec,
    MissingModulus,
    NotPrime,
)
from polydep.scalar import PRIME_FIELD, RATIONALS, clear_denominators, is_prime

Q = rationals()
F2 = prime_field(2)
F7 = prime_field(7)


def test_make_field_rationals():
    field = Field(RATIONALS)
    assert field.characteristic() == 0
    assert field.name() == "q"


def test_make_field_f2():
    field = Field(PRIME_FIELD, 2)
    assert field.characteristic() == 2


def test_make_field_rejects_composite():
    with pytest.raises(NotPrime):
        Field(PRIME_FIELD, 4)
    with pytest.raises(NotPrime):
        Field(PRIME_FIELD, 1)


def test_make_field_requires_modulus():
    with pytest.raises(MissingModulus):
        Field(PRIME_FIELD)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_rational_arithmetic():
    half, third = Q.element(Fraction(1, 2)), Q.element(Fraction(1, 3))
    assert Q.add(half, third) == Fraction(5, 6)
    assert Q.inv(Q.element(-2)) == Fraction(-1, 2)


def test_char2_addition():
    assert F2.add(F2.one, F2.one) == 0


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.div(Q.one, Q.zero)
    with pytest.raises(DivisionByZero):
        F7.inv(0)


def test_field_mismatch_guard():
    with pytest.raises(FieldMismatch):
        F7.add(Fraction(1, 2), 1)
    with pytest.raises(FieldMismatch):
        Q.mul(1, Q.one)  # plain int is not a canonical rational scalar


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


def test_pow_negative_exponent():
    assert F7.pow(3, -1) == 5  # 3 * 5 = 15 = 1 mod 7
    assert Q.pow(Q.element(2), -2) == Fraction(1, 4)


rational_scalars = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)
f7_scalars = st.integers(min_value=0, max_value=6)


@given(rational_scalars, rational_scalars, rational_scalars)
def test_rational_field_axioms(a, b, c):
    assert Q.add(Q.add(a, b), c) == Q.add(a, Q.add(b, c))
    assert Q.mul(Q.mul(a, b), c) == Q.mul(a, Q.mul(b, c))
    assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))
    assert Q.add(a, Q.neg(a)) == Q.zero
    if a:
        assert Q.mul(a, Q.inv(a)) == Q.one


@given(f7_scalars, f7_scalars, f7_scalars)
def test_prime_field_axioms(a, b, c):
    assert F7.add(F7.add(a, b), c) == F7.add(a, F7.add(b, c))
    assert F7.mul(a, F7.add(b, c)) == F7.add(F7.mul(a, b), F7.mul(a, c))
    assert F7.add(a, F7.neg(a)) == 0
    if a:
        assert F7.mul(a, F7.inv(a)) == 1


@given(rational_scalars, rational_scalars)
def test_canonical_equality(a, b):
    # canonical form is unique, so equality is representation identity
    assert (a == b) == ((a.numerator, a.denominator) == (b.numerator, b.denominator))


@given(st.lists(rational_scalars, min_size=1, max_size=8))
def test_clear_denominators_roundtrip(values):
    ints, den = clear_denominators(values)
    assert all(Fraction(i, den) == v for i, v in zip(ints, values))
