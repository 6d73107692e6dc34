"""The engine against the independent oracles on small random pairs.

Pairs have degree at most 6 over Q and over F_p for p in 2, 3, 5 and
2^31 - 1, with leading coefficients that need not be 1.  Half of the pairs
over a small prime have both degrees divisible by p, where chain degrees can
go negative.  Each pair runs in both input orders.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from polydep import (
    BivarPoly,
    UniPoly,
    check_resultant_power,
    divides,
    minimality_certificate,
    prime_field,
    rationals,
    run,
    substitute,
    sylvester_resultant,
)

FIELDS = [rationals()] + [prime_field(p) for p in (2, 3, 5, 2**31 - 1)]
MAX_DEGREE = 6


@st.composite
def pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    p = field.characteristic()
    if p and p <= MAX_DEGREE and draw(st.booleans()):
        degrees = st.sampled_from(range(p, MAX_DEGREE + 1, p))  # p | gcd(deg f, deg g)
    else:
        degrees = st.integers(1, MAX_DEGREE)
    values = (
        st.fractions(min_value=-5, max_value=5, max_denominator=3)
        if p == 0
        else st.integers(min_value=-p, max_value=p)
    )
    lead = values.filter(lambda c: field.element(c) != 0)
    polys = []
    for _ in range(2):
        n = draw(degrees)
        coeffs = draw(st.lists(values, min_size=n, max_size=n)) + [draw(lead)]
        polys.append(UniPoly.make(field, coeffs))
    return tuple(polys)


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_engine_agrees_with_the_oracles(pair):
    for f, g in (pair, pair[::-1]):
        result = run(f, g)
        relation = result.relation
        assert relation.is_monic_in_g() and relation.is_polynomial()
        assert not substitute(relation, result.f, result.g)
        resultant = sylvester_resultant(result.f, result.g)
        bivar = BivarPoly.from_laurent(relation)
        if f.field.characteristic() == 0:
            assert check_resultant_power(bivar, resultant, result.d_final)
        else:
            assert divides(bivar, resultant)
        assert minimality_certificate(result.f, result.g, result.relation_gdeg)
        assert result.relation_gdeg == result.n // result.d_final


def test_pairs_reach_the_weak_corners():
    # the strategy draws non-monic f and pairs with p | gcd(deg f, deg g)
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(pairs())
    def collect(pair):
        f, g = pair
        p = f.field.characteristic()
        if f.leading_coefficient() != 1:
            seen.add("non-monic")
        if p and f.degree % p == 0 and g.degree % p == 0:
            seen.add("p | gcd")
        if p == 0 and any(Fraction(c).denominator > 1 for c in f.coeffs):
            seen.add("fractions")

    collect()
    assert seen == {"non-monic", "p | gcd", "fractions"}
