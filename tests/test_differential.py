"""The engine against the independent oracles on small random pairs.

Pairs have degree at most 6 over Q and over F_p for p in 2, 3, 5 and
2^31 - 1, with leading coefficients that need not be 1.  Half of the pairs
over a small prime have both degrees divisible by p, where chain degrees can
go negative.  Each pair runs in both input orders.
"""

from fractions import Fraction

from hypothesis import example, given, settings
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


@settings(max_examples=100, deadline=None)
@given(pairs())
# over F_2 with chain degrees (12, 18, -9): the residual's image divides by f
@example((UniPoly.make(FIELDS[1], [1] + [0] * 7 + [1]),
          UniPoly.make(FIELDS[1], [0, 1, 0, 1] + [0] * 6 + [1, 0, 1])))
def test_trace_replays_event_by_event(pair):
    # each step replayed from g_s^(a_s) with the chain's own monomials, one
    # event at a time: every event must start at the residual's degree, and
    # each step must end in the next chain element or in the relation
    for f, g in (pair, pair[::-1]):
        result = run(f, g)
        chain = result.chain
        for s, step in enumerate(chain.steps):
            r_sym, r_img = step.symbolic**step.a, step.image**step.a
            for ev in (e for e in result.trace if e.step == s):
                assert r_img.zdeg() == ev.degree_before == chain.monomial_degree(ev.monomial)
                r_img = r_img - chain.monomial_image(ev.monomial).scale(ev.coefficient)
                r_sym = r_sym - chain.monomial_symbolic(ev.monomial).scale(ev.coefficient)
            assert substitute(r_sym, result.f, result.g) == r_img
            if s + 1 < len(chain.steps):
                assert r_img.zdeg() % step.d
                assert (r_sym, r_img) == (chain.steps[s + 1].symbolic, chain.steps[s + 1].image)
            else:
                assert not r_img
                top = r_sym.coefficient(0, result.relation_gdeg)
                assert result.relation == r_sym.scale(f.field.inv(top))


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
