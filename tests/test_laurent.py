import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydep import GapValue, Laurent2, laurent, prime_field, rationals
from polydep.errors import ZeroElement
from polydep.laurent import mul_terms
from gen import random_laurent, random_monic_laurent

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)


def L(field, mapping):
    return Laurent2.make(field, mapping)


def test_square_of_g2_minus_f3():
    a = L(Q, {(0, 2): 1, (3, 0): -1})  # g^2 - f^3
    assert a * a == L(Q, {(0, 4): 1, (3, 2): -2, (6, 0): 1})


def test_exponent_addition():
    assert L(Q, {(-1, 1): 1}) * L(Q, {(1, 0): 1}) == L(Q, {(0, 1): 1})


def test_additive_inverse():
    a = L(Q, {(2, 3): 5, (-1, 0): 1})
    assert not (a + (-a))


def test_char2_square():
    a = L(F2, {(0, 2): 1, (3, 0): 1, (-1, 1): 1})  # g^2 + f^3 + f^-1 g
    assert a**2 == L(F2, {(0, 4): 1, (6, 0): 1, (-2, 2): 1})


def test_pow_trivial():
    g = Laurent2.g_gen(Q)
    assert g**3 == L(Q, {(0, 3): 1})
    a = L(Q, {(1, 1): 2, (0, 0): 1})
    assert a**1 == a
    assert a**0 == Laurent2.one(Q)


def test_largest_monomial():
    a = L(Q, {(0, 4): 1, (3, 2): -2, (6, 0): 1, (2, 1): -4, (1, 0): -1})
    assert a.largest_monomial() == (0, 4)
    assert L(Q, {(6, 0): 1, (1, 0): -1}).largest_monomial() == (6, 0)
    assert L(Q, {(-1, 1): 1, (5, 0): 1}).largest_monomial() == (-1, 1)
    with pytest.raises(ZeroElement):
        Laurent2.zero(Q).largest_monomial()


def test_gap_examples():
    assert L(Q, {(0, 2): 1, (3, 0): -1}).gap().is_infinite
    assert L(Q, {(-1, 1): 1}).gap() == GapValue.ratio(0, 0)
    char2_chain = L(F2, {(0, 2): 1, (3, 0): 1, (-1, 1): 1})
    assert char2_chain.gap() == GapValue.ratio(1, 1)
    with pytest.raises(ZeroElement):
        Laurent2.zero(Q).gap()


def test_is_polynomial():
    relation = L(Q, {(0, 4): 1, (3, 2): -2, (6, 0): 1, (2, 1): -4, (1, 0): -1})
    assert relation.is_polynomial()
    assert not L(F2, {(0, 2): 1, (3, 0): 1, (-1, 1): 1}).is_polynomial()
    assert Laurent2.zero(Q).is_polynomial()


def test_monic_in_g():
    assert L(Q, {(0, 2): 1, (3, 0): -1}).is_monic_in_g()
    assert not L(Q, {(1, 2): 1, (3, 0): -1}).is_monic_in_g()  # top coeff is f
    assert not L(Q, {(0, 2): 2}).is_monic_in_g()


def test_gap_order():
    assert GapValue.infinite() > GapValue.ratio(100, 100)
    assert GapValue.ratio(0, 1) > GapValue.ratio(10, 0)  # g beats any f power
    assert GapValue.ratio(2, 1) > GapValue.ratio(1, 1)
    assert GapValue.ratio(1, 1) ** 2 == GapValue.ratio(2, 2)


def test_render_order():
    a = L(Q, {(0, 4): 1, (3, 2): -2, (6, 0): 1, (2, 1): -4, (1, 0): -1})
    assert a.render() == "g^4 - 2*f^3*g^2 - 4*f^2*g + f^6 - f"
    assert Laurent2.zero(Q).render() == "0"
    assert L(Q, {(-1, 1): 1, (0, 0): -3}).render() == "f^-1*g - 3"


# -- gap properties on random elements ----------------------------------------


def gap_product_lower_bound(h1, h2):
    product = h1 * h2
    if not product:
        return True
    return product.gap() >= min(h1.gap(), h2.gap())


def test_gap_property_product():
    rng = random.Random(4242)
    for _ in range(400):
        field = rng.choice([Q, F2, F3])
        h1 = random_laurent(rng, field)
        h2 = random_laurent(rng, field)
        assert gap_product_lower_bound(h1, h2), (h1, h2)


def test_gap_property_power_char0():
    rng = random.Random(515)
    for _ in range(300):
        h = random_monic_laurent(rng, Q)
        d = rng.randint(1, 5)
        assert (h**d).gap() == h.gap(), (h, d)


def test_gap_property_f_multiple():
    rng = random.Random(77)
    f = Laurent2.f_gen(Q)
    for _ in range(300):
        h = random_laurent(rng, Q)
        assert (f * h).gap() >= h.gap(), h


def test_gap_property_power_char_p():
    rng = random.Random(3131)
    for p in (2, 3, 5):
        field = prime_field(p)
        for _ in range(120):
            h = random_monic_laurent(rng, field)
            d = rng.randint(1, 8)
            d1, alpha = d, 0
            while d1 % p == 0:
                d1 //= p
                alpha += 1
            expected = h.gap() ** (p**alpha)
            got = (h**d).gap()
            assert got == expected, (h, d)
            assert got >= h.gap()


def test_pow_matches_iterated_mul():
    rng = random.Random(888)
    for _ in range(60):
        field = rng.choice([Q, F3])
        h = random_laurent(rng, field, max_terms=4)
        acc = Laurent2.one(field)
        for e in range(5):
            assert h**e == acc
            acc = acc * h


def test_mul_commutative_associative():
    rng = random.Random(909)
    for _ in range(60):
        field = rng.choice([Q, F2])
        a = random_laurent(rng, field, max_terms=4)
        b = random_laurent(rng, field, max_terms=4)
        c = random_laurent(rng, field, max_terms=4)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


# -- the product: grid or dict loop ------------------------------------------------


@st.composite
def operand_pairs(draw):
    """(field, a, b) over Q (fractional coefficients), F_2 or F_(2^31-1).

    Each operand has one term, or fills part of a small (f, g) box, which
    the grid product takes, or is spread over a wide f-range, which the
    dict loop takes; f-exponents may be negative.
    """
    field = draw(st.sampled_from([Q, F2, prime_field(2**31 - 1)]))
    if field.p is None:
        values = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
    else:
        values = st.integers(1, field.p - 1)

    def operand():
        shape = draw(st.sampled_from(["one term", "box", "box", "wide"]))
        if shape == "one term":
            keys = [(draw(st.integers(-9, 9)), draw(st.integers(0, 4)))]
        elif shape == "box":
            f0, g0 = draw(st.integers(-6, 3)), draw(st.integers(0, 2))
            box = [(f0 + i, g0 + j) for i in range(draw(st.integers(4, 7)))
                   for j in range(draw(st.integers(2, 4)))]
            holes = draw(st.sets(st.sampled_from(box), max_size=len(box) // 5))
            keys = [k for k in box if k not in holes]
        else:
            keys = draw(st.lists(st.tuples(st.integers(-60, 60), st.integers(0, 5)),
                                 min_size=2, max_size=8))
        return Laurent2.make(field, {k: draw(values) for k in keys})

    return field, operand(), operand()


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_mul_equals_dict_convolution(case):
    field, a, b = case
    product = a * b
    assert product == Laurent2(field, mul_terms(a.terms, b.terms, field.reduce))
    assert all(type(c) is type(field.one) for c in product.terms.values())


def test_mul_cases_reach_both_kernels(monkeypatch):
    # the strategy above sends products both ways, in every field, with
    # one-term operands, fractions and negative f-exponents among them
    grid = []
    kronecker = laurent._kronecker
    monkeypatch.setattr(laurent, "_kronecker", lambda a, b: grid.append(1) or kronecker(a, b))
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(operand_pairs())
    def collect(case):
        field, a, b = case
        before = len(grid)
        a * b
        kernel = "grid" if len(grid) > before else "dict"
        seen.add((kernel, field.name()))
        if min(len(a.terms), len(b.terms)) == 1:
            seen.add("one-term operand")
        if any(fe < 0 for fe, _ in a.terms) and kernel == "grid":
            seen.add("negative f-exponent on the grid")
        if field.p is None and any(c.denominator > 1 for c in a.terms.values()):
            seen.add("fraction")

    collect()
    assert seen == {
        (kernel, field) for kernel in ("grid", "dict") for field in ("q", "fp:2", "fp:2147483647")
    } | {"one-term operand", "negative f-exponent on the grid", "fraction"}
