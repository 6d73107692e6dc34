import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from polydep import (
    BivarPoly,
    Laurent2,
    UniPoly,
    check_resultant_power,
    det_cofactor,
    det_fraction_free,
    divides,
    minimality_certificate,
    prime_field,
    rationals,
    run,
    substitute,
    sylvester_matrix,
    sylvester_resultant,
)
from polydep.errors import (
    DegreeCapExceeded,
    NotPolynomial,
    PreconditionFailed,
    WrongCharacteristic,
)
from polydep.laurent import mul_terms
from gen import random_pair

Q = rationals()
F2 = prime_field(2)


def poly(field, *coeffs):
    return UniPoly.make(field, coeffs)


def z_pow(field, k):
    return UniPoly.monomial(field, k)


def B(field, mapping):
    return BivarPoly.make(field, mapping)


def proportional(a, b):
    """a = c * b for a nonzero scalar c."""
    if not a or not b:
        return not a and not b
    lead = max(a.terms)
    if max(b.terms) != lead:
        return False
    c = a.field.div(a.terms[lead], b.terms[lead])
    return a == b.scale(c)


# -- substitution ---------------------------------------------------------------


def test_substitute_golden_relation_vanishes():
    relation = Laurent2.make(
        Q, {(0, 4): 1, (3, 2): -2, (6, 0): 1, (2, 1): -4, (1, 0): -1}
    )
    image = substitute(relation, z_pow(Q, 4), poly(Q, 0, -1, 0, 0, 0, 0, 1))
    assert not image


def test_substitute_trivial_cases():
    assert not substitute(
        Laurent2.make(Q, {(0, 1): 1, (1, 0): -1}), z_pow(Q, 2), z_pow(Q, 2)
    )
    image = substitute(Laurent2.g_gen(Q), z_pow(Q, 2), z_pow(Q, 3))
    assert image.num == z_pow(Q, 3) and image.fpow == 0


def test_substitute_negative_powers():
    # f^-1 * g at (z^4, z^6 - z) over F2 is z^-3
    h = Laurent2.make(F2, {(-1, 1): 1})
    image = substitute(h, z_pow(F2, 4), poly(F2, 0, -1, 0, 0, 0, 0, 1))
    assert image.zdeg() == 2  # (z^6 + z) / z^4, nothing cancels
    chain_el = Laurent2.make(F2, {(0, 2): 1, (3, 0): 1, (-1, 1): 1})
    image = substitute(chain_el, z_pow(F2, 4), poly(F2, 0, -1, 0, 0, 0, 0, 1))
    assert image.zdeg() == -3


# -- resultants -------------------------------------------------------------------


def test_resultant_cusp():
    res = sylvester_resultant(z_pow(Q, 2), z_pow(Q, 3))
    assert proportional(res, B(Q, {(0, 2): 1, (3, 0): -1}))  # +/- (y^2 - x^3)


def test_resultant_equal_squares():
    res = sylvester_resultant(z_pow(Q, 2), z_pow(Q, 2))
    target = B(Q, {(0, 1): 1, (1, 0): -1})  # y - x
    assert proportional(res, target * target)


def test_resultant_linear():
    res = sylvester_resultant(UniPoly.z(Q), UniPoly.z(Q))
    assert proportional(res, B(Q, {(0, 1): 1, (1, 0): -1}))


def test_resultant_degree_sanity():
    rng = random.Random(13)
    for _ in range(15):
        f, g = random_pair(rng, Q, max_degree=5)
        res = sylvester_resultant(f, g)
        assert res.degree_y == f.degree
        assert res.degree_x == g.degree


def test_resultant_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        sylvester_resultant(z_pow(Q, 30), z_pow(Q, 30))
    with pytest.raises(DegreeCapExceeded):
        minimality_certificate(z_pow(Q, 30), z_pow(Q, 30), 2)


def test_fraction_free_matches_cofactor():
    rng = random.Random(31)
    for size in range(1, 7):
        for field in (Q, prime_field(5)):
            matrix = []
            for _ in range(size):
                row = []
                for _ in range(size):
                    terms = {}
                    for _ in range(rng.randint(0, 2)):
                        terms[(rng.randint(0, 1), rng.randint(0, 1))] = rng.randint(-3, 3)
                    row.append(BivarPoly.make(field, terms))
                matrix.append(row)
            assert det_fraction_free(matrix, field) == det_cofactor(matrix, field)


def test_sylvester_matrix_shape():
    f, g = z_pow(Q, 2), z_pow(Q, 3)
    matrix = sylvester_matrix(f, g)
    assert len(matrix) == 5 and all(len(row) == 5 for row in matrix)


# -- power identity ----------------------------------------------------------------


def test_check_resultant_power_examples():
    p_cusp = B(Q, {(0, 2): 1, (3, 0): -1})
    assert check_resultant_power(p_cusp, -p_cusp, 1)
    line = B(Q, {(0, 1): 1, (1, 0): -1})
    assert check_resultant_power(line, line * line, 2)
    assert not check_resultant_power(line, p_cusp, 1)


def test_check_resultant_power_char0_only():
    one = BivarPoly.one(F2)
    with pytest.raises(WrongCharacteristic):
        check_resultant_power(one, one, 1)


def test_divides():
    line = B(Q, {(0, 1): 1, (1, 0): -1})
    assert divides(line, line * line)
    assert not divides(B(Q, {(0, 2): 1, (3, 0): -1}), line)


# -- minimality ---------------------------------------------------------------------


def test_minimality_cusp():
    f, g = z_pow(Q, 2), z_pow(Q, 3)
    assert minimality_certificate(f, g, 2) is True
    assert minimality_certificate(f, g, 3) is False  # g^2 - f^3 has g-degree 2


def test_minimality_linear():
    assert minimality_certificate(UniPoly.z(Q), UniPoly.z(Q), 1) is True


def test_minimality_insane_k():
    with pytest.raises(PreconditionFailed):
        minimality_certificate(z_pow(Q, 2), z_pow(Q, 3), 7)


# -- the three checks against engine output -------------------------------------------


def test_oracles_confirm_engine_char0():
    rng = random.Random(55)
    for _ in range(12):
        f, g = random_pair(rng, Q, max_degree=5)
        result = run(f, g)
        assert not substitute(result.relation, result.f, result.g)
        relation = BivarPoly.from_laurent(result.relation)
        resultant = sylvester_resultant(result.f, result.g)
        assert check_resultant_power(relation, resultant, result.d_final)
        assert minimality_certificate(result.f, result.g, result.relation_gdeg)


def test_resultant_power_with_ds_above_one():
    # f = g = z^2 ends with d_s = 2, so the resultant is c * P^2
    result = run(z_pow(Q, 2), z_pow(Q, 2))
    assert result.d_final == 2
    relation = BivarPoly.from_laurent(result.relation)
    resultant = sylvester_resultant(result.f, result.g)
    assert check_resultant_power(relation, resultant, 2)
    assert not check_resultant_power(relation, resultant, 1)


def test_oracles_confirm_engine_char_p():
    rng = random.Random(56)
    for p in (2, 3):
        field = prime_field(p)
        for _ in range(6):
            f, g = random_pair(rng, field, max_degree=5)
            result = run(f, g)
            relation = BivarPoly.from_laurent(result.relation)
            resultant = sylvester_resultant(result.f, result.g)
            assert divides(relation, resultant)
            assert minimality_certificate(result.f, result.g, result.relation_gdeg)


def test_from_laurent_rejects_negative_exponents():
    with pytest.raises(NotPolynomial):
        BivarPoly.from_laurent(Laurent2.make(Q, {(-1, 0): 1}))


def test_bivar_roundtrip():
    element = Laurent2.make(Q, {(0, 4): 1, (3, 2): -2, (1, 0): -1})
    assert BivarPoly.from_laurent(element).to_laurent() == element


# -- the sparse kernel shared with Laurent2 ------------------------------------------

KERNEL_FIELDS = [Q, prime_field(7), prime_field(2**31 - 1)]

term_maps = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-20, 20), max_size=6
)


@st.composite
def bivar_pairs(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    return B(field, draw(term_maps)), B(field, draw(term_maps))


def nonconstant(b):
    return any(k != (0, 0) for k in b.terms)


@given(bivar_pairs())
def test_exact_div_recovers_the_cofactor(pair):
    a, b = pair
    assume(nonconstant(b))
    assert (a * b).exact_div(b) == a


@given(bivar_pairs())
def test_exact_div_none_when_not_exact(pair):
    a, b = pair
    assume(nonconstant(b))
    # b | a*b + 1 would make b a unit, i.e. a constant
    assert (a * b + BivarPoly.one(a.field)).exact_div(b) is None


@given(bivar_pairs())
def test_operations_keep_the_type(pair):
    a, b = pair
    field = a.field
    la, lb = a.to_laurent(), b.to_laurent()
    for value in (a + b, a - b, -a, a * b, a**2, a.scale(3), a.mul_monomial(1, 2, 5)):
        assert type(value) is BivarPoly
    for value in (la + lb, la - lb, -la, la * lb, la**2, la.scale(3), la.mul_monomial(-1, 2)):
        assert type(value) is Laurent2
    assert (a * b).to_laurent() == la * lb
    assert a != la and BivarPoly.zero(field) != Laurent2.zero(field)
    with pytest.raises(TypeError):
        a + la


@given(term_maps, term_maps)
def test_integer_convolution_matches_rational_product(a, b):
    raw = mul_terms(a, b)
    assert all(raw.values())
    assert B(Q, raw) == B(Q, a) * B(Q, b)


def test_make_rejects_negative_x_exponent():
    with pytest.raises(ValueError):
        B(Q, {(-1, 2): 1})
    with pytest.raises(ValueError):
        B(F2, {(1, -2): 1})
