import math
import random
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polydep import (
    BivarPoly,
    Laurent2,
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
from polydep.errors import DegreeCapExceeded, NotPolynomial, PreconditionFailed
from polydep import oracle
from polydep.laurent import mul_terms
from polydep.scalar import is_prime, word_primes
from gen import random_pair
from reference import (
    det_cofactor,
    det_fraction_free,
    hessenberg_charpoly,
    horner_substitute,
    krylov_unpacked,
    resultant_top_terms,
    sylvester_matrix,
)

Q = rationals()
F2 = prime_field(2)
WORD_FIELD = prime_field(2**61 - 1)


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


@st.composite
def substitutions(draw):
    """(element, f, g): a random Laurent element with negative f-exponents
    allowed, and non-monic f, g of degree at most 6."""
    field = draw(st.sampled_from([Q, F2, prime_field(3), prime_field(2**31 - 1), WORD_FIELD]))
    p = field.characteristic()
    if p == 0:
        big = st.integers(-(10**30), 10**30)
        values = st.one_of(
            st.fractions(min_value=-9, max_value=9, max_denominator=7),
            st.builds(Fraction, big, st.integers(1, 10**20)),
        )
    else:
        values = st.integers(0, p - 1)
    polys = []
    for _ in range(2):
        degree = draw(st.integers(1, 6))
        lead = draw(values.filter(lambda c: field.element(c) != 0))
        polys.append(UniPoly.make(field, draw(st.lists(values, min_size=degree, max_size=degree)) + [lead]))
    terms = draw(st.dictionaries(st.tuples(st.integers(-4, 5), st.integers(0, 5)), values, max_size=8))
    return Laurent2.make(field, terms), polys[0], polys[1]


P40 = 1000000000039  # a 40-bit prime


@st.composite
def large_substitutions(draw):
    """(element, f, g) over F_(2^61-1) or a 40-bit prime field, with deg f
    up to 16 and deg g up to 24, and f-exponents spread over -6..30, so
    that they leave gaps."""
    field = draw(st.sampled_from([WORD_FIELD, prime_field(P40)]))
    values = st.integers(0, field.p - 1)
    polys = []
    for top in (16, 24):
        degree = draw(st.integers(1, top))
        lead = draw(st.integers(1, field.p - 1))
        polys.append(UniPoly.make(field, draw(st.lists(values, min_size=degree, max_size=degree)) + [lead]))
    terms = draw(st.dictionaries(st.tuples(st.integers(-6, 30), st.integers(0, 6)), values, max_size=8))
    return Laurent2.make(field, terms), polys[0], polys[1]


SUBSTITUTION_CASES = st.one_of(substitutions(), large_substitutions())


@settings(max_examples=200, deadline=None)
@given(SUBSTITUTION_CASES)
def test_substitute_equals_horner_reference(case):
    element, f, g = case
    assert substitute(element, f, g) == horner_substitute(element, f, g)


def test_substitute_reference_cases_reach_the_corners():
    # the strategies above draw nonzero images, negative f-exponents, gaps
    # between f-exponents, large primes and (deg f, deg g) past (6, 6)
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(SUBSTITUTION_CASES)
    def collect(case):
        element, f, g = case
        if substitute(element, f, g):
            seen.add("nonzero image")
        if not element.is_polynomial():
            seen.add("negative f-exponent")
        fexps = sorted({i for i, _ in element.terms})
        if any(b - a > 1 for a, b in zip(fexps, fexps[1:])):
            seen.add("gap in f-exponents")
        if f.field == WORD_FIELD:
            seen.add("F_(2^61-1)")
        if f.field.p == P40:
            seen.add("40-bit prime")
        if f.degree > 6 and g.degree > 6:
            seen.add("large degrees")

    collect()
    assert seen == {
        "nonzero image", "negative f-exponent", "gap in f-exponents", "F_(2^61-1)",
        "40-bit prime", "large degrees",
    }


def test_substitute_equals_horner_reference_on_engine_output():
    rng = random.Random(9)
    for field in (Q, F2, prime_field(5), WORD_FIELD):
        for _ in range(5):
            result = run(*random_pair(rng, field, max_degree=8))
            for element in [result.relation] + [step.symbolic for step in result.chain.steps]:
                image = substitute(element, result.f, result.g)
                assert image == horner_substitute(element, result.f, result.g)
            assert not substitute(result.relation, result.f, result.g)


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
            assert det_fraction_free(matrix) == det_cofactor(matrix)


def test_sylvester_matrix_shape():
    f, g = z_pow(Q, 2), z_pow(Q, 3)
    matrix = sylvester_matrix(f, g)
    assert len(matrix) == 5 and all(len(row) == 5 for row in matrix)


# -- the resultant by evaluation against Bareiss -------------------------------------

WORD = 2**61 - 1  # the first prime the resultant and the certificate use over Q


@st.composite
def resultant_inputs(draw):
    """(f, g) for every path of sylvester_resultant; deg f = 1 in about half."""
    kind = draw(st.sampled_from(["q", "q-huge", "p31", "p-interpolates", "p-lifted", "p-boundary"]))
    n = draw(st.sampled_from([1, 1, 1, 2, 3, 4, 5, 6]))
    m = draw(st.integers(1, 6))
    if kind == "q":
        field, values = Q, st.fractions(min_value=-9, max_value=9, max_denominator=7)
    elif kind == "q-huge":  # 10^60-size numerators: 40 primes are not enough
        num = st.integers(-(10**60), 10**60)
        field, values = Q, st.builds(Fraction, num, st.integers(1, 10**9))
    elif kind == "p31":
        field, values = prime_field(2**31 - 1), st.integers(0, 2**31 - 2)
    elif kind == "p-interpolates":  # p = deg g + 1, the smallest p that interpolates
        p = draw(st.sampled_from([2, 3, 5, 7]))
        m = p - 1
        field, values = prime_field(p), st.integers(0, p - 1)
    elif kind == "p-lifted":  # p <= deg g: the residues lifted to Z
        p = draw(st.sampled_from([2, 3, 5]))
        m = draw(st.integers(p, 6))
        field, values = prime_field(p), st.integers(0, p - 1)
    else:  # deg g < p <= deg f: points enough, but p | k for some k <= deg f
        p = draw(st.sampled_from([2, 3, 5, 7]))
        n, m = draw(st.integers(p, max(p, 6))), draw(st.integers(1, p - 1))
        field, values = prime_field(p), st.integers(0, p - 1)
    polys = []
    for degree in (n, m):
        lead = draw(values.filter(lambda c: field.element(c) != 0))
        rest = draw(st.lists(values, min_size=degree, max_size=degree))
        polys.append(UniPoly.make(field, rest + [lead]))
    if kind == "p-boundary" and draw(st.booleans()):
        polys.reverse()
    return tuple(polys)


@settings(max_examples=250, deadline=None)
@given(resultant_inputs())
def test_resultant_by_evaluation_equals_bareiss(pair):
    f, g = pair
    assert sylvester_resultant(f, g) == det_fraction_free(sylvester_matrix(f, g))


@st.composite
def bound_inputs(draw):
    """(f, g) over Q with all-positive, mixed-sign or huge coefficients."""
    kind = draw(st.sampled_from(["positive", "mixed", "huge"]))
    if kind == "positive":
        values = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))
    elif kind == "mixed":
        values = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    else:
        values = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**6))
    polys = []
    for degree in (draw(st.integers(1, 5)), draw(st.integers(1, 5))):
        lead = draw(values.filter(bool))
        polys.append(UniPoly.make(Q, draw(st.lists(values, min_size=degree, max_size=degree)) + [lead]))
    return tuple(polys)


@settings(max_examples=150, deadline=None)
@given(bound_inputs())
def test_resultant_bound_covers_every_coefficient(pair):
    f, g = pair
    reference = det_fraction_free(sylvester_matrix(f, g))
    assert sylvester_resultant(f, g) == reference
    # S = Res_z(F - a*x, G - b*y) = a^m b^n Res_z(f - x, g - y) has integer coefficients
    scale = f.den ** g.degree * g.den ** f.degree
    largest = max(abs(c * scale) for c in reference.terms.values())
    assert oracle._resultant_bound(f.nums, f.den, g.nums, g.den) >= largest


def primes_used(monkeypatch):
    """Record the modulus of every evaluation pass of sylvester_resultant: one
    below 2^60 as itself, a product of word primes as its factors, in the
    order the primes are drawn."""
    seen = []
    passes = oracle._scaled_resultant_mod

    def spy(F, a, G, b, q):
        if q < 2**60:
            seen.append(q)
        else:
            rest = q
            primes = word_primes()
            while rest > 1:
                w = next(primes)
                if not rest % w:
                    seen.append(w)
                    rest //= w
        return passes(F, a, G, b, q)

    monkeypatch.setattr(oracle, "_scaled_resultant_mod", spy)
    return seen


@pytest.mark.parametrize(
    "f, g",
    [
        ([1, 1, WORD], [2, 0, 0, 1]),  # WORD | lc(F)
        ([0, 1, Fraction(1, WORD)], [2, 0, 0, 1]),  # WORD | a
        ([1, 1, 3], [1, 0, 0, Fraction(1, WORD)]),  # WORD | b
    ],
)
def test_resultant_skips_a_prime_that_divides_lc_or_a_denominator(monkeypatch, f, g):
    f, g = poly(Q, *f), poly(Q, *g)
    seen = primes_used(monkeypatch)
    assert sylvester_resultant(f, g) == det_fraction_free(sylvester_matrix(f, g))
    assert seen and WORD not in seen


def test_resultant_draws_more_than_forty_primes(monkeypatch):
    rng = random.Random(5)
    huge = [Fraction(rng.randint(-(10**60), 10**60), rng.randint(1, 10**9)) for _ in range(12)]
    f, g = poly(Q, *huge[:6]), poly(Q, *huge[6:])
    seen = primes_used(monkeypatch)
    assert sylvester_resultant(f, g) == det_fraction_free(sylvester_matrix(f, g))
    assert len(seen) > 40 and seen[0] == WORD


def test_resultant_small_p_lifts_to_word_primes(monkeypatch):
    # p <= max(deg f, deg g), too few interpolation points or too few units
    # mod p: the residues are lifted to Z
    for p in (2, 3, 5):
        field = prime_field(p)
        rng = random.Random(p)
        f = poly(field, *[rng.randrange(p) for _ in range(3)], 1)
        for m in (p, p + 2):  # p = deg g and p < deg g
            g = poly(field, *[rng.randrange(p) for _ in range(m)], p - 1)
            seen = primes_used(monkeypatch)
            assert sylvester_resultant(f, g) == det_fraction_free(sylvester_matrix(f, g))
            assert seen and all(q > 2**60 for q in seen)
            assert sylvester_resultant(g, f) == det_fraction_free(sylvester_matrix(g, f))
        g = poly(field, *[rng.randrange(p) for _ in range(p - 1)], 1)  # p = deg g + 1
        seen = primes_used(monkeypatch)
        assert sylvester_resultant(f, g) == det_fraction_free(sylvester_matrix(f, g))
        if p > max(f.degree, g.degree):  # Newton's identities divide by 1..deg f
            assert seen == [p]
        else:
            assert seen and all(q > 2**60 for q in seen)


def test_resultant_is_one_pass_modulo_small_primes(monkeypatch):
    # with the primes below 1000 as the word primes, a Hessenberg reduction
    # of this pair meets pivots that are zero modulo some of them but not
    # modulo their product; the power sums invert only lc(F), 1..deg f and
    # the differences of the points, units modulo every prime above 8
    small = [q for q in range(997, 22, -2) if is_prime(q)]
    monkeypatch.setattr(oracle, "word_primes", lambda: iter(small))
    moduli = []
    passes = oracle._scaled_resultant_mod

    def spy(F, a, G, b, q):
        moduli.append(q)
        return passes(F, a, G, b, q)

    monkeypatch.setattr(oracle, "_scaled_resultant_mod", spy)
    f, g = random_pair(random.Random(416), Q, max_degree=8)
    assert sylvester_resultant(f, g) == det_fraction_free(sylvester_matrix(f, g))
    assert len(moduli) == 1


# -- the characteristic polynomial by power sums ------------------------------------

THREE_WORDS = math.prod(islice(word_primes(), 3))


def mul_mod(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % q for c in out]


def compose_mod(outer, w, q):
    """outer(w) mod q, by Horner."""
    acc = [outer[-1] % q]
    for c in reversed(outer[:-1]):
        acc = mul_mod(acc, w, q)
        acc[0] = (acc[0] + c) % q
    return acc


@st.composite
def charpoly_cases(draw):
    """(A, G, q) for monic A: random, A = z^n - c with G = z^j (nilpotent at
    c = 0), constant G, or A = A'(w) - x0 with G in K[w], whose Krylov space
    is a proper subspace; q a word prime, a product of three word primes or
    the smallest prime above max(deg A, deg G)."""
    kind = draw(st.sampled_from(["random", "binomial", "constant", "composed"]))
    e = draw(st.integers(2, 3)) if kind == "composed" else 1
    n = e * draw(st.integers(1, 12 // e))
    if kind == "constant":
        m = 0
    elif kind == "composed":
        m = e * draw(st.integers(0, 12 // e))
    else:
        m = draw(st.integers(0, 2 * n))
    modulus = draw(st.sampled_from(["word", "three words", "small"]))
    if modulus == "word":
        q = WORD
    elif modulus == "three words":
        q = THREE_WORDS
    else:
        q = next(p for p in count(max(n, m) + 1) if is_prime(p))
    residues = st.integers(0, q - 1)

    def vector(size):
        return draw(st.lists(residues, min_size=size, max_size=size))

    if kind == "binomial":
        c = draw(st.sampled_from([0, draw(residues)]))
        A, G = [-c % q] + [0] * (n - 1) + [1], [0] * m + [1]
    elif kind == "composed":
        w = vector(e) + [1]
        A = compose_mod(vector(n // e) + [1], w, q)
        A[0] = (A[0] - draw(residues)) % q
        G = compose_mod(vector(m // e + 1), w, q)
    else:
        A, G = vector(n) + [1], vector(m + 1)
    return A, G, q


@settings(max_examples=250, deadline=None)
@given(charpoly_cases())
def test_charpoly_by_power_sums_equals_hessenberg(case):
    A, G, q = case
    n = len(A) - 1
    traces = oracle._power_sums(A, q)
    # Tr(z^j) is the trace of multiplication by z^j, whatever A[0] is
    for j, s in enumerate(traces):
        rows = oracle._multiplication_rows([0] * j + [1], A, q)
        assert s == sum(row[i] for i, row in enumerate(rows)) % q
    assert oracle._power_sums([A[0] + 1] + A[1:], q) == traces
    inverses = [pow(k, -1, q) for k in range(1, n + 1)]
    rows = oracle._multiplication_rows(G, A, q)
    expected = hessenberg_charpoly([list(row) for row in rows], q)
    assert oracle._charpoly(rows, traces, inverses, q) == expected


def test_charpoly_cases_reach_the_corners():
    seen = set()

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(charpoly_cases())
    def collect(case):
        A, G, q = case
        rows = oracle._multiplication_rows(G, A, q)
        vectors = list(krylov_unpacked(rows, len(rows) + 1, q))
        if not any(vectors[-1]):
            seen.add("nilpotent")
        # ranked modulo q, or modulo its factor WORD
        if not oracle._independent(vectors[:-1], prime_field(q if is_prime(q) else WORD)):
            seen.add("proper Krylov space")
        seen.add({WORD: "word prime", THREE_WORDS: "three word primes"}.get(q, "small prime"))

    collect()
    assert seen == {"nilpotent", "proper Krylov space", "word prime", "three word primes", "small prime"}


@settings(max_examples=150, deadline=None)
@given(charpoly_cases(), st.integers(1, 30))
def test_packed_krylov_equals_the_unpacked_loop(case, k):
    A, G, q = case
    rows = oracle._multiplication_rows(G, A, q)
    assert list(oracle._krylov(rows, k, q)) == list(krylov_unpacked(rows, k, q))


# -- power identity ----------------------------------------------------------------


def test_check_resultant_power_examples():
    p_cusp = B(Q, {(0, 2): 1, (3, 0): -1})
    assert check_resultant_power(p_cusp, -p_cusp, 1)
    line = B(Q, {(0, 1): 1, (1, 0): -1})
    assert check_resultant_power(line, line * line, 2)
    assert not check_resultant_power(line, p_cusp, 1)


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


def spy_independent(monkeypatch):
    """Record (characteristic, verdict) of every call of oracle._independent."""
    calls = []
    independent = oracle._independent

    def spy(vectors, field):
        verdict = independent(vectors, field)
        calls.append((field.characteristic(), verdict))
        return verdict

    monkeypatch.setattr(oracle, "_independent", spy)
    return calls


def test_minimality_falls_back_to_exact_elimination(monkeypatch):
    # modulo 2^61 - 1, g = z^2 + WORD*z is f, so the Krylov rank is 1 at every
    # point; over Q, P = (g - f)^2 - WORD^2 * f
    calls = spy_independent(monkeypatch)
    f, g = z_pow(Q, 2), poly(Q, 0, WORD, 1)
    assert run(f, g).relation_gdeg == 2
    assert minimality_certificate(f, g, 2) is True
    assert calls == [(WORD, False)] * len(oracle.SPECIALISATIONS) + [(0, True)]
    assert minimality_certificate(f, g, 3) is False
    F7 = prime_field(7)
    f7, g7 = z_pow(F7, 2), poly(F7, 0, WORD, 1)
    assert run(f7, g7).relation_gdeg == 2
    assert minimality_certificate(f7, g7, 2) is True
    assert minimality_certificate(f7, g7, 3) is False


def test_minimality_rank_drop_at_every_point_falls_back(monkeypatch):
    # over F_2, g = z * (f^2 - f) vanishes mod f - x0 at both points x0, yet
    # 1, g are independent over K(f)
    f = poly(F2, 0, 1, 1)  # z^2 + z
    g = UniPoly.z(F2) * (f * f - f)
    assert run(f, g).relation_gdeg == 2
    calls = spy_independent(monkeypatch)
    assert minimality_certificate(f, g, 2) is True
    assert calls == [(2, False), (2, False), (2, True)]
    assert minimality_certificate(f, g, 3) is False


def test_minimality_true_forms_no_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("a product was formed")

    f, g = poly(Q, 3, Fraction(1, 2), 0, -7), poly(Q, 0, 5, 0, Fraction(2, 3), 1)
    assert run(f, g).relation_gdeg == 3
    monkeypatch.setattr(UniPoly, "__mul__", refuse)
    assert minimality_certificate(f, g, 3) is True
    assert minimality_certificate(z_pow(Q, 2), z_pow(Q, 3), 2) is True


def exact_certificate(f, g, k):
    """Elimination of the f^i * g^j vectors over K, with no specialisation."""
    f_pows, g_pows = f.powers(g.degree), g.powers(k - 1)
    return oracle._independent(((a * b).nums for b in g_pows for a in f_pows), f.field)


@st.composite
def certificate_pairs(draw):
    """Pairs over Q (fractional, non-monic, 10^30-size) and F_2, F_3, F_5, F_(2^31-1)."""
    kind = draw(st.sampled_from(["q", "q-huge", "p2", "p3", "p5", "p31"]))
    if kind == "q":
        field, values = Q, st.fractions(min_value=-9, max_value=9, max_denominator=7)
    elif kind == "q-huge":
        num = st.integers(-(10**30), 10**30)
        field, values = Q, st.builds(Fraction, num, st.integers(1, 10**6))
    else:
        field = prime_field({"p2": 2, "p3": 3, "p5": 5, "p31": 2**31 - 1}[kind])
        values = st.integers(0, field.p - 1)
    p = field.characteristic()
    if 0 < p <= 6 and draw(st.booleans()):
        degrees = st.sampled_from(range(p, 7, p))  # p | gcd(deg f, deg g)
    else:
        degrees = st.integers(1, 6)
    polys = []
    for _ in range(2):
        degree = draw(degrees)
        lead = draw(values.filter(lambda c: field.element(c) != 0))
        rest = draw(st.lists(values, min_size=degree, max_size=degree))
        polys.append(UniPoly.make(field, rest + [lead]))
    return tuple(polys)


@settings(max_examples=200, deadline=None)
@given(certificate_pairs())
def test_certificate_matches_exact_elimination(pair):
    for f, g in (pair, pair[::-1]):
        n, m = f.degree, g.degree
        exact = {k: exact_certificate(f, g, k) for k in range(1, min(n + 1, n * m) + 1)}
        gdeg = max(k for k, verdict in exact.items() if verdict)  # deg_g P
        for k in {gdeg - 1, gdeg, gdeg + 1, n + 1}:
            if 1 <= k <= n * m:
                assert minimality_certificate(f, g, k) is exact[k]


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
    # f = g = z^2 ends with d_s = 2 in every characteristic, so the resultant
    # is c * P^2; P divides it, but the identity fails at d = 1
    for field in (Q, F2, prime_field(3)):
        result = run(z_pow(field, 2), z_pow(field, 2))
        assert result.d_final == 2
        relation = BivarPoly.from_laurent(result.relation)
        resultant = sylvester_resultant(result.f, result.g)
        assert check_resultant_power(relation, resultant, 2)
        assert not check_resultant_power(relation, resultant, 1)
        assert divides(relation, resultant)


def test_oracles_confirm_engine_char_p():
    rng = random.Random(56)
    for p in (2, 3):
        field = prime_field(p)
        for _ in range(6):
            f, g = random_pair(rng, field, max_degree=5)
            result = run(f, g)
            relation = BivarPoly.from_laurent(result.relation)
            resultant = sylvester_resultant(result.f, result.g)
            assert check_resultant_power(relation, resultant, result.d_final)
            assert {
                k: c for k, c in resultant.terms.items() if k[1] == result.n
            } == resultant_top_terms(result.f, result.g)
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
    for value in (a + b, a - b, -a, a * b, a**2, a.scale(3), a.mul_monomial(1)):
        assert type(value) is BivarPoly
    for value in (la + lb, la - lb, -la, la * lb, la**2, la.scale(3), la.mul_monomial(-1)):
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
