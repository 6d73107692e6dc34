import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydep import NEG_INF, FImage, UniPoly, prime_field, rationals
from polydep.unipoly import Pack, _pack, top_digit, widen
from polydep.errors import (
    DivisionByZero,
    FieldMismatch,
    FImageBaseMismatch,
    ZeroHasNoDegree,
)

Q = rationals()
F2 = prime_field(2)


def poly(field, *coeffs):
    return UniPoly.make(field, coeffs)


def test_mul_expansion():
    a = poly(Q, 1, 0, 1)  # z^2 + 1
    b = poly(Q, -1, 1)  # z - 1
    assert a * b == poly(Q, -1, 1, -1, 1)  # z^3 - z^2 + z - 1


def test_sub():
    a = poly(Q, 0, -1, 0, 0, 0, 0, 1)  # z^6 - z
    b = poly(Q, 0, 0, 0, 0, 0, 0, 1)  # z^6
    assert a - b == poly(Q, 0, -1)


def test_char2_square_is_frobenius():
    a = poly(F2, 0, 1, 0, 1)  # z^3 + z
    assert a * a == poly(F2, 0, 0, 1, 0, 0, 0, 1)  # z^6 + z^2


def test_divrem_examples():
    z4 = UniPoly.monomial(Q, 4)
    z2 = UniPoly.monomial(Q, 2)
    assert z4.divrem(z2) == (z2, UniPoly.zero(Q))
    q, r = (z4 + UniPoly.one(Q)).divrem(z2)
    assert q == z2 and r == UniPoly.one(Q)
    q, r = UniPoly.z(Q).divrem(UniPoly.monomial(Q, 3))
    assert q == UniPoly.zero(Q) and r == UniPoly.z(Q)


def test_divrem_by_zero():
    with pytest.raises(DivisionByZero):
        UniPoly.z(Q).divrem(UniPoly.zero(Q))


def test_degree_of_zero_below_all_integers():
    assert UniPoly.zero(Q).degree == NEG_INF
    assert UniPoly.zero(Q).degree < -(10**9)
    with pytest.raises(ZeroHasNoDegree):
        UniPoly.zero(Q).leading_coefficient()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        poly(Q, 1) + poly(F2, 1)


def coeff_lists(field):
    if field is Q:
        return st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=10), max_size=7
        )
    return st.lists(st.integers(min_value=0, max_value=1), max_size=7)


@given(coeff_lists(Q), coeff_lists(Q))
def test_degree_multiplicative(ca, cb):
    a, b = UniPoly.make(Q, ca), UniPoly.make(Q, cb)
    if a and b:
        assert (a * b).degree == a.degree + b.degree


@given(coeff_lists(Q), coeff_lists(Q))
def test_divrem_roundtrip(ca, cb):
    a, b = UniPoly.make(Q, ca), UniPoly.make(Q, cb)
    if b:
        q, r = a.divrem(b)
        assert q * b + r == a
        assert r.degree < b.degree


# -- the integer-vector kernel against a schoolbook Fraction reference ---------

BIG = 2**200
PRIMES = (2, 3, 2**31 - 1, 2**61 - 1)


def ref_canon(values, p):
    """Reference canonical scalars: reduced mod p or Fractions, trimmed."""
    out = [v % p if p else Fraction(v) for v in values]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def ref_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_canon(out, p)


def ref_add(a, b, p, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return ref_canon([x + sign * y for x, y in zip(a, b)], p)


def ref_divrem(a, b, p):
    inv = (lambda c: pow(c, -1, p)) if p else (lambda c: 1 / c)
    a, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv(b[-1])
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
    return ref_canon(q, p), ref_canon(a[: len(b) - 1], p)


def assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    if not x.nums:
        assert x.den == 1
    else:
        assert x.nums[-1] != 0
    if x.field.p is not None:
        assert x.den == 1 and all(0 <= c < x.field.p for c in x.nums)
    again = UniPoly.make(x.field, x.coeffs)
    assert again == x and hash(again) == hash(x)
    assert again.nums == x.nums and again.den == x.den


def vectors(scalar, max_size):
    """Lists of every length from 1 to max_size, not mostly short ones."""
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(scalar, min_size=n, max_size=n)
    )


def q_vectors(max_size=80):
    """Rationals up to 2^200 over 2^200, small ones and runs of zeros."""
    scalar = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    )
    return vectors(scalar, max_size)


@st.composite
def fp_vectors(draw, max_size=80):
    """A prime of PRIMES and two coefficient lists with entries near p."""
    p = draw(st.sampled_from(PRIMES))
    scalar = st.one_of(
        st.just(0), st.integers(0, p - 1), st.integers(max(0, p - 3), p - 1)
    )
    return prime_field(p), draw(vectors(scalar, max_size)), draw(vectors(scalar, max_size))


def check_ring_ops(field, ca, cb):
    p = field.p
    a, b = UniPoly.make(field, ca), UniPoly.make(field, cb)
    ra, rb = ref_canon(ca, p), ref_canon(cb, p)
    assert a.coeffs == ra and b.coeffs == rb
    k = rb[-1] if rb else field.zero
    for got, want in (
        (a * b, ref_mul(ra, rb, p)),
        (a * a, ref_mul(ra, ra, p)),
        (a + b, ref_add(ra, rb, p)),
        (a - b, ref_add(ra, rb, p, -1)),
        (-a, ref_add((), ra, p, -1)),
        (a - a, ()),
        ((a + b) - b, ra),
        (a.scale(k), ref_canon([c * k for c in ra], p)),
    ):
        assert got.coeffs == want
        assert_canonical(got)
    if b:
        q, r = a.divrem(b)
        assert (q.coeffs, r.coeffs) == ref_divrem(ra, rb, p)
        assert_canonical(q)
        assert_canonical(r)


@settings(max_examples=30, deadline=None)
@given(q_vectors(), q_vectors())
def test_kernel_matches_reference_over_q(ca, cb):
    check_ring_ops(Q, ca, cb)


@settings(max_examples=60, deadline=None)
@given(fp_vectors())
def test_kernel_matches_reference_over_fp(case):
    check_ring_ops(*case)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.tuples(st.just(Q), q_vectors(max_size=10)),
    fp_vectors(max_size=10).map(lambda case: case[:2]),
), st.integers(0, 5))
def test_pow_matches_reference(case, e):
    field, ca = case
    p = field.p
    want = ref_canon([1], p)
    for _ in range(e):
        want = ref_mul(want, ref_canon(ca, p), p)
    got = UniPoly.make(field, ca) ** e
    assert got.coeffs == want
    assert_canonical(got)


def test_kronecker_slots_at_the_bound():
    # every output coefficient reaches the bound max|a| * max|b| * min(len)
    # exactly, for magnitudes on both sides of each byte boundary
    for bits in range(1, 41):
        m = 2**bits - 1
        for la, lb in ((1, 1), (1, 5), (3, 3), (7, 2)):
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                ca, cb = [sa * m] * la, [sb * m] * lb
                assert (poly(Q, *ca) * poly(Q, *cb)).coeffs == ref_mul(ca, cb, None)
                alt = [m * (-1) ** i for i in range(la)]
                assert (poly(Q, *alt) * poly(Q, *alt)).coeffs == ref_mul(alt, alt, None)


def test_packed_digits_widen_and_read_at_the_slot_bound():
    # digits as large as a slot allows, of both signs: widening keeps every
    # digit, and the top digit and its index read off any packed value
    rng = random.Random(11)
    for width in (1, 2, 3, 9):
        top = 2 ** (8 * width - 1) - 1
        for _ in range(40):
            n = rng.randint(1, 8)
            digits = [rng.choice((top, -top, 0, rng.randint(-top, top))) for _ in range(n)]
            digits[-1] = digits[-1] or rng.choice((1, -1, top, -top))
            value = _pack(digits, width)
            assert top_digit(value, width) == (n - 1, digits[-1])
            for to in (width, width + 1, width + 4):
                wide = widen(value, n, width, to, True)
                assert wide == _pack(digits, to)
                assert top_digit(wide, to) == (n - 1, digits[-1])
            residues = [abs(c) for c in digits]
            assert widen(_pack(residues, width), n, width, width + 2, False) == _pack(
                residues, width + 2
            )
            as_poly = UniPoly(Q, [Fraction(c) for c in digits])
            assert Pack(as_poly).at(width + 3) == _pack(list(as_poly.nums), width + 3)


# -- FImage ------------------------------------------------------------------


def f_base(field):
    return UniPoly.monomial(field, 4)  # z^4


def test_fimage_normalization():
    f = f_base(Q)
    a = FImage(UniPoly.monomial(Q, 8), 1, f)  # z^8 / f
    b = FImage.from_poly(UniPoly.one(Q), f)
    product = a * b
    assert product.fpow == 0
    assert product.num == UniPoly.monomial(Q, 4)


def test_fimage_char2_chain_element():
    # with f = z^4 over F_2, g = z^6 - z: g^2 - f^3 - g/f = z / f, degree -3
    f = f_base(F2)
    g = UniPoly.make(F2, [0, -1, 0, 0, 0, 0, 1])
    gi = FImage.from_poly(g, f)
    fi3 = FImage.from_poly(UniPoly.monomial(F2, 12), f)
    f_inv_g = FImage(g, 1, f)
    h = gi * gi - fi3 - f_inv_g
    assert h.num == UniPoly.z(F2)
    assert h.fpow == 1
    assert h.zdeg() == -3


def test_fimage_cancellation():
    f = f_base(Q)
    a = FImage(UniPoly.make(Q, [1, 2]), 2, f)
    assert not (a - a)


def test_zdeg_examples():
    f = f_base(Q)
    h = FImage.from_poly(UniPoly.make(Q, [0, 0, 1, 0, 0, 0, 0, -2]), f)  # -2z^7 + z^2
    assert h.zdeg() == 7
    assert h.leading_coefficient() == Fraction(-2)
    assert FImage(UniPoly.z(Q), 1, f).zdeg() == -3
    assert FImage.from_poly(UniPoly.make(Q, [5]), f).zdeg() == 0
    with pytest.raises(ZeroHasNoDegree):
        FImage.zero(f).zdeg()


def test_leading_coefficient_examples():
    f = UniPoly.monomial(Q, 9)
    g0 = UniPoly.make(Q, [0, 0, 4, 0, 0, 0, 1])  # z^6 + 4z^2
    assert FImage.from_poly(g0, f).leading_coefficient() == 1
    assert FImage.from_poly(UniPoly.make(Q, [0, 0, -4]), f).leading_coefficient() == -4


def test_z_leading_coefficient_nonmonic_base():
    f = UniPoly.make(Q, [0, 0, 2])  # 2z^2
    h = FImage(UniPoly.z(Q), 1, f)  # z / (2z^2)
    assert h.leading_coefficient() == 1
    assert h.z_leading_coefficient() == Fraction(1, 2)


def test_base_mismatch():
    a = FImage.from_poly(UniPoly.one(Q), f_base(Q))
    b = FImage.from_poly(UniPoly.one(Q), UniPoly.monomial(Q, 2))
    with pytest.raises(FImageBaseMismatch):
        a + b


def test_normalization_idempotent_and_zdeg_representation_free():
    rng = random.Random(99)
    f = UniPoly.make(Q, [1, 0, 0, 1])  # z^3 + 1
    for _ in range(50):
        num = UniPoly.make(Q, [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        if not num:
            continue
        k = rng.randint(0, 3)
        image = FImage(num, k, f)
        again = FImage(image.num, image.fpow, f)
        assert again == image
        # un-normalized representation num * f^j / f^(k+j) has the same zdeg
        j = rng.randint(1, 3)
        lifted = FImage(num * f**j, k + j, f)
        assert lifted == image
        if image:
            assert lifted.zdeg() == num.degree - k * 3


def test_pow_renormalizes():
    f = f_base(Q)
    a = FImage(UniPoly.monomial(Q, 2), 1, f)  # z^2/z^4, already reduced
    sq = a**2  # z^4/z^8 collapses to 1/z^4
    assert sq.num == UniPoly.one(Q) and sq.fpow == 1
