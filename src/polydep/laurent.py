"""The algebra L = K[f, f^-1, g] of chain elements and relations.

Terms are keyed by (fexp, gexp) with fexp any integer and gexp >= 0.
Monomials are totally ordered lexicographically by (gexp, fexp); a monomial
is called negative when fexp < 0.  The gap of an element is the formal ratio
largest monomial / largest negative monomial, infinite for polynomials, and
is the tool that certifies polynomiality of reduction chains in
characteristic zero.

The module also holds the one sparse kernel on raw {(i, j): coeff} dicts
(sum, difference, product, exact division) that Laurent2, the oracle's
BivarPoly and the tests' fraction-free determinant use.  A product of
operands that are dense on their (f, g) grid goes instead through the one
K[z] kernel, `unipoly._kronecker`: each operand is laid out on a grid whose
rows, one per power of g, are as wide as the product's f-span, so that one
big-integer product yields every coefficient (Kronecker substitution in two
variables; von zur Gathen and Gerhard, Modern Computer Algebra, 8.4).  It
does so exactly when the three grids hold no more slots than the product
has term pairs; sparse operands spread over wide f-ranges keep the dict
loop `mul_terms`.  Over Q both work on integer numerators over one
denominator, and `sum_of_products` adds several products in one integer
sum, with one canonical scalar per output term.
"""

import math
from fractions import Fraction
from functools import total_ordering

from .errors import FieldMismatch, ZeroElement
from .scalar import clear_denominators, power
from .unipoly import _kronecker

NEG_INF = float("-inf")
INF = float("inf")


def order_key(term):
    """Lexicographic key by (gexp, fexp) for a (fexp, gexp) exponent pair."""
    return (term[1], term[0])


# -- the sparse kernel on raw {(i, j): coeff} dicts ------------------------------
#
# `reduce` canonicalizes an accumulated coefficient; None keeps raw values,
# which is what the integer (fraction-free) determinant needs.  Results never
# hold zero coefficients.


def add_terms(a, b, reduce=None, negate=False):
    """a + b, or a - b when negate is set."""
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) - c if negate else out.get(k, 0) + c
        if reduce is not None:
            v = reduce(v)
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def mul_terms(a, b, reduce=None):
    """The convolution a * b."""
    acc = {}
    bterms = list(b.items())
    for (ia, ja), ca in a.items():
        for (ib, jb), cb in bterms:
            k = (ia + ib, ja + jb)
            acc[k] = acc.get(k, 0) + ca * cb
    if reduce is None:
        return {k: v for k, v in acc.items() if v}
    out = {}
    for k, v in acc.items():
        v = reduce(v)
        if v:
            out[k] = v
    return out


def convolve(a, b):
    """The product of two nonempty dicts of int coefficients, zero terms dropped.

    One Kronecker product on the (f, g) grid when the grids of a, b and the
    product hold no more slots than the len(a) * len(b) term pairs, else
    `mul_terms`.  No grid has fewer slots than its terms, so with fewer than
    2 * (len(a) + len(b)) - 1 term pairs the shapes need not be read.
    """
    pairs = len(a) * len(b)
    if pairs >= 2 * (len(a) + len(b)) - 1:
        fa0, fa1, ga0, ga1 = _box(a)
        fb0, fb1, gb0, gb1 = _box(b)
        w = fa1 - fa0 + fb1 - fb0 + 1  # the product's f-span: rows never overlap
        size_a = (ga1 - ga0) * w + fa1 - fa0 + 1
        size_b = (gb1 - gb0) * w + fb1 - fb0 + 1
        if 2 * (size_a + size_b) - 1 <= pairs:
            va, vb = [0] * size_a, [0] * size_b
            for (i, j), c in a.items():
                va[i - fa0 + (j - ga0) * w] = c
            for (i, j), c in b.items():
                vb[i - fb0 + (j - gb0) * w] = c
            f0, g0 = fa0 + fb0, ga0 + gb0
            return {
                (k % w + f0, k // w + g0): c
                for k, c in enumerate(_kronecker(va, vb))
                if c
            }
    return mul_terms(a, b)


def _box(terms):
    """(min fexp, max fexp, min gexp, max gexp) of a nonempty term dict."""
    fs = [i for i, _ in terms]
    gs = [j for _, j in terms]
    return min(fs), max(fs), min(gs), max(gs)


def _int_product(field, a, b):
    """(ints, den): a * b == ints / den for canonical term dicts a and b.

    Over Q the operands are scaled to integer numerators first; over F_p
    den is 1 and the ints are not reduced.
    """
    if not a or not b:
        return {}, 1
    if field.p is not None:
        return convolve(a, b), 1
    avals, da = clear_denominators(a.values())
    bvals, db = clear_denominators(b.values())
    return convolve(dict(zip(a, avals)), dict(zip(b, bvals))), da * db


def _canonical(field, ints, den):
    """{key: ints[key] / den} as canonical scalars, zeros dropped."""
    p = field.p
    if p is None:
        return {k: Fraction(v, den) for k, v in ints.items() if v}
    out = {}
    for k, v in ints.items():
        v %= p
        if v:
            out[k] = v
    return out


def sum_of_products(field, pairs):
    """The sum of a * b over the (a, b) term dicts in `pairs`, as a Laurent2.

    The products' integer terms are scaled to the lcm of their denominators
    and added in one int dict; each output term becomes one canonical
    scalar at the end.
    """
    prods = [_int_product(field, a, b) for a, b in pairs]
    den = math.lcm(*(d for _, d in prods))
    acc = {}
    for ints, d in prods:
        m = den // d
        for k, v in ints.items():
            acc[k] = acc.get(k, 0) + v * m
    return Laurent2(field, _canonical(field, acc, den))


def exact_div_terms(num, den, coeff_div, reduce=None):
    """q with q * den == num and no negative exponent in q, or None.

    Long division by the lexicographically largest term of den; den must be
    nonzero.  `coeff_div` divides one coefficient by another.
    """
    rem = dict(num)
    quo = {}
    dk = max(den)
    dc = den[dk]
    dterms = list(den.items())
    while rem:
        rk = max(rem)
        qi, qj = rk[0] - dk[0], rk[1] - dk[1]
        if qi < 0 or qj < 0:
            return None
        c = coeff_div(rem[rk], dc)
        quo[(qi, qj)] = c
        for (di, dj), dcf in dterms:
            k = (qi + di, qj + dj)
            v = rem.get(k, 0) - c * dcf
            if reduce is not None:
                v = reduce(v)
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return quo


class Laurent2:
    """Finitely supported element of K[f, f^-1, g]; no zero coefficients."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def make(cls, field, mapping):
        """Build from {(fexp, gexp): value}, coercing coefficients."""
        out = {}
        for (fe, ge), v in mapping.items():
            if ge < 0:
                raise ValueError("gexp must be non-negative")
            out[(fe, ge)] = field.element(v)
        return cls(field, out)

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def one(cls, field):
        return cls(field, {(0, 0): field.one})

    @classmethod
    def f_gen(cls, field):
        return cls(field, {(1, 0): field.one})

    @classmethod
    def g_gen(cls, field):
        return cls(field, {(0, 1): field.one})

    @classmethod
    def monomial(cls, field, fexp, gexp, coeff=1):
        if gexp < 0:
            raise ValueError("gexp must be non-negative")
        return cls(field, {(fexp, gexp): field.element(coeff)})

    # -- structure -----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.field == other.field
            and self.terms == other.terms
        )

    __hash__ = None

    @property
    def deg_g(self):
        if not self.terms:
            return NEG_INF
        return max(ge for _, ge in self.terms)

    @property
    def deg_f(self):
        if not self.terms:
            return NEG_INF
        return max(fe for fe, _ in self.terms)

    def coefficient(self, fexp, gexp):
        return self.terms.get((fexp, gexp), self.field.zero)

    def sorted_terms(self):
        """Terms in descending monomial order; the canonical presentation."""
        return sorted(self.terms.items(), key=lambda kv: order_key(kv[0]), reverse=True)

    def _check_field(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self.field != other.field:
            raise FieldMismatch("elements over different fields")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        self._check_field(other)
        return type(self)(self.field, add_terms(self.terms, other.terms, self.field.reduce))

    def __sub__(self, other):
        self._check_field(other)
        return type(self)(
            self.field, add_terms(self.terms, other.terms, self.field.reduce, negate=True)
        )

    def __neg__(self):
        reduce = self.field.reduce
        return type(self)(self.field, {k: reduce(-c) for k, c in self.terms.items()})

    def __mul__(self, other):
        self._check_field(other)
        field = self.field
        return type(self)(field, _canonical(field, *_int_product(field, self.terms, other.terms)))

    def __pow__(self, e):
        return power(self, e, type(self).one(self.field))

    def scale(self, k):
        if not k:
            return type(self).zero(self.field)
        reduce = self.field.reduce
        return type(self)(self.field, {t: reduce(c * k) for t, c in self.terms.items()})

    def mul_monomial(self, fshift):
        """Multiply by f^fshift via key translation."""
        return type(self)(self.field, {(fe + fshift, ge): c for (fe, ge), c in self.terms.items()})

    # -- the monomial order and the gap --------------------------------------

    def largest_monomial(self):
        """Maximal (fexp, gexp) of the support under the (gexp, fexp) order."""
        if not self.terms:
            raise ZeroElement("zero element has no largest monomial")
        return max(self.terms, key=order_key)

    def largest_negative_monomial(self):
        """Maximal support monomial with fexp < 0, or None for polynomials."""
        neg = [k for k in self.terms if k[0] < 0]
        if not neg:
            return None
        return max(neg, key=order_key)

    def gap(self):
        """Largest monomial divided by largest negative monomial."""
        if not self.terms:
            raise ZeroElement("gap of the zero element is undefined")
        neg = self.largest_negative_monomial()
        if neg is None:
            return GapValue.infinite()
        bf, bg = self.largest_monomial()
        return GapValue.ratio(bf - neg[0], bg - neg[1])

    def is_polynomial(self):
        """True when no exponent of f is negative; the zero element counts."""
        return all(fe >= 0 for fe, _ in self.terms)

    def is_monic_in_g(self):
        """True when the top g-coefficient is the constant 1."""
        if not self.terms:
            return False
        top = self.deg_g
        heads = [(fe, ge) for fe, ge in self.terms if ge == top]
        return heads == [(0, top)] and self.terms[(0, top)] == self.field.one

    def render(self):
        """Canonical text: descending monomial order, f^i*g^j factors."""
        if not self.terms:
            return "0"
        parts = []
        for (fe, ge), c in self.sorted_terms():
            sign = "-" if c < 0 else "+"
            parts.append((sign, _lterm_str(-c if c < 0 else c, fe, ge)))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"{type(self).__name__}({self.render()!r})"


def _lterm_str(c, fe, ge):
    factors = []
    if fe:
        factors.append("f" if fe == 1 else f"f^{fe}")
    if ge:
        factors.append("g" if ge == 1 else f"g^{ge}")
    if not factors:
        return str(c)
    body = "*".join(factors)
    if c == 1:
        return body
    return f"{c}*{body}"


@total_ordering
class GapValue:
    """A formal monomial ratio f^dfexp * g^dgexp, or infinity.

    Ordered like monomials: lexicographically by (dgexp, dfexp), with the
    infinite value above everything.
    """

    __slots__ = ("dfexp", "dgexp")

    def __init__(self, dfexp, dgexp):
        self.dfexp = dfexp
        self.dgexp = dgexp

    @classmethod
    def infinite(cls):
        return cls(None, None)

    @classmethod
    def ratio(cls, dfexp, dgexp):
        return cls(dfexp, dgexp)

    @property
    def is_infinite(self):
        return self.dfexp is None

    def _key(self):
        if self.is_infinite:
            return (INF, INF)
        return (self.dgexp, self.dfexp)

    def __eq__(self, other):
        return isinstance(other, GapValue) and self._key() == other._key()

    def __lt__(self, other):
        return self._key() < other._key()

    def __hash__(self):
        return hash(self._key())

    def __pow__(self, e):
        if self.is_infinite:
            return self
        return GapValue(self.dfexp * e, self.dgexp * e)

    def __repr__(self):
        if self.is_infinite:
            return "GapValue(oo)"
        return f"GapValue(f^{self.dfexp}*g^{self.dgexp})"
