"""Dense univariate polynomials K[z] and the subring K[z, f(z)^-1] of K(z).

`UniPoly` is the ambient ring; `FImage` represents num / f(z)^fpow for one
fixed base polynomial f, which is the only denominator the reduction
algorithm ever needs.  The z-degree of such a fraction is deg(num) minus
fpow*deg(f), matching the degree of a rational function as numerator degree
minus denominator degree.
"""

from fractions import Fraction

from .errors import (
    DivisionByZero,
    FieldMismatch,
    FImageBaseMismatch,
    ZeroHasNoDegree,
)
from .scalar import clear_denominators, power

NEG_INF = float("-inf")


class UniPoly:
    """Dense polynomial over a Field; trailing coefficient nonzero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        # Assumes canonical scalars; trims trailing zeros.
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:n])

    @classmethod
    def make(cls, field, values):
        """Build from low-to-high coefficient values, coercing each."""
        return cls(field, [field.element(v) for v in values])

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def z(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def monomial(cls, field, k, coeff=1):
        c = field.element(coeff)
        if not c:
            return cls.zero(field)
        return cls(field, (field.zero,) * k + (c,))

    # -- structure -----------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self):
        """Degree, with the zero polynomial at -infinity."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def leading_coefficient(self):
        if not self.coeffs:
            raise ZeroHasNoDegree("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def _check_field(self, other):
        if not isinstance(other, UniPoly):
            raise TypeError(f"expected UniPoly, got {type(other).__name__}")
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        reduce = self.field.reduce
        for i, bi in enumerate(b):
            out[i] = reduce(out[i] + bi)
        return UniPoly(self.field, out)

    def __sub__(self, other):
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        out = list(a) + [self.field.zero] * (len(b) - len(a))
        reduce = self.field.reduce
        for i, bi in enumerate(b):
            out[i] = reduce(out[i] - bi)
        return UniPoly(self.field, out)

    def __neg__(self):
        neg = self.field.neg
        return UniPoly(self.field, [neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero(self.field)
        if self.field.p is None:
            a, da = clear_denominators(a)
            b, db = clear_denominators(b)
            den = da * db
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        if self.field.p is None:
            return UniPoly(self.field, [Fraction(c, den) for c in out])
        p = self.field.p
        return UniPoly(self.field, [c % p for c in out])

    def scale(self, k):
        if not k:
            return UniPoly.zero(self.field)
        reduce = self.field.reduce
        return UniPoly(self.field, [reduce(c * k) for c in self.coeffs])

    def __pow__(self, e):
        return power(self, e, UniPoly.one(self.field))

    def divrem(self, other):
        """Quotient and remainder with deg r < deg other."""
        self._check_field(other)
        if not other:
            raise DivisionByZero("polynomial division by zero")
        field = self.field
        b = other.coeffs
        db = len(b) - 1
        if len(self.coeffs) - 1 < db:
            return UniPoly.zero(field), self
        inv_lb = field.inv(b[-1])
        a = list(self.coeffs)
        reduce = field.reduce
        q = [field.zero] * (len(a) - db)
        for k in range(len(a) - db - 1, -1, -1):
            c = a[k + db]
            if c:
                c = reduce(c * inv_lb)
                q[k] = c
                for i in range(db):
                    a[k + i] = reduce(a[k + i] - c * b[i])
        return UniPoly(field, q), UniPoly(field, a[:db])

    def render(self, var="z"):
        """Canonical text, terms in descending power."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            body = _term_str(-c if c < 0 else c, var, k)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"UniPoly({self.render()!r})"


def _term_str(c, var, k):
    if k == 0:
        return str(c)
    v = var if k == 1 else f"{var}^{k}"
    if c == 1:
        return v
    return f"{c}*{v}"


class FImage:
    """num / f(z)^fpow with f removed from num while it divides."""

    __slots__ = ("num", "fpow", "f_ref")

    def __init__(self, num, fpow, f_ref):
        if fpow < 0:
            raise ValueError("fpow must be non-negative")
        if not num:
            num = UniPoly.zero(f_ref.field)
            fpow = 0
        else:
            while fpow > 0:
                q, r = num.divrem(f_ref)
                if r:
                    break
                num = q
                fpow -= 1
        self.num = num
        self.fpow = fpow
        self.f_ref = f_ref

    @classmethod
    def from_poly(cls, p, f_ref):
        return cls(p, 0, f_ref)

    @classmethod
    def zero(cls, f_ref):
        return cls(UniPoly.zero(f_ref.field), 0, f_ref)

    def __bool__(self):
        return bool(self.num)

    def zdeg(self):
        """deg(num) - fpow*deg(f); the degree as a rational function of z."""
        if not self.num:
            raise ZeroHasNoDegree("zero element has no z-degree")
        return len(self.num.coeffs) - 1 - self.fpow * (len(self.f_ref.coeffs) - 1)

    def leading_coefficient(self):
        if not self.num:
            raise ZeroHasNoDegree("zero element has no leading coefficient")
        return self.num.coeffs[-1]

    def z_leading_coefficient(self):
        """Coefficient of the top z-power of the Laurent expansion.

        Equals lc(num) / lc(f)^fpow; differs from `leading_coefficient`
        only when f is not monic and fpow > 0.
        """
        field = self.num.field
        lc = self.leading_coefficient()
        if self.fpow:
            lc = field.div(lc, field.pow(self.f_ref.leading_coefficient(), self.fpow))
        return lc

    def _check_base(self, other):
        if not isinstance(other, FImage):
            raise TypeError(f"expected FImage, got {type(other).__name__}")
        if self.f_ref != other.f_ref:
            raise FImageBaseMismatch("operands have different denominator bases")

    def __eq__(self, other):
        return (
            isinstance(other, FImage)
            and self.f_ref == other.f_ref
            and self.fpow == other.fpow
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.num, self.fpow, self.f_ref))

    def _aligned(self, other):
        w = max(self.fpow, other.fpow)
        a = self.num if self.fpow == w else self.num * self.f_ref ** (w - self.fpow)
        b = other.num if other.fpow == w else other.num * self.f_ref ** (w - other.fpow)
        return a, b, w

    def __add__(self, other):
        self._check_base(other)
        a, b, w = self._aligned(other)
        return FImage(a + b, w, self.f_ref)

    def __sub__(self, other):
        self._check_base(other)
        a, b, w = self._aligned(other)
        return FImage(a - b, w, self.f_ref)

    def __neg__(self):
        return FImage(-self.num, self.fpow, self.f_ref)

    def __mul__(self, other):
        self._check_base(other)
        return FImage(self.num * other.num, self.fpow + other.fpow, self.f_ref)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of an FImage")
        return FImage(self.num**e, self.fpow * e, self.f_ref)

    def scale(self, k):
        return FImage(self.num.scale(k), self.fpow, self.f_ref)

    def __repr__(self):
        if self.fpow == 0:
            return f"FImage({self.num.render()!r})"
        return f"FImage(({self.num.render()}) / f^{self.fpow})"
