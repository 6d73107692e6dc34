"""Dense univariate polynomials K[z] and the subring K[z, f(z)^-1] of K(z).

`UniPoly` is the ambient ring.  It stores a polynomial as integers over one
denominator: `nums`, a tuple of ints from the constant term up, and `den`,
a positive int, so that the coefficient of z^k is nums[k] / den.  Over F_p
the nums are residues in [0, p) and den is 1.  The form is canonical:
gcd(den, *nums) == 1, the last num is nonzero, and the zero polynomial is
((), 1); so two polynomials are equal exactly when their (field, nums, den)
are.  Products are one Kronecker substitution: each vector is packed into
one big integer, the two integers are multiplied once, and the product is
cut back into coefficients.  Sums work over the lcm of the denominators.
Every result is brought to canonical form by one gcd over its integers,
never by one `Fraction` per coefficient.

The engine's reduction events use the packed form directly: a `Pack`
holds one polynomial's nums at their natural slot width, `widen` re-cuts
a packed value to wider slots by strided byte copies, and `top_digit`
reads the leading slot of a packed value without unpacking it.

`FImage` represents num / f(z)^fpow for one fixed base polynomial f, which
is the only denominator the reduction algorithm ever needs.  The z-degree
of such a fraction is deg(num) minus fpow*deg(f), matching the degree of a
rational function as numerator degree minus denominator degree.
"""

import math
from fractions import Fraction

from .errors import (
    DivisionByZero,
    FieldMismatch,
    FImageBaseMismatch,
    ZeroHasNoDegree,
)
from .scalar import clear_denominators, power

NEG_INF = float("-inf")


def _slots(width):
    """half, the offset that makes every slot of `width` bytes non-negative, as int and bytes."""
    half = 1 << (8 * width - 1)
    return half, half.to_bytes(width, "little")


def _pack(vec, width):
    """sum vec[i] * 2^(8*width*i) as one int; every |vec[i]| < 2^(8*width-1)."""
    half, slot = _slots(width)
    packed = b"".join([(c + half).to_bytes(width, "little") for c in vec])
    return int.from_bytes(packed, "little") - int.from_bytes(slot * len(vec), "little")


def _unpack(value, n, width):
    """The n signed base-2^(8*width) digits of value, low to high; inverts `_pack`.

    Needs every digit below 2^(8*width-1) in absolute value: adding `half`
    to every slot then makes each digit plus `half` its own unsigned slot,
    with no carry between slots.
    """
    half, slot = _slots(width)
    size = width * n
    from_bytes = int.from_bytes  # a local name: one attribute lookup, not one per slot
    raw = (value + from_bytes(slot * n, "little")).to_bytes(size, "little")
    return [from_bytes(raw[i : i + width], "little") - half for i in range(0, size, width)]


def slot_width(bound):
    """The fewest bytes per slot that hold every |c| <= bound with a sign bit to spare."""
    return bound.bit_length() // 8 + 1


def reduce_mod_p(value, width, p):
    """A packed value of non-negative digits, each below 2^(8*width-1), with
    every digit reduced mod p; the slots keep their `width` bytes."""
    n = value.bit_length() // (8 * width) + 1
    return _pack([c % p for c in _unpack(value, n, width)], width)


def _restride(raw, n, width, to, half):
    """The n slots of `raw` as an int with `to`-byte slots, `to` >= `width`.

    Each slot of `raw` holds a digit plus `half` in `width` bytes.  Byte j
    of every slot moves in one strided copy, so the cost is `width`
    C-level copies, not a pass over the digits.
    """
    if to == width:
        value = int.from_bytes(raw, "little")
    else:
        out = bytearray(to * n)
        for j in range(width):
            out[j::to] = raw[j::width]
        value = int.from_bytes(out, "little")
    if half:
        value -= int.from_bytes(half.to_bytes(to, "little") * n, "little")
    return value


def widen(value, n, width, to, signed):
    """A packed value of n digits with `width`-byte slots, re-cut to `to` >= `width` bytes.

    Signed digits are offset by half a slot first, so that each slot is a
    plain unsigned byte string; over F_p every digit is non-negative and
    `signed` is False.
    """
    if to == width:
        return value
    half = 1 << (8 * width - 1) if signed else 0
    if half:
        value += int.from_bytes(half.to_bytes(width, "little") * n, "little")
    return _restride(value.to_bytes(width * n, "little"), n, width, to, half)


def top_digit(value, width):
    """(t, c): the index and value of the top nonzero digit of a nonzero packed value.

    Every digit must be below 2^(8*width-1) in absolute value; then the
    digits under the top one sum to less than half a unit of it, so t
    follows from the bit length and c is the value shifted down to that
    slot, rounded.
    """
    bits = 8 * width
    t = value.bit_length() // bits
    return t, ((value >> (bits * t - 1)) + 1) >> 1 if t else value


class Pack:
    """A polynomial's nums packed once at its natural width, for products at wider ones.

    `raw` holds every num plus the half-slot offset (none over F_p, where
    nums are residues), so `at` widens it without touching the digits.
    `content` is the gcd of the nums and `den` the polynomial's
    denominator.
    """

    __slots__ = ("raw", "n", "width", "half", "bound", "content", "den")

    def __init__(self, poly):
        nums = poly.nums
        self.n = len(nums)
        self.bound = max(map(abs, nums))
        self.width = width = slot_width(self.bound)
        self.half = half = 1 << (8 * width - 1) if poly.field.p is None else 0
        self.raw = b"".join([(c + half).to_bytes(width, "little") for c in nums])
        self.content = math.gcd(*nums)
        self.den = poly.den

    def at(self, width):
        """The nums packed with `width`-byte slots, `width` >= self.width."""
        return _restride(self.raw, self.n, self.width, width, self.half)


def _kronecker(a, b):
    """The convolution of two nonempty int vectors by one big-int product.

    No output coefficient exceeds max|a| * max|b| * min(len a, len b) in
    absolute value, and each slot of `width` bytes leaves room for that
    bound plus a sign bit, so `_unpack` cuts the product of the packed
    integers back into the output coefficients.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = slot_width(bound)
    x = _pack(a, width)
    y = x if b is a else _pack(b, width)
    return _unpack(x * y, len(a) + len(b) - 1, width)


class UniPoly:
    """Dense polynomial over a Field: nums / den in canonical form."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, coeffs):
        """Build from canonical scalars, low to high; trims trailing zeros."""
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self.field = field
        nums, self.den = clear_denominators(coeffs[:n])
        self.nums = tuple(nums)

    @classmethod
    def _new(cls, field, nums, den):
        """Wrap a tuple already in canonical form."""
        poly = object.__new__(cls)
        poly.field = field
        poly.nums = nums
        poly.den = den
        return poly

    @classmethod
    def _normal(cls, field, nums, den):
        """Canonical form of nums / den: a list of ints, den > 0 (1 over F_p)."""
        p = field.p
        if p is not None:
            nums = [c % p for c in nums]
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        if not n:
            return cls._new(field, (), 1)
        del nums[n:]
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [c // g for c in nums]
        return cls._new(field, tuple(nums), den)

    @classmethod
    def make(cls, field, values):
        """Build from low-to-high coefficient values, coercing each."""
        return cls(field, [field.element(v) for v in values])

    @classmethod
    def zero(cls, field):
        return cls._new(field, (), 1)

    @classmethod
    def one(cls, field):
        return cls._new(field, (1,), 1)

    @classmethod
    def z(cls, field):
        return cls._new(field, (0, 1), 1)

    @classmethod
    def monomial(cls, field, k, coeff=1):
        return cls(field, (field.zero,) * k + (field.element(coeff),))

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as canonical scalars, low to high; built on access."""
        return tuple(map(self._scalar, self.nums))

    def _scalar(self, c):
        return c if self.field.p is not None else Fraction(c, self.den)

    def __bool__(self):
        return bool(self.nums)

    @property
    def degree(self):
        """Degree, with the zero polynomial at -infinity."""
        return len(self.nums) - 1 if self.nums else NEG_INF

    def leading_coefficient(self):
        if not self.nums:
            raise ZeroHasNoDegree("zero polynomial has no leading coefficient")
        return self._scalar(self.nums[-1])

    def coefficient(self, k):
        if 0 <= k < len(self.nums):
            return self._scalar(self.nums[k])
        return self.field.zero

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field, self.nums, self.den))

    def _check_field(self, other):
        if not isinstance(other, UniPoly):
            raise TypeError(f"expected UniPoly, got {type(other).__name__}")
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    # -- ring operations -----------------------------------------------------

    def _add_signed(self, other, sign):
        """self + sign * other, over the lcm of the denominators: one pass, one gcd."""
        self._check_field(other)
        a, b = self.nums, other.nums
        g = math.gcd(self.den, other.den)
        ma, mb = other.den // g, sign * (self.den // g)
        n = min(len(a), len(b))
        out = [x * ma + y * mb for x, y in zip(a, b)]
        if len(a) > n:
            out += [x * ma for x in a[n:]]
        else:
            out += [y * mb for y in b[n:]]
        return UniPoly._normal(self.field, out, self.den * ma)

    def __add__(self, other):
        return self._add_signed(other, 1)

    def __sub__(self, other):
        return self._add_signed(other, -1)

    def __neg__(self):
        return UniPoly._normal(self.field, [-c for c in self.nums], self.den)

    def __mul__(self, other):
        self._check_field(other)
        a, b = self.nums, other.nums
        if not a or not b:
            return UniPoly.zero(self.field)
        return UniPoly._normal(self.field, _kronecker(a, b), self.den * other.den)

    def scale(self, k):
        """k * self for a canonical scalar k."""
        if not k or not self.nums:
            return UniPoly.zero(self.field)
        kn = k.numerator
        return UniPoly._normal(self.field, [c * kn for c in self.nums], self.den * k.denominator)

    def __pow__(self, e):
        return power(self, e, UniPoly.one(self.field))

    def powers(self, k):
        """The table [1, self, self^2, ..., self^k], one product per entry."""
        table = [UniPoly.one(self.field)]
        for _ in range(k):
            table.append(table[-1] * self)
        return table

    def divrem(self, other):
        """Quotient and remainder with deg r < deg other."""
        self._check_field(other)
        if not other:
            raise DivisionByZero("polynomial division by zero")
        field = self.field
        db = len(other.nums) - 1
        if len(self.nums) - 1 < db:
            return UniPoly.zero(field), self
        b = other.coeffs
        inv_lb = field.inv(b[-1])
        a = list(self.coeffs)
        q = [field.zero] * (len(a) - db)
        for k in range(len(a) - db - 1, -1, -1):
            c = field.reduce(a[k + db] * inv_lb)
            if c:
                q[k] = c
                for i in range(db):
                    a[k + i] -= c * b[i]
        # over F_p the remainder was left unreduced; make() reduces it
        return UniPoly(field, q), UniPoly.make(field, a[:db])

    def render(self, var="z"):
        """Canonical text, terms in descending power."""
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
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
        return self.num.degree - self.fpow * self.f_ref.degree

    def leading_coefficient(self):
        if not self.num:
            raise ZeroHasNoDegree("zero element has no leading coefficient")
        return self.num.leading_coefficient()

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
