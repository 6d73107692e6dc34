"""Exact coefficient arithmetic over the rationals and prime fields.

Scalars are plain values: `fractions.Fraction` over the rationals (always
stored reduced with positive denominator) and canonical residues, `int` in
[0, p), over a prime field.  A `Field` object carries the operations;
containers (polynomials, Laurent elements) hold a `Field` reference next to
raw scalar values, so equality of scalars is equality of representations.
"""

import math
from fractions import Fraction

from .errors import (
    CoefficientNotInField,
    DivisionByZero,
    FieldMismatch,
    InvalidFieldSpec,
    MissingModulus,
    NotPrime,
)

RATIONALS = "rationals"
PRIME_FIELD = "prime_field"


def is_prime(n):
    """Deterministic trial division; moduli here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """The coefficient field K: the rationals or F_p for a prime p."""

    __slots__ = ("kind", "p", "zero", "one")

    def __init__(self, kind, p=None):
        if kind == RATIONALS:
            if p is not None:
                raise ValueError("the rationals take no modulus")
            self.p = None
            self.zero = Fraction(0)
            self.one = Fraction(1)
        elif kind == PRIME_FIELD:
            if p is None:
                raise MissingModulus("prime field requested without a modulus")
            if not is_prime(p):
                raise NotPrime(f"{p} is not prime")
            self.p = p
            self.zero = 0
            self.one = 1
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind

    def characteristic(self):
        return 0 if self.p is None else self.p

    def name(self):
        return "q" if self.p is None else f"fp:{self.p}"

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"Field({self.name()!r})"

    # -- element construction ------------------------------------------------

    def element(self, value):
        """Coerce an int, Fraction, or 'a/b' string into a canonical scalar."""
        if self.p is None:
            return Fraction(value)
        if isinstance(value, int):
            return value % self.p
        fr = Fraction(value)
        den = fr.denominator % self.p
        if den == 0:
            raise CoefficientNotInField(
                f"{fr} has no image in F_{self.p} (denominator divisible by {self.p})"
            )
        return fr.numerator * pow(den, -1, self.p) % self.p

    def _check(self, a):
        if self.p is None:
            if not isinstance(a, Fraction):
                raise FieldMismatch(f"{a!r} is not a rational scalar")
        elif not isinstance(a, int) or not 0 <= a < self.p:
            raise FieldMismatch(f"{a!r} is not a canonical residue mod {self.p}")

    # -- field operations ----------------------------------------------------

    def add(self, a, b):
        self._check(a)
        self._check(b)
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        self._check(a)
        self._check(b)
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        self._check(a)
        self._check(b)
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        self._check(a)
        return -a if self.p is None else (-a) % self.p

    def div(self, a, b):
        self._check(a)
        self._check(b)
        if not b:
            raise DivisionByZero("scalar division by zero")
        if self.p is None:
            return a / b
        return a * pow(b, -1, self.p) % self.p

    def inv(self, a):
        return self.div(self.one, a)

    def pow(self, a, e):
        """a**e for any integer e; negative e inverts first."""
        self._check(a)
        if e < 0:
            a = self.inv(a)
            e = -e
        if self.p is None:
            return a**e
        return pow(a, e, self.p)

    def reduce(self, x):
        """Canonicalize a raw accumulated value (used by convolution kernels)."""
        if self.p is None:
            return x if isinstance(x, Fraction) else Fraction(x)
        return x % self.p


def rationals():
    return Field(RATIONALS)


def prime_field(p):
    return Field(PRIME_FIELD, p)


def parse_field(text):
    """Parse the CLI field grammar: 'q' for the rationals, 'fp:<p>' for F_p."""
    if text == "q":
        return rationals()
    if text.startswith("fp:"):
        body = text[3:]
        if not body or not body.isdigit():
            raise InvalidFieldSpec(f"bad prime-field spec {text!r}; expected fp:<p>")
        return prime_field(int(body))
    raise InvalidFieldSpec(f"unknown field {text!r}; expected 'q' or 'fp:<p>'")


def power(base, e, one):
    """base**e for e >= 0 by square-and-multiply; `one` is the ring's identity."""
    if e < 0:
        raise ValueError(f"negative power of a {type(base).__name__}")
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def clear_denominators(values):
    """Scale Fractions to ints by their lcm denominator: (ints, denominator).

    Multiplication kernels convolve in plain integers and divide the common
    denominator back out once per output coefficient, which avoids a gcd per
    elementary product.
    """
    den = 1
    for v in values:
        d = v.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den
