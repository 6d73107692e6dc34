"""Exact coefficient arithmetic over the rationals and prime fields.

Scalars are plain values: `fractions.Fraction` over the rationals (always
stored reduced with positive denominator) and canonical residues, `int` in
[0, p), over a prime field.  A `Field` object carries the operations;
containers (polynomials, Laurent elements) hold a `Field` reference next to
raw scalar values, so equality of scalars is equality of representations.
"""

import math
from fractions import Fraction

from .errors import CoefficientNotInField, DivisionByZero, InvalidFieldSpec, NotPrime

# Python's default int <-> str digit limit; testing a prime this long takes seconds
MAX_MODULUS_DIGITS = 4300


# Bases 2..41 make Miller-Rabin deterministic below this bound, the least
# strong pseudoprime to all thirteen of them (Sorenson and Webster, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin below _MR_BOUND, Baillie-PSW at and above.

    No composite is known to pass Baillie-PSW (a base-2 strong test and a
    strong Lucas test); none exists below 2^64.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a, d, s) for a in _MR_BASES)
    return _strong_probable_prime(n, 2, d, s) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n, a, d, s):
    """The strong (Miller-Rabin) test of odd n to base a; n - 1 = d * 2^s."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """The strong Lucas test of odd n > 41 with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D) / 4; n + 1 = d * 2^s.  n passes when U_d = 0 or
    V_(d*2^r) = 0 for some 0 <= r < s, all mod n.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # 1 < gcd(|D|, n) < n, since n > 41 >= |D| here
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q % n  # U_1, V_1 (P = 1), Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


WORD_PRIME = 2**61 - 1  # the largest prime below 2^61
_WORD_PRIMES = []  # the primes below 2^61 found so far, in descending order


def word_primes():
    """The primes below 2^61 in descending order, as many as the caller draws.

    Each prime is found once per process, when a caller first asks for it;
    importing the module draws none.
    """
    i = 0
    while True:
        if i == len(_WORD_PRIMES):
            q = _WORD_PRIMES[-1] - 2 if _WORD_PRIMES else WORD_PRIME
            while not is_prime(q):
                q -= 2
            _WORD_PRIMES.append(q)
        yield _WORD_PRIMES[i]
        i += 1


class Field:
    """The coefficient field K: `Field()` is the rationals, `Field(p)` is F_p."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p=None):
        if p is not None and not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.zero = Fraction(0) if p is None else 0
        self.one = Fraction(1) if p is None else 1

    def characteristic(self):
        return 0 if self.p is None else self.p

    def name(self):
        return "q" if self.p is None else f"fp:{self.p}"

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return "Field()" if self.p is None else f"Field({self.p})"

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

    # -- field operations ----------------------------------------------------

    def div(self, a, b):
        if not b:
            raise DivisionByZero("scalar division by zero")
        if self.p is None:
            return a / b
        return a * pow(b, -1, self.p) % self.p

    def quotient(self, a, b):
        """The canonical scalar a / b of two ints."""
        if self.p is None:
            return Fraction(a, b)
        if not b % self.p:
            raise DivisionByZero("scalar division by zero")
        return a * pow(b, -1, self.p) % self.p

    def inv(self, a):
        return self.div(self.one, a)

    def pow(self, a, e):
        """a**e for any integer e; negative e inverts first."""
        if e < 0:
            a = self.inv(a)
            e = -e
        if self.p is None:
            return a**e
        return pow(a, e, self.p)

    def reduce(self, x):
        """The canonical scalar of an int or of sums and products of scalars."""
        if self.p is None:
            return x if isinstance(x, Fraction) else Fraction(x)
        return x % self.p


def rationals():
    return Field()


def prime_field(p):
    return Field(p)


def parse_field(text):
    """Parse the CLI field grammar: 'q' for the rationals, 'fp:<p>' for F_p."""
    if text == "q":
        return rationals()
    if text.startswith("fp:"):
        body = text[3:]
        if not body.isascii() or not body.isdigit():
            raise InvalidFieldSpec(f"bad prime-field spec {text!r}; expected fp:<p>")
        if len(body) > MAX_MODULUS_DIGITS:
            raise InvalidFieldSpec(f"prime-field modulus longer than {MAX_MODULUS_DIGITS} digits")
        return prime_field(int(body))
    raise InvalidFieldSpec(f"unknown field {text!r}; expected 'q' or 'fp:<p>'")


def power(base, e, one):
    """base**e for e >= 0 by square-and-multiply; `one` is the ring's identity."""
    if e < 0:
        raise ValueError(f"negative power of a {type(base).__name__}")
    result = None
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return one if result is None else result


def clear_denominators(values):
    """Scale Fractions to ints by their lcm denominator: (ints, denominator).

    For reduced Fractions, gcd(denominator, *ints) is 1: this is the form in
    which `UniPoly` stores a polynomial over Q.  `Laurent2` products convolve
    in these plain integers and divide the common denominator back out once
    per output coefficient, which avoids a gcd per elementary product.
    """
    den = 1
    for v in values:
        d = v.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den
