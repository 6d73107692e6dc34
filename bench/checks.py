"""Independent checks of polydep's outputs.

Nothing here uses polydep: relations are plain dicts {(fexp, gexp): coeff}
and polynomials are plain coefficient lists.  P(f(z), g(z)) = 0 is decided

- over Q, at a random point modulo each of three random 62-bit primes;
- over F_p with p > 2^24, at enough random points of F_p;
- over smaller F_p, exactly, by expanding P(f(z), g(z)) mod p.

README.md gives the argument that a nonzero P(f(z), g(z)) passes with
probability below 2^-60.
"""

import math
from fractions import Fraction

from inputs import characteristic, padd, pmul

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Miller-Rabin with the first 13 prime bases: exact below 3.3 * 10^24."""
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, bits=62):
    """A prime drawn uniformly from [2^(bits-1), 2^bits)."""
    while True:
        q = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_prime(q):
            return q


def residue(c, q):
    """Image of an int or Fraction in F_q; None when q divides a denominator."""
    if isinstance(c, Fraction):
        if c.denominator % q == 0:
            return None
        return c.numerator * pow(c.denominator, -1, q) % q
    return c % q


def poly_at(coeffs, x, q):
    acc = 0
    for c in reversed(coeffs):
        r = residue(c, q)
        if r is None:
            return None
        acc = (acc * x + r) % q
    return acc


def relation_at(terms, fx, gx, q):
    acc = 0
    for (i, j), c in terms.items():
        r = residue(c, q)
        if r is None:
            return None
        acc = (acc + r * pow(fx, i, q) * pow(gx, j, q)) % q
    return acc


def _value_mod(terms, f, g, q, rng):
    x = rng.randrange(q)
    fx, gx = poly_at(f, x, q), poly_at(g, x, q)
    if fx is None or gx is None:
        return None
    return relation_at(terms, fx, gx, q)


def _expand_mod(terms, f, g, p):
    """Coefficients of P(f(z), g(z)) mod p, by Horner's rule in g."""
    fpows = [[1]]
    for _ in range(max(i for i, _ in terms)):
        fpows.append(pmul(fpows[-1], f, p))
    acc = []
    for j in range(max(j for _, j in terms), -1, -1):
        acc = pmul(acc, g, p)
        for (i, jj), c in terms.items():
            if jj == j:
                acc = padd(acc, [c * x for x in fpows[i]], p)
    return acc


def vanishes(terms, f, g, p, rng):
    """True when P(f(z), g(z)) = 0 for P = sum c * f^i * g^j, all i, j >= 0."""
    if not terms:
        return False
    if p == 0:
        trials = 0
        while trials < 3:
            value = _value_mod(terms, f, g, random_prime(rng), rng)
            if value is None:  # the prime divides a denominator; draw another
                continue
            if value:
                return False
            trials += 1
        return True
    bound = max(i * (len(f) - 1) + j * (len(g) - 1) for i, j in terms)
    if p > 1 << 24 and p > 1024 * bound:
        points = math.ceil(61 / math.log2(p / max(bound, 1)))
        return not any(_value_mod(terms, f, g, p, rng) for _ in range(points))
    return not _expand_mod(terms, f, g, p)


def relation_errors(pair, terms, used_f, used_g, swapped, d, rng):
    """Everything wrong with a computed relation for `pair`, as messages.

    `used_f`, `used_g` are the polynomials the run reports it used (after
    any swap) and `d` is the last entry of its d-sequence.
    """
    p = characteristic(pair.field)
    want = (list(pair.g), list(pair.f)) if swapped else (list(pair.f), list(pair.g))
    if (list(used_f), list(used_g)) != want:
        return [f"{pair.name}: reported f, g differ from the input (swapped={swapped})"]
    if p == 0 and swapped:
        return [f"{pair.name}: swapped over Q"]
    if not terms:
        return [f"{pair.name}: empty relation"]
    if any(i < 0 or j < 0 for i, j in terms):
        return [f"{pair.name}: relation has negative exponents"]
    errors = []
    n, m = len(used_f) - 1, len(used_g) - 1
    deg_f = max(i for i, _ in terms)
    deg_g = max(j for _, j in terms)
    if n % d or m % d or deg_g != n // d or deg_f != m // d:
        errors.append(
            f"{pair.name}: (deg_f P, deg_g P) = ({deg_f}, {deg_g}) but "
            f"deg f = {n}, deg g = {m}, d = {d}"
        )
    heads = {k: c for k, c in terms.items() if k[1] == deg_g}
    if heads != {(0, deg_g): 1}:
        errors.append(f"{pair.name}: relation is not monic in g")
    if d % pair.w_degree:
        errors.append(f"{pair.name}: d = {d} is not a multiple of deg w = {pair.w_degree}")
    if pair.automorphic and d != 1:
        errors.append(f"{pair.name}: automorphic pair with d = {d}")
    if pair.monomial:
        minus_one = -1 % p if p else -1
        if terms != {(0, n): 1, (m, 0): minus_one}:
            errors.append(f"{pair.name}: relation is not g^{n} - f^{m}")
    if not vanishes(terms, used_f, used_g, p, rng):
        errors.append(f"{pair.name}: P(f(z), g(z)) is not zero")
    return errors


def parse_coeff(text, p):
    value = Fraction(text)
    return value if p == 0 else residue(value, p)


def parse_relation_text(text, p):
    """Terms of a relation printed as `g^4 - 2*f^3*g^2 + 1/2*f - 3`."""
    tokens = text.split()
    sign = 1
    if tokens[0].startswith("-"):
        sign, tokens[0] = -1, tokens[0][1:]
    terms = {}
    for pos, token in enumerate(tokens):
        if pos % 2:
            sign = 1 if token == "+" else -1
            continue
        coeff, i, j = Fraction(1), 0, 0
        for factor in token.split("*"):
            base, _, exp = factor.partition("^")
            if base == "f":
                i = int(exp or 1)
            elif base == "g":
                j = int(exp or 1)
            else:
                coeff = Fraction(factor)
        coeff *= sign
        terms[(i, j)] = coeff if p == 0 else residue(coeff, p)
    return terms
