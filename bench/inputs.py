"""Seeded inputs of the benchmark workloads, built without polydep.

Polynomials are plain coefficient lists, lowest degree first, with `int`
entries over Q and residues in [0, p) over F_p.  The shapes (degrees,
fields, counts) of every workload are fixed; the seed draws coefficients,
and the coprime exponents of the cheap monomial pairs z^n, z^m, so the
cost of a workload barely moves from seed to seed while its inputs do.
For the same reason the leading coefficients of dense pairs over Q are
fixed (LEAD_Q).
The generator is owned by the benchmark so that its inputs do not drift
when the test generators change.
"""

import math
import random
from dataclasses import dataclass

P31 = 2**31 - 1  # a 31-bit prime
P40 = 1000000000039  # a 40-bit prime; trial division takes ~60 ms on it


@dataclass(frozen=True)
class Pair:
    """One engine input: f, g over the field `field` ("q" or "fp:<p>")."""

    name: str
    field: str
    f: tuple
    g: tuple
    w_degree: int = 1  # f = A(w), g = B(w) with deg w = w_degree
    monomial: bool = False  # f = z^n, g = z^m with n, m coprime
    automorphic: bool = False  # K[f, g] = K[z] by construction


def characteristic(field):
    return 0 if field == "q" else int(field[3:])


def rng_for(workload, seed):
    """A generator that depends only on the workload name and the seed."""
    return random.Random(f"polydep-bench/{workload}/{seed}")


# -- plain polynomial arithmetic -------------------------------------------


def trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def padd(a, b, p=0):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim([c % p for c in out] if p else out)


def pmul(a, b, p=0):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim([c % p for c in out] if p else out)


def compose(a, w, p=0):
    """a(w(z)) by Horner's rule."""
    acc = []
    for c in reversed(a):
        acc = padd(pmul(acc, w, p), [c], p)
    return acc


def render(coeffs):
    """CLI text of a polynomial in z, highest degree first."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        else:
            z = "z" if k == 1 else f"z^{k}"
            body = z if mag == 1 else f"{mag}*{z}"
        parts.append((sign, body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# -- random polynomials ------------------------------------------------------


def dense(rng, p, degree, lo=-6, hi=6):
    """Exactly the given degree; small integers over Q, residues over F_p."""
    while True:
        if p:
            coeffs = [rng.randrange(p) for _ in range(degree + 1)]
        else:
            coeffs = [rng.randint(lo, hi) for _ in range(degree + 1)]
        if coeffs[-1] % (p or 2**64):
            return coeffs


def composed_pair(rng, field, a, b, e, name):
    """f = A(w), g = B(w) with deg A = a, deg B = b, deg w = e."""
    p = characteristic(field)
    w = dense(rng, p, e, -3, 3)
    f = compose(dense(rng, p, a, -3, 3), w, p)
    g = compose(dense(rng, p, b, -3, 3), w, p)
    return Pair(name, field, tuple(f), tuple(g), w_degree=e)


def automorphic_pair(rng, field, moves, name, base_first=True):
    """Apply (u, v) -> (v + r(u), u) from (z, c), deg r taken from `moves`.

    Each move is an automorphism of K[z], so K[f, g] = K[z]; the degrees
    of the result are prod(moves) and prod(moves[:-1]).
    """
    p = characteristic(field)
    u, v = [0, 1], trim([rng.randint(-3, 3) % p if p else rng.randint(-3, 3)])
    for d in moves:
        r = dense(rng, p, d, -2, 2)
        u, v = padd(v, compose(r, u, p), p), u
    f, g = (u, v) if base_first else (v, u)
    return Pair(name, field, tuple(f), tuple(g), automorphic=True)


def monomial_pair(rng, field, name, lo=5, hi=11):
    """f = z^n, g = z^m with n < m, gcd(n, m) = 1; the relation is g^n - f^m."""
    n = rng.randint(lo, hi)
    m = rng.choice([k for k in range(n + 1, 2 * n + 1) if math.gcd(n, k) == 1])
    return Pair(name, field, (0,) * n + (1,), (0,) * m + (1,), monomial=True)


# Leading coefficients of dense pairs over Q.  They set how fast the
# denominators of the reduction grow: with them drawn from the seed, one
# (16,24) pair took 0.73-1.03 s over eight seeds, with them fixed 0.93-1.02 s.
LEAD_Q = (2, -3)


def dense_pair(rng, field, n, m, name):
    p = characteristic(field)
    f, g = dense(rng, p, n), dense(rng, p, m)
    if not p:
        f[-1], g[-1] = LEAD_Q
    return Pair(name, field, tuple(f), tuple(g))


# -- workload inputs ---------------------------------------------------------

# (deg f, deg g, how many pairs) of the dense random ladder
# (8,12) pairs are the majority, so op_p50_s is the median of one shape
ENGINE_LADDER = [(8, 12, 16), (12, 18, 4), (16, 24, 2), (24, 36, 1)]
# (deg A, deg B, deg w) of f = A(w), g = B(w)
ENGINE_COMPOSED = [(4, 6, 2), (6, 9, 2), (4, 6, 3), (5, 7, 3)]
# degrees of the automorphism moves, and whether f is the larger element
ENGINE_AUTOMORPHIC = [((4, 3, 2, 4), True), ((3, 3, 3, 3), False),
                      ((2, 2, 2, 2, 3), True), ((4, 4, 4), False)]
# characteristic-p pairs of cli_batch: (p, deg f, deg g); p | gcd, then
# p | deg g only
CHAR_P_PAIRS = [(2, 8, 12), (3, 9, 12), (5, 10, 15),
                (2, 9, 12), (3, 8, 12), (5, 8, 10)]
# A fixed pair over F_2 in the oracle workload: f = (z + 1)^8 drives the
# chain degrees to (12, 18, -9), so FImage has to divide by f, which random
# dense pairs seldom make it do.
NEGATIVE_CHAIN = Pair("char2-negative-chain", "fp:2", (1, 0, 0, 0, 0, 0, 0, 0, 1),
                      (0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1))
ENGINE_LARGEST = "ladder-24x36-0"


def engine_pairs(workload, seed, field):
    rng = rng_for(workload, seed)
    pairs = []
    for n, m, count in ENGINE_LADDER:
        for i in range(count):
            pairs.append(dense_pair(rng, field, n, m, f"ladder-{n}x{m}-{i}"))
    for a, b, e in ENGINE_COMPOSED:
        pairs.append(composed_pair(rng, field, a, b, e, f"composed-{a}x{b}-w{e}"))
    for i, (moves, base_first) in enumerate(ENGINE_AUTOMORPHIC):
        pairs.append(automorphic_pair(rng, field, moves, f"automorphic-{i}", base_first))
    for i in range(2):
        pairs.append(monomial_pair(rng, field, f"monomial-{i}"))
    return pairs


def engine_q(seed):
    return engine_pairs("engine_q", seed, "q")


# oracle inputs: deg f + deg g <= 35; (6,9) over Q is the most common shape,
# with as many cheaper inputs below it as dearer ones above, so the median
# falls in its middle; the (10,15) pairs over Q hold the tail percentile
ORACLE_LADDER = [(4, 6, 6), (6, 9, 14), (8, 12, 3), (10, 15, 4), (12, 18, 1), (14, 21, 1)]
ORACLE_LADDER_FP = [(4, 6, 7), (6, 9, 3), (8, 12, 3), (10, 15, 1), (12, 18, 1)]
ORACLE_COMPOSED = [(4, 6, 3)]
# characteristic-p pairs (p, deg f, deg g): p | gcd(deg f, deg g) for the
# first two, p | deg g and p not dividing deg f, which forces the f/g swap,
# for the rest
ORACLE_CHAR_P = [(3, 6, 9), (5, 10, 15), (2, 9, 12), (3, 8, 12), (5, 8, 10)]
ORACLE_LARGEST = "q-ladder-14x21-0"


def oracle(seed):
    rng = rng_for("oracle", seed)
    pairs = []
    for field, ladder in (("q", ORACLE_LADDER), (f"fp:{P31}", ORACLE_LADDER_FP)):
        tag = "q" if field == "q" else "fp"
        for n, m, count in ladder:
            for i in range(count):
                pairs.append(dense_pair(rng, field, n, m, f"{tag}-ladder-{n}x{m}-{i}"))
        for a, b, e in ORACLE_COMPOSED:
            pairs.append(composed_pair(rng, field, a, b, e, f"{tag}-composed-{a}x{b}-w{e}"))
    for p, n, m in ORACLE_CHAR_P:
        pairs.append(dense_pair(rng, f"fp:{p}", n, m, f"char{p}-{n}x{m}"))
    return pairs + [NEGATIVE_CHAIN]
