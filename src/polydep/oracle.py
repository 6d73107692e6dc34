"""Independent verification routines.

Three cross-checks that never share an algorithm with the reduction engine
(only the sparse arithmetic of laurent, which BivarPoly reuses):
direct substitution of a relation at (f(z), g(z)), the Sylvester resultant
Res_z(f(z) - x, g(z) - y), and a linear-algebra certificate that no
dependence of smaller g-degree exists.  In every characteristic the
resultant equals a scalar times P^d, where d = gcd of the degree data, so
the engine's P can be checked against it up to proportionality.

The resultant is computed by evaluation.  Write f = F/a and g = G/b with F, G
integer vectors and a, b their denominators, n = deg f and m = deg g.  Then
Res_z(f - x, g - y) = S(x, y) / (a^m b^n) with S = Res_z(F - a*x, G - b*y),
and for each x0, S(x0, y) = (-1)^n lc(F)^m chi(b*y), where chi is the
characteristic polynomial of multiplication by G in K[z]/(F - a*x0).  chi
comes from the power sums Tr(G^k), k <= n, by Newton's identities (Le
Verrier's method): Tr(G^k) is the dot product of the Krylov vector
G^k mod (F - a*x0) with the power sums of the roots of F - a*x0, which
do not depend on x0.  S, of x-degree at most m, comes from Newton
interpolation at x0 = 0..m.  Newton's identities divide by 1..n and the
interpolation by the differences of the points, so over F_p with
p > max(n, m) this is one pass mod p.  Over Q it is one pass modulo a
product M of primes below 2^61 that passes twice a bound on |S|'s
coefficients, and a symmetric lift gives S exactly: by the Chinese
remainder theorem Z/M is a product of fields, so the pass computes S
modulo every prime at once (von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 5-6).  Over F_p with p <= max(n, m) there are too few
interpolation points or too few units mod p; S is an integer polynomial
in the coefficients of F and G, so it is computed over Z as over Q, from
their residues in [0, p) with a = b = 1, and reduced mod p.
Fraction-free (Bareiss) elimination of the symbolic Sylvester matrix is
the tests' reference for the resultant, in `tests/reference.py`.

The minimality certificate specialises f to a few values x0 modulo a prime
q and finds the rank of the powers of g in K[z]/(f - x0) there, a Krylov
sequence (Wiedemann, 1986) from the resultant's kernel; full rank at one
point proves independence over K(f).  Only when every point loses rank,
as it must on a False answer, does it eliminate the f^i * g^j vectors
exactly over K.
"""

import math
from operator import mul

from .errors import (
    ConstantInput,
    DegreeCapExceeded,
    DivisionByZero,
    FieldMismatch,
    NotPolynomial,
    PreconditionFailed,
)
from .laurent import Laurent2, exact_div_terms
from .scalar import clear_denominators, prime_field, word_primes
from .unipoly import FImage, UniPoly, _pack, _unpack, slot_width

DEFAULT_DEGREE_CAP = 40
# the values of f at which minimality_certificate tries the Krylov rank first
SPECIALISATIONS = (1, 2, 3)


class BivarPoly(Laurent2):
    """Sparse polynomial in K[x, y]; x stands for f, y for g.

    The ring operations are Laurent2's and return BivarPoly; a BivarPoly is
    never equal to a Laurent2.
    """

    __slots__ = ()

    # bound in BivarPoly's own namespace, so bivariate products can be counted apart
    __mul__ = Laurent2.__mul__

    degree_x = Laurent2.deg_f
    degree_y = Laurent2.deg_g

    @classmethod
    def make(cls, field, mapping):
        if any(xe < 0 for xe, _ in mapping):
            raise ValueError("exponents must be non-negative")
        return super().make(field, mapping)

    @classmethod
    def from_laurent(cls, element):
        """Lossless conversion of a Laurent element with no negative f-powers."""
        if not element.is_polynomial():
            raise NotPolynomial("element has negative f-exponents")
        return cls(element.field, dict(element.terms))

    def to_laurent(self):
        return Laurent2(self.field, dict(self.terms))

    def exact_div(self, divisor):
        """Quotient when divisor divides exactly, else None."""
        if not divisor:
            raise DivisionByZero("bivariate division by zero")
        field = self.field
        quo = exact_div_terms(self.terms, divisor.terms, field.div, field.reduce)
        return None if quo is None else BivarPoly(field, quo)


def substitute(relation, f, g):
    """Evaluate a Laurent element at (f(z), g(z)); exact, in K[z, f(z)^-1].

    Write f = F/a and g = G/b (integer `nums` over `den`), the element as
    the sum of c_ij f^i g^j, D for the common denominator of the c_ij,
    L = max(0, -min i), E = max i + L and J = max j.  Then the integer
    polynomial Q = a^E b^J D f^L P(f, g), the sum of
    D c_ij a^(E-i-L) b^(J-j) F^(i+L) G^j, is evaluated at the one point
    z = 2^(8w): powers of F(2^(8w)), then Horner in G(2^(8w)).  No
    coefficient of Q exceeds the same sum taken with |D c_ij|, ||F||_1 and
    ||G||_1, and w bytes hold that bound and a sign (and F and G
    themselves), so Q's coefficients are the signed base-2^(8w) digits of
    the value (Kronecker substitution; von zur Gathen and Gerhard, Modern
    Computer Algebra, 8.4).  The image is Q / (a^E b^J D) / f^L.  Over F_p
    the c_ij, F and G are residues and a = b = D = 1; every product and
    every Horner row is cut back to residues (`_evaluate_mod`), so w stays
    fixed by p and the size of Q, where the bound above would grow like a
    power of p in E + J.
    """
    if relation.field != f.field or relation.field != g.field:
        raise FieldMismatch("relation and polynomials over different fields")
    if f.degree < 1:
        raise ConstantInput("substitution base f must have degree >= 1")
    field = relation.field
    if not relation:
        return FImage.zero(f)
    F, a, G, b = f.nums, f.den, g.nums, g.den
    terms = relation.terms
    ints, D = clear_denominators(terms.values())
    lift = max(0, -min(i for i, _ in terms))
    E = max(i for i, _ in terms) + lift
    J = max(j for _, j in terms)
    by_g = [[] for _ in range(J + 1)]
    for (i, j), c in zip(terms, ints):
        by_g[j].append((i + lift, c))
    size = E * (len(F) - 1) + J * (len(G) - 1) + 1
    p = field.p
    if p is None:
        bound = _evaluate(
            [[(i, abs(c)) for i, c in row] for row in by_g],
            sum(map(abs, F)), sum(map(abs, G)), a, b, E,
        )
        width = max(bound, *map(abs, F), *map(abs, G)).bit_length() // 8 + 1
        value = _evaluate(by_g, _pack(F, width), _pack(G, width), a, b, E)
    else:
        width = slot_width(2 * (p - 1) ** 2 * size)
        value = _evaluate_mod(by_g, _pack(F, width), _pack(G, width), p, width)
    num = UniPoly._normal(field, _unpack(value, size, width), a**E * b**J * D)
    return FImage(num, lift, f)


def _evaluate(by_g, x, y, a, b, E):
    """The sum over j of b^(J-j) y^j times the sum over (i, c) in by_g[j] of
    c a^(E-i) x^i, with J = len(by_g) - 1; by Horner in y.  x^i is formed
    only for the i that occur, each from the next lower one."""
    x_pows, prev = {0: 1}, 0
    for i in sorted({i for row in by_g for i, _ in row}):
        x_pows[i] = x_pows[prev] * x ** (i - prev)
        prev = i
    acc, b_pow = 0, 1
    for row in reversed(by_g):
        acc = acc * y + b_pow * sum(c * a ** (E - i) * x_pows[i] for i, c in row)
        b_pow *= b
    return acc


def _evaluate_mod(by_g, x, y, p, width):
    """`_evaluate` over F_p, where a = b = 1, with every product and every
    Horner row cut back to residues; x and y are packed residues.

    A product of two residue vectors, or a Horner row (one such product
    plus at most E + 1 multiples c * x^i), has digits below
    2 * (p - 1)^2 * size, size the slot count of the result, which
    `width`-byte slots hold; so the slots never grow with the exponents.
    """
    bits = 8 * width

    def cut(v):
        return _pack([c % p for c in _unpack(v, v.bit_length() // bits + 1, width)], width)

    def power(u, e):
        """u^e by square-and-multiply, e >= 1."""
        r = None
        while True:
            if e & 1:
                r = u if r is None else cut(r * u)
            e >>= 1
            if not e:
                return r
            u = cut(u * u)

    x_pows, prev = {0: 1}, 0
    for i in sorted({i for row in by_g for i, _ in row} - {0}):
        gap = power(x, i - prev)
        x_pows[i] = cut(x_pows[prev] * gap) if prev else gap
        prev = i
    acc = 0
    for row in reversed(by_g):
        acc = cut(acc * y + sum(c * x_pows[i] for i, c in row))
    return acc


def check_degree_cap(f, g):
    """Refuse inputs beyond the oracles' fixed cap on deg f + deg g."""
    if f.degree + g.degree > DEFAULT_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"deg f + deg g = {f.degree + g.degree} exceeds the oracle cap {DEFAULT_DEGREE_CAP}"
        )


def sylvester_resultant(f, g):
    """Res_z(f(z) - x, g(z) - y) as a polynomial in K[x, y]; see the module notes."""
    if f.field != g.field:
        raise FieldMismatch("f and g over different fields")
    if f.degree < 1 or g.degree < 1:
        raise ConstantInput("resultant needs two nonconstant polynomials")
    check_degree_cap(f, g)
    field, p = f.field, f.field.p
    n, m = f.degree, g.degree
    keys = [(i, j) for i in range(m + 1) for j in range(n + 1)]
    F, a, G, b = f.nums, f.den, g.nums, g.den
    if p is not None and p > max(n, m):
        values = _scaled_resultant_mod(F, a, G, b, p)
    else:  # over F_p with p <= max(n, m), F and G are the residues in [0, p), and a = b = 1
        values = _scaled_resultant(F, a, G, b)
    inv = field.inv(field.reduce(a**m * b**n))
    return BivarPoly(field, {key: field.reduce(c * inv) for key, c in zip(keys, values) if c})


def _scaled_resultant(F, a, G, b):
    """S = Res_z(F - a*x, G - b*y) over Z, ordered as by `_scaled_resultant_mod`.

    M is a product of word primes that divide none of lc(F), a and b, drawn
    until M passes twice `_resultant_bound`; S is the symmetric lift of one
    evaluation pass modulo M.  Z/M is a product of fields, and the pass
    inverts only lc(F), the integers 1..deg F and the differences of the
    points, all units modulo M, so it does the work of one pass per prime.
    """
    bound = 2 * _resultant_bound(F, a, G, b)
    primes = (q for q in word_primes() if F[-1] % q and a % q and b % q)
    modulus = 1
    while modulus <= bound:
        modulus *= next(primes)
    values = _scaled_resultant_mod(F, a, G, b, modulus)
    half = modulus // 2
    return [v - modulus if v > half else v for v in values]


def _resultant_bound(F, a, G, b):
    """A bound on |coefficient| of S = Res_z(F - a*x, G - b*y) (Hadamard).

    A coefficient of S is at most max |S(x, y)| over |x| = |y| = 1 (Cauchy),
    and there Hadamard's inequality bounds the Sylvester determinant by the
    product of its rows' 2-norms: sqrt(r_F) for each of the deg G rows of
    F - a*x and sqrt(r_G) for each of the deg F rows of G - b*y, where
    r_F = F_1^2 + ... + F_n^2 + (|F_0| + a)^2, likewise r_G (von zur Gathen
    and Gerhard, Modern Computer Algebra, 16.6).  Returns the ceiling of
    sqrt(r_F^(deg G) * r_G^(deg F)).
    """
    n, m = len(F) - 1, len(G) - 1
    r_F = sum(c * c for c in F[1:]) + (abs(F[0]) + a) ** 2
    r_G = sum(c * c for c in G[1:]) + (abs(G[0]) + b) ** 2
    return math.isqrt(r_F**m * r_G**n - 1) + 1


def _scaled_resultant_mod(F, a, G, b, q):
    """S = Res_z(F - a*x, G - b*y) mod q, for integer vectors F and G.

    Returns the coefficients of x^i y^j for i <= deg G and j <= deg F, i
    outer.  q is a prime or a product of distinct primes, each above deg F
    and deg G, so that 1..deg F (Newton's identities) and the differences
    of x0 = 0..deg G are units, and none dividing lc(F).
    """
    n, m = len(F) - 1, len(G) - 1
    inv_lc = pow(F[-1], -1, q)
    monic = [c * inv_lc % q for c in F]
    traces = _power_sums(monic, q)
    inverses = [pow(k, -1, q) for k in range(1, n + 1)]
    lc_factor = (-1) ** n * pow(F[-1], m, q)
    y_scale = [lc_factor * pow(b, j, q) % q for j in range(n + 1)]  # chi(b*y), times the factor
    at_x0 = []
    for x0 in range(m + 1):
        monic[0] = (F[0] - a * x0) * inv_lc % q
        chi = _charpoly(_multiplication_rows(G, monic, q), traces, inverses, q)
        at_x0.append([c * s % q for c, s in zip(chi, y_scale)])
    by_y = [_interpolate([row[j] for row in at_x0], q) for j in range(n + 1)]
    return [by_y[j][i] for i in range(m + 1) for j in range(n + 1)]


def _multiplication_rows(G, A, q):
    """The rows z^k * G mod A, k < deg A, for monic A: multiplication by G, transposed."""
    n = len(A) - 1
    r = [c % q for c in G]
    for d in range(len(r) - 1, n - 1, -1):
        c = r.pop() % q
        if c:
            for i in range(n):
                r[d - n + i] -= c * A[i]
    r = [c % q for c in r] + [0] * (n - len(r))
    rows = [r]
    for _ in range(n - 1):
        top = r[-1]
        r = [0] + r[:-1]
        if top:
            r = [(x - top * y) % q for x, y in zip(r, A)]
        rows.append(r)
    return rows


def _power_sums(A, q):
    """Tr(z^j) in K[z]/(A) mod q for j < deg A, A monic: the power sums of its roots.

    With n = deg A, s_0 = n and, by Newton's identities,
    s_j = -(j * A[n-j] + the sum over 0 < i < j of A[n-i] * s_(j-i)),
    which never reads A[0]: every A - a*x0 has the same s_j.
    """
    n = len(A) - 1
    sums = [n % q]
    for j in range(1, n):
        acc = j * A[n - j]
        for i in range(1, j):
            acc += A[n - i] * sums[j - i]
        sums.append(-acc % q)
    return sums


def _charpoly(rows, traces, inverses, q):
    """det(t*I - M) mod q, low to high, for M the multiplication by G in
    K[z]/(A) given by its rows (`_multiplication_rows`), by Le Verrier's method.

    Row j, z^j * G mod A, dotted with `traces` (A's `_power_sums`) gives
    Tr(z^j * G); the Krylov vector e_0 * M^k, G^k mod A, dotted with those
    gives s_(k+1) = Tr(M^(k+1)).  With det(t*I - M) = the sum of c_k t^(n-k),
    n = len(rows), Newton's identities read k * c_k = -(the sum over
    0 < i <= k of c_(k-i) s_i); inverses[k - 1] is 1/k mod q.
    """
    n = len(rows)
    row_traces = [sum(map(mul, row, traces)) % q for row in rows]
    sums = [sum(map(mul, vec, row_traces)) % q for vec in _krylov(rows, n, q)]
    chi = [1]
    for k in range(1, n + 1):  # chi[j] * s_(k-j) for j < k
        chi.append(-sum(map(mul, chi, sums[k - 1 :: -1])) * inverses[k - 1] % q)
    chi.reverse()
    return chi


def _interpolate(values, q):
    """The coefficients, low to high, of the polynomial of degree < len(values)
    with value values[x] at x = 0, 1, ... mod q; needs every prime factor of
    q to be at least len(values)."""
    c = list(values)
    size = len(c)
    for k in range(1, size):  # Newton's divided differences; points k apart
        inv = pow(k, -1, q)
        for i in range(size - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv % q
    poly = [c[-1]]
    for x0 in range(size - 2, -1, -1):  # poly * (x - x0) + c[x0]
        poly = (
            [(c[x0] - x0 * poly[0]) % q]
            + [(lo - x0 * hi) % q for lo, hi in zip(poly, poly[1:])]
            + [poly[-1]]
        )
    return poly


def check_resultant_power(relation, resultant, d):
    """True when resultant = c * relation^d for some nonzero scalar c.

    For the minimal polynomial P of g over K(f), d = [K(z) : K(f, g)],
    n = deg f and m = deg g, Res_z(f - x, g - y) = (-1)^n lc(f)^m P^d in
    every characteristic (Lang, Algebra, on the norm): the
    resultant is the characteristic polynomial of g over K(f) up to that
    factor, and a characteristic polynomial is a power of the minimal one.
    """
    field = relation.field
    if d < 1:
        raise PreconditionFailed("d must be positive")
    if not relation or not resultant:
        return False
    power = relation**d
    lead = max(power.terms)
    if max(resultant.terms) != lead:
        return False
    c = field.div(resultant.terms[lead], power.terms[lead])
    return resultant == power.scale(c)


def divides(divisor, dividend):
    """Exact bivariate divisibility.

    A weaker check than `check_resultant_power`, which `polydep oracle` uses
    in both fields; it stays because the benchmark's `oracle` workload still
    checks its characteristic-p resultants with it.
    """
    if not dividend:
        return True
    return dividend.exact_div(divisor) is not None


def minimality_certificate(f, g, k):
    """True when no nonzero dependence of g-degree < k exists.

    That is, when 1, g, ..., g^(k-1) are linearly independent over K(f).
    Write f = F/a and g = G/b.  K(z) is K(f)[z]/(F - a*f) with basis 1, z,
    ..., z^(n-1), n = deg f, and the coordinates of G^j there are
    polynomials in f; so independence holds when some k x k minor of them
    is a nonzero polynomial.  The certificate first specialises f to a few
    fixed values x0 modulo a prime q (the field's p, or the first word prime
    not dividing lc(F)*a*b over Q) and finds the rank of the Krylov vectors
    G^j mod (F - a*x0) over F_q, j < k, by multiplication by G (Wiedemann,
    1986).  Only lc(F) is inverted on the way, so modulo q the minor at x0
    is the image of the minor; rank k at any point thus answers True.  When
    the rank falls short at every point, which it always does on a False
    answer, the exact check decides: greedy triangular elimination over K
    of the z-coefficient vectors of f^i * g^j for 0 <= i <= deg g and
    0 <= j < k.  The x-degree bound deg g is enough because the minimal
    dependence divides the resultant, whose x-degree is deg g.
    """
    if f.field != g.field:
        raise FieldMismatch("f and g over different fields")
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise ConstantInput("certificate needs two nonconstant polynomials")
    check_degree_cap(f, g)
    if not 1 <= k <= n * m:
        raise PreconditionFailed(f"k = {k} outside the sane range [1, {n * m}]")
    if k <= n and _independent_at_a_point(f, g, k):
        return True
    f_pows, g_pows = f.powers(m), g.powers(k - 1)
    return _independent(((fp * gp).nums for gp in g_pows for fp in f_pows), f.field)


def _independent_at_a_point(f, g, k):
    """True when G^j mod (F - a*x0), j < k, are independent over F_q at some x0."""
    F, a, G, b = f.nums, f.den, g.nums, g.den
    if f.field.p is None:
        q = next(q for q in word_primes() if F[-1] * a * b % q)
        field = prime_field(q)
    else:
        q, field = f.field.p, f.field
    inv_lc = pow(F[-1], -1, q)
    monic = [c * inv_lc % q for c in F]
    for x0 in sorted({x % q for x in SPECIALISATIONS}):
        monic[0] = (F[0] - a * x0) * inv_lc % q
        if _independent(_krylov(_multiplication_rows(G, monic, q), k, q), field):
            return True
    return False


def _krylov(rows, k, q):
    """The vectors e_0 * M^j mod q, j < k, for M given by its rows of residues.

    e_0 * M is the first row.  Later steps pack each row into one integer of
    unsigned `bits`-bit slots that hold a sum of len(rows) products of
    residues (cut by shifts, cheaper than `unipoly._unpack`'s bytes at a few
    dozen slots), so a step is one scalar times row product per entry, one
    sum, and one shift, mask and % q per slot.
    """
    n = len(rows)
    yield [1] + [0] * (n - 1)
    if k < 2:
        return
    vec = rows[0]
    yield vec
    bits = (n * (q - 1) ** 2).bit_length()
    mask = (1 << bits) - 1
    packed = []
    for row in rows:
        acc = 0
        for c in reversed(row):
            acc = acc << bits | c
        packed.append(acc)
    shifts = range(0, n * bits, bits)
    for _ in range(k - 2):
        acc = sum(map(mul, vec, packed))
        vec = [(acc >> s & mask) % q for s in shifts]
        yield vec


def _independent(vectors, field):
    """True when the integer vectors, read over `field`, are linearly independent.

    Each vector is reduced by the pivot of its top index until its top index
    has no pivot yet, where it becomes one, or until it vanishes.
    """
    p = field.p
    pivots = {}
    for nums in vectors:
        vec = list(nums) if p is None else [c % p for c in nums]
        while True:
            while vec and not vec[-1]:
                vec.pop()
            if not vec:
                return False
            piv = pivots.setdefault(len(vec) - 1, vec)
            if piv is vec:
                break
            ratio = field.div(field.reduce(vec[-1]), piv[-1])
            if p is None:
                vec = [x - ratio * y for x, y in zip(vec, piv)]
            else:
                vec = [(x - ratio * y) % p for x, y in zip(vec, piv)]
    return True
