"""Chain construction and degree reduction.

Given f, g in K[z], the engine builds the chain g_0 = g, g_1, g_2, ... where
each g_{i+1} arises from g_i^{a_i} by repeatedly subtracting the unique
standard monomial whose z-degree matches the current leading term, until the
degree stops being divisible by the running gcd d_i (a new chain element) or
the residual vanishes (the relation).  Every chain element is held twice:
symbolically as an element of K[f, f^-1, g] and concretely as an element of
K[z, f(z)^-1].  The image moves with every subtraction, since its leading
term picks the next monomial.  Within a step it is a `Residual`: the
integer numerator packed in one big integer, `width` bytes per
coefficient.  An event is one Kronecker product of the monomial's g-part
and power of f, then one update R*ma - P*mb of the big integer; its
leading coefficient and degree read off the top slot.  The `Chain` holds
one table of g-parts and one of powers of f, each entry built when an
event first names it, with its pack at its natural width (widened by
strided byte copies) beside it.  The image is unpacked once, when the
step ends.  The symbolic side is formed once per step:
the coefficients of a step's monomials are collected under their g-part G
(the product of chain-element powers), and the residual is
g_s^(a_s) - sum over G of G * (sum of k * f^e), one product per g-part,
added up as one integer sum over the lcm of the products' denominators
with one canonical scalar per output term (`laurent.sum_of_products`).
When the residual of a step vanishes, the symbolic residual *is* the monic
irreducible polynomial P with P(f(z), g(z)) = 0.

Degrees and gcds:

    m_i = z-degree of g_i (may be negative for i >= 1 in characteristic p),
    d_i = gcd(n, m_0, ..., m_i) with d_{-1} = n = deg f,
    a_i = d_{i-1} / d_i.

A monomial f^i * g_0^{j_0} ... g_s^{j_s} with 0 <= j_k < a_k is s-standard;
its z-degree i*n + sum j_k*m_k determines it uniquely, and every integer
divisible by d_s is so realized.
"""

import math
from dataclasses import dataclass

from .errors import (
    ConstantInput,
    FieldMismatch,
    InternalInvariantViolation,
    IterationCapExceeded,
    NotDivisible,
    WrongCharacteristic,
)
from .laurent import Laurent2, sum_of_products
from .unipoly import FImage, Pack, UniPoly, _unpack, reduce_mod_p, slot_width, top_digit, widen


@dataclass(frozen=True)
class StdMonomial:
    """f^fexp * g_0^{j_0} ... g_s^{j_s} with exponents bounded by the a_k."""

    fexp: int
    gexps: tuple

    def render(self):
        factors = []
        if self.fexp:
            factors.append("f" if self.fexp == 1 else f"f^{self.fexp}")
        for k, j in enumerate(self.gexps):
            if j:
                factors.append(f"g{k}" if j == 1 else f"g{k}^{j}")
        return "*".join(factors) if factors else "1"


@dataclass
class ReductionEvent:
    """One subtraction: coefficient * monomial removed at degree_before."""

    step: int
    degree_before: int
    monomial: StdMonomial
    coefficient: object


@dataclass
class ChainStep:
    index: int
    symbolic: Laurent2
    image: FImage
    m: int
    d: int
    a: int


class Chain:
    """The chain state for one run: base f, steps so far, and one table per
    kind of operand, each entry holding what an event reads, built on demand."""

    def __init__(self, field, f):
        if f.degree < 1:
            raise ConstantInput("base polynomial f must have degree >= 1")
        self.field = field
        self.f = f
        self.n = f.degree
        self.steps = []
        one = UniPoly.one(field)
        self._f_pows = {}  # e -> (f^e, its Pack), e >= 0
        self._f_lc_pows = {}  # lc(f)^e for the e seen so far, e of either sign
        # g-parts keyed by their exponents without trailing zeros:
        # (symbolic, image, Pack of the image's num, z-leading coefficient)
        self._gparts = {
            (): (Laurent2.one(field), FImage.from_poly(one, f), Pack(one), field.one)
        }

    def __len__(self):
        return len(self.steps)

    def __getitem__(self, i):
        return self.steps[i]

    def __iter__(self):
        return iter(self.steps)

    def append(self, symbolic, image):
        """Install the next chain element and its degree data."""
        m = image.zdeg()
        d_prev = self.steps[-1].d if self.steps else self.n
        d = math.gcd(d_prev, abs(m))
        a = d_prev // d
        self.steps.append(ChainStep(len(self.steps), symbolic, image, m, d, a))

    def f_power(self, e):
        """f^e and its Pack, cached; e >= 0.

        An uncached f^e is the largest cached power f^e0 below it (if any)
        times f^(e - e0) by square-and-multiply, so a run builds only the
        powers its events name: one product by f per power on a dense walk,
        a few squarings for a jump.
        """
        pows = self._f_pows
        got = pows.get(e)
        if got is None:
            e0 = max(filter(e.__gt__, pows), default=0)
            fe = self.f ** (e - e0)
            if e0:
                fe = pows[e0][0] * fe
            got = pows[e] = (fe, Pack(fe))
        return got

    def f_lc_power(self, e):
        """lc(f)^e for any integer e, cached."""
        c = self._f_lc_pows.get(e)
        if c is None:
            c = self._f_lc_pows[e] = self.field.pow(self.f.leading_coefficient(), e)
        return c

    def std_monomial_of_degree(self, s, deg):
        """The unique s-standard monomial of the given z-degree.

        Solves back from k = s: j_k is the unique exponent in [0, a_k) with
        j_k*m_k congruent to the residual degree mod d_{k-1}; what remains at
        the end is divisible by n and becomes the f-exponent.
        """
        steps = self.steps
        if deg % steps[s].d:
            raise NotDivisible(f"degree {deg} is not divisible by d_{s} = {steps[s].d}")
        gexps = [0] * (s + 1)
        rem = deg
        for k in range(s, -1, -1):
            st = steps[k]
            a_k = st.a
            if a_k > 1:
                mk_red = (st.m // st.d) % a_k
                j = (rem // st.d) * pow(mk_red, -1, a_k) % a_k
                if j:
                    gexps[k] = j
                    rem -= j * st.m
        if rem % self.n:
            raise InternalInvariantViolation("standard-monomial residual not divisible by n")
        return StdMonomial(rem // self.n, tuple(gexps))

    def _gpart(self, gexps):
        """g_0^j_0 ... g_s^j_s, cached: (symbolic, image, Pack of the
        image's num, z-leading coefficient).

        An uncached g-part is the g-part with its last nonzero exponent
        lowered by one, times that chain element; the walk down stops at
        the first cached one, then multiplies back up.
        """
        key = _strip(gexps)
        got = self._gparts.get(key)
        missing = []
        while got is None:
            missing.append(key)
            key = _strip(key[:-1] + (key[-1] - 1,))
            got = self._gparts.get(key)
        for key in reversed(missing):
            st = self.steps[len(key) - 1]
            img = got[1] * st.image
            lc = self.field.reduce(got[3] * st.image.z_leading_coefficient())
            got = self._gparts[key] = (got[0] * st.symbolic, img, Pack(img.num), lc)
        return got

    def monomial_image(self, mono):
        """The monomial evaluated at (f(z), g(z)), as an element of K[z, f^-1]."""
        img = self._gpart(mono.gexps)[1]
        e = mono.fexp
        if e > 0:
            return FImage(img.num * self.f_power(e)[0], img.fpow, self.f)
        if e < 0:
            return FImage(img.num, img.fpow - e, self.f)
        return img

    def monomial_z_lc(self, mono):
        """Leading z-coefficient of the monomial image, from factor lcs only."""
        return self.field.reduce(self._gpart(mono.gexps)[3] * self.f_lc_power(mono.fexp))


def _strip(gexps):
    """The exponent tuple without its trailing zeros."""
    n = len(gexps)
    while n and not gexps[n - 1]:
        n -= 1
    return gexps[:n]


@dataclass
class NewChainElement:
    symbolic: Laurent2
    image: FImage
    events: list


@dataclass
class Relation:
    relation: Laurent2
    events: list


def reduction_cap(n, m0):
    """Per-step event budget; reaching it signals a bug, not a math failure."""
    return 4 * (n + abs(m0) + 2) * (n + 2)


# spare bytes per slot when the residual is packed or widened, so that it
# widens (over Q) or reduces mod p (over F_p) only every few events
HEADROOM = 1


class Residual:
    """A step's residual num / (den * f^fpow), its integer num packed in one int.

    `value` holds the num with `width`-byte slots; `bound` bounds every
    digit, and stays below 2^(8*width-1), so the top digit `lc` in slot
    `top` reads off by `top_digit`.  Over Q, `content` divides the gcd
    of the digits; over F_p den is 1, every digit is non-negative and the
    top one is nonzero mod p.
    """

    def __init__(self, chain, image):
        self.chain = chain
        self.field = chain.field
        pack = Pack(image.num)
        self.fpow, self.den = image.fpow, pack.den
        self.content, self.bound = pack.content, pack.bound
        self.width = pack.width + HEADROOM
        self._set(pack.at(self.width))

    def _set(self, value):
        """Install a new value and read its top digit; over F_p, digits that are 0 mod p go."""
        p = self.field.p
        bits = 8 * self.width
        while value:
            top, lc = top_digit(value, self.width)
            if p is None or lc % p:
                break
            value -= lc << (bits * top)
        else:
            top = lc = None
        self.value, self.top, self.lc = value, top, lc

    def zdeg(self):
        return self.top - self.fpow * self.chain.n

    def image(self):
        """The residual as an FImage, normalised; one pass over the digits."""
        nums = _unpack(self.value, self.top + 1, self.width)
        num = UniPoly._normal(self.field, nums, self.den)
        return FImage(num, self.fpow, self.chain.f)

    def _widen(self, bound):
        """Re-cut the slots so that they hold `bound`, with headroom."""
        width = slot_width(bound) + HEADROOM
        self.value = widen(self.value, self.top + 1, self.width, width, self.field.p is None)
        self.width = width

    def _reduce_mod_p(self):
        """Bring every digit back into [0, p); the top digit stays nonzero mod p."""
        self.value = reduce_mod_p(self.value, self.width, self.field.p)
        self.bound = self.field.p - 1

    def _mul_f_power(self, e):
        """Multiply the num by f^e and raise fpow by e, e > 0."""
        fp = self.chain.f_power(e)[1]
        n = self.top + 1
        self.bound *= fp.bound * min(n, fp.n)
        width = slot_width(self.bound) + HEADROOM
        value = widen(self.value, n, self.width, width, self.field.p is None) * fp.at(width)
        self.width = width
        self.den *= fp.den
        self.content *= fp.content
        self.fpow += e
        self._set(value)

    def eliminate(self, mono):
        """Subtract k times the monomial's image to cancel the top digit; returns k.

        The image is G * f^t over the aligned power of f: G the g-part's
        num, t = fexp + fpow - fpow(G), raising fpow first when t < 0.  It
        is one Kronecker product of the cached packs, widened to the
        residual's slots, and the update is R*ma - P*mb on the packed ints.
        """
        chain, field = self.chain, self.field
        p = field.p
        _, img, gp, _ = chain._gpart(mono.gexps)
        t = mono.fexp + self.fpow - img.fpow
        if t < 0:
            self._mul_f_power(-t)
            t = 0
        fp = chain.f_power(t)[1]
        n = gp.n + fp.n - 1
        bound = gp.bound * fp.bound * min(gp.n, fp.n)
        width = slot_width(bound)
        prod = gp.at(width) * fp.at(width)
        den = gp.den * fp.den
        lc = top_digit(prod, width)[1]
        z_lc = field.div(field.quotient(lc, den), chain.f_lc_power(self.fpow))
        if z_lc != chain.monomial_z_lc(mono):
            raise InternalInvariantViolation(
                "monomial image leading coefficient disagrees with factor product"
            )
        k = field.quotient(self.lc * den, self.den * lc)
        if p is None:
            kn, kd = k.numerator, k.denominator
            g = math.gcd(self.den, kd * den)
            ma, mb = kd * den // g, kn * (self.den // g)
            new_bound = self.bound * ma + bound * abs(mb)
        else:
            ma, mb = 1, k - p  # R + (p - k) * P keeps every digit non-negative
            new_bound = self.bound + bound * (p - k)
            if new_bound.bit_length() >= 8 * self.width:
                self._reduce_mod_p()
                new_bound = self.bound + bound * (p - k)
        if new_bound.bit_length() >= 8 * self.width:
            self._widen(new_bound)
        value = self.value * ma - widen(prod, n, width, self.width, p is None) * mb
        if p is None:
            self.den *= ma
            c = math.gcd(self.content * ma, gp.content * fp.content * mb)
            h = math.gcd(c, self.den)
            if h != 1:
                value //= h
                self.den //= h
                new_bound //= h
            self.content = c // h
        self.bound = new_bound
        self._set(value)
        return k


def reduce_step(chain, s, max_reductions=None):
    """Reduce g_s^{a_s}: eliminate leading terms by standard monomials.

    Returns NewChainElement when the residual degree stops being divisible
    by d_s, or Relation when the residual vanishes.  Each event moves the
    packed z-image of the residual (`Residual`) and files its coefficient
    under the monomial's g-part; the image is unpacked once, at the end,
    and the symbolic residual follows from the coefficients once, so the
    Relation case hands back the finished polynomial in (f, g) directly.
    """
    step = chain.steps[s]
    field = chain.field
    d_s = step.d
    top_sym, top_img = chain._gpart((0,) * s + (step.a - 1,))[:2]
    r = Residual(chain, top_img * step.image)
    cap = max_reductions if max_reductions is not None else reduction_cap(
        chain.n, chain.steps[0].m
    )
    events = []
    by_gpart = {}  # gexps -> {fexp: coefficient}
    while r.value:
        deg = r.zdeg()
        if deg % d_s:
            break
        mono = chain.std_monomial_of_degree(s, deg)
        k = r.eliminate(mono)
        by_gpart.setdefault(mono.gexps, {})[mono.fexp] = k  # degrees fall, so no repeats
        events.append(ReductionEvent(s, deg, mono, k))
        if r.value and r.zdeg() >= deg:
            raise InternalInvariantViolation(
                f"degree failed to decrease at step {s} (deg {deg})"
            )
        if len(events) > cap:
            raise IterationCapExceeded(
                f"step {s} exceeded {cap} reductions; instance: field "
                f"{field.name()}, f = {chain.f.render()}, "
                f"g0 image = {chain.steps[0].image!r}"
            )
    r_sym = sum_of_products(field, [(top_sym.terms, step.symbolic.terms)] + [
        (chain._gpart(gexps)[0].terms, {(e, 0): -k for e, k in coeffs.items()})
        for gexps, coeffs in by_gpart.items()
    ])
    if r.value:
        return NewChainElement(r_sym, r.image(), events)
    return Relation(r_sym, events)


@dataclass
class DependenceResult:
    """The finished run: chain, relation P, and the full reduction trace."""

    field: object
    f: UniPoly
    g: UniPoly
    n: int
    swapped: bool
    chain: Chain
    relation: Laurent2
    trace: list

    @property
    def m_sequence(self):
        return tuple(st.m for st in self.chain.steps)

    @property
    def d_sequence(self):
        return tuple(st.d for st in self.chain.steps)

    @property
    def a_sequence(self):
        return tuple(st.a for st in self.chain.steps)

    @property
    def d_final(self):
        return self.chain.steps[-1].d

    @property
    def relation_gdeg(self):
        return self.relation.deg_g

    def __repr__(self):
        return (
            f"DependenceResult(field={self.field.name()}, n={self.n}, "
            f"m={self.m_sequence}, d={self.d_sequence}, "
            f"P={self.relation.render()!r})"
        )


def run(f, g, max_reductions=None):
    """Compute the monic irreducible relation P with P(f(z), g(z)) = 0.

    f and g must share one field.  In characteristic p the roles of f and g
    are exchanged when p divides deg(g) but not deg(f), so that the chain
    stays polynomial whenever p does not divide gcd(deg f, deg g); the swap
    is recorded on the result and the returned f, g are the polynomials
    actually used.
    """
    field = f.field
    if g.field != field:
        raise FieldMismatch("f and g over different fields")
    if f.degree < 1 or g.degree < 1:
        raise ConstantInput("both inputs must have degree >= 1")
    swapped = False
    p = field.characteristic()
    if p and g.degree % p == 0 and f.degree % p != 0:
        f, g = g, f
        swapped = True
    chain = Chain(field, f)
    chain.append(Laurent2.g_gen(field), FImage.from_poly(g, f))
    trace = []
    s = 0
    while True:
        outcome = reduce_step(chain, s, max_reductions)
        trace.extend(outcome.events)
        if isinstance(outcome, Relation):
            relation = outcome.relation
            break
        chain.append(outcome.symbolic, outcome.image)
        s += 1
        if len(chain.steps) > chain.n:
            raise InternalInvariantViolation("chain grew past the dimension bound")
    relation = _normalize_relation(field, chain, relation)
    return DependenceResult(field, f, g, chain.n, swapped, chain, relation, trace)


def _normalize_relation(field, chain, relation):
    """Defensive checks: P is monic in g of degree n/d_s and polynomial."""
    expected = chain.n // chain.steps[-1].d
    if relation.deg_g != expected:
        raise InternalInvariantViolation(
            f"relation has g-degree {relation.deg_g}, expected {expected}"
        )
    top = relation.coefficient(0, expected)
    if top != field.one:
        if not top:
            raise InternalInvariantViolation("relation lost its leading g-term")
        relation = relation.scale(field.inv(top))
    if not relation.is_monic_in_g():
        raise InternalInvariantViolation("relation is not monic in g")
    if not relation.is_polynomial():
        raise InternalInvariantViolation("relation contains negative powers of f")
    return relation


def assert_char0_polynomiality(result):
    """All chain elements are polynomial; only meaningful in characteristic 0."""
    if result.field.characteristic() != 0:
        raise WrongCharacteristic("polynomiality assertion requires characteristic 0")
    return all(st.symbolic.is_polynomial() for st in result.chain.steps)
