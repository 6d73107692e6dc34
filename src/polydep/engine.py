"""Chain construction and degree reduction.

Given f, g in K[z], the engine builds the chain g_0 = g, g_1, g_2, ... where
each g_{i+1} arises from g_i^{a_i} by repeatedly subtracting the unique
standard monomial whose z-degree matches the current leading term, until the
degree stops being divisible by the running gcd d_i (a new chain element) or
the residual vanishes (the relation).  Every chain element is tracked twice,
in lockstep: symbolically as an element of K[f, f^-1, g] and concretely as an
element of K[z, f(z)^-1].  When the residual of a step vanishes, the symbolic
residual *is* the monic irreducible polynomial P with P(f(z), g(z)) = 0.

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
from .laurent import Laurent2
from .unipoly import FImage, UniPoly


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
    """The chain state for one run: base f, steps so far, per-run caches."""

    def __init__(self, field, f):
        if f.degree < 1:
            raise ConstantInput("base polynomial f must have degree >= 1")
        self.field = field
        self.f = f
        self.n = f.degree
        self.steps = []
        self._f_pows = {0: UniPoly.one(field), 1: f}
        self._gpart_img = {}
        self._gpart_sym = {}

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
        self.steps.append(ChainStep(len(self.steps), symbolic, image, m, d, d_prev // d))

    def f_power(self, e):
        """f^e as a polynomial, cached; e >= 0."""
        got = self._f_pows.get(e)
        if got is None:
            got = self.f_power(e - 1) * self.f
            self._f_pows[e] = got
        return got

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

    def monomial_degree(self, mono):
        """Recompute the z-degree of a standard monomial from chain data."""
        return mono.fexp * self.n + sum(
            j * st.m for j, st in zip(mono.gexps, self.steps)
        )

    def _gpart_image(self, gexps):
        got = self._gpart_img.get(gexps)
        if got is None:
            got = FImage.from_poly(UniPoly.one(self.field), self.f)
            for k, j in enumerate(gexps):
                if j:
                    got = got * self.steps[k].image ** j
            self._gpart_img[gexps] = got
        return got

    def _gpart_symbolic(self, gexps):
        got = self._gpart_sym.get(gexps)
        if got is None:
            got = Laurent2.one(self.field)
            for k, j in enumerate(gexps):
                if j:
                    got = got * self.steps[k].symbolic ** j
            self._gpart_sym[gexps] = got
        return got

    def monomial_image(self, mono):
        """The monomial evaluated at (f(z), g(z)), as an element of K[z, f^-1]."""
        img = self._gpart_image(mono.gexps)
        e = mono.fexp
        if e > 0:
            return FImage(img.num * self.f_power(e), img.fpow, self.f)
        if e < 0:
            return FImage(img.num, img.fpow - e, self.f)
        return img

    def monomial_symbolic(self, mono):
        """The monomial expanded in K[f, f^-1, g]."""
        sym = self._gpart_symbolic(mono.gexps)
        if mono.fexp:
            return sym.mul_monomial(mono.fexp)
        return sym

    def monomial_z_lc(self, mono):
        """Leading z-coefficient of the monomial image, from factor lcs only."""
        field = self.field
        c = field.pow(self.f.leading_coefficient(), mono.fexp)
        for j, st in zip(mono.gexps, self.steps):
            if j:
                c = field.mul(c, field.pow(st.image.z_leading_coefficient(), j))
        return c


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


def reduce_step(chain, s, max_reductions=None):
    """Reduce g_s^{a_s}: eliminate leading terms by standard monomials.

    Returns NewChainElement when the residual degree stops being divisible
    by d_s, or Relation when the residual vanishes.  The residual is kept
    symbolically and as a z-image in lockstep, so the Relation case hands
    back the finished polynomial in (f, g) directly.
    """
    step = chain.steps[s]
    field = chain.field
    d_s = step.d
    r_sym = step.symbolic**step.a
    r_img = step.image**step.a
    cap = max_reductions if max_reductions is not None else reduction_cap(
        chain.n, chain.steps[0].m
    )
    events = []
    while r_img:
        deg = r_img.zdeg()
        if deg % d_s:
            return NewChainElement(r_sym, r_img, events)
        mono = chain.std_monomial_of_degree(s, deg)
        img = chain.monomial_image(mono)
        lc = img.z_leading_coefficient()
        if lc != chain.monomial_z_lc(mono):
            raise InternalInvariantViolation(
                "monomial image leading coefficient disagrees with factor product"
            )
        k = field.div(r_img.z_leading_coefficient(), lc)
        r_img = r_img - img.scale(k)
        r_sym = r_sym - chain.monomial_symbolic(mono).scale(k)
        events.append(ReductionEvent(s, deg, mono, k))
        if r_img and r_img.zdeg() >= deg:
            raise InternalInvariantViolation(
                f"degree failed to decrease at step {s} (deg {deg})"
            )
        if len(events) > cap:
            raise IterationCapExceeded(
                f"step {s} exceeded {cap} reductions; instance: field "
                f"{field.name()}, f = {chain.f.render()}, "
                f"g0 image = {chain.steps[0].image!r}"
            )
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


def run(f, g, field=None, max_reductions=None):
    """Compute the monic irreducible relation P with P(f(z), g(z)) = 0.

    In characteristic p the roles of f and g are exchanged when p divides
    deg(g) but not deg(f), so that the chain stays polynomial whenever
    p does not divide gcd(deg f, deg g); the swap is recorded on the result
    and the returned f, g are the polynomials actually used.
    """
    if field is None:
        field = f.field
    if f.field != field or g.field != field:
        raise FieldMismatch("f, g, and the field spec must agree")
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
