import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydep import (
    Chain,
    FImage,
    Laurent2,
    NewChainElement,
    Relation,
    StdMonomial,
    UniPoly,
    assert_char0_polynomiality,
    prime_field,
    rationals,
    reduce_step,
    run,
    substitute,
)
from polydep import engine, laurent
from polydep.engine import Residual, lc_agrees
from polydep.unipoly import Pack, _unpack, widen
from polydep.errors import (
    ConstantInput,
    InternalInvariantViolation,
    IterationCapExceeded,
    NotDivisible,
    WrongCharacteristic,
)
from gen import automorphic_pair_of_moves, random_pair, random_poly
from reference import monomial_degree, monomial_symbolic

Q = rationals()
F2 = prime_field(2)


def poly(field, *coeffs):
    return UniPoly.make(field, coeffs)


def z_pow(field, k):
    return UniPoly.monomial(field, k)


def golden_pair(field):
    return z_pow(field, 4), poly(field, 0, -1, 0, 0, 0, 0, 1)  # z^4, z^6 - z


def L(field, mapping):
    return Laurent2.make(field, mapping)


# -- standard monomial lookup --------------------------------------------------


def fresh_chain(field, f, g):
    chain = Chain(field, f)
    chain.append(Laurent2.g_gen(field), FImage.from_poly(g, f))
    return chain


def test_std_monomial_degree12_is_f_cubed():
    chain = fresh_chain(Q, *golden_pair(Q))
    mono = chain.std_monomial_of_degree(0, 12)
    assert mono == StdMonomial(3, (0,))


def test_std_monomial_degree14_is_f2_g():
    result = run(*golden_pair(Q))
    mono = result.chain.std_monomial_of_degree(1, 14)
    assert mono == StdMonomial(2, (1, 0))


def test_std_monomial_degree0_is_empty():
    result = run(*golden_pair(Q))
    s = len(result.chain.steps) - 1
    mono = result.chain.std_monomial_of_degree(s, 0)
    assert mono.fexp == 0 and all(j == 0 for j in mono.gexps)


def test_std_monomial_not_divisible():
    chain = fresh_chain(Q, *golden_pair(Q))
    with pytest.raises(NotDivisible):
        chain.std_monomial_of_degree(0, 7)


def test_std_monomial_negative_degree():
    result = run(*golden_pair(F2))
    mono = result.chain.std_monomial_of_degree(1, -6)
    assert monomial_degree(result.chain, mono) == -6
    assert mono == StdMonomial(-3, (1, 0))


# -- reduce_step ---------------------------------------------------------------


def test_reduce_step_produces_g1():
    chain = fresh_chain(Q, *golden_pair(Q))
    outcome = reduce_step(chain, 0)
    assert isinstance(outcome, NewChainElement)
    assert outcome.symbolic == L(Q, {(0, 2): 1, (3, 0): -1})  # g^2 - f^3
    assert outcome.image == FImage.from_poly(
        poly(Q, 0, 0, 1, 0, 0, 0, 0, -2), chain.f  # -2z^7 + z^2
    )


def test_reduce_step_produces_relation():
    f, g = golden_pair(Q)
    chain = fresh_chain(Q, f, g)
    chain.append(*_new_element(chain, 0))
    outcome = reduce_step(chain, 1)
    assert isinstance(outcome, Relation)
    assert outcome.relation == L(
        Q, {(0, 4): 1, (3, 2): -2, (6, 0): 1, (2, 1): -4, (1, 0): -1}
    )


def test_reduce_step_char2():
    chain = fresh_chain(F2, *golden_pair(F2))
    outcome = reduce_step(chain, 0)
    assert isinstance(outcome, NewChainElement)
    assert outcome.symbolic == L(F2, {(0, 2): 1, (3, 0): 1, (-1, 1): 1})
    assert outcome.image.zdeg() == -3


def _new_element(chain, s):
    outcome = reduce_step(chain, s)
    assert isinstance(outcome, NewChainElement)
    return outcome.symbolic, outcome.image


# -- run: golden examples ------------------------------------------------------


def test_run_golden_rationals():
    result = run(*golden_pair(Q))
    assert result.relation == L(
        Q, {(0, 4): 1, (3, 2): -2, (6, 0): 1, (2, 1): -4, (1, 0): -1}
    )
    assert result.m_sequence == (6, 7)
    assert result.d_sequence == (2, 1)
    assert result.a_sequence == (2, 2)
    assert not result.swapped


def test_run_golden_char2():
    result = run(*golden_pair(F2))
    assert result.relation == L(F2, {(0, 4): 1, (6, 0): 1, (1, 0): 1})
    g1 = result.chain[1]
    assert g1.symbolic == L(F2, {(0, 2): 1, (3, 0): 1, (-1, 1): 1})
    assert g1.image.zdeg() == -3
    assert not g1.symbolic.is_polynomial()
    assert not result.swapped  # 2 divides both degrees: no exchange


def test_run_cusp():
    result = run(z_pow(Q, 2), z_pow(Q, 3))
    assert result.relation == L(Q, {(0, 2): 1, (3, 0): -1})  # g^2 - f^3
    assert len(result.chain.steps) == 1
    assert result.m_sequence == (3,)
    assert result.d_sequence == (1,)


def test_run_962_instance():
    f = poly(Q, 0, 6, 0, 0, 0, 6, 0, 0, 0, 1)  # z^9 + 6z^5 + 6z
    g = poly(Q, 0, 0, 4, 0, 0, 0, 1)  # z^6 + 4z^2
    result = run(f, g)
    assert result.m_sequence == (6, 2)
    assert result.d_sequence == (3, 1)
    assert result.relation_gdeg == 9
    g1 = result.chain[1]
    assert g1.image == FImage.from_poly(poly(Q, 0, 0, -4), f)  # -4z^2
    assert g1.symbolic == L(Q, {(0, 3): 1, (2, 0): -1, (0, 1): 8})  # g^3 - f^2 + 8g


def test_run_linear_f():
    result = run(UniPoly.z(Q), poly(Q, 1, 0, 1))  # f = z, g = z^2 + 1
    assert result.relation == L(Q, {(0, 1): 1, (2, 0): -1, (0, 0): -1})  # g - f^2 - 1


def test_run_linear_nonmonic():
    f, g = poly(Q, 3, 2), poly(Q, 1, 7)  # 2z + 3, 7z + 1
    result = run(f, g)
    assert result.relation == L(Q, {(0, 1): 1, (1, 0): Fraction(-7, 2), (0, 0): Fraction(19, 2)})
    assert not substitute(result.relation, f, g)


def test_run_equal_inputs():
    result = run(z_pow(Q, 2), z_pow(Q, 2))
    assert result.relation == L(Q, {(0, 1): 1, (1, 0): -1})  # g - f
    assert result.d_sequence == (2,)


def test_run_rejects_constants():
    with pytest.raises(ConstantInput):
        run(poly(Q, 5), UniPoly.z(Q))
    with pytest.raises(ConstantInput):
        run(UniPoly.z(Q), poly(Q, 5))


def test_run_iteration_cap_is_diagnostic():
    with pytest.raises(IterationCapExceeded):
        run(*golden_pair(Q), max_reductions=1)


def test_char_p_swap():
    f3 = prime_field(3)
    f = poly(f3, 1, 1, 1)  # degree 2, not divisible by 3
    g = poly(f3, 0, 1, 0, 1)  # degree 3, divisible by 3
    result = run(f, g)
    assert result.swapped
    assert result.f.degree == 3 and result.g.degree == 2
    assert not substitute(result.relation, result.f, result.g)
    # with p not dividing gcd of degrees, the whole chain stays polynomial
    assert all(st.symbolic.is_polynomial() for st in result.chain.steps)


def test_char_p_no_swap_when_g_degree_clean():
    f3 = prime_field(3)
    f = poly(f3, 0, 2, 1, 0, 0, 0, 1)  # degree 6, divisible by 3
    g = poly(f3, 0, 1, 0, 0, 1)  # degree 4, not divisible by 3
    result = run(f, g)
    assert not result.swapped  # deg g is already clean; roles kept


def test_assert_char0_polynomiality():
    assert assert_char0_polynomiality(run(*golden_pair(Q))) is True
    f = poly(Q, 0, 6, 0, 0, 0, 6, 0, 0, 0, 1)
    g = poly(Q, 0, 0, 4, 0, 0, 0, 1)
    assert assert_char0_polynomiality(run(f, g)) is True
    with pytest.raises(WrongCharacteristic):
        assert_char0_polynomiality(run(*golden_pair(F2)))


# -- structural invariants on random runs ---------------------------------------


def check_chain_invariants(result):
    chain = result.chain
    n = result.n
    d_prev = n
    prefix = 1
    for st in chain.steps:
        assert st.m != 0
        if st.index >= 1:
            assert st.m % d_prev != 0
        assert st.d == math.gcd(d_prev, abs(st.m))
        assert st.a == d_prev // st.d
        assert st.a == 1 or st.m // st.d * st.m_inv % st.a == 1
        assert st.d < d_prev or st.index == 0
        assert st.symbolic.deg_g == prefix
        assert st.symbolic.is_monic_in_g()
        prefix *= st.a
        d_prev = st.d
    assert result.relation_gdeg * result.d_final == n
    assert result.relation.is_monic_in_g()
    assert result.relation.is_polynomial()
    assert len(chain.steps) <= n


def check_event_invariants(result):
    by_step = {}
    for ev in result.trace:
        by_step.setdefault(ev.step, []).append(ev)
    for events in by_step.values():
        degrees = [ev.degree_before for ev in events]
        assert degrees == sorted(degrees, reverse=True)
        assert len(set(degrees)) == len(degrees)


def test_random_runs_satisfy_invariants():
    rng = random.Random(2468)
    fields = [Q, F2, prime_field(5)]
    for i in range(60):
        field = fields[i % 3]
        f, g = random_pair(rng, field, max_degree=8)
        result = run(f, g)
        check_chain_invariants(result)
        check_event_invariants(result)
        assert not substitute(result.relation, result.f, result.g)
        for st in result.chain.steps:
            assert substitute(st.symbolic, result.f, result.g) == st.image


def test_symbolic_image_lockstep_replay():
    # replay the trace of a small run and compare both tracks event by event
    f, g = golden_pair(Q)
    result = run(f, g)
    chain = result.chain
    for s, step in enumerate(chain.steps):
        r_sym = step.symbolic**step.a
        r_img = step.image**step.a
        for ev in (e for e in result.trace if e.step == s):
            assert r_img.zdeg() == ev.degree_before
            r_img = r_img - chain.monomial_image(ev.monomial).scale(ev.coefficient)
            r_sym = r_sym - monomial_symbolic(chain, ev.monomial).scale(ev.coefficient)
            assert substitute(r_sym, f, g) == r_img


def test_monomial_combinatorics_on_goldens():
    for field in (Q, F2):
        result = run(*golden_pair(field))
        chain = result.chain
        s = len(chain.steps) - 1
        n = result.n
        d_s = result.d_final
        ranges = [range(st.a) for st in chain.steps]
        degrees = []
        gdegrees = []
        prefix = [1]
        for st in chain.steps:
            prefix.append(prefix[-1] * st.a)
        for gexps in itertools.product(*ranges):
            deg = sum(j * st.m for j, st in zip(gexps, chain.steps))
            degrees.append(deg)
            gdegrees.append(sum(j * prefix[k] for k, j in enumerate(gexps)))
        assert len({d % n for d in degrees}) == n // d_s
        assert all(d % d_s == 0 for d in degrees)
        assert sorted(gdegrees) == list(range(n // d_s))
        # lookup inverts the degree map on a window of multiples of d_s
        for deg in range(-3 * n, 3 * n + 1):
            if deg % d_s == 0:
                mono = chain.std_monomial_of_degree(s, deg)
                assert monomial_degree(chain, mono) == deg
                assert all(0 <= j < st.a for j, st in zip(mono.gexps, chain.steps))


def test_run_field_argument_checked():
    from polydep.errors import FieldMismatch

    # run takes its field from f and g, which must agree
    f, _ = golden_pair(Q)
    _, g = golden_pair(F2)
    with pytest.raises(FieldMismatch):
        run(f, g)


def test_nonmonic_inputs():
    # non-monic f and g still give a monic-in-g polynomial relation
    f = poly(Q, 1, 0, 3)  # 3z^2 + 1
    g = poly(Q, 0, 2, 0, -5)  # -5z^3 + 2z
    result = run(f, g)
    check_chain_invariants(result)
    assert not substitute(result.relation, f, g)
    # and with a non-monic base in characteristic p, where negative powers
    # of f can enter the chain, the z-leading-coefficient logic must hold
    f5 = prime_field(5)
    fb = poly(f5, 0, 0, 0, 0, 3)  # 3z^4
    gb = poly(f5, 0, 4, 0, 0, 0, 0, 2)  # 2z^6 + 4z
    res = run(fb, gb)
    check_chain_invariants(res)
    assert not substitute(res.relation, fb, gb)


# -- the packed event loop on bench-sized pairs ------------------------------------

P31, P61 = 2**31 - 1, 2**61 - 1
# over F_2, f = (z + 1)^8 drives the chain degrees to (12, 18, -9)
NEGATIVE_CHAIN = (poly(F2, 1, 0, 0, 0, 0, 0, 0, 0, 1),
                  poly(F2, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1))


def dense_pair(field, n, m, seed, lcs=None, den=1):
    """Seeded (deg f, deg g) = (n, m) pair; over Q, small numerators over
    1..den below the leading coefficients `lcs`."""
    rng = random.Random(seed)
    if field.p is None:
        f, g = (
            [Fraction(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(d)] + [lc]
            for d, lc in zip((n, m), lcs)
        )
        return poly(field, *f), poly(field, *g)
    return random_poly(rng, field, n), random_poly(rng, field, m)


def replay(result):
    """Each step again from g_s^(a_s), one FImage subtraction per event.

    Every event must start at the residual's z-degree with k the ratio of
    the z-leading coefficients, and each step must end in the next chain
    element or in zero.
    """
    field, chain = result.field, result.chain
    for s, step in enumerate(chain.steps):
        r_img = step.image**step.a
        for ev in (e for e in result.trace if e.step == s):
            assert r_img.zdeg() == ev.degree_before
            mono = chain.monomial_image(ev.monomial)
            assert ev.coefficient == field.div(
                r_img.z_leading_coefficient(), mono.z_leading_coefficient()
            )
            r_img = r_img - mono.scale(ev.coefficient)
        if s + 1 < len(chain.steps):
            assert r_img == chain.steps[s + 1].image
        else:
            assert not r_img


def check_residual(r):
    """Digits within the bound and the bound within the slots; content; top digit."""
    if not r.value:
        return
    digits = _unpack(r.value, r.top + 1, r.width)
    assert max(map(abs, digits)) <= r.bound < 2 ** (8 * r.width - 1)
    assert r.lc == digits[-1]
    p = r.field.p
    if p is None:
        assert math.gcd(*digits) % r.content == 0
    else:
        assert min(digits) >= 0 and r.lc % p and r.den == 1


def check_every_residual(monkeypatch):
    original = Residual._set

    def checked(self, value):
        original(self, value)
        check_residual(self)

    monkeypatch.setattr(Residual, "_set", checked)


def count_calls(monkeypatch, name):
    """Wrap Residual.<name>; the returned list grows by one per call."""
    calls = []
    original = getattr(Residual, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(Residual, name, counted)
    return calls


BENCH_SIZED = {
    "q-12x18": lambda: dense_pair(Q, 12, 18, 1, lcs=(2, -3)),
    # denominators: the residual's known content divides out of its den
    "q-fractions-8x12": lambda: dense_pair(Q, 8, 12, 7, lcs=(Fraction(2, 3), -3), den=4),
    "p31-12x18": lambda: dense_pair(prime_field(P31), 12, 18, 2),
    "p61-12x18": lambda: dense_pair(prime_field(P61), 12, 18, 3),
    "f2-negative-chain": lambda: NEGATIVE_CHAIN,
}


@pytest.mark.parametrize("name", list(BENCH_SIZED))
def test_packed_loop_replays_on_bench_sized_pairs(name):
    result = run(*BENCH_SIZED[name]())
    replay(result)
    if name == "f2-negative-chain":
        assert result.m_sequence == (12, 18, -9)


@pytest.mark.parametrize(
    "name, branch",
    [
        ("q-12x18", "_widen"),
        ("q-fractions-8x12", "_widen"),
        ("p31-12x18", "_reduce_mod_p"),
        ("p61-12x18", "_reduce_mod_p"),
        ("f2-negative-chain", "_mul_f_power"),
    ],
)
def test_growth_branches_are_taken_and_change_nothing(monkeypatch, name, branch):
    # without spare bytes per slot the residual outgrows its slots at
    # once; the trace and the chain must come out the same either way
    f, g = BENCH_SIZED[name]()
    expected = run(f, g)
    check_every_residual(monkeypatch)
    calls = count_calls(monkeypatch, branch)
    run(f, g)
    assert calls  # taken with the default headroom too
    monkeypatch.setattr(engine, "HEADROOM", 0)
    tight = run(f, g)
    assert len(calls) > 1
    assert tight.trace == expected.trace
    assert [(st.symbolic, st.image) for st in tight.chain] == [
        (st.symbolic, st.image) for st in expected.chain
    ]
    assert tight.relation == expected.relation


EVENT_PRODUCT_PAIRS = {
    **BENCH_SIZED,
    "q-24x36": lambda: dense_pair(Q, 24, 36, 1, lcs=(2, -3)),
}


@pytest.mark.parametrize("name", list(EVENT_PRODUCT_PAIRS))
def test_event_products_equal_one_balanced_product(monkeypatch, name):
    # a product from a block is built by steps of f at the block's width;
    # each must equal the balanced product G*f^t at that width, with a
    # digit bound that holds for its own t
    f, g = EVENT_PRODUCT_PAIRS[name]()
    original = Residual.event_product
    blocks = count_calls(monkeypatch, "_block")
    last = {}  # (residual, g-part) -> t of the g-part's last event

    def checked(self, gexps, gp, t):
        built = len(blocks)
        out = value, slots, width, bound, den, content = original(self, gexps, gp, t)
        if blocks[built:] and blocks[-1][1] < t:
            # several products at once only for a g-part walking down through t
            assert last.get((self, gexps)) == t + 1
        last[self, gexps] = t
        fp = self.chain.f_power(t)
        assert value == gp.at(width) * fp.at(width)
        assert (slots, den, content) == (gp.n + fp.n - 1, gp.den * fp.den, gp.content * fp.content)
        digits = _unpack(value, slots, width)
        assert digits[-1] and max(map(abs, digits)) <= bound < 2 ** (8 * width - 1)
        return out

    monkeypatch.setattr(Residual, "event_product", checked)
    run(f, g)
    # over Q blocks of several products are built; over F_p never
    assert any(b < t for _, b, t in blocks) == (f.field.p is None)


def test_held_products_go_with_their_step(monkeypatch):
    # the products a block holds for later events live on the step's
    # residual, which is gone once the step returns
    residuals, blocks = [], count_calls(monkeypatch, "_block")
    init, step = Residual.__init__, engine.reduce_step

    def tracked(self, *args):
        init(self, *args)
        residuals.append(weakref.ref(self))

    def checked_step(*args):
        out = step(*args)
        assert residuals and all(ref() is None for ref in residuals)
        return out

    monkeypatch.setattr(Residual, "__init__", tracked)
    monkeypatch.setattr(engine, "reduce_step", checked_step)
    run(*BENCH_SIZED["q-12x18"]())
    assert any(b < t for _, b, t in blocks)


def test_a_skipped_exponent_drops_the_held_products():
    # t falls by one on dense steps; after a skip the g-part's held
    # products are for exponents no event will ask for, and must not be
    # handed out for the next ones
    f, g = dense_pair(Q, 12, 18, 1, lcs=(2, -3))
    chain = fresh_chain(Q, f, g)
    r = Residual(chain, FImage.from_poly(g, f))
    gp = chain._gpart((2,))[2]
    for t in (9, 8, 6, 5, 4, 3, 2, 0):
        value, slots, width, *_ = r.event_product((2,), gp, t)
        assert value == gp.at(width) * chain.f_power(t).at(width)


@pytest.mark.parametrize("name", ["q-12x18", "p31-12x18"])
def test_a_product_wider_than_the_residual_widens_it(monkeypatch, name):
    # a block's products all have its top one's slots, which can be wider
    # than the residual's; the residual must widen to them, since a product
    # is never narrowed.  Here every product comes a byte wider still.
    f, g = BENCH_SIZED[name]()
    expected = run(f, g)
    original = Residual.event_product

    def wider(self, gexps, gp, t):
        value, slots, width, *rest = original(self, gexps, gp, t)
        to = max(width, self.width) + 1
        return (widen(value, slots, width, to, self.field.p is None), slots, to, *rest)

    check_every_residual(monkeypatch)
    monkeypatch.setattr(Residual, "event_product", wider)
    got = run(f, g)
    assert (got.trace, got.relation) == (expected.trace, expected.relation)


def pack_slots(pack):
    return tuple(getattr(pack, name) for name in Pack.__slots__)


TABLE_PAIRS = {
    **BENCH_SIZED,
    "automorphic-96x24": lambda: automorphic_pair_of_moves(random.Random(96), (2, 3, 4, 4)),
}


@pytest.mark.parametrize("name", list(TABLE_PAIRS))
def test_table_entries_equal_their_direct_values(name):
    # every entry is built from two others; each must equal its value
    # computed directly from f and the chain elements
    result = run(*TABLE_PAIRS[name]())
    chain, f = result.chain, result.f
    for e, pack in chain._f_pows.items():
        assert pack_slots(pack) == pack_slots(Pack(f**e))
    assert len(chain._gparts) > len(chain.steps) + 1
    for key, (sym, img, pack, z_lc) in chain._gparts.items():
        want_sym, want_img = Laurent2.one(result.field), FImage.from_poly(UniPoly.one(f.field), f)
        for st, j in zip(chain.steps, key):
            want_sym, want_img = want_sym * st.symbolic**j, want_img * st.image**j
        assert (sym, img, z_lc) == (want_sym, want_img, want_img.z_leading_coefficient())
        assert pack_slots(pack) == pack_slots(Pack(img.num))


def count_table_products(monkeypatch):
    """Products made inside Chain.f_power and Chain._gpart, counted per table."""
    inside, counts = [], {"f_power": 0, "_gpart": 0}
    for name in counts:
        original = getattr(Chain, name)

        def tracked(self, arg, name=name, original=original):
            inside.append(name)
            try:
                return original(self, arg)
            finally:
                inside.pop()

        monkeypatch.setattr(Chain, name, tracked)
    for cls, name in ((UniPoly, "__mul__"), (Pack, "times")):
        original = getattr(cls, name)

        def counted(self, other, original=original):
            if inside:
                counts[inside[-1]] += 1
            return original(self, other)

        monkeypatch.setattr(cls, name, counted)
    return counts


@pytest.mark.parametrize("pair", [
    lambda: dense_pair(Q, 8, 12, 1, lcs=(2, -3)),
    lambda: dense_pair(Q, 24, 36, 1, lcs=(2, -3)),
], ids=["q-8x12", "q-24x36"])
def test_tables_make_about_one_product_per_entry(monkeypatch, pair):
    # dense steps ask for powers of f in descending order; each entry
    # costs one product, plus at most two per halving level for the
    # entries below it that no event named
    counts = count_table_products(monkeypatch)
    chain = run(*pair()).chain
    top = max(chain._f_pows)
    assert top > 2 and counts["f_power"] <= len(chain._f_pows) + 2 * top.bit_length()
    top = max(map(max, filter(None, chain._gparts)))
    assert counts["_gpart"] <= len(chain._gparts) + 2 * top.bit_length()


def test_residual_keeps_its_value_under_a_power_of_f():
    # over Q a run never raises the residual's power of f, so a non-integer
    # f with content is tried here directly
    f = poly(Q, Fraction(4, 3), 0, 2, Fraction(-2, 5))  # content 2, den 15
    h = poly(Q, Fraction(1, 7), -3, 0, 5, 9, Fraction(2, 3))
    r = Residual(Chain(Q, f), FImage(h, 1, f))
    r._mul_f_power(3)
    check_residual(r)
    assert (r.fpow, r.zdeg()) == (4, h.degree - f.degree)
    assert r.image() == FImage(h, 1, f)


def test_wrong_monomial_lc_is_an_invariant_violation(monkeypatch):
    # the expected z-lc, zn / zd, raised by one
    original = Chain.monomial_z_lc

    def raised(self, mono):
        zn, zd = original(self, mono)
        return zn + zd, zd

    monkeypatch.setattr(Chain, "monomial_z_lc", raised)
    with pytest.raises(InternalInvariantViolation, match="leading coefficient"):
        run(*golden_pair(Q))


@pytest.mark.parametrize("field", [Q, prime_field(10007)], ids=["q", "fp10007"])
def test_wrong_product_lc_is_an_invariant_violation(monkeypatch, field):
    # an event product whose top digit reads one too high
    original = Residual.event_product

    def raised(self, gexps, gp, t):
        value, slots, width, *rest = original(self, gexps, gp, t)
        return (value + (1 << (8 * width * (slots - 1))), slots, width, *rest)

    monkeypatch.setattr(Residual, "event_product", raised)
    with pytest.raises(InternalInvariantViolation, match="leading coefficient"):
        run(*dense_pair(field, 8, 12, 5, lcs=(Fraction(2, 3), -3), den=4))


NONZERO = st.integers(-50, 50).filter(bool)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 500), NONZERO, st.integers(1, 50),
       NONZERO, st.integers(1, 50), st.integers(-6, 6), st.booleans())
@example(lc=-54, den=8, zn=3, zd=4, ln=-2, ld=3, e=-2, matched=True)
@example(lc=-54, den=8, zn=3, zd=4, ln=-2, ld=3, e=-2, matched=False)
def test_integer_lc_check_agrees_with_the_fraction_equation(lc, den, zn, zd, ln, ld, e, matched):
    # lc / den == z_lc * lc(f)^e, with lc(f) = ln / ld of either sign and e
    # of either sign; `matched` picks lc / den on the equation's right side
    z_lc, f_lc = Fraction(zn, zd), Fraction(ln, ld)
    if matched:
        rhs = z_lc * f_lc**e
        lc, den = rhs.numerator * den, rhs.denominator * den
    # f's den is a multiple of 7, so its top num and den need not be coprime
    chain = Chain(Q, poly(Q, Fraction(1, 7), f_lc))
    assert lc_agrees(lc, den, (zn, zd), chain.f_lc_power(e), None) == (
        Fraction(lc, den) == z_lc * f_lc**e
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**12), st.integers(1, 10006), st.integers(1, 10006),
       st.integers(1, 10006), st.integers(-6, 6), st.booleans())
def test_integer_lc_check_agrees_mod_p(lc, den, z_lc, f_lc, e, matched):
    field = prime_field(10007)
    rhs = z_lc * field.pow(f_lc, e) % field.p
    if matched:
        lc = rhs * den + field.p * (lc % 7)
    chain = Chain(field, poly(field, 1, f_lc))
    assert lc_agrees(lc, den, (z_lc, 1), chain.f_lc_power(e), field.p) == (
        field.quotient(lc, den) == rhs
    )


def test_stalled_degree_is_an_invariant_violation(monkeypatch):
    # an event that leaves the residual as it was must not loop until the cap
    monkeypatch.setattr(Residual, "eliminate", lambda self, mono: Q.one)
    with pytest.raises(InternalInvariantViolation, match="failed to decrease"):
        run(*golden_pair(Q))


# -- sparse exponents: operands built on demand ------------------------------------


def count_products(monkeypatch):
    """Wrap UniPoly.__mul__ and Pack.times; the returned list grows by one per product."""
    calls = []
    for cls, name in ((UniPoly, "__mul__"), (Pack, "times")):
        original = getattr(cls, name)

        def counted(self, other, original=original):
            calls.append(None)
            return original(self, other)

        monkeypatch.setattr(cls, name, counted)
    return calls


FIELDS = [pytest.param(Q, id="q"), pytest.param(prime_field(10007), id="fp10007")]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n, m", [(2, 20001), (1, 100000), (4001, 2), (100000, 3)])
def test_sparse_exponent_costs_products_per_event_not_per_power(monkeypatch, field, n, m):
    # one event with f^m after the top g-part g^(n-1): each is built by
    # halving through its table, where a walk over every power below the
    # exponent would take that many products
    products = count_products(monkeypatch)
    seam = count_calls(monkeypatch, "event_product")
    result = run(z_pow(field, n), z_pow(field, m))
    assert len(products) <= 64
    assert len(result.trace) == len(seam) == 1
    assert result.relation == L(field, {(0, n): 1, (m, 0): -1})


@pytest.mark.parametrize("field", FIELDS)
def test_composed_sparse_pair_relation_substitutes_to_zero(monkeypatch, field):
    f, g = poly(field, 1, 1) ** 2, poly(field, 1, 1) ** 401
    products = count_products(monkeypatch)
    result = run(f, g)
    assert len(products) <= 64
    assert result.relation == L(field, {(0, 2): 1, (401, 0): -1})
    assert not substitute(result.relation, f, g)


def test_dense_automorphic_pair_takes_the_grid_product(monkeypatch):
    # on an automorphic pair the symbolic products are dense on their
    # (f, g) grid: fewer than 1% of their term pairs go through the dict loop
    f, g = automorphic_pair_of_moves(random.Random(19), (4, 3, 3, 3))
    mul_terms, convolve = laurent.mul_terms, laurent.convolve
    pairs = {"all": 0, "dict": 0}

    def counted_convolve(a, b):
        pairs["all"] += len(a) * len(b)
        return convolve(a, b)

    def counted_mul_terms(a, b, reduce=None):
        pairs["dict"] += len(a) * len(b)
        return mul_terms(a, b, reduce)

    monkeypatch.setattr(laurent, "convolve", counted_convolve)
    monkeypatch.setattr(laurent, "mul_terms", counted_mul_terms)
    result = run(f, g)
    assert pairs["dict"] < 0.01 * pairs["all"]
    # the dict loop alone builds the same relation and chain
    monkeypatch.setattr(laurent, "convolve", mul_terms)
    reference = run(f, g)
    assert result.relation == reference.relation
    assert [(st.symbolic, st.image) for st in result.chain] == [
        (st.symbolic, st.image) for st in reference.chain
    ]
