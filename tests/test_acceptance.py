"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact; there are no tolerances anywhere.  Random suites
are seeded and their wall-clock budgets asserted.  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random
import time

import pytest

from polydep import (
    BivarPoly,
    Laurent2,
    UniPoly,
    ams_verdict,
    assert_char0_polynomiality,
    check_resultant_power,
    contains_degree,
    enumerate_two_admissible,
    minimality_certificate,
    prime_field,
    rationals,
    run,
    semigroup_report,
    substitute,
    sylvester_resultant,
)
from polydep.cli import main as cli_main
from gen import automorphic_pair, random_laurent, random_monic_laurent, random_pair
from reference import monomial_degree

Q = rationals()


def poly(field, *coeffs):
    return UniPoly.make(field, coeffs)


def report(number, name, ok, elapsed=None):
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"criterion {number} failed"


# -- criterion 1: golden example over the rationals ------------------------------


def test_criterion_1_golden_char0(capsys):
    t0 = time.perf_counter()
    f = poly(Q, 0, 0, 0, 0, 1)
    g = poly(Q, 0, -1, 0, 0, 0, 0, 1)
    result = run(f, g)
    expected = Laurent2.make(
        Q, {(0, 4): 1, (3, 2): -2, (6, 0): 1, (2, 1): -4, (1, 0): -1}
    )
    ok = (
        result.relation == expected
        and result.m_sequence == (6, 7)
        and result.d_sequence == (2, 1)
    )
    code = cli_main(["depend", "--field", "q", "z^4", "z^6 - z"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and "P = g^4 - 2*f^3*g^2 - 4*f^2*g + f^6 - f" in out
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report(1, "golden example, char 0", ok, elapsed)


# -- criterion 2: golden example over F_2 -----------------------------------------


def test_criterion_2_golden_char2(capsys):
    t0 = time.perf_counter()
    field = prime_field(2)
    f = poly(field, 0, 0, 0, 0, 1)
    g = poly(field, 0, -1, 0, 0, 0, 0, 1)
    result = run(f, g)
    ok = result.relation == Laurent2.make(field, {(0, 4): 1, (6, 0): 1, (1, 0): 1})
    g1 = result.chain[1]
    ok = ok and g1.symbolic == Laurent2.make(field, {(0, 2): 1, (3, 0): 1, (-1, 1): 1})
    ok = ok and not g1.symbolic.is_polynomial()
    ok = ok and g1.image.zdeg() == -3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report(2, "golden example, char 2", ok, elapsed)


# -- criterion 3: the (9, 6, 2) instance -------------------------------------------


def test_criterion_3_golden_962(capsys):
    t0 = time.perf_counter()
    f = poly(Q, 0, 6, 0, 0, 0, 6, 0, 0, 0, 1)
    g = poly(Q, 0, 0, 4, 0, 0, 0, 1)
    result = run(f, g)
    g1 = result.chain[1]
    sg = semigroup_report(result)
    ok = (
        g1.symbolic == Laurent2.make(Q, {(0, 3): 1, (2, 0): -1, (0, 1): 8})
        and g1.image.num == poly(Q, 0, 0, -4)
        and g1.image.fpow == 0
        and result.m_sequence == (6, 2)
        and result.relation_gdeg == 9
        and sg.min_positive == 2
        and not sg.contains_one
        and not contains_degree(sg, 1)
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report(3, "golden example (9,6,2)", ok, elapsed)


# -- criterion 4: relation correctness on a random suite ---------------------------


@pytest.fixture(scope="module")
def suite4():
    rng = random.Random(42424242)
    fields = [Q, prime_field(2), prime_field(3), prime_field(5), prime_field(7)]
    results = []
    t0 = time.perf_counter()
    for i in range(500):
        field = fields[i % len(fields)]
        f, g = random_pair(rng, field, max_degree=12)
        result = run(f, g)
        ok = (
            not substitute(result.relation, result.f, result.g)
            and result.relation.is_monic_in_g()
            and result.relation_gdeg * result.d_final == result.n
            and len(result.chain.steps) <= result.n
            and result.relation.is_polynomial()
        )
        results.append((ok, result))
    return time.perf_counter() - t0, results


def test_criterion_4_relation_correctness(suite4, capsys):
    elapsed, results = suite4
    ok = len(results) >= 500 and all(flag for flag, _ in results) and elapsed < 60.0
    with capsys.disabled():
        report(4, f"relation correctness on {len(results)} random pairs", ok, elapsed)


# -- criterion 5: oracle equivalence in char 0 --------------------------------------


def test_criterion_5_oracle_equivalence(capsys):
    rng = random.Random(5050)
    t0 = time.perf_counter()
    count, ok = 0, True
    for _ in range(100):
        n = rng.randint(1, 10)
        m = rng.randint(1, 20 - n)
        f = poly(Q, *[rng.randint(-6, 6) for _ in range(n)], rng.choice([1, 2, -1]))
        g = poly(Q, *[rng.randint(-6, 6) for _ in range(m)], rng.choice([1, 3, -2]))
        result = run(f, g)
        relation = BivarPoly.from_laurent(result.relation)
        resultant = sylvester_resultant(result.f, result.g)
        ok = ok and check_resultant_power(relation, resultant, result.d_final)
        ok = ok and minimality_certificate(result.f, result.g, result.relation_gdeg)
        count += 1
    elapsed = time.perf_counter() - t0
    ok = ok and count >= 100 and elapsed < 120.0
    with capsys.disabled():
        report(5, f"oracle equivalence on {count} char-0 pairs", ok, elapsed)


# -- criterion 6: polynomiality and gap properties -----------------------------------


def test_criterion_6_gap_and_polynomiality(suite4, capsys):
    _, results = suite4
    t0 = time.perf_counter()
    char0 = [r for _, r in results if r.field.characteristic() == 0]
    ok = bool(char0) and all(assert_char0_polynomiality(r) for r in char0)
    rng = random.Random(6666)
    fields = [Q, prime_field(2), prime_field(3)]
    instances = 0
    for _ in range(1000):
        field = fields[instances % 3]
        h1 = random_laurent(rng, field)
        h2 = random_laurent(rng, field)
        product = h1 * h2
        if product:
            ok = ok and product.gap() >= min(h1.gap(), h2.gap())
        fh = Laurent2.f_gen(field) * h1
        ok = ok and fh.gap() >= h1.gap()
        monic = random_monic_laurent(rng, Q)
        d = rng.randint(1, 5)
        ok = ok and (monic**d).gap() == monic.gap()
        instances += 1
    elapsed = time.perf_counter() - t0
    ok = ok and instances >= 1000
    with capsys.disabled():
        report(
            6,
            f"chain polynomiality (char 0) + gap laws on {instances} instances",
            ok,
            elapsed,
        )


# -- criterion 7: the divisibility theorem at desk scale -----------------------------


def test_criterion_7_ams_at_desk_scale(capsys):
    rng = random.Random(777777)
    t0 = time.perf_counter()
    ok = True
    for _ in range(500):
        f, g = automorphic_pair(rng, Q, max_degree=64)
        ok = ok and f.degree <= 64 and g.degree <= 64
        verdict = ams_verdict(run(f, g))
        ok = ok and verdict == (True, True)
        n, m = f.degree, g.degree
        ok = ok and max(n, m) % min(n, m) == 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    with capsys.disabled():
        report(7, "divisibility theorem on 500 generated pairs", ok, elapsed)


# -- criterion 8: standard-monomial combinatorics ------------------------------------


def test_criterion_8_standard_monomials(suite4, capsys):
    _, results = suite4
    t0 = time.perf_counter()
    ok = True
    for _, result in results:
        chain = result.chain
        steps = chain.steps
        s = len(steps) - 1
        n, d_s = result.n, result.d_final
        total = n // d_s
        prefix = [1]
        for st in steps:
            prefix.append(prefix[-1] * st.a)
        degrees, gdegrees = [], []
        for gexps in itertools.product(*[range(st.a) for st in steps]):
            degrees.append(sum(j * st.m for j, st in zip(gexps, steps)))
            gdegrees.append(sum(j * prefix[k] for k, j in enumerate(gexps)))
        residues = {d % n for d in degrees}
        ok = ok and len(degrees) == total
        ok = ok and len(residues) == total  # distinct mod n
        ok = ok and all(d % d_s == 0 for d in degrees)
        ok = ok and residues == {r for r in range(n) if r % d_s == 0}  # all realized
        ok = ok and sorted(gdegrees) == list(range(total))  # bijective g-degrees
        for deg in range(-2 * n, 2 * n + 1):
            if deg % d_s == 0:
                mono = chain.std_monomial_of_degree(s, deg)
                ok = ok and monomial_degree(chain, mono) == deg
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(8, "standard-monomial combinatorics on every chain", ok, elapsed)


# -- criterion 9: admissible sequences ------------------------------------------------

# Frozen expansion of the closed form for n <= 30 (independent derivation in
# test_semigroup.expand_closed_form): the eight named length-2 sequences plus
# the one three-step sequence (27; 18, 6, 2) from factors 3*3*3.
EXPECTED_SEQUENCES_30 = {
    (9, (6, 2)),
    (15, (6, 2)),
    (15, (10, 2)),
    (21, (6, 2)),
    (21, (14, 2)),
    (25, (10, 2)),
    (27, (6, 2)),
    (27, (18, 2)),
    (27, (18, 6, 2)),
}

NAMED_EIGHT = {
    (9, (6, 2)),
    (15, (6, 2)),
    (21, (6, 2)),
    (27, (6, 2)),
    (15, (10, 2)),
    (25, (10, 2)),
    (27, (18, 2)),
    (21, (14, 2)),
}


def test_criterion_9_admissible_sequences(capsys):
    t0 = time.perf_counter()
    got = {(s.n, s.ms) for s in enumerate_two_admissible(30)}
    ok = got == EXPECTED_SEQUENCES_30
    ok = ok and NAMED_EIGHT <= got
    ok = ok and all(n % 2 == 1 for n, _ in got)
    # the (9, 6, 2) member is realizable: the criterion-3 pair produces it
    f = poly(Q, 0, 6, 0, 0, 0, 6, 0, 0, 0, 1)
    g = poly(Q, 0, 0, 4, 0, 0, 0, 1)
    result = run(f, g)
    ok = ok and (result.n, result.m_sequence) == (9, (6, 2)) and (9, (6, 2)) in got
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(9, "two-admissible sequences up to 30", ok, elapsed)
