import itertools
import random

import pytest

from polydep import (
    AdmissibleSequence,
    UniPoly,
    ams_verdict,
    contains_degree,
    enumerate_two_admissible,
    is_one_admissible,
    prime_field,
    rationals,
    richman_check,
    run,
    semigroup_report,
)
from polydep.errors import PreconditionFailed, WrongCharacteristic
from polydep.semigroup import ONE_ADMISSIBLE, TWO_ADMISSIBLE, matches_degree_sequence
from gen import automorphic_pair

Q = rationals()


def poly(field, *coeffs):
    return UniPoly.make(field, coeffs)


def z_pow(field, k):
    return UniPoly.monomial(field, k)


def seq(n, *ms, kind=TWO_ADMISSIBLE):
    return AdmissibleSequence(n, tuple(ms), kind)


# -- reports -------------------------------------------------------------------


def test_report_golden():
    result = run(z_pow(Q, 4), poly(Q, 0, -1, 0, 0, 0, 0, 1))
    report = semigroup_report(result)
    assert report.generators == (4, 6, 7)
    assert not report.contains_one
    assert report.min_positive == 4
    assert not report.ams_applicable
    assert report.ams_divisibility is None


def test_report_generating_pair():
    result = run(poly(Q, 0, 1, 1), UniPoly.z(Q))  # f = z^2 + z, g = z
    report = semigroup_report(result)
    assert report.generators == (2, 1)
    assert report.contains_one
    assert report.ams_divisibility is True


def test_report_962():
    f = poly(Q, 0, 6, 0, 0, 0, 6, 0, 0, 0, 1)
    g = poly(Q, 0, 0, 4, 0, 0, 0, 1)
    report = semigroup_report(run(f, g))
    assert report.generators == (9, 6, 2)
    assert not report.contains_one
    assert report.min_positive == 2


def test_report_rejects_char_p():
    f2 = prime_field(2)
    result = run(z_pow(f2, 4), poly(f2, 0, 1, 0, 0, 0, 0, 1))
    with pytest.raises(WrongCharacteristic):
        semigroup_report(result)


# -- membership ------------------------------------------------------------------


def brute_force_member(generators, t):
    bound = t // min(generators) + 1
    for combo in itertools.product(range(bound + 1), repeat=len(generators)):
        if sum(c * g for c, g in zip(combo, generators)) == t:
            return True
    return False


def report_with_generators(*gens):
    # reports are plain records; membership only reads .generators
    from polydep import SemigroupReport

    return SemigroupReport(gens, min(gens) == 1, min(gens), min(gens) == 1, None)


def test_contains_degree_examples():
    coin = report_with_generators(2, 3)
    assert contains_degree(coin, 1) is False
    assert contains_degree(coin, 7) is True
    assert contains_degree(report_with_generators(9, 6, 2), 3) is False


def test_contains_degree_matches_brute_force():
    rng = random.Random(246)
    for _ in range(40):
        gens = tuple(sorted(rng.sample(range(2, 15), rng.randint(1, 3))))
        report = report_with_generators(*gens)
        for t in range(1, 51):
            assert contains_degree(report, t) == brute_force_member(gens, t), (gens, t)


# -- verdicts -------------------------------------------------------------------


def test_ams_verdict_cusp():
    generates, div = ams_verdict(run(z_pow(Q, 2), z_pow(Q, 3)))
    assert generates is False and div is None


def test_ams_verdict_generating():
    assert ams_verdict(run(poly(Q, 0, 1, 1), UniPoly.z(Q))) == (True, True)
    assert ams_verdict(run(UniPoly.z(Q), poly(Q, 1, -3, 0, 0, 0, 1))) == (True, True)


def test_ams_verdict_char0_only():
    f2 = prime_field(2)
    with pytest.raises(WrongCharacteristic):
        ams_verdict(run(UniPoly.z(f2), z_pow(f2, 3)))


def test_richman_n_divides():
    result = run(z_pow(Q, 2), poly(Q, 0, 1, 0, 0, 1))  # f = z^2, g = z^4 + z
    assert richman_check(result) is True


def test_richman_m_divides():
    result = run(poly(Q, 0, 1, 0, 0, 0, 0, 1), z_pow(Q, 3))  # deg f = 6, deg g = 3
    assert richman_check(result) is True


def test_richman_precondition():
    result = run(z_pow(Q, 4), poly(Q, 0, -1, 0, 0, 0, 0, 1))
    with pytest.raises(PreconditionFailed):
        richman_check(result)  # d0 = 2 is not in span(4, 6, 7)


def test_richman_invariant_on_random_runs():
    rng = random.Random(135)
    hits = 0
    for _ in range(80):
        f, g = automorphic_pair(rng, Q, max_degree=16)
        result = run(f, g)
        report = semigroup_report(result)
        d0 = result.chain[0].d
        if contains_degree(report, d0):
            hits += 1
            assert richman_check(result) is True
            assert min(result.n, result.chain[0].m) == d0
    assert hits > 10  # the suite actually exercises the criterion


# -- admissible sequences ----------------------------------------------------------


def test_one_admissible_examples():
    assert is_one_admissible(seq(4, 6, 3, 1, kind=ONE_ADMISSIBLE)) is False
    assert is_one_admissible(seq(4, 12, 6, 3, 1, kind=ONE_ADMISSIBLE)) is True
    assert is_one_admissible(seq(9, 6, 2, kind=ONE_ADMISSIBLE)) is False


def expand_closed_form(max_n):
    """Independent expansion: all odd factor tuples, written without recursion."""
    out = set()
    odds = range(3, max_n // 3 + 1, 2)
    for length in range(2, 6):
        for factors in itertools.product(odds, repeat=length):
            n = 1
            for q in factors:
                n *= q
            if n > max_n:
                continue
            inner = factors[:-1]
            running = 1
            prefix = []
            for q in inner:
                running *= q
                prefix.append(running)
            ms = [2 * p for p in reversed(prefix)]
            out.add((n, tuple(ms) + (2,)))
    return out


def test_enumerate_two_admissible_smallest():
    got = enumerate_two_admissible(9)
    assert got == [seq(9, 6, 2)]


def test_enumerate_two_admissible_15():
    got = enumerate_two_admissible(15)
    assert seq(15, 6, 2) in got and seq(15, 10, 2) in got


def test_enumerate_two_admissible_below_threshold():
    assert enumerate_two_admissible(8) == []


def test_enumerate_matches_independent_expansion():
    for bound in (9, 15, 30, 45):
        got = {(s.n, s.ms) for s in enumerate_two_admissible(bound)}
        assert got == expand_closed_form(bound)


def test_enumerate_structure():
    for s in enumerate_two_admissible(60):
        assert s.n % 2 == 1
        assert s.ms[-1] == 2
        assert all(s.ms[i] > s.ms[i + 1] for i in range(len(s.ms) - 1))
        assert all(m % 2 == 0 for m in s.ms)
        quotients = [s.ms[i] // s.ms[i + 1] for i in range(len(s.ms) - 1)]
        assert all(q % 2 == 1 and q >= 3 for q in quotients)
        assert s.n % (s.ms[0] // 2) == 0 and (s.n // (s.ms[0] // 2)) % 2 == 1


def test_matches_degree_sequence():
    f = poly(Q, 0, 6, 0, 0, 0, 6, 0, 0, 0, 1)
    g = poly(Q, 0, 0, 4, 0, 0, 0, 1)
    result = run(f, g)
    assert matches_degree_sequence(result, 9, [6, 2])
    assert not matches_degree_sequence(result, 9, [6, 3])
