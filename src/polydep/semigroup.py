"""Degree-semigroup analysis and admissible degree sequences.

The degrees of nonzero elements of K[f, g] form a numerical semigroup
generated by n = deg f and the chain degrees m_0, ..., m_s.  When 1 lies in
the semigroup (equivalently K[f, g] = K[z]) the Abhyankar-Moh-Suzuki theorem
forces deg f | deg g or deg g | deg f; Richman's proposition gives the same
divisibility whenever K[f, g] merely contains an element of degree
gcd(n, m_0).  Sequences compatible with the smallest semigroup element being
1 or 2 follow closed divisibility patterns and can be enumerated.
"""

from dataclasses import dataclass
from math import prod

from .engine import run  # noqa: F401  (kept public as polydep.semigroup.run)
from .errors import (
    InternalInvariantViolation,
    PreconditionFailed,
    WrongCharacteristic,
)

ONE_ADMISSIBLE = "one_admissible"
TWO_ADMISSIBLE = "two_admissible"


@dataclass(frozen=True)
class SemigroupReport:
    """Membership facts about the semigroup of degrees of K[f, g]."""

    generators: tuple
    contains_one: bool
    min_positive: int
    ams_applicable: bool
    ams_divisibility: object  # bool when applicable, else None


@dataclass(frozen=True)
class AdmissibleSequence:
    n: int
    ms: tuple
    kind: str

    def render(self):
        return f"({self.n}; " + ", ".join(str(m) for m in self.ms) + ")"


def semigroup_report(result):
    """Generators (n, m_0, ..., m_s) and the divisibility verdict they imply."""
    if result.field.characteristic() != 0:
        raise WrongCharacteristic("degree-semigroup analysis requires characteristic 0")
    generators = (result.n,) + result.m_sequence
    if any(m <= 0 for m in generators):
        raise InternalInvariantViolation("characteristic-0 chain degree not positive")
    smallest = min(generators)
    contains_one = smallest == 1
    n, m0 = generators[0], generators[1]
    divisibility = (n % m0 == 0 or m0 % n == 0) if contains_one else None
    return SemigroupReport(
        generators=generators,
        contains_one=contains_one,
        min_positive=smallest,
        ams_applicable=contains_one,
        ams_divisibility=divisibility,
    )


def contains_degree(report, t):
    """Is t a non-negative integer combination of the generators?"""
    if t < 1:
        raise PreconditionFailed("membership is asked for positive degrees")
    gens = report.generators
    reachable = [False] * (t + 1)
    reachable[0] = True
    for v in range(1, t + 1):
        for gen in gens:
            if gen <= v and reachable[v - gen]:
                reachable[v] = True
                break
    return reachable[t]


def ams_verdict(result):
    """(K[f,g] = K[z]?, and if so whether deg f and deg g divide one another).

    Takes a characteristic-0 DependenceResult.  The second component is
    asserted: a yes/no mismatch would contradict the Abhyankar-Moh-Suzuki
    theorem and is treated as an internal error.
    """
    report = semigroup_report(result)
    if not report.contains_one:
        return False, None
    if report.ams_divisibility is not True:
        raise InternalInvariantViolation(
            f"divisibility failed on generators {report.generators}"
        )
    return True, True


def richman_check(result):
    """Degree gcd(n, m_0) in the semigroup forces min(n, m_0) = gcd(n, m_0).

    Writes d_0 = a*m_0 + b*n with 0 <= a < a_0; the standard monomial of
    degree d_0 is f^b * g_0^a, and membership of d_0 makes b >= 0, whence
    n = d_0 or m_0 = d_0.  Returns that implication.
    """
    if result.field.characteristic() != 0:
        raise WrongCharacteristic("Richman's criterion is applied in characteristic 0")
    first = result.chain.steps[0]
    n, m0, d0, a0 = result.n, first.m, first.d, first.a
    report = semigroup_report(result)
    if not contains_degree(report, d0):
        raise PreconditionFailed(
            f"d0 = {d0} is not in the degree semigroup {report.generators}"
        )
    a = pow((m0 // d0) % a0, -1, a0) if a0 > 1 else 0
    b = (d0 - a * m0) // n
    if b * n + a * m0 != d0:
        raise InternalInvariantViolation("standard monomial of degree d0 miscomputed")
    return b < 0 or n == d0 or m0 == d0


def is_one_admissible(seq):
    """Divisibility chain: all m_i / m_{i+1} integral and n | m_0 or m_0 | n."""
    ms = seq.ms
    if not ms or seq.n < 1 or any(m < 1 for m in ms):
        return False
    if seq.n % ms[0] and ms[0] % seq.n:
        return False
    return all(ms[i] % ms[i + 1] == 0 for i in range(len(ms) - 1))


def enumerate_two_admissible(max_n):
    """All sequences matching the odd-factor closed form with n <= max_n.

    A sequence comes from odd factors q_t, ..., q_0, q_{-1} >= 3:
    n is their product, m_i = 2 * q_t * ... * q_i for i <= t, m_{t+1} = 2.
    Results are deduplicated and sorted by (n, m-sequence).
    """
    found = set()

    def extend(factors):
        # factors = (q_t, ..., q_0); still missing q_{-1}
        head = prod(factors)
        if len(factors) >= 1:
            q = 3
            while head * q <= max_n:
                n = head * q
                ms = tuple(2 * prod(factors[: len(factors) - i]) for i in range(len(factors)))
                found.add(AdmissibleSequence(n, ms + (2,), TWO_ADMISSIBLE))
                q += 2
        q = 3
        while head * q * 3 <= max_n:
            extend(factors + (q,))
            q += 2

    extend(())
    return sorted(found, key=lambda s: (s.n, s.ms))


def matches_degree_sequence(result, n, ms):
    """Does a run realize the target (n; m_0, ..., m_s) degree data?"""
    return result.n == n and result.m_sequence == tuple(ms)
