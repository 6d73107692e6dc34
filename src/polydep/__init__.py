"""Exact algebraic dependence of two univariate polynomials.

For f, g in K[z] over an exact field (the rationals or a prime field) the
engine produces the monic irreducible polynomial P with P(f(z), g(z)) = 0
by standard-monomial degree reduction, together with the degree data
(m_i, d_i, a_i) of the reduction chain.  Oracles (substitution, Sylvester
resultant, a minimality certificate) verify results independently, and the
semigroup module analyzes the degrees of K[f, g], including the
Abhyankar-Moh-Suzuki divisibility criterion.
"""

from .engine import (
    Chain,
    ChainStep,
    DependenceResult,
    NewChainElement,
    ReductionEvent,
    Relation,
    StdMonomial,
    assert_char0_polynomiality,
    reduce_step,
    reduction_cap,
    run,
)
from .laurent import GapValue, Laurent2
from .oracle import (
    BivarPoly,
    check_resultant_power,
    divides,
    minimality_certificate,
    substitute,
    sylvester_resultant,
)
from .scalar import Field, parse_field, prime_field, rationals
from .semigroup import (
    AdmissibleSequence,
    SemigroupReport,
    ams_verdict,
    contains_degree,
    enumerate_two_admissible,
    is_one_admissible,
    richman_check,
    semigroup_report,
)
from .unipoly import NEG_INF, FImage, UniPoly

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSequence",
    "BivarPoly",
    "Chain",
    "ChainStep",
    "DependenceResult",
    "FImage",
    "Field",
    "GapValue",
    "Laurent2",
    "NEG_INF",
    "NewChainElement",
    "ReductionEvent",
    "Relation",
    "SemigroupReport",
    "StdMonomial",
    "UniPoly",
    "ams_verdict",
    "assert_char0_polynomiality",
    "check_resultant_power",
    "contains_degree",
    "divides",
    "enumerate_two_admissible",
    "is_one_admissible",
    "minimality_certificate",
    "parse_field",
    "prime_field",
    "rationals",
    "reduce_step",
    "reduction_cap",
    "richman_check",
    "run",
    "semigroup_report",
    "substitute",
    "sylvester_resultant",
]
