"""Command-line surface: parse inputs, run the engine, report results.

Commands: depend, verify, semigroup, ams, richman, admissible, oracle.
Exit codes: 0 success, 2 bad input or failed precondition, 3 internal
invariant violation (with a diagnostic dump).  JSON reports are
deterministic: fixed key order, terms sorted by the monomial order,
coefficients rendered as exact fraction/residue strings.
"""

import argparse
import json
import shlex
import sys
from fractions import Fraction

from . import engine, oracle, semigroup
from .errors import (
    CoefficientNotInField,
    ConstantInput,
    DegreeCapExceeded,
    FieldMismatch,
    InternalInvariantViolation,
    InvalidFieldSpec,
    MissingModulus,
    NotPrime,
    PolydepError,
    PolySyntaxError,
    PreconditionFailed,
    WrongCharacteristic,
)
from .laurent import Laurent2
from .scalar import parse_field
from .unipoly import UniPoly

SCHEMA_VERSION = "1"
MAX_EXPONENT = 100_000

_INPUT_ERRORS = (
    PolySyntaxError,
    CoefficientNotInField,
    InvalidFieldSpec,
    NotPrime,
    MissingModulus,
    ConstantInput,
    PreconditionFailed,
    DegreeCapExceeded,
    WrongCharacteristic,
    FieldMismatch,
)


def parse_polynomial(text, field):
    """Parse the term grammar: sum of `[c][*][z[^k]]` with rational c."""
    pos = 0
    size = len(text)

    def skip_ws():
        nonlocal pos
        while pos < size and text[pos].isspace():
            pos += 1

    def read_int():
        nonlocal pos
        start = pos
        while pos < size and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise PolySyntaxError("expected digits", start)
        return int(text[start:pos])

    coeffs = {}
    skip_ws()
    if pos == size:
        raise PolySyntaxError("empty polynomial", pos)
    first = True
    while True:
        skip_ws()
        if pos == size:
            if first:
                raise PolySyntaxError("expected a term", pos)
            break
        negative = False
        if text[pos] in "+-":
            negative = text[pos] == "-"
            pos += 1
            skip_ws()
        elif not first:
            raise PolySyntaxError(f"expected '+' or '-', got {text[pos]!r}", pos)
        first = False
        term_start = pos
        num = den = None
        if pos < size and text[pos].isdigit():
            num = read_int()
            skip_ws()
            if pos < size and text[pos] == "/":
                pos += 1
                skip_ws()
                den_start = pos
                den = read_int()
                if den == 0:
                    raise PolySyntaxError("zero denominator", den_start)
            skip_ws()
            if pos < size and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos == size or text[pos] != "z":
                    raise PolySyntaxError("expected 'z' after '*'", pos)
        exponent = 0
        if pos < size and text[pos] == "z":
            pos += 1
            exponent = 1
            skip_ws()
            if pos < size and text[pos] == "^":
                pos += 1
                skip_ws()
                exp_start = pos
                exponent = read_int()
                if exponent > MAX_EXPONENT:
                    raise PolySyntaxError("exponent too large", exp_start)
        elif num is None:
            raise PolySyntaxError("expected a coefficient or 'z'", term_start)
        if num is None:
            num, den = 1, None
        try:
            value = field.element(Fraction(num, den if den is not None else 1))
        except CoefficientNotInField:
            raise CoefficientNotInField(
                f"{num}/{den} has no image in {field.name()}"
            ) from None
        if negative:
            value = field.neg(value)
        coeffs[exponent] = field.add(coeffs.get(exponent, field.zero), value)
    top = max(coeffs)
    dense = [field.zero] * (top + 1)
    for k, c in coeffs.items():
        dense[k] = c
    return UniPoly(field, dense)


# -- report construction -----------------------------------------------------


def relation_terms_json(relation):
    return [
        {"fexp": fe, "gexp": ge, "coeff": str(c)}
        for (fe, ge), c in relation.sorted_terms()
    ]


def trace_json(trace):
    return [
        {
            "step": ev.step,
            "degree_before": ev.degree_before,
            "monomial": {"fexp": ev.monomial.fexp, "gexps": list(ev.monomial.gexps)},
            "coeff": str(ev.coefficient),
        }
        for ev in trace
    ]


def build_report(command, result, verdicts=None):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "field": result.field.name(),
        "f": result.f.render(),
        "g": result.g.render(),
        "swapped": result.swapped,
        "n": result.n,
        "m_sequence": list(result.m_sequence),
        "d_sequence": list(result.d_sequence),
        "a_sequence": list(result.a_sequence),
        "relation": relation_terms_json(result.relation),
        "trace": trace_json(result.trace),
        "verdicts": verdicts or {},
    }


def relation_from_json(terms, field):
    """Rebuild the relation from serialized terms only."""
    out = {}
    for item in terms:
        c = field.element(item["coeff"])
        if c:
            out[(item["fexp"], item["gexp"])] = c
    return Laurent2(field, out)


def emit_json(report):
    print(json.dumps(report, indent=2))


def seq_str(values):
    return ", ".join(str(v) for v in values)


def print_depend_text(result, show_trace):
    print(f"field: {result.field.name()}")
    print(f"f: {result.f.render()}")
    print(f"g: {result.g.render()}")
    if result.swapped:
        print("swapped: yes (f, g exchanged so the characteristic does not divide deg g)")
    print(f"n: {result.n}")
    print(f"m-sequence: {seq_str(result.m_sequence)}")
    print(f"d-sequence: {seq_str(result.d_sequence)}")
    print(f"a-sequence: {seq_str(result.a_sequence)}")
    print(f"deg_g(P): {result.relation_gdeg}")
    print(f"P = {result.relation.render()}")
    if show_trace:
        print("trace:")
        for ev in result.trace:
            print(
                f"  step {ev.step}: deg {ev.degree_before}, "
                f"subtract {ev.coefficient} * {ev.monomial.render()}"
            )


# -- command handlers --------------------------------------------------------


def _parse_inputs(args):
    field = parse_field(args.field)
    f = parse_polynomial(args.f, field)
    g = parse_polynomial(args.g, field)
    return field, f, g


def cmd_depend(args):
    field, f, g = _parse_inputs(args)
    result = engine.run(f, g, field, max_reductions=args.max_steps)
    if args.json:
        emit_json(build_report("depend", result))
    else:
        print_depend_text(result, args.trace)
    return 0


def cmd_verify(args):
    field, f, g = _parse_inputs(args)
    result = engine.run(f, g, field, max_reductions=args.max_steps)
    report = build_report("verify", result)
    round_tripped = json.loads(json.dumps(report))
    relation = relation_from_json(round_tripped["relation"], field)
    image = oracle.substitute(relation, result.f, result.g)
    ok = not image
    report["verdicts"] = {"substitution_zero": ok}
    if args.json:
        emit_json(report)
    else:
        print(f"relation terms: {len(relation.terms)}")
        print(f"substitution of JSON-roundtripped relation at (f, g): {'zero' if ok else 'NONZERO'}")
        print(f"verify: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise InternalInvariantViolation("serialized relation does not vanish at (f, g)")
    return 0


def cmd_semigroup(args):
    field, f, g = _parse_inputs(args)
    result = engine.run(f, g, field, max_reductions=args.max_steps)
    report = semigroup.semigroup_report(result)
    if args.json:
        verdicts = {
            "generators": list(report.generators),
            "min_positive": report.min_positive,
            "contains_one": report.contains_one,
            "ams_applicable": report.ams_applicable,
            "ams_divisibility": report.ams_divisibility,
        }
        emit_json(build_report("semigroup", result, verdicts))
    else:
        print(f"generators: {seq_str(report.generators)}")
        print(f"min positive: {report.min_positive}")
        print(f"contains 1: {'yes' if report.contains_one else 'no'}")
        print(f"ams applicable: {'yes' if report.ams_applicable else 'no'}")
        if report.ams_applicable:
            n, m0 = report.generators[0], report.generators[1]
            lo, hi = min(n, m0), max(n, m0)
            print(f"ams divisibility: {'yes' if report.ams_divisibility else 'no'} ({lo} | {hi})")
    return 0


def cmd_ams(args):
    field, f, g = _parse_inputs(args)
    if field.characteristic() != 0:
        raise WrongCharacteristic("the divisibility theorem is characteristic 0")
    result = engine.run(f, g, field, max_reductions=args.max_steps)
    generates, divisibility = semigroup.ams_verdict(result)
    if args.json:
        verdicts = {"k_fg_equals_k_z": generates, "divisibility_holds": divisibility}
        emit_json(build_report("ams", result, verdicts))
    elif generates:
        lo, hi = sorted((f.degree, g.degree))
        print(f"K[f,g] = K[z]: yes; divisibility: {lo} | {hi}")
    else:
        print("K[f,g] = K[z]: no")
    return 0


def cmd_richman(args):
    field, f, g = _parse_inputs(args)
    result = engine.run(f, g, field, max_reductions=args.max_steps)
    first = result.chain.steps[0]
    ok = semigroup.richman_check(result)
    if args.json:
        verdicts = {"d0": first.d, "richman_holds": ok}
        emit_json(build_report("richman", result, verdicts))
    else:
        print(f"n = {result.n}, m0 = {first.m}, d0 = {first.d}")
        print(f"richman: {'PASS' if ok else 'FAIL'} (min(n, m0) = d0 expected)")
    if not ok:
        raise InternalInvariantViolation("Richman divisibility failed")
    return 0


def cmd_admissible(args):
    if args.target:
        if args.f is None or args.g is None:
            raise PreconditionFailed("--target needs candidate polynomials f and g")
        try:
            parts = [int(x) for x in args.target.split(",")]
        except ValueError:
            parts = []
        if len(parts) < 2:
            raise PreconditionFailed("--target must be n,m0[,m1,...]")
        target_n, target_ms = parts[0], parts[1:]
        field, f, g = _parse_inputs(args)
        result = engine.run(f, g, field, max_reductions=args.max_steps)
        realized = semigroup.matches_degree_sequence(result, target_n, target_ms)
        if args.json:
            verdicts = {
                "target_n": target_n,
                "target_m_sequence": target_ms,
                "realized": realized,
            }
            emit_json(build_report("admissible", result, verdicts))
        else:
            print(f"target: n = {target_n}, m-sequence ({seq_str(target_ms)})")
            print(f"run: n = {result.n}, m-sequence ({seq_str(result.m_sequence)})")
            print(f"realized: {'yes' if realized else 'no'}")
        return 0
    max_n = args.max_n if args.max_n is not None else 30
    sequences = semigroup.enumerate_two_admissible(max_n)
    if args.json:
        emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "admissible",
                "max_n": max_n,
                "sequences": [{"n": s.n, "ms": list(s.ms)} for s in sequences],
            }
        )
    else:
        for s in sequences:
            print(s.render())
    return 0


def cmd_oracle(args):
    field, f, g = _parse_inputs(args)
    if f.degree + g.degree > oracle.DEFAULT_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"deg f + deg g = {f.degree + g.degree} exceeds the oracle cap "
            f"{oracle.DEFAULT_DEGREE_CAP}"
        )
    result = engine.run(f, g, field, max_reductions=args.max_steps)
    image = oracle.substitute(result.relation, result.f, result.g)
    sub_ok = not image
    relation_bivar = oracle.BivarPoly.from_laurent(result.relation)
    resultant = oracle.sylvester_resultant(result.f, result.g)
    if field.characteristic() == 0:
        res_ok = oracle.check_resultant_power(relation_bivar, resultant, result.d_final)
        res_label = f"resultant == c * P^d_s (d_s = {result.d_final})"
    else:
        res_ok = oracle.divides(relation_bivar, resultant)
        res_label = "P divides resultant"
    min_ok = oracle.minimality_certificate(result.f, result.g, result.relation_gdeg)
    checks = [
        ("substitution P(f,g) == 0", sub_ok),
        (res_label, res_ok),
        (f"minimality of deg_g(P) = {result.relation_gdeg}", min_ok),
    ]
    if args.json:
        verdicts = {
            "substitution_zero": sub_ok,
            "resultant_check": res_ok,
            "minimality": min_ok,
        }
        emit_json(build_report("oracle", result, verdicts))
    else:
        for label, ok in checks:
            print(f"{label}: {'PASS' if ok else 'FAIL'}")
    if not all(ok for _, ok in checks):
        raise InternalInvariantViolation("an oracle check failed")
    return 0


_HANDLERS = {
    "depend": cmd_depend,
    "verify": cmd_verify,
    "semigroup": cmd_semigroup,
    "ams": cmd_ams,
    "richman": cmd_richman,
    "admissible": cmd_admissible,
    "oracle": cmd_oracle,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polydep",
        description="Exact algebraic dependence of two univariate polynomials.",
    )
    parser.add_argument(
        "--batch",
        metavar="FILE",
        help="process one request per line from FILE, outputs in input order",
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
        ("depend", "compute the monic irreducible relation P(f, g) = 0"),
        ("verify", "recompute P(f(z), g(z)) from the serialized relation"),
        ("semigroup", "report the degree semigroup of K[f, g]"),
        ("ams", "decide K[f, g] = K[z] and the degree divisibility"),
        ("richman", "check Richman's divisibility criterion"),
        ("admissible", "enumerate admissible degree sequences / test a candidate pair"),
        ("oracle", "run all independent cross-checks"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--field", default="q", help="coefficient field: q or fp:<p>")
        cmd.add_argument("--json", action="store_true", help="machine-readable report")
        cmd.add_argument("--trace", action="store_true", help="include reduction events")
        cmd.add_argument(
            "--max-steps",
            type=int,
            default=None,
            help="override the per-step reduction cap",
        )
        if name == "admissible":
            cmd.add_argument("--max-n", type=int, default=None, help="bound on n")
            cmd.add_argument(
                "--target", default=None, help="degree sequence n,m0[,m1,...] to realize"
            )
            cmd.add_argument("f", nargs="?", help="candidate polynomial f")
            cmd.add_argument("g", nargs="?", help="candidate polynomial g")
        else:
            cmd.add_argument("f", help="polynomial f in z")
            cmd.add_argument("g", help="polynomial g in z")
    return parser


def _dispatch(args):
    if args.command is None:
        raise PreconditionFailed("no command given (see --help)")
    return _HANDLERS[args.command](args)


def main(argv=None, batch_allowed=True):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    if args.batch:
        if not batch_allowed:
            print("error: --batch is not allowed inside a batch file", file=sys.stderr)
            return 2
        return _run_batch(args.batch)
    try:
        return _dispatch(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except PolydepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_batch(path):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    worst = 0
    for idx, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        print(f"== line {idx}: {line}")
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        else:
            code = main(argv, batch_allowed=False)
        worst = max(worst, code)
    return worst


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
