"""Command-line surface: parse inputs, run the engine, report results.

Commands: depend, verify, semigroup, ams, richman, admissible, oracle.
Exit codes: 0 success, 2 bad input or failed precondition, 3 internal
invariant violation (with a diagnostic dump).  JSON reports are
deterministic: fixed key order, terms sorted by the monomial order,
coefficients rendered as exact fraction/residue strings.
"""

import argparse
import contextlib
import functools
import json
import shlex
import sys
from fractions import Fraction

from . import engine, oracle, semigroup
from .errors import (
    CoefficientNotInField,
    InternalInvariantViolation,
    IterationCapExceeded,
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
# the largest `admissible --max-n`; the listing's cost grows about tenfold
# for each fourfold n, and at this n it takes ~0.5 s (~1 s with --json)
MAX_ADMISSIBLE_N = 8000
# the longest `--batch` line: Linux's limit on one command-line argument
# (MAX_ARG_STRLEN), which already bounds a request given on the command line
MAX_BATCH_LINE = 131_072
DIGITS = "0123456789"  # str.isdigit also accepts superscripts and other scripts' digits


@contextlib.contextmanager
def _no_int_digit_limit():
    """Lift Python's limit on int <-> str digits, which exact coefficients
    can outgrow, and restore it on exit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _int_from_digits(digits):
    """int(digits) for a run of ASCII digits of any length.

    A run longer than Python's int <-> str digit limit is read in chunks
    no longer than the limit, so the interpreter-wide limit is never
    touched.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit or len(digits) <= limit:
        return int(digits)
    value = 0
    for start in range(0, len(digits), limit):
        chunk = digits[start : start + limit]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def parse_polynomial(text, field):
    """Parse the term grammar: sum of `[c][*][z[^k]]` with rational c.

    Coefficients may be longer than Python's int <-> str digit limit.
    """
    pos = 0
    size = len(text)

    def skip_ws():
        nonlocal pos
        while pos < size and text[pos].isspace():
            pos += 1

    def read_int():
        nonlocal pos
        start = pos
        while pos < size and text[pos] in DIGITS:
            pos += 1
        if pos == start:
            raise PolySyntaxError("expected digits", start)
        return _int_from_digits(text[start:pos])

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
        if pos < size and text[pos] in DIGITS:
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
            value = -value
        coeffs[exponent] = field.reduce(coeffs.get(exponent, field.zero) + value)
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
        out[(item["fexp"], item["gexp"])] = field.element(item["coeff"])
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


# -- commands ----------------------------------------------------------------
#
# Each command reads the engine's result and returns (verdicts for the JSON
# report, text lines or None for the depend text, failure message or None).


def _pass(ok):
    return "PASS" if ok else "FAIL"


def _yes(flag):
    return "yes" if flag else "no"


def _depend(args, result):
    return {}, None, None


def _verify(args, result):
    terms = json.loads(json.dumps(relation_terms_json(result.relation)))
    relation = relation_from_json(terms, result.field)
    ok = not oracle.substitute(relation, result.f, result.g)
    lines = [
        f"relation terms: {len(relation.terms)}",
        f"substitution of JSON-roundtripped relation at (f, g): {'zero' if ok else 'NONZERO'}",
        f"verify: {_pass(ok)}",
    ]
    failure = None if ok else "serialized relation does not vanish at (f, g)"
    return {"substitution_zero": ok}, lines, failure


def _semigroup(args, result):
    report = semigroup.semigroup_report(result)
    verdicts = {
        "generators": list(report.generators),
        "min_positive": report.min_positive,
        "contains_one": report.contains_one,
        "ams_applicable": report.ams_applicable,
        "ams_divisibility": report.ams_divisibility,
    }
    lines = [
        f"generators: {seq_str(report.generators)}",
        f"min positive: {report.min_positive}",
        f"contains 1: {_yes(report.contains_one)}",
        f"ams applicable: {_yes(report.ams_applicable)}",
    ]
    if report.ams_applicable:
        lo, hi = sorted(report.generators[:2])
        lines.append(f"ams divisibility: {_yes(report.ams_divisibility)} ({lo} | {hi})")
    return verdicts, lines, None


def _ams(args, result):
    generates, divisibility = semigroup.ams_verdict(result)
    verdicts = {"k_fg_equals_k_z": generates, "divisibility_holds": divisibility}
    lo, hi = sorted((result.f.degree, result.g.degree))
    line = f"K[f,g] = K[z]: yes; divisibility: {lo} | {hi}" if generates else "K[f,g] = K[z]: no"
    return verdicts, [line], None


def _richman(args, result):
    first = result.chain.steps[0]
    ok = semigroup.richman_check(result)
    lines = [
        f"n = {result.n}, m0 = {first.m}, d0 = {first.d}",
        f"richman: {_pass(ok)} (min(n, m0) = d0 expected)",
    ]
    return {"d0": first.d, "richman_holds": ok}, lines, None if ok else "Richman divisibility failed"


def _target(args):
    """The (n, [m0, m1, ...]) of `admissible --target`."""
    if args.f is None or args.g is None:
        raise PreconditionFailed("--target needs candidate polynomials f and g")
    parts = args.target.split(",")
    if len(parts) < 2 or not all(x.isascii() and x.isdigit() for x in parts):
        raise PreconditionFailed("--target must be n,m0[,m1,...]")
    target_n, *target_ms = map(int, parts)
    return target_n, target_ms


def _admissible(args, result):
    target_n, target_ms = _target(args)
    realized = semigroup.matches_degree_sequence(result, target_n, target_ms)
    verdicts = {"target_n": target_n, "target_m_sequence": target_ms, "realized": realized}
    lines = [
        f"target: n = {target_n}, m-sequence ({seq_str(target_ms)})",
        f"run: n = {result.n}, m-sequence ({seq_str(result.m_sequence)})",
        f"realized: {_yes(realized)}",
    ]
    return verdicts, lines, None


def _oracle(args, result):
    sub_ok = not oracle.substitute(result.relation, result.f, result.g)
    relation_bivar = oracle.BivarPoly.from_laurent(result.relation)
    resultant = oracle.sylvester_resultant(result.f, result.g)
    res_ok = oracle.check_resultant_power(relation_bivar, resultant, result.d_final)
    min_ok = oracle.minimality_certificate(result.f, result.g, result.relation_gdeg)
    verdicts = {"substitution_zero": sub_ok, "resultant_check": res_ok, "minimality": min_ok}
    lines = [
        f"substitution P(f,g) == 0: {_pass(sub_ok)}",
        f"resultant == c * P^d_s (d_s = {result.d_final}): {_pass(res_ok)}",
        f"minimality of deg_g(P) = {result.relation_gdeg}: {_pass(min_ok)}",
    ]
    return verdicts, lines, None if all(verdicts.values()) else "an oracle check failed"


_COMMANDS = {
    "depend": _depend,
    "verify": _verify,
    "semigroup": _semigroup,
    "ams": _ams,
    "richman": _richman,
    "admissible": _admissible,
    "oracle": _oracle,
}


def _list_admissible(args):
    sequences = semigroup.enumerate_two_admissible(args.max_n)
    if args.json:
        emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "admissible",
                "max_n": args.max_n,
                "sequences": [{"n": s.n, "ms": list(s.ms)} for s in sequences],
            }
        )
    else:
        for s in sequences:
            print(s.render())
    return 0


@functools.cache
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
            cmd.add_argument("--max-n", type=int, default=30, help="bound on n")
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
    """Parse the inputs, apply the command's precheck, run the engine once and
    report; a failed check raises after its output is printed."""
    command = args.command
    if command is None:
        raise PreconditionFailed("no command given (see --help)")
    if args.max_steps is not None and args.max_steps < 0:
        raise PreconditionFailed("--max-steps must be at least 0")
    if not 0 <= getattr(args, "max_n", 0) <= MAX_ADMISSIBLE_N:  # only `admissible` has --max-n
        raise PreconditionFailed(f"--max-n must be at most {MAX_ADMISSIBLE_N} and at least 0")
    if command == "admissible":
        if not args.target:
            if args.f is not None or args.g is not None:
                raise PreconditionFailed("candidate polynomials f and g need --target")
            parse_field(args.field)  # the listing ignores the field, but refuses a bad one
            return _list_admissible(args)
        _target(args)  # refuse a malformed target before parsing the inputs
    with _no_int_digit_limit():
        field = parse_field(args.field)
        f = parse_polynomial(args.f, field)
        g = parse_polynomial(args.g, field)
        if command == "ams" and field.characteristic() != 0:
            raise WrongCharacteristic("the divisibility theorem is characteristic 0")
        if command == "oracle":
            oracle.check_degree_cap(f, g)
        result = engine.run(f, g, max_reductions=args.max_steps)
        verdicts, lines, failure = _COMMANDS[command](args, result)
        if args.json:
            emit_json(build_report(command, result, verdicts))
        elif lines is None:
            print_depend_text(result, args.trace)
        else:
            for line in lines:
                print(line)
    if failure:
        raise InternalInvariantViolation(failure)
    return 0


def main(argv=None, batch_allowed=True):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    if args.batch:
        if not batch_allowed:
            print("error: --batch is not allowed inside a batch file", file=sys.stderr)
            return 2
        return _run_batch(args.batch)
    try:
        return _dispatch(args)
    except InternalInvariantViolation as exc:
        if isinstance(exc, IterationCapExceeded) and args.max_steps is not None:
            # a budget the user set ran out; only the built-in cap signals a bug
            print(f"error: --max-steps {args.max_steps} exhausted: {exc}", file=sys.stderr)
            return 2
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
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not valid UTF-8 (byte {exc.start}: {exc.reason})", file=sys.stderr)
        return 2
    worst = 0
    for idx, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if len(line) > MAX_BATCH_LINE:
            print(f"== line {idx}: {line[:80]}...")
            print(f"error: line longer than {MAX_BATCH_LINE} characters", file=sys.stderr)
            worst = max(worst, 2)
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
