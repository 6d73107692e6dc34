"""The four workloads: operations, their outputs, and the checks on them.

An operation is a call into polydep's public API.  `call` is what gets
timed.  `summarize` turns its output into (value, kept): the plain value
must be equal in every round, and `kept` is what the check needs beyond
it.  `check(value, kept, outputs, rng)` tests the first round's output
with the independent code of checks.py; `outputs` maps every operation
to its value.  Negative controls that need polydep objects run in `check`
too, once per run, outside the timed region.
"""

import io
import json
import os
import shlex
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import checks
import inputs
from inputs import P31, P40, Pair


@dataclass
class Op:
    name: str
    call: object
    summarize: object
    check: object
    expect_failure: bool = False


@dataclass
class Workload:
    name: str
    build: object  # (seed, outdir) -> list of Op; runs polydep set-up
    largest: str  # name of the heaviest operation
    round_seconds: float  # time of one round in slow stretches; sets the round count


def _polys(pair):
    from polydep import UniPoly, parse_field

    field = parse_field(pair.field)
    return UniPoly.make(field, pair.f), UniPoly.make(field, pair.g)


def _relation_value(result):
    return (
        dict(result.relation.terms),
        tuple(result.f.coeffs),
        tuple(result.g.coeffs),
        result.swapped,
        result.m_sequence,
        result.d_sequence,
        len(result.trace),
    )


def _relation_check(pair, value, rng):
    terms, f, g, swapped, _, d_seq, _ = value
    return checks.relation_errors(pair, terms, f, g, swapped, d_seq[-1], rng)


# -- engine_q ----------------------------------------------------------------


def engine_op(pair):
    import polydep

    f, g = _polys(pair)
    return Op(
        pair.name,
        lambda: polydep.run(f, g),
        lambda result: (_relation_value(result), None),
        lambda value, kept, outputs, rng: _relation_check(pair, value, rng),
    )


def build_engine(seed, outdir):
    return interleave([engine_op(pair) for pair in inputs.engine_q(seed)], seed)


def interleave(ops, seed):
    """A seeded fixed order, so that inputs of one shape are spread over a round.

    The machine's speed drifts over seconds; in a spread-out order each
    shape's samples come from many moments of the run, not one window.
    """
    ops = list(ops)
    inputs.rng_for("order", seed).shuffle(ops)
    return ops


# -- oracle ------------------------------------------------------------------


def oracle_op(pair):
    """What `polydep oracle` computes, plus negative controls in the check."""
    import polydep
    from polydep import Laurent2, oracle

    f, g = _polys(pair)
    char0 = f.field.characteristic() == 0

    def call():
        result = polydep.run(f, g)
        image = oracle.substitute(result.relation, result.f, result.g)
        resultant = oracle.sylvester_resultant(result.f, result.g)
        bivar = oracle.BivarPoly.from_laurent(result.relation)
        if char0:
            res_ok = oracle.check_resultant_power(bivar, resultant, result.d_final)
        else:
            res_ok = oracle.divides(bivar, resultant)
        min_ok = oracle.minimality_certificate(result.f, result.g, result.relation_gdeg)
        return result, image, resultant, res_ok, min_ok

    def summarize(output):
        result, image, resultant, res_ok, min_ok = output
        return _relation_value(result) + (not image, res_ok, min_ok), (result, resultant)

    def check(value, kept, outputs, rng):
        result, resultant = kept
        errors = _relation_check(pair, value[:7], rng)
        if value[7:] != (True, True, True):
            errors.append(f"{pair.name}: oracle verdicts {value[7:]}")
        # negative controls: P + 1 must fail both checks, and a dependence
        # of g-degree below deg_g(P) + 1 exists
        wrong = result.relation + Laurent2.one(result.field)
        if not oracle.substitute(wrong, result.f, result.g):
            errors.append(f"{pair.name}: substitution accepted P + 1")
        wrong_bivar = oracle.BivarPoly.from_laurent(wrong)
        if char0:
            accepted = oracle.check_resultant_power(wrong_bivar, resultant, result.d_final)
        else:
            accepted = oracle.divides(wrong_bivar, resultant)
        if accepted:
            errors.append(f"{pair.name}: resultant check accepted P + 1")
        if oracle.minimality_certificate(result.f, result.g, result.relation_gdeg + 1):
            errors.append(f"{pair.name}: minimality certified deg_g(P) + 1")
        return errors

    return Op(pair.name, call, summarize, check)


def build_oracle(seed, outdir):
    return interleave([oracle_op(pair) for pair in inputs.oracle(seed)], seed)


# -- cli_batch ---------------------------------------------------------------


@dataclass
class Request:
    name: str
    argv: list
    code: int  # expected exit code
    kind: str
    pair: Pair = None
    extra: dict = field(default_factory=dict)


def cli_call(argv):
    from polydep import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_report_relation(req, report, rng):
    pair = req.pair
    p = inputs.characteristic(pair.field)
    terms = {}
    for item in report["relation"]:
        terms[(item["fexp"], item["gexp"])] = checks.parse_coeff(item["coeff"], p)
    swapped = report["swapped"]
    used = (pair.g, pair.f) if swapped else (pair.f, pair.g)
    return checks.relation_errors(pair, terms, *used, swapped, report["d_sequence"][-1], rng)


def _check_text_relation(req, text, rng):
    pair = req.pair
    lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    relation = next(line for line in text.splitlines() if line.startswith("P = "))[4:]
    terms = checks.parse_relation_text(relation, inputs.characteristic(pair.field))
    swapped = "swapped" in lines
    used = (pair.g, pair.f) if swapped else (pair.f, pair.g)
    d = int(lines["d-sequence"].split(", ")[-1])
    return checks.relation_errors(pair, terms, *used, swapped, d, rng)


def check_request(req, value, outputs, rng):
    code, out, err = value
    if code != req.code:
        return [f"{req.name}: exit {code}, expected {req.code}: {err.strip()}"]
    if req.code != 0:
        return [] if not out else [f"{req.name}: output on a rejected request"]
    as_json = "--json" in req.argv
    report = json.loads(out) if as_json else None
    kind = req.kind
    errors = []

    def expect(cond, what):
        if not cond:
            errors.append(f"{req.name}: {what}")

    if kind in ("depend", "verify", "semigroup", "oracle", "richman", "ams") and req.pair:
        if as_json:
            errors += _check_report_relation(req, report, rng)
        elif kind == "depend":
            errors += _check_text_relation(req, out, rng)
    verdicts = report.get("verdicts") if as_json else None
    if kind == "verify":
        expect(verdicts == {"substitution_zero": True} if as_json else "verify: PASS" in out,
               "verify did not pass")
    elif kind == "oracle":
        if as_json:
            expect(set(verdicts.values()) == {True}, f"oracle verdicts {verdicts}")
        else:
            expect(out.count(": PASS") == 3 and "FAIL" not in out, "oracle did not pass")
    elif kind == "semigroup":
        n, m = len(req.pair.f) - 1, len(req.pair.g) - 1
        one = req.pair.automorphic
        if as_json:
            expect(verdicts["generators"][:2] == [n, m], "generators do not start n, m0")
            expect(verdicts["contains_one"] == one, "wrong contains_one")
        else:
            expect(f"contains 1: {'yes' if one else 'no'}" in out, "wrong contains 1")
    elif kind == "ams":
        yes = req.extra["generates"]
        if as_json:
            expect(verdicts["k_fg_equals_k_z"] == yes, "wrong ams verdict")
        else:
            expect(out.startswith(f"K[f,g] = K[z]: {'yes' if yes else 'no'}"), "wrong ams verdict")
    elif kind == "richman":
        if as_json:
            expect(verdicts["richman_holds"] is True, "richman failed")
        else:
            expect("richman: PASS" in out, "richman failed")
    elif kind == "admissible-max":
        max_n = req.extra["max_n"]
        seqs = (
            [(s["n"], s["ms"]) for s in report["sequences"]]
            if as_json
            else [_parse_sequence(line) for line in out.splitlines()]
        )
        expect(seqs, "no two-admissible sequences")
        for n, ms in seqs:
            expect(n <= max_n and n % 2 and ms[-1] == 2, f"bad sequence {n}, {ms}")
    elif kind == "admissible-target":
        want = req.extra["realized"]
        if as_json:
            expect(verdicts["realized"] == want, "wrong realized verdict")
        else:
            expect(f"realized: {'yes' if want else 'no'}" in out, "wrong realized verdict")
    elif kind == "batch":
        expected = "".join(
            f"== line {i}: {line}\n" + outputs[name][1]
            for i, (line, name) in enumerate(req.extra["lines"], start=1)
        )
        expect(out == expected, "batch output differs from the single requests")
    return errors


def _parse_sequence(line):
    n, ms = line.strip("()").split("; ")
    return int(n), [int(x) for x in ms.split(", ")]


def cli_requests(seed):
    """The requests of one cli_batch round, in a seeded order."""
    rng = inputs.rng_for("cli_batch", seed)
    reqs = []

    def add(kind, argv, pair=None, code=0, **extra):
        reqs.append(Request(f"{len(reqs):03d}-{kind}", argv, code, kind, pair, extra))

    def poly_args(pair):
        # "--" lets a polynomial with a negative leading term through argparse
        return ["--", inputs.render(pair.f), inputs.render(pair.g)]

    def dense(field_spec, n, m, tag):
        return inputs.dense_pair(rng, field_spec, n, m, tag)

    def auto(moves):
        return inputs.automorphic_pair(rng, "q", moves, "auto", rng.random() < 0.5)

    q_shapes = [(2, 3), (3, 4), (3, 5), (4, 6), (4, 7), (5, 6), (5, 8),
                (6, 8), (6, 9), (7, 10), (8, 10), (9, 10), (10, 7), (6, 4)]
    fp_shapes = [(3, 4), (4, 6), (5, 7), (6, 9), (7, 10), (8, 10)]
    auto_moves = [(2, 2), (3, 3), (2, 4), (2, 2, 2), (3, 2), (2, 3), (4, 2), (5, 2)]
    fields = ["q", "fp:10007", f"fp:{P40}", f"fp:{P31}"]
    for n, m in q_shapes:
        pair = dense("q", n, m, "q")
        for flags in (["--json"], [], ["--trace"]):
            add("depend", ["depend", "--field", "q", *flags, *poly_args(pair)], pair)
    for spec in fields[1:]:
        for n, m in fp_shapes:
            pair = dense(spec, n, m, spec)
            for flags in (["--json"], []):
                add("depend", ["depend", "--field", spec, *flags, *poly_args(pair)], pair)
    for p, n, m in inputs.CHAR_P_PAIRS:
        pair = dense(f"fp:{p}", n, m, f"char{p}")
        for flags in (["--json"], []):
            add("depend", ["depend", "--field", f"fp:{p}", *flags, *poly_args(pair)], pair)
    for i in range(12):
        spec = fields[i % 3]
        n, m = q_shapes[i]
        pair = dense(spec, n, m, spec)
        add("verify", ["verify", "--field", spec, *(["--json"] if i % 2 else []), *poly_args(pair)],
            pair)
    for i, (n, m) in enumerate(q_shapes[:10]):
        pair = dense("q", n, m, "q")
        add("semigroup", ["semigroup", *(["--json"] if i % 2 else []), *poly_args(pair)], pair)
    for i, moves in enumerate(auto_moves):
        pair = auto(moves)
        add("semigroup", ["semigroup", *(["--json"] if i % 2 else []), *poly_args(pair)], pair)
        pair = auto(moves)
        add("ams", ["ams", *(["--json"] if i % 2 else []), *poly_args(pair)], pair,
            generates=True)
        pair = auto(moves)
        add("richman", ["richman", *(["--json"] if i % 2 else []), *poly_args(pair)], pair)
    for i, (n, m) in enumerate([(4, 6), (6, 9), (4, 10), (6, 8), (8, 10), (9, 6), (10, 4), (3, 5)]):
        pair = dense("q", n, m, "q")
        add("ams", ["ams", *(["--json"] if i % 2 else []), *poly_args(pair)], pair,
            generates=False)
    for i, (n, m) in enumerate([(2, 6), (3, 9), (4, 8), (5, 10), (2, 8), (3, 6)]):
        pair = dense("q", n, m, "q")
        add("richman", ["richman", *(["--json"] if i % 2 else []), *poly_args(pair)], pair)
    for i in range(4):
        pair = inputs.monomial_pair(rng, "q", "monomial", 2, 5)
        n, m = len(pair.f) - 1, len(pair.g) - 1
        add("richman", ["richman", *poly_args(pair)], pair, code=2)
        for realized, target in ((True, f"{n},{m}"), (False, f"{n},{m + 1}")):
            add("admissible-target",
                ["admissible", "--target", target, *(["--json"] if i % 2 else []),
                 *poly_args(pair)], realized=realized)
    for max_n in [15, 30, 45, 63, 81, 99]:
        for flags in (["--json"], []):
            add("admissible-max", ["admissible", "--max-n", str(max_n), *flags], max_n=max_n)
    # the two oracle requests over the 40-bit prime (i = 2, 6) share the
    # dearest shape, so that op_tail_s falls in the middle of their samples
    # and not where one request's samples meet another's
    for i, (n, m) in enumerate([(2, 3), (3, 4), (6, 9), (4, 6), (5, 6), (5, 7), (6, 9), (6, 7)]):
        spec = fields[i % 4]
        pair = dense(spec, n, m, spec)
        add("oracle", ["oracle", "--field", spec, *(["--json"] if i % 2 else []),
                       *poly_args(pair)], pair)
    for spec, command in ((f"fp:{P31}", "semigroup"), ("fp:5", "semigroup"),
                          ("fp:10007", "ams"), ("fp:2", "ams")):
        pair = dense(spec, 4, 6, spec)
        add("rejected", [command, "--field", spec, *poly_args(pair)], pair, code=2)
    malformed = [
        ["depend", "--field", "q", "z^2 +", "z^3"],
        ["depend", "--field", "q", "z^^2", "z^3"],
        ["depend", "--field", "q", "2*x", "z^3"],
        ["depend", "--field", "fp:10", "z^2", "z^3"],
        ["depend", "--field", "fp:", "z^2", "z^3"],
        ["depend", "--field", "r", "z^2", "z^3"],
        ["depend", "--field", "q", "5", "z^3"],
        ["depend", "--field", "fp:7", "1/7*z^2", "z^3"],
        ["depend", "--field", "q", "1/0*z", "z^2"],
        ["depend", "--field", "q", "z^200000", "z"],
        ["verify", "--field", "q", "", "z"],
        ["depend", "--field", "q", "z^2", "z^3 - z^3"],
        ["oracle", "--field", "q", "z^30 + 1", "z^11 + z"],
        ["ams", "--field", "fp:3", "z^2", "z^3"],
        ["admissible", "--target", "4,6"],
        ["admissible", "--target", "4", "z^4", "z^6"],
        ["depend", "z^2"],
        ["frobnicate", "z^2", "z^3"],
    ]
    for argv in malformed:
        add("malformed", argv, code=2)
    rng.shuffle(reqs)
    return reqs


# the command line that fails with an uncaught ValueError (see CHANGES.md)
KNOWN_FAULT = ["admissible", "--target", "a,b", "z^2", "z^3"]
# the batch replays the first requests of these kinds, over all four fields,
# which makes it the heaviest request of the round
BATCH_KINDS = [("depend", 4), ("verify", 3), ("semigroup", 2), ("ams", 2), ("oracle", 4)]


def build_cli(seed, outdir):
    from polydep import parse_field

    reqs = cli_requests(seed)
    for spec in sorted({r.pair.field for r in reqs if r.pair}):
        parse_field(spec)
    picked = []
    for kind, count in BATCH_KINDS:
        picked += sorted((r for r in reqs if r.kind == kind and r.code == 0),
                         key=lambda r: r.name)[:count]
    lines = [(shlex.join(r.argv), r.name) for r in picked]
    path = os.path.join(outdir, f"cli_batch-{seed}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line, _ in lines))
    reqs.append(Request("batch", ["--batch", path], 0, "batch", extra={"lines": lines}))
    ops = [
        Op(r.name, lambda argv=r.argv: cli_call(argv), lambda out: (out, None),
           lambda value, kept, outputs, rng, r=r: check_request(r, value, outputs, rng))
        for r in reqs
    ]
    ops.append(Op("known-fault", lambda: cli_call(KNOWN_FAULT), lambda out: (out, None),
                  lambda value, kept, outputs, rng: [], expect_failure=True))
    return ops


WORKLOADS = {
    w.name: w
    for w in [
        Workload("engine_q", build_engine, inputs.ENGINE_LARGEST, 12.5),
        Workload("oracle", build_oracle, inputs.ORACLE_LARGEST, 12.5),
        Workload("cli_batch", build_cli, "batch", 3.5),
    ]
}
