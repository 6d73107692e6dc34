import dataclasses
import hashlib
import json
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydep import (
    Laurent2, UniPoly, engine, laurent, parse_field, prime_field, rationals, semigroup,
)
from polydep.cli import (
    MAX_ADMISSIBLE_N,
    MAX_BATCH_LINE,
    main,
    parse_polynomial,
    relation_from_json,
)
from polydep.errors import (
    CoefficientNotInField,
    IterationCapExceeded,
    PolydepError,
    PolySyntaxError,
)
from gen import automorphic_pair_of_moves, random_poly

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)


def poly(field, *coeffs):
    return UniPoly.make(field, coeffs)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing -------------------------------------------------------------------


def test_parse_simple():
    assert parse_polynomial("z^6 - z", Q) == poly(Q, 0, -1, 0, 0, 0, 0, 1)


def test_parse_with_coefficients():
    assert parse_polynomial("z^9 + 6z^5 + 6z", Q) == poly(
        Q, 0, 6, 0, 0, 0, 6, 0, 0, 0, 1
    )
    assert parse_polynomial("1/2*z^3 - 2", Q) == UniPoly(
        Q, (Fraction(-2), Fraction(0), Fraction(0), Fraction(1, 2))
    )


def test_parse_star_optional_and_whitespace():
    assert parse_polynomial("6 * z ^ 5", Q) == parse_polynomial("6z^5", Q)
    assert parse_polynomial(" - z + 1 ", Q) == poly(Q, 1, -1)


def test_parse_repeated_terms_combine():
    assert parse_polynomial("z + z", Q) == poly(Q, 0, 2)
    assert parse_polynomial("z - z", Q) == UniPoly.zero(Q)


def test_parse_syntax_errors():
    with pytest.raises(PolySyntaxError) as err:
        parse_polynomial("z^^2", Q)
    assert err.value.position == 2
    for bad in ["", "  ", "z^", "2/", "z2", "z*z", "++1", "z^-1", "2//3", "1/0"]:
        with pytest.raises(PolySyntaxError):
            parse_polynomial(bad, Q)


def test_parse_coefficient_not_in_field():
    with pytest.raises(CoefficientNotInField):
        parse_polynomial("1/2*z", F2)
    # but 1/2 exists in F_3
    assert parse_polynomial("1/2*z", F3) == poly(F3, 0, 2)


def test_parse_render_roundtrip():
    rng = random.Random(321)
    for field in (Q, F2, F3):
        for _ in range(40):
            p = random_poly(rng, field, rng.randint(0, 9))
            assert parse_polynomial(p.render(), field) == p


@st.composite
def polynomials(draw):
    field = draw(st.sampled_from([Q, F2, F3, prime_field(2**61 - 1)]))
    if field.p is None:
        values = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**12)
    else:
        values = st.integers(0, field.p - 1)
    return UniPoly.make(field, draw(st.lists(values, max_size=12)))


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_parse_inverts_render(p):
    assert parse_polynomial(p.render(), p.field) == p


# the grammar's characters, digits of other scripts and anything else
PARSER_TEXT = st.text(
    st.sampled_from(list("z^*/+- 0123456789²٧\t")) | st.characters(), max_size=24
)


@settings(max_examples=300, deadline=None)
@given(PARSER_TEXT, st.sampled_from([Q, F3]))
def test_parse_random_text_fails_only_with_polydep_errors(text, field):
    try:
        result = parse_polynomial(text, field)
    except PolydepError:
        return
    assert isinstance(result, UniPoly)


@settings(max_examples=200, deadline=None)
@given(PARSER_TEXT)
def test_parse_field_random_text_fails_only_with_polydep_errors(text):
    for spec in (text, "fp:" + text):
        try:
            parse_field(spec)
        except PolydepError:
            pass


@pytest.mark.parametrize(
    "argv",
    [
        ["depend", "z^²", "z^3"],
        ["depend", "²*z", "z^3"],
        ["depend", "--field", "fp:²", "z^2", "z^3"],
        ["depend", "--field", "fp:٧", "z^2", "z^3"],
    ],
)
def test_non_ascii_digits_exit2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and not out


# -- depend --------------------------------------------------------------------


def test_depend_text_golden(capsys):
    code, out, _ = run_cli(capsys, "depend", "--field", "q", "z^4", "z^6 - z")
    assert code == 0
    lines = out.splitlines()
    assert "P = g^4 - 2*f^3*g^2 - 4*f^2*g + f^6 - f" in lines
    assert "m-sequence: 6, 7" in lines
    assert "d-sequence: 2, 1" in lines
    assert "a-sequence: 2, 2" in lines


def test_depend_char2_json(capsys):
    code, out, _ = run_cli(
        capsys, "depend", "--field", "fp:2", "z^4", "z^6 - z", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == "1"
    assert report["field"] == "fp:2"
    assert report["relation"] == [
        {"fexp": 0, "gexp": 4, "coeff": "1"},
        {"fexp": 6, "gexp": 0, "coeff": "1"},
        {"fexp": 1, "gexp": 0, "coeff": "1"},
    ]
    assert report["m_sequence"] == [6, -3]


def test_depend_trace(capsys):
    code, out, _ = run_cli(capsys, "depend", "--field", "q", "z^4", "z^6 - z", "--trace")
    assert code == 0
    assert "trace:" in out
    assert "step 0: deg 12, subtract 1 * f^3" in out


def test_json_deterministic(capsys):
    args = ("depend", "--field", "q", "z^9 + 6z^5 + 6z", "z^6 + 4z^2", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


GOLDEN = Path(__file__).parent / "golden"
# dense non-monic (8,12) pairs: over Q with leading coefficients (2, -3), whose
# coefficients grow to fractions with large denominators, and over F_(2^31-1)
GOLDEN_REPORTS = {
    "depend_q_8_12.json": (
        "q",
        "2*z^8 - 3*z^7 - 3*z^6 + 3*z^5 - 2*z^4 - 2*z^3 + z^2 - z - 2",
        "-3*z^12 + z^11 + z^10 + z^9 + z^8 + z^7 - 3*z^6 + 3*z^5 + z^4 - 2*z^3"
        " + 2*z^2 - 2*z - 2",
    ),
    "depend_fp_8_12.json": (
        "fp:2147483647",
        "1629992277*z^8 + 502904075*z^7 + 1041743209*z^6 + 192340715*z^5"
        " + 864756809*z^4 + 1783530849*z^3 + 1927021341*z^2 + 412812577*z + 1230776407",
        "554816812*z^12 + 1423700470*z^11 + 244235304*z^10 + 1559077286*z^9"
        " + 814058265*z^8 + 1956697405*z^7 + 1937168321*z^6 + 1018600931*z^5"
        " + 875451480*z^4 + 1117073374*z^3 + 572878754*z^2 + 1505733522*z + 42931001",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_depend_json_trace_golden(capsys, name):
    field, f, g = GOLDEN_REPORTS[name]
    code, out, err = run_cli(capsys, "depend", "--json", "--trace", "--field", field, "--", f, g)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


# sha256 of `depend --json --trace` on four automorphic pairs over Q with the
# benchmark's automorphic move degrees (and which element is f), each built
# from random.Random(19); unlike the reports above, their symbolic products
# are dense enough for the grid product of `laurent.convolve`
AUTOMORPHIC_REPORT_SHA256 = {
    ((4, 3, 2, 4), True): "581feac84eb8db6bcbd8b016d6175af84406c3396a8e9d40f2a5dbf91db88aa7",
    ((3, 3, 3, 3), False): "b314e8863844964fa1d5206c2844e085832bf6b38ff62a8014333dcc9e092eaf",
    ((2, 2, 2, 2, 3), True): "92b6722d05e9778a00bdb6a700d50a7842922570c3413318fb6b8265065292cb",
    ((4, 4, 4), False): "9a8bfe951627996350d63ed7ee841ca0a8895f0316c7ba6f2d6837587106c060",
}


@pytest.mark.parametrize(
    "moves, base_first", list(AUTOMORPHIC_REPORT_SHA256), ids=lambda v: str(v).replace(" ", "")
)
def test_depend_json_trace_hash_dense_automorphic(capsys, monkeypatch, moves, base_first):
    f, g = automorphic_pair_of_moves(random.Random(19), moves, base_first)
    grid = []
    kronecker = laurent._kronecker
    monkeypatch.setattr(laurent, "_kronecker", lambda a, b: grid.append(1) or kronecker(a, b))
    code, out, err = run_cli(capsys, "depend", "--json", "--trace", "--", f.render(), g.render())
    assert (code, err) == (0, "")
    assert grid, "no product took the grid"
    assert hashlib.sha256(out.encode()).hexdigest() == AUTOMORPHIC_REPORT_SHA256[moves, base_first]


# one small request per command, recorded over Q and over F_3 in text and
# --json modes: exit code, stdout and stderr must match byte for byte
COMMAND_GOLDEN = GOLDEN / "commands"
COMMAND_REQUESTS = {
    "depend": ["depend", "--trace", "z^4", "z^6 - z"],
    "verify": ["verify", "z^4", "z^6 - z"],
    "semigroup": ["semigroup", "z^4", "z^6 - z"],
    "ams": ["ams", "z^2 + z", "z"],
    "richman": ["richman", "z^2", "z^4 + z"],
    "admissible_target": ["admissible", "--target", "9,6,2", "z^9 + 6z^5 + 6z", "z^6 + 4z^2"],
    "admissible_max_n": ["admissible", "--max-n", "15"],
    "oracle": ["oracle", "z^4", "z^6 - z"],
}


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("field", ["q", "fp:3"])
@pytest.mark.parametrize("name", sorted(COMMAND_REQUESTS))
def test_command_golden(capsys, name, field, mode):
    command, *rest = COMMAND_REQUESTS[name]
    code, out, err = run_cli(capsys, command, "--field", field, *mode, *rest)
    path = COMMAND_GOLDEN / f"{name}_{field.replace(':', '')}{'_json' if mode else ''}.txt"
    assert f"exit {code}\n--- stdout\n{out}--- stderr\n{err}" == path.read_text(encoding="utf-8")


def test_json_roundtrip_relation(capsys):
    code, out, _ = run_cli(capsys, "depend", "--field", "q", "z^4", "z^6 - z", "--json")
    report = json.loads(out)
    relation = relation_from_json(report["relation"], Q)
    from polydep import Laurent2

    assert relation == Laurent2.make(
        Q, {(0, 4): 1, (3, 2): -2, (6, 0): 1, (2, 1): -4, (1, 0): -1}
    )


# -- other commands ---------------------------------------------------------------


def test_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--field", "q", "z^4", "z^6 - z")
    assert code == 0
    assert "verify: PASS" in out


def test_ams_output(capsys):
    code, out, _ = run_cli(capsys, "ams", "--field", "q", "z^2 + z", "z")
    assert code == 0
    assert out.strip() == "K[f,g] = K[z]: yes; divisibility: 1 | 2"
    code, out, _ = run_cli(capsys, "ams", "--field", "q", "z^2", "z^3")
    assert code == 0
    assert out.strip() == "K[f,g] = K[z]: no"


def test_semigroup_output(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--field", "q", "z^4", "z^6 - z")
    assert code == 0
    assert "generators: 4, 6, 7" in out
    assert "contains 1: no" in out
    assert "min positive: 4" in out


def test_richman_pass(capsys):
    code, out, _ = run_cli(capsys, "richman", "--field", "q", "z^2", "z^4 + z")
    assert code == 0
    assert "richman: PASS" in out


def test_richman_precondition_exit2(capsys):
    code, _, err = run_cli(capsys, "richman", "--field", "q", "z^4", "z^6 - z")
    assert code == 2
    assert "not in the degree semigroup" in err


def test_admissible_listing(capsys):
    code, out, _ = run_cli(capsys, "admissible", "--max-n", "30")
    assert code == 0
    lines = out.strip().splitlines()
    assert "(9; 6, 2)" in lines
    assert "(27; 18, 6, 2)" in lines


def test_admissible_target(capsys):
    code, out, _ = run_cli(
        capsys,
        "admissible",
        "--field",
        "q",
        "--target",
        "9,6,2",
        "z^9 + 6z^5 + 6z",
        "z^6 + 4z^2",
    )
    assert code == 0
    assert "realized: yes" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--field", "fp:4", "z^2", "z^^3"], "error: candidate polynomials f and g need --target"),
        (["z^2"], "error: candidate polynomials f and g need --target"),
        (["--field", "fp:4"], "error: 4 is not prime"),
        (["--max-n", "15", "--field", "r"], "error: unknown field"),
        (["--max-n", "-5"], f"error: --max-n must be at most {MAX_ADMISSIBLE_N} and at least 0"),
        (["--max-steps", "-1"], "error: --max-steps must be at least 0"),
    ],
)
def test_admissible_listing_refuses_inputs_it_would_ignore(capsys, argv, message):
    code, out, err = run_cli(capsys, "admissible", *argv)
    assert code == 2
    assert err.startswith(message) and not out


def test_admissible_max_n_is_capped(capsys):
    cap = MAX_ADMISSIBLE_N
    assert cap >= 99  # the largest --max-n the benchmark sends
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, "admissible", *extra, "--max-n", str(cap + 1))
        assert code == 2
        assert err.startswith(f"error: --max-n must be at most {cap}") and not out
    code, out, _ = run_cli(capsys, "admissible", "--max-n", str(cap))
    assert code == 0
    assert out.splitlines()[-1].startswith(f"({cap - 1};")  # the largest odd n <= cap
    assert run_cli(capsys, "admissible", "--max-n", "0") == (0, "", "")


@pytest.mark.parametrize("target", ["a,b", "9,x", "9,", "9", "٩,6", "9,²"])
def test_admissible_bad_target_exit2(capsys, target):
    code, out, err = run_cli(capsys, "admissible", "--target", target, "z^2", "z^3")
    assert code == 2
    assert err.startswith("error: --target must be") and not out


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--field", "q", "z^4", "z^6 - z")
    assert code == 0
    assert out.count("PASS") == 3
    code, out, _ = run_cli(capsys, "oracle", "--field", "fp:2", "z^4", "z^6 - z")
    assert code == 0
    assert "resultant == c * P^d_s (d_s = 1): PASS" in out.splitlines()


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_failed_check_reports_then_exits_3(monkeypatch, capsys, mode):
    # P + 1 in place of P: each check prints its verdict, then the request exits 3
    real = engine.run

    def wrong_relation(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, relation=result.relation + Laurent2.one(result.field))

    monkeypatch.setattr(engine, "run", wrong_relation)
    for argv, failure, verdicts, lines in [
        (
            ["verify", "--field", "q", "z^4", "z^6 - z"],
            "serialized relation does not vanish at (f, g)",
            {"substitution_zero": False},
            ["verify: FAIL"],
        ),
        (
            ["oracle", "--field", "fp:3", "z^2", "z^2"],
            "an oracle check failed",
            {"substitution_zero": False, "resultant_check": False, "minimality": True},
            ["substitution P(f,g) == 0: FAIL", "resultant == c * P^d_s (d_s = 2): FAIL"],
        ),
    ]:
        code, out, err = run_cli(capsys, *argv, *mode)
        assert code == 3
        assert err == f"internal invariant violation: {failure}\n"
        if mode:
            assert json.loads(out)["verdicts"] == verdicts
        else:
            assert set(lines) <= set(out.splitlines())


def test_oracle_degree_cap_exit2(capsys):
    code, _, err = run_cli(capsys, "oracle", "--field", "q", "z^30", "z^31")
    assert code == 2
    assert "cap" in err


# -- exit codes --------------------------------------------------------------------


def test_bad_polynomial_exit2(capsys):
    code, _, err = run_cli(capsys, "depend", "--field", "q", "z^^2", "z")
    assert code == 2
    assert "position" in err


def test_bad_field_exit2(capsys):
    code, _, err = run_cli(capsys, "depend", "--field", "fp:4", "z", "z")
    assert code == 2
    assert "prime" in err


def test_constant_input_exit2(capsys):
    code, _, err = run_cli(capsys, "depend", "--field", "q", "5", "z")
    assert code == 2


def test_coefficient_not_in_field_exit2(capsys):
    code, _, err = run_cli(capsys, "depend", "--field", "fp:2", "1/2*z", "z")
    assert code == 2


def test_internal_cap_exit3(capsys, monkeypatch):
    # the built-in cap is reached only by a bug, so it stays an internal error
    monkeypatch.setattr(engine, "reduction_cap", lambda n, m0: 1)
    code, _, err = run_cli(capsys, "depend", "--field", "q", "z^4", "z^6 - z")
    assert code == 3
    assert err.startswith("internal invariant violation: step 1 exceeded 1 reductions")


def test_max_steps_exhausted_exit2(capsys):
    for argv in (["z^4", "z^6 - z", "--max-steps", "1"], ["z^2", "z^3", "--max-steps", "0"]):
        code, out, err = run_cli(capsys, "depend", "--field", "q", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --max-steps {argv[-1]} exhausted: step ")
    code, out, err = run_cli(capsys, "depend", "--max-steps", "-1", "z^2", "z^3")
    assert (code, out, err) == (2, "", "error: --max-steps must be at least 0\n")
    with pytest.raises(IterationCapExceeded):
        engine.run(parse_polynomial("z^2", Q), parse_polynomial("z^3", Q), max_reductions=0)


def test_batch_mode(tmp_path, capsys):
    batch = tmp_path / "requests.txt"
    batch.write_text(
        "depend --field q z^2 z^3\n"
        "# a comment line\n"
        'ams --field q "z^2 + z" z\n'
    )
    code, out, _ = run_cli(capsys, "--batch", str(batch))
    assert code == 0
    assert "P = g^2 - f^3" in out
    assert "K[f,g] = K[z]: yes; divisibility: 1 | 2" in out
    assert out.index("P = g^2") < out.index("K[f,g]")


def test_batch_mode_propagates_worst_exit_code(tmp_path, capsys):
    batch = tmp_path / "requests.txt"
    batch.write_text("depend --field q z^2 z^3\ndepend --field q z^^2 z\n")
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 2
    assert "P = g^2 - f^3" in out  # the good line still ran


def test_batch_refuses_nested_batch(tmp_path, capsys):
    batch = tmp_path / "requests.txt"
    batch.write_text(f"--batch {batch}\ndepend --field q z^2 z^3\n")
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 2
    assert "--batch is not allowed inside a batch file" in err
    assert "P = g^2 - f^3" in out  # the next line still ran


def test_batch_unbalanced_quote_exit2(tmp_path, capsys):
    batch = tmp_path / "requests.txt"
    batch.write_text('depend "z^2 z^3\ndepend --field q z^2 z^3\n')
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 2
    assert err.startswith("error:")
    assert "P = g^2 - f^3" in out


def test_batch_line_longer_than_an_argument_exit2(tmp_path, capsys):
    # a line at the cap runs; one past it is refused before its
    # 200000-digit coefficient is parsed, and the next line still runs
    at_cap = "depend z^2" + " " * (MAX_BATCH_LINE - 13) + "z^3"
    assert len(at_cap) == MAX_BATCH_LINE
    batch = tmp_path / "requests.txt"
    batch.write_text(f"{at_cap}\ndepend z^2 {'7' * 200_000}*z^3\ndepend z^2 z^3\n")
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert out.count("P = g^2 - f^3") == 2
    assert "7" * 100 not in out  # the refused line is not echoed in full


@pytest.mark.parametrize("mode", [["--json"], []])
def test_ams_runs_engine_once(monkeypatch, capsys, mode):
    calls = []
    real = engine.run

    def counting(*args, **kwargs):
        calls.append(kwargs.get("max_reductions"))
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "run", counting)
    monkeypatch.setattr(semigroup, "run", counting, raising=False)
    code, _, _ = run_cli(capsys, "ams", *mode, "--max-steps", "50", "z^2 + z", "z")
    assert code == 0
    assert calls == [50]


def test_ams_char_p_refused_exit2(monkeypatch, capsys):
    monkeypatch.setattr(engine, "run", None)  # refused before the engine runs
    code, _, err = run_cli(capsys, "ams", "--field", "fp:2", "z^2", "z^3")
    assert code == 2
    assert "characteristic 0" in err


def test_batch_missing_file(capsys):
    code, _, err = run_cli(capsys, "--batch", "/nonexistent/requests.txt")
    assert code == 2


def test_batch_not_utf8_exit2(tmp_path, capsys):
    batch = tmp_path / "requests.txt"
    batch.write_bytes(b"depend z^2 z^3\n\xff\n")
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 2
    assert err.startswith("error:") and "not valid UTF-8" in err
    assert out == ""  # refused before any line runs


@pytest.mark.parametrize(
    "f",
    ["3" * 2200 + "*z^2 + z", "1" + "0" * 4300 + "*z^2 + 1"],
    ids=["relation-coefficient", "input-coefficient"],
)
def test_coefficients_past_the_int_str_digit_limit(capsys, f):
    # Python refuses int <-> str conversions beyond 4300 digits by default:
    # the first input has a relation coefficient of ~6600 digits, the second
    # is a 4301-digit input coefficient
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run_cli(capsys, "depend", f, "z^3")
    assert (code, err) == (0, "")
    relation = next(line for line in out.splitlines() if line.startswith("P = "))
    assert len(relation) > 4400
    code, out, err = run_cli(capsys, "verify", "--json", f, "z^3")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdicts"] == {"substitution_zero": True}
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit  # restored after each request


def test_parse_polynomial_past_the_int_str_digit_limit():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    poly = parse_polynomial("1" * 5000 + "*z", rationals())
    assert poly.coeffs == (0, 10**5000 // 9)  # 5000 ones
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_parse_polynomial_leaves_the_digit_limit_alone():
    # the limit is interpreter-wide: a thread polling it while a long
    # coefficient is parsed must only ever read the default
    default = sys.get_int_max_str_digits()
    seen = set()
    done = threading.Event()

    def poll():
        while not done.is_set():
            seen.add(sys.get_int_max_str_digits())

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        poly = parse_polynomial("7" * 200_000 + "*z", rationals())
    finally:
        done.set()
        poller.join(timeout=10)
    assert not poller.is_alive()
    assert seen == {default}
    assert poly.nums == (0, 7 * (10**200_000 - 1) // 9)


def test_depend_past_the_recursion_limit(capsys):
    # f^1200 comes by square-and-multiply and g^1199 from the g-part walk,
    # one product at a time; neither recurses
    for f, g, relation in [("z", "z^1200", "P = g - f^1200"), ("z^1200", "z", "P = g^1200 - f")]:
        code, out, err = run_cli(capsys, "depend", f, g)
        assert (code, err) == (0, "")
        assert relation in out.splitlines()


def test_depend_sparse_high_exponent(capsys):
    # one reduction event with f^20001, built without the powers below it
    code, out, err = run_cli(capsys, "depend", "z^2", "z^20001")
    assert (code, err) == (0, "")
    assert "P = g^2 - f^20001" in out.splitlines()


def test_depend_reports_swap(capsys):
    # p = 3 divides deg g = 3 but not deg f = 2, so roles are exchanged
    code, out, _ = run_cli(capsys, "depend", "--field", "fp:3", "z^2 + z", "z^3 + z")
    assert code == 0
    assert "swapped: yes" in out
    code, out, _ = run_cli(
        capsys, "depend", "--field", "fp:3", "z^2 + z", "z^3 + z", "--json"
    )
    assert json.loads(out)["swapped"] is True
