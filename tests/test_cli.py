import json
import random
from fractions import Fraction

import pytest

from polydep import UniPoly, engine, prime_field, rationals, semigroup
from polydep.cli import main, parse_polynomial, relation_from_json
from polydep.errors import CoefficientNotInField, PolySyntaxError
from gen import random_poly

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


@pytest.mark.parametrize("target", ["a,b", "9,x", "9,", "9"])
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
    assert "P divides resultant: PASS" in out


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


def test_internal_cap_exit3(capsys):
    code, _, err = run_cli(
        capsys, "depend", "--field", "q", "z^4", "z^6 - z", "--max-steps", "1"
    )
    assert code == 3
    assert "invariant" in err or "cap" in err.lower() or "exceeded" in err


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


def test_depend_reports_swap(capsys):
    # p = 3 divides deg g = 3 but not deg f = 2, so roles are exchanged
    code, out, _ = run_cli(capsys, "depend", "--field", "fp:3", "z^2 + z", "z^3 + z")
    assert code == 0
    assert "swapped: yes" in out
    code, out, _ = run_cli(
        capsys, "depend", "--field", "fp:3", "z^2 + z", "z^3 + z", "--json"
    )
    assert json.loads(out)["swapped"] is True
