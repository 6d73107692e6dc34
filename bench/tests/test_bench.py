"""Tests of the benchmark itself: inputs, independent checks, metric names.

    python3 -m pytest bench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GENERATORS = {"engine_q": inputs.engine_q, "oracle": inputs.oracle}


def _shape(pairs):
    """Names, fields and degrees; only the monomial pairs draw their degrees."""
    return [(p.name, p.field) + (() if p.monomial else (len(p.f), len(p.g))) for p in pairs]


def test_same_seed_same_inputs():
    for make in GENERATORS.values():
        assert make(7) == make(7)
        assert make(7) != make(8)
        assert _shape(make(7)) == _shape(make(8))
    first, again = workloads.cli_requests(7), workloads.cli_requests(7)
    assert [(r.name, r.argv, r.code) for r in first] == [(r.name, r.argv, r.code) for r in again]
    assert len(first) == len(workloads.cli_requests(8))


def test_named_inputs_have_their_structure():
    for pair in inputs.engine_q(3) + inputs.oracle(3):
        n, m = len(pair.f) - 1, len(pair.g) - 1
        assert n % pair.w_degree == 0 and m % pair.w_degree == 0
        if pair.field == "q" and pair.name.startswith("q-ladder"):
            assert n + m <= 35
        if pair.field == "q" and "ladder" in pair.name:
            assert (pair.f[-1], pair.g[-1]) == inputs.LEAD_Q
    names = {p.name for p in inputs.engine_q(3)}
    assert inputs.ENGINE_LARGEST in names
    assert inputs.ORACLE_LARGEST in {p.name for p in inputs.oracle(3)}


def _cusp(field):
    """f = z^2, g = z^3 and its relation g^2 - f^3."""
    p = inputs.characteristic(field)
    pair = inputs.Pair("cusp", field, (0, 0, 1), (0, 0, 0, 1), monomial=True)
    return pair, {(0, 2): 1, (3, 0): -1 % p if p else -1}


def test_evaluator_accepts_a_true_relation_and_rejects_a_wrong_one():
    rng = random.Random(1)
    for field in ("q", "fp:2", "fp:10007", f"fp:{inputs.P31}"):
        pair, terms = _cusp(field)
        p = inputs.characteristic(field)
        assert checks.vanishes(terms, pair.f, pair.g, p, rng)
        assert checks.relation_errors(pair, terms, pair.f, pair.g, False, 1, rng) == []
        wrong = dict(terms)
        wrong[(1, 0)] = 1
        assert not checks.vanishes(wrong, pair.f, pair.g, p, rng)
        assert checks.relation_errors(pair, wrong, pair.f, pair.g, False, 1, rng)


def test_evaluator_rejects_perturbed_engine_relations():
    from polydep import UniPoly, parse_field, run as polydep_run

    rng = random.Random(2)
    oracle_fp = [p for p in inputs.oracle(5) if p.field != "q" and len(p.f) + len(p.g) < 25]
    for pair in oracle_fp + inputs.engine_q(5)[:4]:
        field = parse_field(pair.field)
        result = polydep_run(UniPoly.make(field, pair.f), UniPoly.make(field, pair.g))
        terms = dict(result.relation.terms)
        args = (result.f.coeffs, result.g.coeffs, result.swapped, result.d_final, rng)
        assert checks.relation_errors(pair, terms, *args) == []
        key = min(terms)
        terms[key] = terms[key] + 1 if field.p is None else (terms[key] + 1) % field.p
        if not terms[key]:
            del terms[key]
        assert any("not zero" in e for e in checks.relation_errors(pair, terms, *args))


def test_degree_and_shape_checks():
    rng = random.Random(3)
    pair, terms = _cusp("q")
    scaled = {k: 2 * c for k, c in terms.items()}
    assert any("monic" in e for e in checks.relation_errors(pair, scaled, pair.f, pair.g,
                                                            False, 1, rng))
    assert any("deg_f P" in e for e in checks.relation_errors(pair, terms, pair.f, pair.g,
                                                              False, 2, rng))
    composed = inputs.Pair("c", "q", pair.f, pair.g, w_degree=2)
    assert any("multiple" in e for e in checks.relation_errors(composed, terms, pair.f, pair.g,
                                                               False, 1, rng))


def test_relation_text_parser():
    text = "g^4 - 2*f^3*g^2 - 4*f^2*g + 1/2*f^6 - f - 3"
    assert checks.parse_relation_text(text, 0) == {
        (0, 4): 1, (3, 2): -2, (2, 1): -4, (6, 0): Fraction(1, 2), (1, 0): -1, (0, 0): -3,
    }
    assert checks.parse_relation_text("-g + f", 7) == {(0, 1): 6, (1, 0): 1}


def test_miller_rabin():
    assert [n for n in range(60) if checks.is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert checks.is_prime(inputs.P40) and checks.is_prime(2**61 - 1)
    assert not checks.is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    samples = {"a": [0.1, 0.2, 0.3] * 5, "b": [1.0, 1.1, 1.2] * 5}
    printed = run.end_to_end(samples, "b", 0.5, 20.0, run.tail_percentile(30))
    assert list(printed) == list(run.END_TO_END)


def test_traced_counts_repeat_and_name_every_layer():
    import polydep
    from polydep import UniPoly, parse_field

    original = polydep.run
    pair = inputs.engine_q(4)[0]
    field = parse_field(pair.field)
    f, g = UniPoly.make(field, pair.f), UniPoly.make(field, pair.g)
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            polydep.run(f, g)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        assert list(metrics) == list(spans.PER_LAYER)
        assert metrics["engine.run.s"]["value"] > 0
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["engine.events"] > 0 and counts[0]["unipoly.mul.calls"] > 0
    assert counts[0]["unipoly.divrem.calls"] == 0
    assert polydep.run is original and polydep.semigroup.run is original


def test_negative_chain_pair_makes_fimage_divide():
    import polydep
    from polydep import UniPoly, parse_field

    pair = inputs.NEGATIVE_CHAIN
    assert pair in inputs.oracle(1)
    field = parse_field(pair.field)
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = polydep.run(UniPoly.make(field, pair.f), UniPoly.make(field, pair.g))
    finally:
        tracer.uninstall()
    assert min(result.m_sequence) < 0
    assert tracer.metrics()["unipoly.divrem.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "engine_q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
