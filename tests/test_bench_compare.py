import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def runs(parent, change):
    return [
        {"parent": {"metrics": {"t": p}}, "change": {"metrics": {"t": c}}}
        for p, c in zip(parent, change)
    ]


def test_summary_counts_wins_without_ties_and_compares_medians_with_the_parent_iqr():
    metrics = [{"name": "t", "unit": "s", "better": "lower"}]
    s = bench_compare.summarize(runs([4, 5, 6, 7, 8], [1, 2, 6, 3, 9]), metrics)["t"]
    assert s["wins"] == 3 and s["pairs"] == 5  # the tie at 6 counts for neither side
    assert s["parent"] == {"median": 6, "q1": 5, "q3": 7}
    assert s["change"]["median"] == 3
    assert s["medians_apart_beyond_parent_iqr"]  # |3 - 6| > 7 - 5
    assert s["change_over_parent"] == -0.5
    higher = [{"name": "t", "unit": "ops", "better": "higher"}]
    s = bench_compare.summarize(runs([4, 5, 6, 7, 8], [5, 4, 6, 8, 7]), higher)["t"]
    assert s["wins"] == 2 and not s["medians_apart_beyond_parent_iqr"]


def test_at_least_ten_pairs_and_no_run_length_of_its_own():
    base = ["--parent", "HEAD", "--seeds", "1", "--out", "x.json"]
    assert bench_compare.parse_args(base).pairs == 10
    for extra in (["--pairs", "9"], ["--seconds", "5"], ["--workloads", "oracle"]):
        with pytest.raises(SystemExit):
            bench_compare.parse_args(base + extra)
