"""Compare the benchmark's end-to-end metrics between a parent commit and this checkout.

    python3 tools/bench_compare.py --parent HEAD~1 --pairs 10 --seeds 41 42 43 \\
        --out BENCH_8.json

Run it from anywhere inside a git checkout.  The parent ref's files are
exported with `git archive` into a temporary directory, removed again at
the end; the other side is this checkout's working tree, uncommitted
changes included.  For every workload of BENCHMARK.json, each pair runs
`bench/run.py --trace 0` once in each tree with the same seed (the seeds
are taken in turn) for the benchmark's `run_seconds`, and which side runs
first alternates from pair to pair, so that a drift of the host's speed
falls on both sides alike.
At least ten pairs are needed for the quartiles to mean anything.

The output file holds every run's result and, per workload and end-to-end
metric, each side's median and quartiles, the number of pairs the change
won (ties count for neither side), and whether the medians differ by more
than the distance between the parent's quartiles.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--pairs", type=int, default=10, help="parent/change pairs per workload")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    return args


def git(*args, cwd=ROOT):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(commit, dest):
    """The files of `commit`, written to `dest` by `git archive`."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.12 and in later 3.8-3.11 patch releases
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def bench_once(tree, workload, seed, seconds):
    """The result object that `bench/run.py` prints last, for one run in `tree`."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: item["value"] for name, item in result["metrics"].items()}
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, metrics):
    summary = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [run[side]["metrics"][name] for run in runs] for side in SIDES}
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
        )
        stats = {side: spread(values[side]) for side in SIDES}
        base = stats["parent"]["median"]
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gap = stats["change"]["median"] - base
        summary[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **stats,
            "change_over_parent": gap / base if base else None,
            "wins": wins,
            "pairs": len(runs),
            "medians_apart_beyond_parent_iqr": abs(gap) > parent_iqr,
        }
    return summary


def compare(args, trees, spec):
    seconds = spec["run_seconds"]
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                run[side] = bench_once(trees[side], workload, seed, seconds)
                print(f"bench_compare: {workload} pair {i} seed {seed} {side}: pass_s "
                      f"{run[side]['metrics']['pass_s']:.3f}", file=sys.stderr, flush=True)
            runs.append(run)
        report[workload] = {"runs": runs, "summary": summarize(runs, spec["end_to_end"])}
    return report


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    scratch = tempfile.mkdtemp(prefix="bench-compare-")
    parent_tree = os.path.join(scratch, "parent")
    try:
        export(parent_commit, parent_tree)
        report = compare(args, {"parent": parent_tree, "change": ROOT}, spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "parent": {"ref": args.parent, "commit": parent_commit},
        # a comparison holds only when both sides ran the same benchmark code
        "same_benchmark": not git("status", "--porcelain", "--", "bench", "BENCHMARK.json")
        and not git("diff", "--name-only", parent_commit, "--", "bench", "BENCHMARK.json"),
        "change": {
            "commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "seconds": spec["run_seconds"],
        "pairs": args.pairs,
        "seeds": args.seeds,
        "workloads": report,
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    for workload, item in report.items():
        for name, s in item["summary"].items():
            print(f"{workload:10} {name:13} parent {s['parent']['median']:.4g} "
                  f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}]  change "
                  f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, {s['change']['q3']:.4g}]"
                  f"  wins {s['wins']}/{s['pairs']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
