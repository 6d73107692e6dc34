"""Benchmark of polydep: one workload per invocation, one JSON line of results.

    python3 bench/run.py --workload engine_q --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; polydep is imported from ./src.
The load is a closed loop with one caller: every operation starts after the
previous one ends.  Each round runs every operation of the workload once,
in a fixed order.  A run makes `--seconds` divided by the workload's
nominal round time rounds (at least one), so the number of samples does
not depend on how fast the machine happens to be.  With `--trace 1` the
run makes exactly one round with spans around polydep's layers and reports
per-layer metrics instead of end-to-end ones.
"""

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
HASH_SEED = "0"
SETUP_STARTS = 4  # fresh interpreters before and again after the timed rounds
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
SAFE_SECONDS = 120  # start no round that would end later than this

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "largest_s": "s",
    "peak_rss_mib": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def import_polydep():
    """polydep from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import polydep

    if not os.path.abspath(polydep.__file__).startswith(SRC + os.sep):
        raise ImportError(f"polydep imported from {polydep.__file__}, not {SRC}")
    return polydep


def tail_percentile(samples_per_run):
    """Highest whole percentile with TAIL_BEYOND samples beyond it."""
    return math.floor(100 * (1 - TAIL_BEYOND / samples_per_run))


def measure_setup(args):
    """Wall times from starting fresh interpreters to ready, one per start."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != b"ready" or code:
            raise RuntimeError(f"set-up probe failed with exit {code}")
        times.append(elapsed)
    return times


def run_rounds(ops, rounds, tracer=None):
    """Timed closed loop: samples per op, first summaries, mismatches, failures."""
    samples = {op.name: [] for op in ops}
    first, mismatched, failures = {}, set(), []
    begin = time.perf_counter()
    for done in range(1, rounds + 1):
        for op in ops:
            if tracer:
                tracer.op = op.name
            gc.collect()
            start = time.perf_counter()
            try:
                output = op.call()
            except Exception as exc:  # counted as a failed operation
                samples[op.name].append(time.perf_counter() - start)
                failures.append((op.name, f"{type(exc).__name__}: {exc}"))
                continue
            samples[op.name].append(time.perf_counter() - start)
            summary = op.summarize(output)
            del output
            if op.name not in first:
                first[op.name] = summary
            elif summary[0] != first[op.name][0]:
                mismatched.add(op.name)
        if (time.perf_counter() - begin) * (done + 1) / done > SAFE_SECONDS:
            break
    return samples, first, mismatched, failures


def end_to_end(samples, largest, setup_s, peak_rss_mib, percentile):
    everything = [t for values in samples.values() for t in values]
    cuts = statistics.quantiles(everything, n=100, method="inclusive")
    values = {
        "setup_s": setup_s,
        "pass_s": sum(statistics.median(v) for v in samples.values()),
        "op_p50_s": statistics.median(everything),
        "op_tail_s": cuts[percentile - 1],
        "largest_s": statistics.median(samples[largest]),
        "peak_rss_mib": peak_rss_mib,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv=None):
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    if not os.path.isfile(os.path.join(SRC, "polydep", "__init__.py")):
        return fail(f"no polydep sources under {SRC}; run from a source checkout")
    try:
        import_polydep()
    except ImportError as exc:
        return fail(str(exc))

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        workload.build(args.seed, OUT)
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else measure_setup(args)
    ops = workload.build(args.seed, OUT)
    gc.collect()
    gc.freeze()  # the inputs live for the whole run; keep them out of each collection
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    rounds = 1 if tracer else max(1, int(args.seconds // workload.round_seconds))
    begin = time.perf_counter()
    samples, first, mismatched, failures = run_rounds(ops, rounds, tracer)
    wall = time.perf_counter() - begin
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    else:
        setup_times += measure_setup(args)

    rng = random.Random(f"polydep-bench/checks/{args.workload}/{args.seed}")
    errors = [f"{name}: output differs between rounds" for name in sorted(mismatched)]
    expected_failures = {op.name for op in ops if op.expect_failure}
    for name, message in failures:
        if name not in expected_failures:
            print(f"bench: {name} failed: {message}", file=sys.stderr)
    outputs = {name: summary[0] for name, summary in first.items()}
    for op in ops:
        if op.name in first:
            try:
                errors += op.check(*first[op.name], outputs, rng)
            except Exception as exc:  # an output the checks cannot read is wrong
                errors.append(f"{op.name}: unreadable output ({type(exc).__name__}: {exc})")
    for message in errors:
        print(f"bench: check failed: {message}", file=sys.stderr)

    if tracer:
        metrics = tracer.metrics()
        path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv")
        tracer.write(path)
        totals, _ = tracer.self_times()
        print(f"bench: traced round {wall:.3f} s, {len(tracer.spans)} spans "
              f"({totals['bench.hook']:.3f} s in operand statistics) -> {path}",
              file=sys.stderr)
    else:
        largest = workload.largest
        rounds = len(samples[largest])
        percentile = tail_percentile(len(ops) * rounds)
        setup_s = statistics.median(setup_times)
        metrics = end_to_end(samples, largest, setup_s, peak_rss_mib, percentile)
        per_round = [sum(v[i] for v in samples.values() if i < len(v)) for i in range(rounds)]
        print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} "
              f"operations in {wall:.3f} s; op_tail_s is p{percentile}; rounds took "
              + ", ".join(f"{t:.3f}" for t in per_round) + " s", file=sys.stderr)
        for name, item in metrics.items():
            print(f"bench:   {name} = {item['value']:.6g} {item['unit']}", file=sys.stderr)
    attempted = sum(len(v) for v in samples.values())
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
