#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload <stats-adhoc|imdb-scan|aeolus-live|all> \
        --seed <n> --seconds <n> --trace <0|1>

The script builds perfbench/ (the workload runner plus the program's own
sources under src/) into .bench_build/, then runs the workload in a fresh
process with an empty scratch directory. With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it runs the workload
twice, untraced and traced, reports the per-layer metrics from the traced
process and prints the difference between the two as tracing overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; with
--workload all it maps each workload to such an object. Any build or run
failure exits non-zero without printing it.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
# Every run after the first build must end within 180 s; the runner
# processes of one invocation share this budget.
RUN_BUDGET_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))


def run_once(workload, seed, seconds, trace, deadline):
    """Runs the workload in a fresh process; returns (notes, result dict)."""
    runs = os.path.join(ROOT, ".bench_build", "runs")
    work_dir = os.path.join(runs, "%s-%d-trace%d-%d" %
                            (workload, seed, trace, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        done = subprocess.run(
            [RUNNER, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--work-dir", work_dir],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        if done.returncode != 0:
            raise RuntimeError("%s exited with %d" % (workload,
                                                      done.returncode))
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError("%s printed nothing" % workload)
        spans = os.path.join(work_dir, "spans.jsonl")
        if os.path.exists(spans):
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            kept = os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))
            shutil.move(spans, kept)
            lines.insert(-1, "spans written to " + os.path.relpath(kept, ROOT))
        return lines[:-1], json.loads(lines[-1])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def is_correct(result):
    # Every failure counts in "failed". Failures that match the two
    # documented defects (README.md) keep the run correct; any other
    # refusal, error or wrong answer makes it incorrect.
    return (result["attempted"] >= 1
            and result["refused"] == result["known_count_keyword"]
            and result["errors"] == 0
            and result["wrong"] == result["known_in_minus_two"])


def select(specs, values):
    metrics = {}
    for spec in specs:
        value = values.get(spec["name"])
        if value is None or not math.isfinite(value):
            raise RuntimeError("metric %s missing or not finite" %
                               spec["name"])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics


def measure(spec, workload, seed, seconds, trace):
    """One workload: returns (report lines, result object)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    notes, result = run_once(workload, seed, seconds, 0, deadline)
    correct = is_correct(result)
    if trace:
        untraced = result
        notes, result = run_once(workload, seed, seconds, 1, deadline)
        correct = correct and is_correct(result)
        for name in ("query_p50_ms", "query_p90_ms", "qps"):
            plain = untraced["end_to_end"][name]
            traced = result["end_to_end"][name]
            notes.append("tracing overhead %-13s untraced %10.4f traced "
                         "%10.4f (%+.2f%%)" %
                         (name, plain, traced, 100.0 * (traced / plain - 1)))
        result["layers"]["trace.overhead_share"] = (
            result["end_to_end"]["query_p50_ms"] /
            untraced["end_to_end"]["query_p50_ms"] - 1.0)
        metrics = select(spec["per_layer"], result["layers"])
    else:
        metrics = select(spec["end_to_end"], result["end_to_end"])

    lines = ["== %s (seed %d)" % (workload, seed)] + notes
    lines.append("failures: %d of %d requests (refused %d, of which `.count` "
                 "lexer defect %d; errors %d; wrong %d, of which IN (-2) "
                 "defect %d)" %
                 (result["failed"], result["attempted"], result["refused"],
                  result["known_count_keyword"], result["errors"],
                  result["wrong"], result["known_in_minus_two"]))
    for name, metric in metrics.items():
        lines.append("%-32s %16.6f %s" % (name, metric["value"],
                                          metric["unit"]))
    return lines, {"correct": correct, "attempted": result["attempted"],
                   "failed": result["failed"], "metrics": metrics}


def stop(signum, frame):
    # Unwinding through subprocess.run kills and reaps the running child.
    raise RuntimeError("stopped by signal %d" % signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        raise RuntimeError("unknown workload " + args.workload)
    build()

    results = {}
    for workload in workloads:
        lines, results[workload] = measure(spec, workload, args.seed,
                                           args.seconds, args.trace)
        print("\n".join(lines), flush=True)
    # One workload prints its result object; 'all' prints one per workload.
    final = results[workloads[0]] if len(workloads) == 1 else results
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log("perfbench: %s" % error)
        sys.exit(1)
