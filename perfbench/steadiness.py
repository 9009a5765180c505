#!/usr/bin/env python3
"""Two-set steadiness report for the benchmark.

Runs two interleaved sets of runs of one build over every workload of
BENCHMARK.json, each run with its own seed and run_seconds long, then
prints per workload and end-to-end metric each set's median and
quartiles, the spread (interquartile distance over the median), and
whether the sets agree within the metric's bound: both spreads within
the bound and the two medians within the bound of each other, in either
direction.

    python3 perfbench/steadiness.py --runs 10

Run from the repository root. Exits nonzero when any pair disagrees.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECOND_SET_SEED = 1001


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed (exit %d):\n%s" %
                         (workload, seed, proc.returncode, proc.stdout))
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    return wall, {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def report(spec, runs):
    ok = True
    print("%-12s %-10s %10s %10s %7s | %10s %10s %7s | %6s %6s %s" % (
        "workload", "metric", "A median", "A IQR", "spread", "B median", "B IQR", "spread",
        "delta", "bound", "verdict"))
    for workload, sets in runs.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            (ma, qa1, qa3, sa), (mb, qb1, qb3, sb) = [
                summarize([r[name] for r in s]) for s in sets]
            delta = (mb - ma) / ma
            agree = sa <= bound and sb <= bound and abs(delta) <= bound
            ok &= agree
            tight = max(sa, sb, abs(delta)) < bound / 3
            verdict = ("agree" if agree else "DISAGREE") + ("" if tight else " (> bound/3)")
            print("%-12s %-10s %10.4g %10.3g %6.1f%% | %10.4g %10.3g %6.1f%% | %+5.1f%% %5.0f%% %s"
                  % (workload, name, ma, qa3 - qa1, 100 * sa, mb, qb3 - qb1, 100 * sb,
                     100 * delta, 100 * bound, verdict))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: ([], []) for w in workloads}
    slowest = 0.0
    # Interleaved: run i of set A, then run i of set B, per workload, so
    # both sets sample the same stretches of host load.
    for i in range(args.runs):
        for workload in workloads:
            for index, base in enumerate((1, SECOND_SET_SEED)):
                wall, metrics = run_once(workload, base + i, spec["run_seconds"])
                slowest = max(slowest, wall)
                runs[workload][index].append(metrics)
                print("%s set %s seed %d: %s" % (workload, "AB"[index], base + i, metrics),
                      file=sys.stderr)
    print("runs per set: %d; slowest run %.1f s" % (args.runs, slowest))
    return 0 if report(spec, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
