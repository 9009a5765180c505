#!/usr/bin/env python3
"""Builds the SFP benchmark from source and runs its workloads.

Run from the repository root:

    python3 perfbench/run.py --workload serve_rules --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the
program's libraries from src/) into $CARGO_TARGET_DIR, or .bench_build
when unset; later calls only rebuild what changed. The benchmark's
output is passed through. Its last line is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1),
checked here against the metric names in BENCHMARK.json. Exits nonzero,
without a result line, when the build fails or the output is not valid.
`--workload all` runs every workload of BENCHMARK.json in turn, each in
its own process, and exits nonzero if any of them fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "sfp_perfbench", "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr so the result stays the last
        # line of stdout.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def load_spec():
    """BENCHMARK.json, or None if it is absent."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def expected_names(trace):
    """Metric names BENCHMARK.json asks for, or None if it is absent."""
    spec = load_spec()
    if spec is None:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    names = expected_names(trace)
    if names is not None and set(result["metrics"]) != names:
        return "metric names differ from BENCHMARK.json: %s" % sorted(
            set(result["metrics"]) ^ names)
    return None


def run(build_dir, workload, args):
    """Runs one workload; passes a valid result through."""
    binary = os.path.join(build_dir, "sfp_perfbench")
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--trace-dir", os.path.join(build_dir, "traces")],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    error = valid_result(lines[-1], args.trace == 1) if lines else "no output"
    if error is not None:
        # Keep the benchmark's output for diagnosis, but never let a
        # result line through when it is invalid.
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("error: %s" % error, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode



def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("error: benchmark build failed", file=sys.stderr)
        return 1
    if args.workload != "all":
        return run(build_dir, args.workload, args)
    spec = load_spec()
    if spec is None:
        print("error: --workload all needs BENCHMARK.json", file=sys.stderr)
        return 1
    codes = [run(build_dir, w["name"], args) for w in spec["workloads"]]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
