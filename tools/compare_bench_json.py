#!/usr/bin/env python3
"""Compare candidate BENCH_*.json files against checked-in baselines.

CI's bench-regression gate: after the bench smoke run, the candidate
JSON (sfp.bench.v1, see docs/METRICS.md) is diffed against the
baselines in bench/baseline/. The gate fails on

  * schema drift — a bench file, table, column, counter or histogram
    that appears on one side only, or a table whose row count changed
    (tables are structurally deterministic: row counts come from fixed
    loops, only cell values vary by machine);
  * metric regressions — gated counters (GATES below) moving outside
    their allowed envelope. Only counters whose values are
    deterministic or machine-bounded ratios are gated; raw wall-clock
    rates (Mpps table cells, ns histograms) are machine-dependent and
    deliberately not compared.

Each GATES entry maps a counter-name regex to a rule:
  exact      — candidate must equal the baseline;
  tolerance  — |candidate - baseline| <= tolerance * max(baseline, 1);
  abs_max    — candidate must not exceed this value, regardless of the
               baseline (used for scaled-integer ratios such as
               serve.flatness_pct, whose ceiling of 200 encodes the
               "per-packet cost stays within 2x from 10 to 1000
               tenants" acceptance bar);
  abs_min    — candidate must not fall below this value, regardless of
               the baseline (used for acceptance floors such as
               system.throughput.compiled_vs_interpreted_x1_pct, whose
               floor of 500 encodes "compiled serving is at least 5x
               the interpreter single-threaded").
Ungated counters are checked for presence only. The first matching
pattern wins; counters may match no pattern.

Regenerate baselines (from the repo root, Release build):
  SFP_BENCH_SEEDS=1 SFP_BENCH_JSON_DIR=bench/baseline \
      ./build/bench/fig04_throughput   # and fig05_latency,
                                       # ext1_latency_under_load,
                                       # ext2_system_throughput,
                                       # fig06_num_sfcs,
                                       # fig07_recirculation,
                                       # fig08_solver_time, fig09_early_stop,
                                       # fig10_algorithms (solver benches:
                                       # also set SFP_BENCH_IP_CAP=5),
                                       # fig11_runtime_update,
                                       # ext3_admission_churn, scn_*

Usage:
  tools/compare_bench_json.py --baseline bench/baseline --candidate bench-out
Exits nonzero and prints one line per problem if the gate fails.
"""
import argparse
import json
import os
import re
import sys

SCHEMA = "sfp.bench.v1"

DEFAULT_TOLERANCE = 0.15

# (counter-name regex, rule). First match wins; see module docstring.
GATES = [
    # The batched serve path must reproduce the scalar path exactly.
    (r"batch\.verified_identical$", {"exact": True}),
    # Lookup-index flatness ratio (percent). 100 = flat; 200 is the
    # "within 2x" acceptance ceiling. Timing-derived, so it gets a wide
    # relative band on top of the hard ceiling.
    (r"serve\.flatness_pct$", {"abs_max": 200, "tolerance": 0.60}),
    # Packet accounting is fully deterministic for the fixed workloads.
    (r"pipeline\.(packets|batches|recirculations)$", {"exact": True}),
    (r"pipeline\.drops", {"exact": True}),
    (r"pipeline\.stage\d+\.\w+\.(hits|misses|default_hits)$", {"exact": True}),
    # ext3 churn bench (Ext.3, exact admission ledger). Admit latencies
    # are raw wall-clock nanoseconds — presence-only, never compared.
    (r"system\.admit\.latency\.", {}),
    # Workload shape is a pure function of the seed, and the ledger's
    # decisions are integer arithmetic over that trace.
    (r"churn\.(boxes\.target|population|admitted|rejected|"
     r"diff\.(traces|decisions|rejects))$", {"exact": True}),
    # The ledger and the from-scratch closed form must never disagree
    # on the differential shard, whatever the baseline says.
    (r"churn\.diff\.mismatches$", {"abs_max": 0}),
    # p99 admit latency at the top population over p99 at the bottom,
    # x100. ~100 = flat scaling; 300 is a generous "p99 grows at most
    # 3x across the 8x population sweep" ceiling on a noisy runner.
    (r"churn\.p99_scaling_ratio_x100$", {"abs_max": 300}),
    (r"system\.(tenants|admit\.)", {"exact": True}),
    # ext2: fixed packet count, and compiled-vs-interpreted telemetry
    # must stay bit-identical.
    (r"system\.throughput\.(packets|verified_identical)$", {"exact": True}),
    # Compiled-plan speedup floor (percent, median of five per-trial
    # ratios of thread CPU time at 1 thread, the modes alternating):
    # 500 = the "compiled serving >= 5x the interpreter" acceptance bar.
    # A floor rather than a band — the upside is machine-dependent.
    (r"system\.throughput\.compiled_vs_interpreted_x1_pct$", {"abs_min": 500}),
    # The 1->8 thread scaling ratio is machine-dependent (the CI runner
    # may have a single hardware thread), so it is presence-only.
    # Compiler pass statistics are pure functions of the admitted
    # chains: plan counts, fusion and elimination tallies must
    # reproduce exactly (docs/METRICS.md compiler.* rows). So is the
    # interpreted-packet count: ext2 warms every plan before serving
    # and mutates no rule while it serves, so it stays 0 at 4 threads.
    (r"compiler\.(plans_compiled|recompiles|invalidations|fallback_tenants|"
     r"fused_stages|dead_tables_eliminated|folded_tables|interpreted_packets|"
     r"slots\.(linear|interval))$",
     {"exact": True}),
    (r"telemetry\.", {"exact": True}),
    # Pass-packing telemetry (DESIGN.md "Intra-chain NF parallelism"):
    # pass counts and merge-reject tallies are pure functions of the
    # admitted chains and the conflict analysis — byte-reproducible.
    (r"pipeline\.passes\.", {"exact": True}),
    # fig07b acceptance floors (integer percent, deterministic for the
    # fixed seeds): packing must save >= 30% of the passes on mixed
    # 6-NF chains and strictly lower the virtual p99.
    (r"parallelism\.passes_saved_pct_l6$", {"abs_min": 30}),
    (r"parallelism\.p99_saved_pct_l6$", {"abs_min": 1}),
    (r"parallelism\.passes_saved_pct$", {"exact": True}),
    # Cross-tenant co-scheduling (DESIGN.md "Cross-tenant pass
    # sharing"): the fig07c population is fully deterministic (no RNG,
    # fixed admission order), so aggregate pass counts are exact; the
    # saved-% floor of 20 is the tentpole acceptance bar.
    (r"parallelism\.xt\.passes_saved_pct$", {"abs_min": 20, "exact": True}),
    (r"parallelism\.xt\.", {"exact": True}),
    # Branch & bound calibration (fig08's uncapped deterministic solve):
    # node/pivot counts are deterministic on one binary but drift a few
    # percent across the compiler matrix (fp-contract changes LP pivot
    # sequences, which shifts branching decisions), so they get a band
    # rather than an exact match.
    (r"solver\.(nodes|pivots|refactorizations)$", {"tolerance": 0.25}),
    # The calibration objectives (milli-units) must agree across the
    # deterministic and parallel tree searches to LP tolerance.
    (r"solver\.(det|par)\.objective_milli$", {"tolerance": 0.001}),
    # Dropped nodes weaken the dual bound; the calibration solve must
    # never drop any.
    (r"solver\.nodes_dropped$", {"abs_max": 0}),
    # fig06 / fig11 table cells (SFP-Appro placements, x10 for the
    # one-decimal columns). Seed-determined on one binary, but the LP
    # vertex the rounding starts from can move across the compiler
    # matrix. Changing only the rounding seed moved fig06 cells by up to
    # 4% and fig11's updated throughput by up to 10%, so each family
    # gets a band of about twice that.
    (r"consolidation\.l\d+\.", {"tolerance": 0.10}),
    (r"update\.drop\d+\.", {"tolerance": 0.20}),
    # Scenario benches (scn_*): conservation must never be violated and
    # no recovery episode may be left open after the drain, whatever
    # the baseline says.
    (r"scenario\.conservation_violations$", {"abs_max": 0}),
    (r"scenario\.open_episodes$", {"abs_max": 0}),
    # Recovery-time percentiles (simulated microseconds). Sim-time
    # deltas are integer-exact on one binary, but a boundary-case
    # admission flip under a different compiler's fp contraction can
    # legitimately shift an episode — hence a band, plus a hard ceiling
    # (60 s covers a full max-backoff episode chain at the widest
    # builtin poll cadence with margin).
    (r"scenario\.recovery\.(p50|p99|max)_us$",
     {"tolerance": 0.25, "abs_max": 60_000_000}),
    # Flash-crowd admit-horizon sweep (deterministic population, no
    # RNG): co-scheduling must admit at least 15% further before the
    # recirculation port overloads. Listed before the generic
    # scenario.* rule so the floor applies (first match wins).
    (r"scenario\.xt\.admit_horizon_gain_pct$", {"abs_min": 15, "exact": True}),
    # Everything else the scenario runner and recovery loop export is a
    # pure function of the scenario seed (serve_threads=1): packet and
    # episode accounting must reproduce exactly.
    (r"scenario\.", {"exact": True}),
    (r"system\.recover\.", {"exact": True}),
]


def find_rule(name):
    for pattern, rule in GATES:
        if re.match(pattern, name):
            return pattern, rule
    return None, None


def load(path, errors):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        errors.append(f"{path}: cannot parse: {error}")
        return None
    if doc.get("schema") != SCHEMA:
        errors.append(f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
        return None
    return doc


def diff_sets(errors, where, kind, base, cand):
    for name in sorted(base - cand):
        errors.append(f"{where}: {kind} {name!r} missing from candidate (schema drift)")
    for name in sorted(cand - base):
        errors.append(f"{where}: {kind} {name!r} not in baseline (schema drift — "
                      f"regenerate bench/baseline/)")


def compare_structure(errors, name, base, cand):
    base_tables, cand_tables = base.get("tables", {}), cand.get("tables", {})
    diff_sets(errors, name, "table", set(base_tables), set(cand_tables))
    for table_id in sorted(set(base_tables) & set(cand_tables)):
        bt, ct = base_tables[table_id], cand_tables[table_id]
        where = f"{name}: tables[{table_id!r}]"
        if bt.get("columns") != ct.get("columns"):
            errors.append(f"{where}: columns changed (schema drift): "
                          f"{bt.get('columns')} -> {ct.get('columns')}")
        base_rows = len(bt.get("rows", []))
        cand_rows = len(ct.get("rows", []))
        if base_rows != cand_rows:
            errors.append(f"{where}: row count changed {base_rows} -> {cand_rows}")
    base_hists = set(base.get("metrics", {}).get("histograms", {}))
    cand_hists = set(cand.get("metrics", {}).get("histograms", {}))
    diff_sets(errors, name, "histogram", base_hists, cand_hists)


def compare_counters(errors, name, base, cand):
    base_counters = base.get("metrics", {}).get("counters", {})
    cand_counters = cand.get("metrics", {}).get("counters", {})
    diff_sets(errors, name, "counter", set(base_counters), set(cand_counters))
    # A gated baseline counter that the candidate dropped entirely must
    # fail as an unevaluated gate, not just as generic schema drift:
    # the diff_sets message alone reads as cosmetic, and the loop below
    # only sees the intersection, so without this the rule would be
    # silently skipped.
    for counter in sorted(set(base_counters) - set(cand_counters)):
        pattern, rule = find_rule(counter)
        if rule is not None:
            errors.append(f"{name}: {counter}: gated counter missing from "
                          f"candidate; gate {pattern} not evaluated")
    gated = 0
    for counter in sorted(set(base_counters) & set(cand_counters)):
        pattern, rule = find_rule(counter)
        if rule is None:
            continue
        gated += 1
        expected, actual = base_counters[counter], cand_counters[counter]
        where = f"{name}: {counter}"
        # A rule may combine several sub-rules (e.g. a hard ceiling plus
        # a relative band): evaluate every one and report every
        # violation, so a single CI run shows the full picture instead
        # of stopping at the first failing sub-rule.
        if rule.get("exact") and actual != expected:
            errors.append(f"{where}: {actual} != baseline {expected} (gate {pattern})")
        abs_max = rule.get("abs_max")
        if abs_max is not None and actual > abs_max:
            errors.append(f"{where}: {actual} exceeds hard ceiling {abs_max} "
                          f"(gate {pattern})")
        abs_min = rule.get("abs_min")
        if abs_min is not None and actual < abs_min:
            errors.append(f"{where}: {actual} below hard floor {abs_min} "
                          f"(gate {pattern})")
        tolerance = rule.get("tolerance")
        if tolerance is not None:
            allowed = tolerance * max(expected, 1)
            if abs(actual - expected) > allowed:
                errors.append(
                    f"{where}: {actual} outside +/-{tolerance * 100:.0f}% of "
                    f"baseline {expected} (gate {pattern})")
    return gated


def bench_files(directory):
    try:
        names = os.listdir(directory)
    except OSError as error:
        raise SystemExit(f"cannot list {directory}: {error}")
    return {n for n in names if n.startswith("BENCH_") and n.endswith(".json")}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="directory of baseline JSON")
    parser.add_argument("--candidate", required=True, help="directory of candidate JSON")
    args = parser.parse_args(argv[1:])

    errors = []
    base_files = bench_files(args.baseline)
    cand_files = bench_files(args.candidate)
    if not base_files:
        errors.append(f"{args.baseline}: no BENCH_*.json baselines found")
    diff_sets(errors, "gate", "bench file", base_files, cand_files)

    for filename in sorted(base_files & cand_files):
        before = len(errors)
        base = load(os.path.join(args.baseline, filename), errors)
        cand = load(os.path.join(args.candidate, filename), errors)
        gated = 0
        if base is not None and cand is not None:
            compare_structure(errors, filename, base, cand)
            gated = compare_counters(errors, filename, base, cand)
        status = "FAIL" if len(errors) > before else "ok"
        print(f"{status}: {filename} ({gated} gated counters)")

    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
