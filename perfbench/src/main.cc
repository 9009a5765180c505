// SFP benchmark driver.
//
//   sfp_perfbench --workload <serve_rules|churn>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints every measured metric with its unit and sample count, a
// host-speed stamp, and as its last line one JSON object holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits nonzero when any output check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"

namespace {

using perfbench::Report;

constexpr const char* kEndToEnd[] = {"pkt_ns_floor", "setup_s", "rss_mb"};

constexpr const char* kPerLayer[] = {
    "core.serve_self_ns",        "core.admit_self_us",
    "core.remove_self_us",       "switchsim.serve_ns",
    "switchsim.call_us",         "switchsim.passes_per_pkt",
    "switchsim.drop_pct",        "switchsim.sim_latency",
    "compiler.warm_us",          "compiler.recompiles_per_cycle",
    "compiler.restale_us",       "compiler.fallback_tenants",
    "dataplane.alloc_us",        "dataplane.dealloc_us",
    "dataplane.telemetry_ns",    "dataplane.entries",
    "dataplane.passes_per_tenant", "controlplane.model_ms",
    "controlplane.round_us",     "controlplane.round_ok_pct",
    "controlplane.lp_solves",    "controlplane.roundings",
    "controlplane.stripped",     "controlplane.boot_objective",
    "lp.root_ms",                "lp.root_pivots",
    "lp.pivot_us",               "lp.bb_node_ms",
    "lp.bb_pivots_per_node",     "lp.bb_refactor_per_node",
    "lp.bb_nodes_per_s",         "trace.overhead_pct",
    "trace.neg_self_pct",        "trace.op_self_pct",
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: sfp_perfbench --workload <serve_rules|churn> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               message);
  return 2;
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string trace_dir = ".bench_build/traces";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  using RunFn = void (*)(const perfbench::RunOptions&, Report&, perfbench::Tracer&);
  RunFn run = nullptr;
  if (options.workload == "serve_rules") run = perfbench::RunServeRules;
  if (options.workload == "churn") run = perfbench::RunChurn;
  if (run == nullptr) return Usage(("unknown workload " + options.workload).c_str());

  std::printf("workload %s seed %llu seconds %g trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const auto host_before = perfbench::MeasureHostSpeed();
  Report report;
  perfbench::Tracer tracer(options.trace);
  run(options, report, tracer);
  const auto host_after = perfbench::MeasureHostSpeed();

  std::printf("%-32s %16s %-8s %10s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, metric] : report.metrics()) {
    std::printf("%-32s %16.6g %-8s %10lld\n", name.c_str(), metric.value, metric.unit.c_str(),
                static_cast<long long>(metric.samples));
  }
  std::printf("ops attempted %lld, failed %lld (%.3g%%)\n",
              static_cast<long long>(report.attempted()), static_cast<long long>(report.failed()),
              perfbench::FailureSharePct(report.attempted(), report.failed()));
  std::printf(
      "host: nproc %u, build %s, spin ms p10/p50 before %.4f/%.4f after %.4f/%.4f "
      "(reported only)\n",
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, host_before.p10_ms,
      host_before.p50_ms, host_after.p10_ms, host_after.p50_ms);
  if (tracer.enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    const std::string path = trace_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".tsv";
    if (tracer.Write(path)) {
      std::printf("wrote %zu spans to %s\n", tracer.spans().size(), path.c_str());
    } else {
      std::printf("warning: cannot write %s\n", path.c_str());
    }
  }

  bool correct = report.errors().empty();
  for (const auto& error : report.errors()) std::printf("CHECK FAILED: %s\n", error.c_str());
  std::string json = "{";
  bool first = true;
  auto emit = [&](const char* name) {
    const auto it = report.metrics().find(name);
    if (it == report.metrics().end() || !std::isfinite(it->second.value)) {
      std::printf("CHECK FAILED: metric %s was not measured\n", name);
      correct = false;
      return;
    }
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
            JsonNumber(it->second.value) + ", \"unit\": \"" + it->second.unit + "\"}";
    first = false;
  };
  if (options.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(report.attempted()),
              static_cast<long long>(report.failed()), json.c_str());
  return correct ? 0 : 1;
}
