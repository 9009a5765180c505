// sfpctl — command-line utility around the SFP library.
//
//   sfpctl gen   --sfcs N [--types I] [--seed S] [--len-min A --len-max B]
//                [--out FILE]            synthesize a placement instance
//   sfpctl place --in FILE --algo ip|appro|greedy
//                [--passes P] [--time-limit SEC] [--no-consolidation]
//                                         solve and print the placement
//   sfpctl p4    --layout fw,tc/lb,rt     emit P4 for a physical layout
//   sfpctl trace --replay FILE [--threads N] [--batch B]
//                [--planner sequential|packed|co-scheduled]
//                [--tenants N] [--seed S]
//                                         replay an SFPT trace; batch > 1
//                                         or threads > 0 selects the
//                                         batched serve path with fused
//                                         telemetry; --tenants admits N
//                                         generated chains first and
//                                         prints the per-tenant pass map
//                                         (co-scheduled adds the shared
//                                         stage-window occupancy)
//   sfpctl scenario list                  list the builtin scenarios
//   sfpctl scenario run NAME [--duration SEC] [--threads N] [--compiled 1]
//                [--planner sequential|packed|co-scheduled]
//                                         run a scenario with its
//                                         recovery loop and print the
//                                         summary (docs/SCENARIOS.md)
//   sfpctl churn --tenants N [--arrivals A] [--seed S]
//                                         replay a Pareto-lifetime
//                                         admission churn trace through
//                                         the exact admission ledger
//                                         (the ext3 bench's generator)
//                                         and print decision and
//                                         latency stats
//
// Each command takes only the keys listed above: an unknown key, a key
// without a value or a stray argument is a usage error.
//
// Exit code 0 on success, 1 on usage/solve errors (scenario run: also
// on a conservation violation).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "controlplane/admission_ledger.h"
#include "controlplane/approx_solver.h"
#include "controlplane/greedy_solver.h"
#include "controlplane/ilp_solver.h"
#include "core/sfp_system.h"
#include "net/trace.h"
#include "p4gen/p4gen.h"
#include "scenario/runner.h"
#include "workload/churn.h"
#include "workload/instance_io.h"
#include "workload/sfc_gen.h"

namespace {

using namespace sfp;
using namespace sfp::controlplane;

using Args = std::map<std::string, std::string>;

/// Parses `--key value` / `--key=value` arguments from argv[first..]
/// for a command that takes exactly `keys`; `--no-consolidation` is the
/// one flag without a value. Names the offending argument and returns
/// nullopt on an unknown key, a key without a value, or a stray
/// positional argument.
std::optional<Args> ParseArgs(int argc, char** argv, int first,
                              const std::vector<std::string>& keys) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "sfpctl: unexpected argument '%s'\n", arg.c_str());
      return std::nullopt;
    }
    std::string key = arg.substr(2);
    std::optional<std::string> value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      std::fprintf(stderr, "sfpctl: unknown option '--%s'\n", key.c_str());
      return std::nullopt;
    }
    if (!value) {
      if (key == "no-consolidation") {
        value = "1";
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "sfpctl: option '--%s' needs a value\n", key.c_str());
        return std::nullopt;
      }
    }
    args[key] = *value;
  }
  return args;
}

std::string Get(const Args& args, const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it != args.end() ? it->second : fallback;
}

int CmdGen(const Args& args) {
  workload::DatasetParams params;
  params.num_sfcs = std::atoi(Get(args, "sfcs", "20").c_str());
  params.num_types = std::atoi(Get(args, "types", "10").c_str());
  params.min_chain_len = std::atoi(Get(args, "len-min", "3").c_str());
  params.max_chain_len = std::atoi(Get(args, "len-max", "7").c_str());
  Rng rng(static_cast<std::uint64_t>(std::atoll(Get(args, "seed", "1").c_str())));
  SwitchResources sw;
  const auto instance = workload::GenerateInstance(params, sw, rng);

  const std::string out = Get(args, "out", "");
  if (out.empty()) {
    workload::WriteInstance(instance, std::cout);
  } else if (!workload::SaveInstance(instance, out)) {
    std::fprintf(stderr, "sfpctl: cannot write %s\n", out.c_str());
    return 1;
  } else {
    std::printf("wrote %d SFCs over %d types to %s\n", instance.NumSfcs(),
                instance.num_types, out.c_str());
  }
  return 0;
}

void PrintSolution(const PlacementInstance& instance, const PlacementSolution& solution,
                   double objective, double seconds) {
  std::printf("objective (eq.1) : %.1f\n", objective);
  std::printf("placed chains    : %d / %d\n", solution.NumPlaced(), instance.NumSfcs());
  std::printf("offloaded        : %.1f Gbps\n", solution.OffloadedGbps(instance));
  std::printf("backplane        : %.1f Gbps (C=%.0f)\n", solution.BackplaneGbps(instance),
              instance.sw.capacity_gbps);
  std::printf("blocks/stage avg : %.1f (B=%d)\n",
              solution.AvgBlockUtilization(instance, MemoryModel::kConsolidated),
              instance.sw.blocks_per_stage);
  std::printf("solve time       : %.2f s\n", seconds);
  std::printf("physical layout  :\n");
  for (int s = 0; s < instance.sw.stages; ++s) {
    std::printf("  stage %d:", s);
    for (int i = 0; i < instance.num_types; ++i) {
      if (solution.physical[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)]) {
        std::printf(" t%d", i);
      }
    }
    std::printf("\n");
  }
}

int CmdPlace(const Args& args) {
  const std::string in = Get(args, "in", "");
  if (in.empty()) {
    std::fprintf(stderr, "sfpctl place: --in FILE required\n");
    return 1;
  }
  auto instance = workload::LoadInstance(in);
  if (!instance) {
    std::fprintf(stderr, "sfpctl: cannot parse %s\n", in.c_str());
    return 1;
  }

  const std::string algo = Get(args, "algo", "appro");
  const int passes = std::atoi(Get(args, "passes", "3").c_str());
  const double time_limit = std::atof(Get(args, "time-limit", "30").c_str());
  const auto memory_model = args.contains("no-consolidation")
                                ? MemoryModel::kPerLogicalNf
                                : MemoryModel::kConsolidated;

  if (algo == "ip") {
    IlpOptions options;
    options.model.max_passes = passes;
    options.model.memory_model = memory_model;
    options.time_limit_seconds = time_limit;
    options.relative_gap = 1e-4;
    const auto report = SolveIlp(*instance, options);
    std::printf("SFP-IP (%s, bound %.1f)\n", lp::ToString(report.status),
                report.best_bound);
    PrintSolution(*instance, report.solution, report.objective, report.seconds);
  } else if (algo == "appro") {
    ApproxOptions options;
    options.model.max_passes = passes;
    options.model.memory_model = memory_model;
    const auto report = SolveApprox(*instance, options);
    if (!report.ok) {
      std::fprintf(stderr, "sfpctl: approximation found no verified placement\n");
      return 1;
    }
    std::printf("SFP-Appro (LP bound %.1f, %d roundings, %d stripped)\n", report.lp_bound,
                report.roundings, report.stripped_sfcs);
    PrintSolution(*instance, report.solution, report.objective, report.seconds);
  } else if (algo == "greedy") {
    GreedyOptions options;
    options.max_passes = passes;
    options.memory_model = memory_model;
    const auto report = SolveGreedy(*instance, options);
    std::printf("Greedy (Algorithm 2)\n");
    PrintSolution(*instance, report.solution, report.objective, report.seconds);
  } else {
    std::fprintf(stderr, "sfpctl place: unknown --algo %s\n", algo.c_str());
    return 1;
  }
  return 0;
}

int CmdP4(const Args& args) {
  // --layout "fw,tc/lb,rt": stages separated by '/', NFs by ','.
  const std::string layout_text = Get(args, "layout", "fw/tc/lb/rt");
  dataplane::DataPlane dp{switchsim::SwitchConfig{}};

  std::map<std::string, nf::NfType> by_name;
  for (int t = 0; t < nf::kNumNfTypes; ++t) {
    by_name[nf::NfShortName(static_cast<nf::NfType>(t))] = static_cast<nf::NfType>(t);
  }
  std::istringstream stages(layout_text);
  std::string stage_text;
  int stage = 0;
  while (std::getline(stages, stage_text, '/')) {
    std::istringstream nfs(stage_text);
    std::string nf_name;
    while (std::getline(nfs, nf_name, ',')) {
      const auto it = by_name.find(nf_name);
      if (it == by_name.end()) {
        std::fprintf(stderr, "sfpctl p4: unknown NF '%s' (use fw/lb/tc/rt/rl/nat)\n",
                     nf_name.c_str());
        return 1;
      }
      if (!dp.InstallPhysicalNf(stage, it->second)) {
        std::fprintf(stderr, "sfpctl p4: cannot install %s at stage %d\n", nf_name.c_str(),
                     stage);
        return 1;
      }
    }
    ++stage;
  }
  std::cout << p4gen::EmitProgram(dp, "sfpctl_layout");
  return 0;
}

/// Prints every exported counter under the given prefixes (the serve
/// and telemetry stats a trace replay populates).
void PrintStats(const core::SfpSystem& system, std::initializer_list<const char*> prefixes) {
  common::metrics::Registry registry;
  system.ExportMetrics(registry);
  std::printf("stats:\n");
  for (const auto& counter : registry.Counters()) {
    for (const char* prefix : prefixes) {
      if (counter.name.rfind(prefix, 0) == 0) {
        std::printf("  %-40s %llu\n", counter.name.c_str(),
                    static_cast<unsigned long long>(counter.value));
        break;
      }
    }
  }
}

/// --planner names, indexed by switchsim::Planner.
constexpr std::array<const char*, 3> kPlannerNames = {"sequential", "packed", "co-scheduled"};

const char* PlannerName(switchsim::Planner planner) {
  return kPlannerNames[static_cast<std::size_t>(planner)];
}

/// Parses --planner; returns `fallback` when absent, complains and
/// returns nullopt on a name not in kPlannerNames.
std::optional<switchsim::Planner> GetPlanner(const Args& args, switchsim::Planner fallback) {
  const std::string name = Get(args, "planner", PlannerName(fallback));
  for (std::size_t i = 0; i < kPlannerNames.size(); ++i) {
    if (name == kPlannerNames[i]) return static_cast<switchsim::Planner>(i);
  }
  std::fprintf(stderr,
               "sfpctl: --planner must be sequential, packed or co-scheduled (got '%s')\n",
               name.c_str());
  return std::nullopt;
}

/// Admits `count` generated tenants and prints each one's pass map:
/// which (stage, pass) every logical NF landed on, and what the
/// chain-order reference would have cost. Lets the planners be
/// compared tenant by tenant on the same command line.
bool AdmitGeneratedTenants(core::SfpSystem& system, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::printf("tenant pass map (planner %s):\n",
              PlannerName(system.data_plane().pipeline().config().planner));
  for (int t = 1; t <= count; ++t) {
    const auto tenant = static_cast<dataplane::TenantId>(t);
    const int chain_len = static_cast<int>(rng.UniformInt(3, 6));
    const auto sfc = workload::GenerateConcreteSfc(tenant, chain_len, 5.0, rng,
                                                   /*rules_per_nf=*/8);
    const auto admit = system.AdmitTenant(sfc);
    if (!admit.admitted) {
      std::printf("  tenant %-3d REJECTED: %s\n", t, admit.reason.c_str());
      continue;
    }
    const auto* alloc = system.data_plane().FindAllocation(tenant);
    std::ostringstream map;
    for (std::size_t j = 0; j < sfc.chain.size(); ++j) {
      if (j > 0) map << " -> ";
      map << nf::NfShortName(sfc.chain[j].type) << "@s"
          << alloc->placements[j].stage << "p" << alloc->placements[j].pass;
    }
    std::printf("  tenant %-3d passes %d (sequential %d)  %s\n", t, alloc->passes,
                alloc->sequential_passes, map.str().c_str());
  }
  return true;
}

/// Prints the stage-window occupancy of tenants 1..`tenants`, read
/// from their allocations: one line per (pass, stage) window some
/// tenant holds, with its NF placements and rule-entry load. Printed
/// by `trace` under the co-scheduled planner, which keeps each
/// tenant's chain.
void PrintXtOccupancy(const dataplane::DataPlane& data_plane, int tenants) {
  if (data_plane.pipeline().config().planner != switchsim::Planner::kCoScheduled) return;
  std::map<std::pair<int, int>, std::pair<long long, long long>> windows;  // claims, entries
  std::size_t allocated = 0;
  long long booked = 0;
  for (int t = 1; t <= tenants; ++t) {
    const auto tenant = static_cast<dataplane::TenantId>(t);
    const auto* alloc = data_plane.FindAllocation(tenant);
    const auto* sfc = data_plane.RetainedSfc(tenant);
    if (alloc == nullptr || sfc == nullptr) continue;
    ++allocated;
    for (std::size_t j = 0; j < sfc->chain.size(); ++j) {
      const long long entries = static_cast<long long>(sfc->chain[j].rules.size()) + 1;
      auto& window = windows[{alloc->placements[j].pass, alloc->placements[j].stage}];
      ++window.first;
      window.second += entries;
      booked += entries;
    }
  }
  std::printf("stage-window occupancy (%zu tenants, %lld entries booked):\n", allocated,
              booked);
  for (const auto& [key, window] : windows) {
    std::printf("  pass %d stage %-2d  %3lld claims  %5lld entries\n", key.first, key.second,
                window.first, window.second);
  }
}

int CmdTrace(const Args& args) {
  const std::string path = Get(args, "replay", "");
  const int threads = std::atoi(Get(args, "threads", "0").c_str());
  const int batch = std::atoi(Get(args, "batch", "1").c_str());
  if (batch < 1 || threads < 0) {
    std::fprintf(stderr, "sfpctl trace: --batch must be >= 1 and --threads >= 0\n");
    return 1;
  }
  const auto planner = GetPlanner(args, switchsim::Planner::kSequential);
  if (!planner) return 1;
  const int tenants = std::atoi(Get(args, "tenants", "0").c_str());
  if (tenants < 0) {
    std::fprintf(stderr, "sfpctl trace: --tenants must be >= 0\n");
    return 1;
  }
  if (path.empty() && tenants == 0) {
    std::fprintf(stderr, "sfpctl trace: --replay FILE or --tenants N required\n");
    return 1;
  }

  switchsim::SwitchConfig config;
  config.planner = *planner;
  core::SfpSystem system{config};
  for (int t = 0; t < nf::kNumNfTypes; ++t) {
    system.data_plane().InstallPhysicalNf(t % system.data_plane().pipeline().num_stages(),
                                          static_cast<nf::NfType>(t));
  }
  if (tenants > 0) {
    const auto seed =
        static_cast<std::uint64_t>(std::atoll(Get(args, "seed", "1").c_str()));
    AdmitGeneratedTenants(system, tenants, seed);
  }
  if (path.empty()) {
    // Pass-map-only mode: the admission output above is the result.
    PrintXtOccupancy(system.data_plane(), tenants);
    PrintStats(system, {"pipeline.passes.", "parallelism.xt."});
    return 0;
  }
  const auto trace = net::Trace::Load(path);
  if (!trace) {
    std::fprintf(stderr, "sfpctl: cannot load %s\n", path.c_str());
    return 1;
  }
  std::printf("%zu frames, %.1f KB, duration %.1f us, offered %.2f Gbps\n", trace->size(),
              trace->TotalBytes() / 1e3, trace->DurationNs() / 1e3, trace->OfferedGbps());
  int parse_errors = 0;
  if (batch > 1 || threads > 0) {
    // Batched replay: parse up to --batch frames, then serve them via
    // the fused ProcessBatch path (telemetry recorded inside the
    // workers) on --threads workers (0 = hardware default).
    switchsim::BatchOptions options;
    options.num_threads = threads;
    std::vector<net::Packet> packets;
    packets.reserve(static_cast<std::size_t>(batch));
    const auto flush = [&] {
      if (packets.empty()) return;
      system.ProcessBatch(packets, options);
      packets.clear();
    };
    for (const auto& record : trace->records()) {
      auto packet = net::Packet::Parse(record.frame);
      if (!packet) {
        ++parse_errors;
        continue;
      }
      packets.push_back(std::move(*packet));
      if (packets.size() == static_cast<std::size_t>(batch)) flush();
    }
    flush();
  } else {
    for (const auto& record : trace->records()) {
      auto result = system.data_plane().pipeline().ProcessBytes(record.frame);
      if (result.parse_error) {
        ++parse_errors;
        continue;
      }
      system.Telemetry().Record(static_cast<std::uint32_t>(record.frame.size()), result);
    }
  }
  const auto total = system.Telemetry().Total();
  std::printf("replayed: %llu packets, %d parse errors, mean latency %.0f ns\n",
              static_cast<unsigned long long>(total.packets), parse_errors,
              total.MeanLatencyNs());
  PrintXtOccupancy(system.data_plane(), tenants);
  PrintStats(system, {"telemetry.", "pipeline.passes.", "parallelism.xt."});
  return 0;
}

int CmdChurn(const Args& args) {
  workload::ChurnOptions churn;
  churn.target_population = std::atoll(Get(args, "tenants", "1000").c_str());
  if (churn.target_population < 1) {
    std::fprintf(stderr, "sfpctl churn: --tenants must be >= 1\n");
    return 1;
  }
  churn.num_arrivals =
      std::atoll(Get(args, "arrivals",
                     std::to_string(2 * churn.target_population).c_str())
                     .c_str());
  const auto seed =
      static_cast<std::uint64_t>(std::atoll(Get(args, "seed", "1").c_str()));

  Rng rng(seed);
  const auto trace = workload::GenerateChurnTrace(churn, rng);
  // Same calibration as bench/ext3_admission_churn: 105% of the live
  // demand at the midpoint arrival, so the second half of the trace
  // runs at capacity and decisions ride binding rows.
  controlplane::AdmissionLedger ledger(workload::CapacityAtMidpoint(trace, churn, 1.05));

  std::vector<std::uint64_t> latencies_ns;
  latencies_ns.reserve(trace.size());
  long long admitted = 0;
  long long rejected = 0;
  std::size_t peak_live = 0;
  for (const auto& event : trace) {
    if (event.kind == workload::ChurnEvent::Kind::kDepart) {
      ledger.Remove(event.tenant);
      continue;
    }
    const auto started = std::chrono::steady_clock::now();
    const bool ok = ledger.TryAdmit(event.tenant, event.footprint);
    const auto elapsed = std::chrono::steady_clock::now() - started;
    latencies_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
    ++(ok ? admitted : rejected);
    peak_live = std::max(peak_live, ledger.size());
  }
  std::sort(latencies_ns.begin(), latencies_ns.end());
  const auto pct = [&](double q) -> unsigned long long {
    if (latencies_ns.empty()) return 0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latencies_ns.size() - 1) + 0.5);
    return latencies_ns[std::min(idx, latencies_ns.size() - 1)];
  };

  std::printf("churn trace       : %lld arrivals toward %lld live tenants (seed %llu)\n",
              static_cast<long long>(churn.num_arrivals),
              static_cast<long long>(churn.target_population),
              static_cast<unsigned long long>(seed));
  std::printf("decisions         : %lld admitted, %lld rejected "
              "(%zu live at end, peak %zu)\n",
              admitted, rejected, ledger.size(), peak_live);
  std::printf("backplane (eq. 26): %.3f of %.3f Gbps charged at end\n",
              static_cast<double>(ledger.backplane_used_bps()) /
                  controlplane::AdmissionLedger::kUnitsPerGbps,
              static_cast<double>(ledger.backplane_capacity_bps()) /
                  controlplane::AdmissionLedger::kUnitsPerGbps);
  std::printf("admit latency     : p50 %llu ns, p99 %llu ns, max %llu ns\n",
              pct(0.50), pct(0.99),
              latencies_ns.empty()
                  ? 0ULL
                  : static_cast<unsigned long long>(latencies_ns.back()));
  return 0;
}

int CmdScenario(int argc, char** argv) {
  const std::string verb = argc > 2 ? argv[2] : "";
  if (verb == "list") {
    std::printf("builtin scenarios:\n");
    for (const auto& spec : scenario::BuiltinScenarios()) {
      std::printf("  %-14s %6.0f s  %s\n", spec.name.c_str(), spec.duration_s,
                  spec.description.c_str());
    }
    return 0;
  }
  if (verb != "run" || argc < 4) {
    std::fprintf(stderr, "usage: sfpctl scenario <list|run NAME> [--duration SEC] "
                         "[--threads N] [--compiled 1] "
                         "[--planner sequential|packed|co-scheduled]\n");
    return 1;
  }

  scenario::ScenarioSpec spec;
  if (!scenario::FindScenario(argv[3], spec)) {
    std::fprintf(stderr, "sfpctl scenario: unknown scenario '%s' (try: sfpctl "
                         "scenario list)\n", argv[3]);
    return 1;
  }
  const auto parsed = ParseArgs(argc, argv, 4, {"duration", "threads", "compiled", "planner"});
  if (!parsed) return 1;
  const Args& args = *parsed;
  const double duration = std::atof(Get(args, "duration", "0").c_str());
  if (duration > 0.0) spec.duration_s = duration;
  spec.serve_threads = std::atoi(Get(args, "threads", "1").c_str());
  if (std::atoi(Get(args, "compiled", "0").c_str()) != 0) spec.use_compiled_plans = true;
  const auto planner = GetPlanner(args, spec.switch_config.planner);
  if (!planner) return 1;
  spec.switch_config.planner = *planner;

  std::printf("running %s for %.0f simulated seconds (threads=%d%s, planner %s)...\n",
              spec.name.c_str(), spec.duration_s, spec.serve_threads,
              spec.use_compiled_plans ? ", compiled plans" : "", PlannerName(*planner));
  scenario::ScenarioRunner runner(spec);
  const auto result = runner.Run();

  std::printf("ticks             : %llu\n", static_cast<unsigned long long>(result.ticks));
  std::printf("packets           : %llu sent, %llu drops, %llu recirculated\n",
              static_cast<unsigned long long>(result.packets_sent),
              static_cast<unsigned long long>(result.total.drops),
              static_cast<unsigned long long>(result.total.recirculated_packets));
  std::printf("tenants           : %llu admitted, %llu departed, %llu rejects\n",
              static_cast<unsigned long long>(result.tenants_admitted),
              static_cast<unsigned long long>(result.tenants_departed),
              static_cast<unsigned long long>(result.admit_rejects));
  std::printf("fault fires       : %llu\n",
              static_cast<unsigned long long>(result.fault_fires));
  std::printf("recovery          : %llu detections, %llu attempts, %llu repaired, "
              "%llu quarantined\n",
              static_cast<unsigned long long>(result.recovery.detections),
              static_cast<unsigned long long>(result.recovery.attempts),
              static_cast<unsigned long long>(result.recovery.successes),
              static_cast<unsigned long long>(result.recovery.quarantined));
  std::printf("recovery time     : p50 %.0f ms, p99 %.0f ms, max %.0f ms\n",
              result.recovery_p50_ms, result.recovery_p99_ms, result.recovery_max_ms);
  std::printf("conservation      : %llu checks, %llu violations\n",
              static_cast<unsigned long long>(result.conservation_checks),
              static_cast<unsigned long long>(result.conservation_violations));
  for (const auto& error : result.errors) {
    std::fprintf(stderr, "sfpctl scenario: %s\n", error.c_str());
  }
  return result.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: sfpctl <gen|place|p4|trace|scenario|churn> [--key value ...]\n"
                 "  gen   --sfcs N [--types I] [--seed S] [--out FILE]\n"
                 "  place --in FILE --algo ip|appro|greedy [--passes P]\n"
                 "        [--time-limit SEC] [--no-consolidation]\n"
                 "  p4    --layout fw,tc/lb,rt\n"
                 "  trace --replay FILE [--threads N] [--batch B]\n"
                 "        [--planner sequential|packed|co-scheduled]\n"
                 "        [--tenants N] [--seed S]\n"
                 "  scenario <list|run NAME> [--duration SEC] [--threads N]\n"
                 "        [--compiled 1] [--planner sequential|packed|co-scheduled]\n"
                 "  churn --tenants N [--arrivals A] [--seed S]\n");
    return 1;
  }
  const std::string command = argv[1];
  if (command == "scenario") return CmdScenario(argc, argv);
  // Each command with the keys it takes.
  const struct {
    const char* name;
    std::vector<std::string> keys;
    int (*run)(const Args&);
  } commands[] = {
      {"gen", {"sfcs", "types", "seed", "len-min", "len-max", "out"}, CmdGen},
      {"place", {"in", "algo", "passes", "time-limit", "no-consolidation"}, CmdPlace},
      {"p4", {"layout"}, CmdP4},
      {"trace", {"replay", "threads", "batch", "planner", "tenants", "seed"}, CmdTrace},
      {"churn", {"tenants", "arrivals", "seed"}, CmdChurn},
  };
  for (const auto& cmd : commands) {
    if (command != cmd.name) continue;
    const auto args = ParseArgs(argc, argv, 2, cmd.keys);
    return args ? cmd.run(*args) : 1;
  }
  std::fprintf(stderr, "sfpctl: unknown command '%s'\n", command.c_str());
  return 1;
}
