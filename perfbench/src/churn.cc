// churn: a steady population of 32 tenants (16 rules per NF). Each
// cycle removes one random tenant, admits a fresh chain under a
// recycled tenant ID, then serves one microburst tick over the live
// tenants, so allocation, rule install and removal, and plan
// recompilation sit beside the serve path.
#include <deque>

#include "harness.h"
#include "switchsim/compiler/plan_cache.h"

namespace perfbench {

using namespace sfp;

namespace {

constexpr int kPopulation = 32;
constexpr int kBurst = 16;
constexpr double kTickNs = 100'000.0;

/// Everything a churn run serves and admits, drawn from the seed before
/// any timer starts.
struct ChurnInputs {
  Shape shape{TestbedSwitch(), RepeatingLayout(12)};
  std::vector<dataplane::Sfc> population;
  std::vector<dataplane::Sfc> fresh;
  std::vector<int> victims;
  std::vector<net::Packet> batch;
};

ChurnInputs MakeInputs(std::uint64_t seed) {
  constexpr int kRulesPerNf = 16;
  constexpr int kFreshChains = 256;
  constexpr int kVictims = 1 << 14;
  Rng rng(seed);
  ChurnInputs in;
  in.population = StratifiedChains(kPopulation, 1, kRulesPerNf, kRulesPerNf, 1.0, 6.0, rng);
  in.fresh = StratifiedChains(kFreshChains, 0, kRulesPerNf, kRulesPerNf, 1.0, 6.0, rng);
  for (int i = 0; i < kVictims; ++i) {
    in.victims.push_back(static_cast<int>(rng.UniformInt(0, kPopulation - 1)));
  }
  std::vector<dataplane::TenantId> ids;
  for (const auto& sfc : in.population) ids.push_back(sfc.tenant);
  in.batch = MicroburstTick(ids, kBurst, 0.0, kTickNs, rng);
  return in;
}

/// One measured pass of churn: set-up, the cycles for `seconds`, the
/// output checks and the drain. The measured system gets a twin when
/// `tracer` is enabled.
void ChurnLoop(const ChurnInputs& in, double seconds, Tracer& tracer, Report& report,
               Samples& samples, LayerCounters& counters, OpCounts& ops) {
  // IDs recycle within this range, and telemetry keeps up to 1024
  // departed series, so state does not grow with run length.
  constexpr int kIdRange = 256;
  std::vector<dataplane::TenantId> slot_tenant;
  for (const auto& sfc : in.population) slot_tenant.push_back(sfc.tenant);
  std::deque<dataplane::TenantId> free_ids;
  for (int id = kPopulation + 1; id <= kIdRange; ++id) {
    free_ids.push_back(static_cast<dataplane::TenantId>(id));
  }
  auto batch = in.batch;

  auto kept = std::make_unique<Driver>(in.shape, tracer, samples, tracer.enabled());
  for (const auto& sfc : in.population) ops.failed += kept->Admit(sfc, false) ? 0 : 1;
  ops.attempted += 1 + kPopulation;
  // admit_us and remove_us describe the cycles only.
  samples.admit_us.clear();
  counters.rss_mib = RssMiB();
  auto& system = kept->system();
  counters.entries = system.Stats().entries_used;

  auto* cache = system.data_plane().pipeline().plan_cache();
  const std::uint64_t recompiles_before = cache->Recompiles();
  std::vector<switchsim::ProcessResult> results;
  std::uint64_t served = 0;
  bool population_held = true;
  Samples setup_control;  // admit_us and remove_us describe the cycles only
  SetupRounds setups(in.shape, in.population, seconds, tracer, samples, setup_control, report,
                     ops);
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t cycle = 0;
  for (; cycle < 2 || NowNs() < deadline; ++cycle) {
    const bool traced = tracer.enabled() && cycle % 2 == 1;
    const auto slot = static_cast<std::size_t>(
        in.victims[static_cast<std::size_t>(cycle) % in.victims.size()]);
    const dataplane::TenantId victim = slot_tenant[slot];
    report.Check(kept->Remove(victim, traced), "churn removes a live tenant");
    free_ids.push_back(victim);
    auto sfc = in.fresh[static_cast<std::size_t>(cycle) % in.fresh.size()];
    sfc.tenant = free_ids.front();
    free_ids.pop_front();
    int passes = 0;
    if (kept->Admit(sfc, traced, &passes)) {
      counters.passes_per_tenant.push_back(passes);
    } else {
      ++ops.failed;
    }
    slot_tenant[slot] = sfc.tenant;
    for (int p = 0; p < kBurst; ++p) {
      batch[slot * kBurst + static_cast<std::size_t>(p)].vlan->vid = sfc.tenant;
    }
    for (auto& packet : batch) packet.ingress_time_ns += kTickNs;
    kept->Serve(batch, results, traced);
    served += batch.size();
    population_held &= system.Stats().tenants == kPopulation;
    setups.Poll();
  }
  setups.Finish();
  ops.attempted += 3 * cycle;
  report.Check(population_held, "Stats().tenants equals the live set after every cycle");
  counters.cycles = cycle;
  counters.recompiles = cache->Recompiles() - recompiles_before;
  counters.fallback_tenants = cache->FallbackTenants();
  const auto& pipeline = system.data_plane().pipeline();
  counters.packets = pipeline.packets_processed();
  counters.drops = pipeline.packets_dropped();
  counters.recirculations = pipeline.recirculations();
  const auto total = system.Telemetry().Total();
  counters.sim_latency_ns = total.total_latency_ns / static_cast<double>(total.packets);
  report.Check(total.packets == served, "telemetry packet total equals packets served");

  // Drain: the run must end with no tenant entries installed. These
  // removals are not samples.
  const std::size_t remove_samples = samples.remove_us.size();
  for (const dataplane::TenantId tenant : slot_tenant) {
    report.Check(kept->Remove(tenant, false), "drain removes every live tenant");
  }
  samples.remove_us.resize(remove_samples);
  report.Check(system.Stats().tenants == 0 && system.Stats().entries_used == kept->boot_entries(),
               "churn drains to zero installed tenant entries");
}

}  // namespace

void RunChurn(const RunOptions& options, Report& report, Tracer& tracer) {
  const auto in = MakeInputs(options.seed);
  Samples samples;
  Samples baseline;
  LayerCounters counters;
  OpCounts ops;
  if (!tracer.enabled()) {
    ChurnLoop(in, options.seconds, tracer, report, samples, counters, ops);
  } else {
    // The untraced loop, run for a share of the time before and after
    // the traced one, is the baseline of trace.overhead_pct.
    Tracer off(false);
    LayerCounters unused;
    const double slice = options.seconds * kBaselineShare / 2;
    ChurnLoop(in, slice, off, report, baseline, unused, ops);
    ChurnLoop(in, options.seconds - 2 * slice, tracer, report, samples, counters, ops);
    ChurnLoop(in, slice, off, report, baseline, unused, ops);
  }
  report.Set("sim_latency_ns", counters.sim_latency_ns, "sim_ns",
             static_cast<std::int64_t>(counters.packets));
  report.CountOps(ops.attempted, ops.failed);
  ReportEndToEnd(samples, counters.rss_mib, report);
  if (!tracer.enabled()) return;

  SolverTotals solver;
  ProbeSolver(BootInstance(in.shape.config,
                           std::vector<dataplane::Sfc>(in.population.begin(),
                                                       in.population.begin() + 20)),
              tracer, solver, report);
  ReportLayers(tracer, samples, baseline, counters, solver, report);
}

}  // namespace perfbench
