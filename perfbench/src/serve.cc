// serve_rules: closed-loop serving of pre-generated batches through
// SfpSystem::ProcessBatchInto on one thread. 128 tenants with 3-6-NF
// chains of 5-105 generated rules per NF sit on a layout that folds
// many chains into extra passes, so compiled rule scans and
// recirculation dominate a packet's cost.
#include "harness.h"
#include "switchsim/compiler/plan_cache.h"

namespace perfbench {

using namespace sfp;

namespace {

constexpr int kTenants = 128;
constexpr int kBurst = 16;
// Few ticks, cycled, so the batches stay cache-resident: on a shared
// host, streaming megabytes of packets makes the figure track other
// tenants' memory traffic more than the serve path.
constexpr int kTicks = 6;
constexpr double kTickNs = 100'000.0;
// Leading batches replayed on an interpreted twin.
constexpr int kPrefix = 2;
// Set-up rounds admit kSetupTenants chains drawn like the 128: setup_s
// takes each stretch's fastest of many set-ups, and a set-up of all 128
// takes about 0.3 s.
constexpr int kSetupTenants = 16;

struct ServeInputs {
  Shape shape{TestbedSwitch(), RepeatingLayout(12)};
  std::vector<dataplane::Sfc> tenants;
  std::vector<std::vector<net::Packet>> batches;
  /// Chains of the set-up rounds, drawn like `tenants`.
  std::vector<dataplane::Sfc> setup;
};

ServeInputs MakeInputs(std::uint64_t seed) {
  Rng rng(seed);
  ServeInputs in;
  in.tenants = StratifiedChains(kTenants, 1, 5, 105, 1.0, 6.0, rng);
  in.setup = StratifiedChains(kSetupTenants, 1, 5, 105, 1.0, 6.0, rng);
  std::vector<dataplane::TenantId> ids;
  for (const auto& sfc : in.tenants) ids.push_back(sfc.tenant);
  for (int tick = 0; tick < kTicks; ++tick) {
    in.batches.push_back(MicroburstTick(ids, kBurst, tick * kTickNs, kTickNs, rng));
  }
  return in;
}

/// One measured pass of serve_rules: set-up, the closed loop for
/// `seconds`, the output checks and the drain. The measured system gets
/// a twin when `tracer` is enabled.
void ServeLoop(const ServeInputs& in, double seconds, Tracer& tracer, Report& report,
               Samples& samples, LayerCounters& counters, OpCounts& ops) {
  auto batches = in.batches;
  auto kept = std::make_unique<Driver>(in.shape, tracer, samples, tracer.enabled());
  for (const auto& sfc : in.tenants) {
    int passes = 0;
    if (kept->Admit(sfc, tracer.enabled(), &passes)) {
      counters.passes_per_tenant.push_back(passes);
    } else {
      ++ops.failed;
    }
  }
  ops.attempted += 1 + kTenants;
  counters.rss_mib = RssMiB();
  auto& system = kept->system();
  counters.entries = system.Stats().entries_used;

  // Interpreted reference for the traffic prefix: same layout, same
  // admissions, compiled plans never enabled.
  core::SfpSystem reference(in.shape.config);
  reference.ProvisionPhysical(in.shape.layout);
  AddRateLimiterBuckets(reference.data_plane());
  for (const auto& sfc : in.tenants) reference.AdmitTenant(sfc);
  std::vector<switchsim::ProcessResult> results;
  for (int b = 0; b < kPrefix; ++b) {
    const auto& batch = batches[static_cast<std::size_t>(b)];
    results.resize(batch.size());
    reference.ProcessBatchInto(batch, results, SingleThread());
  }

  SetupRounds setups(in.shape, in.setup, seconds, tracer, samples, samples, report, ops);
  auto* cache = system.data_plane().pipeline().plan_cache();
  const std::uint64_t recompiles_before = cache->Recompiles();
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t served = 0;
  std::int64_t op = 0;
  for (; op < kPrefix || NowNs() < deadline; ++op) {
    if (op > 0 && op % kTicks == 0) {
      // Each pass over the ticks moves on in virtual time, so the rate
      // limiters' clocks never run back.
      for (auto& batch : batches) {
        for (auto& packet : batch) packet.ingress_time_ns += kTicks * kTickNs;
      }
    }
    const auto& batch = batches[static_cast<std::size_t>(op % kTicks)];
    kept->Serve(batch, results, tracer.enabled() && op % 2 == 1);
    served += batch.size();
    setups.Poll();
    if (op + 1 != kPrefix) continue;
    bool identical = true;
    for (const auto& sfc : in.tenants) {
      identical &= SameCounters(system.Telemetry().Tenant(sfc.tenant),
                                reference.Telemetry().Tenant(sfc.tenant));
    }
    report.Check(identical, "compiled serving matches the interpreted twin bit for bit");
    const auto total = system.Telemetry().Total();
    counters.sim_latency_ns = total.total_latency_ns / static_cast<double>(total.packets);
  }
  setups.Finish();
  ops.attempted += op;
  report.Check(system.Telemetry().Total().packets == served,
               "telemetry packet total equals packets served");

  counters.cycles = op;
  counters.recompiles = cache->Recompiles() - recompiles_before;
  counters.fallback_tenants = cache->FallbackTenants();
  const auto& pipeline = system.data_plane().pipeline();
  counters.packets = pipeline.packets_processed();
  counters.drops = pipeline.packets_dropped();
  counters.recirculations = pipeline.recirculations();
  // Drain, so the run ends with no tenant entries installed. These
  // removals are traced but are not remove_us samples.
  const std::size_t remove_samples = samples.remove_us.size();
  for (const auto& sfc : in.tenants) {
    report.Check(kept->Remove(sfc.tenant, tracer.enabled()), "drain removes every tenant");
  }
  samples.remove_us.resize(remove_samples);
  ops.attempted += kTenants;
  report.Check(system.Stats().entries_used == kept->boot_entries(),
               "serving drains to zero tenant entries");
}

}  // namespace

void RunServeRules(const RunOptions& options, Report& report, Tracer& tracer) {
  const auto in = MakeInputs(options.seed);
  Samples samples;
  Samples baseline;
  LayerCounters counters;
  OpCounts ops;
  if (!tracer.enabled()) {
    ServeLoop(in, options.seconds, tracer, report, samples, counters, ops);
  } else {
    // The untraced loop, run for a share of the time before and after
    // the traced one, is the baseline of trace.overhead_pct.
    Tracer off(false);
    LayerCounters unused;
    const double slice = options.seconds * kBaselineShare / 2;
    ServeLoop(in, slice, off, report, baseline, unused, ops);
    ServeLoop(in, options.seconds - 2 * slice, tracer, report, samples, counters, ops);
    ServeLoop(in, slice, off, report, baseline, unused, ops);
  }
  report.Set("sim_latency_ns", counters.sim_latency_ns, "sim_ns", kPrefix);
  report.CountOps(ops.attempted, ops.failed);
  ReportEndToEnd(samples, counters.rss_mib, report);
  if (!tracer.enabled()) return;

  // The solver layers are not on the serve path; probe them on this
  // workload's own chains so every layer reports a measured value.
  SolverTotals solver;
  ProbeSolver(BootInstance(in.shape.config,
                           std::vector<dataplane::Sfc>(in.tenants.begin(),
                                                       in.tenants.begin() + 20)),
              tracer, solver, report);
  ReportLayers(tracer, samples, baseline, counters, solver, report);
}

}  // namespace perfbench
