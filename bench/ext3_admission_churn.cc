// Extension experiment 3 — exact admission ledger under tenant churn.
//
// Ramps a Pareto-lifetime churn workload (workload/churn.h) toward
// SFP_BENCH_CHURN_BOXES logical SFC boxes (default 20,000 for the CI
// smoke tier; nightly sets 1,000,000) and measures the per-arrival
// admission decision latency of controlplane::AdmissionLedger: an
// arrival compares the rows its footprint touches (per-stage entries
// plus the eq. 26 backplane) against fixed-point running sums, so the
// admit cost is O(rows) whatever the live population.
//
// SLOs (nonzero exit on violation, so CI fails even without the JSON
// diff): SFP_BENCH_CHURN_DIFF_TRACES tight-capacity traces (default 3;
// nightly 200) are replayed through the ledger and through
// controlplane::ClosedFormFits, which recomputes the closed form from
// the live set from scratch; every admit/reject and every departure
// must agree, and the traces must contain rejects.
//
// The JSON report carries the top tier's decision counts and latency
// percentiles; tools/compare_bench_json.py gates the differential
// mismatch count (abs_max 0) and the p99 scaling ratio between the top
// and bottom tiers (abs_max — admits must not degrade with population).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "controlplane/admission_ledger.h"
#include "workload/churn.h"

using namespace sfp;

namespace {

std::int64_t EnvInt(const char* name, std::int64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const std::int64_t v = std::atoll(env);
    if (v > 0) return v;
  }
  return fallback;
}

std::uint64_t Percentile(std::vector<std::uint64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ns.size() - 1) + 0.5);
  return sorted_ns[std::min(idx, sorted_ns.size() - 1)];
}

struct TierResult {
  std::int64_t boxes = 0;
  std::int64_t population = 0;
  std::int64_t arrivals = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;
};

// Mean boxes per tenant with chain length U[3, 7].
constexpr double kBoxesPerTenant = 5.0;

TierResult RunTier(std::int64_t boxes, std::uint64_t seed) {
  TierResult result;
  result.boxes = boxes;
  result.population =
      std::max<std::int64_t>(8, static_cast<std::int64_t>(
                                    static_cast<double>(boxes) / kBoxesPerTenant));

  workload::ChurnOptions churn;
  churn.target_population = result.population;
  // Two population turnovers past the ramp-up keeps each tier in
  // steady state for most of its arrivals.
  churn.num_arrivals = 2 * result.population;
  Rng rng(seed);
  const auto trace = workload::GenerateChurnTrace(churn, rng);

  // Capacity = 105% of the midpoint live demand: the second half of
  // the trace (the measurement window) runs at capacity, so decisions
  // ride binding rows and both verdicts occur.
  controlplane::AdmissionLedger ledger(workload::CapacityAtMidpoint(trace, churn, 1.05));

  const std::size_t warmup_arrivals = static_cast<std::size_t>(result.population);
  std::vector<std::uint64_t> latencies_ns;
  latencies_ns.reserve(trace.size());
  std::size_t arrivals_seen = 0;
  for (const auto& event : trace) {
    if (event.kind == workload::ChurnEvent::Kind::kDepart) {
      ledger.Remove(event.tenant);
      continue;
    }
    ++arrivals_seen;
    const auto started = std::chrono::steady_clock::now();
    const bool admitted = ledger.TryAdmit(event.tenant, event.footprint);
    const auto elapsed = std::chrono::steady_clock::now() - started;
    ++(admitted ? result.admitted : result.rejected);
    if (arrivals_seen > warmup_arrivals) {
      latencies_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
    }
  }

  std::sort(latencies_ns.begin(), latencies_ns.end());
  result.arrivals = static_cast<std::int64_t>(arrivals_seen);
  result.p50_ns = Percentile(latencies_ns, 0.50);
  result.p99_ns = Percentile(latencies_ns, 0.99);
  result.max_ns = latencies_ns.empty() ? 0 : latencies_ns.back();
  return result;
}

struct DiffResult {
  std::int64_t decisions = 0;
  std::int64_t rejects = 0;
  std::int64_t mismatches = 0;
};

/// Replays one small tight-capacity trace through the ledger and, for
/// every arrival, through the closed form recomputed from scratch over
/// the live set the ledger admitted; departures must agree on whether
/// the tenant was live.
DiffResult RunDifferentialTrace(std::uint64_t seed) {
  workload::ChurnOptions churn;
  churn.target_population = 48;
  churn.num_arrivals = 256;
  churn.num_stages = 6;
  Rng rng(seed);
  const auto trace = workload::GenerateChurnTrace(churn, rng);

  // Tight capacity (85% of midpoint demand) forces a reject-heavy mix
  // so the differential exercises both decision branches.
  const controlplane::AdmissionCapacity capacity =
      workload::CapacityAtMidpoint(trace, churn, 0.85);
  controlplane::AdmissionLedger ledger(capacity);
  std::unordered_map<controlplane::TenantKey, const controlplane::TenantFootprint*> live;
  std::vector<const controlplane::TenantFootprint*> live_set;

  DiffResult result;
  for (const auto& event : trace) {
    if (event.kind == workload::ChurnEvent::Kind::kDepart) {
      if (ledger.Remove(event.tenant) != (live.erase(event.tenant) == 1)) {
        ++result.mismatches;
        std::printf("  differential mismatch (seed %" PRIu64 ", tenant %u): departure\n",
                    seed, event.tenant);
      }
      continue;
    }
    live_set.clear();
    for (const auto& [tenant, footprint] : live) live_set.push_back(footprint);
    const bool oracle = controlplane::ClosedFormFits(capacity, live_set, event.footprint);
    const bool admitted = ledger.TryAdmit(event.tenant, event.footprint);
    ++result.decisions;
    if (!admitted) ++result.rejects;
    if (admitted) live.emplace(event.tenant, &event.footprint);
    if (admitted != oracle) {
      ++result.mismatches;
      std::printf("  differential mismatch (seed %" PRIu64 ", tenant %u): "
                  "ledger admit=%d, closed form admit=%d\n",
                  seed, event.tenant, admitted, oracle);
    }
  }
  return result;
}

}  // namespace

int main() {
  bench::PrintHeader("Ext. 3", "exact admission ledger under million-tenant churn");
  bench::BenchReport report("ext3_admission_churn",
                            "exact admission ledger under million-tenant churn");

  const std::int64_t target_boxes = EnvInt("SFP_BENCH_CHURN_BOXES", 20000);
  const std::int64_t diff_traces = EnvInt("SFP_BENCH_CHURN_DIFF_TRACES", 3);

  Table table({"SFC boxes", "population", "arrivals", "admitted", "rejected",
               "p50 admit (ns)", "p99 admit (ns)", "max admit (ns)"});
  std::vector<TierResult> tiers;
  for (const std::int64_t divisor : {8, 4, 2, 1}) {
    const std::int64_t boxes = std::max<std::int64_t>(64, target_boxes / divisor);
    if (!tiers.empty() && tiers.back().boxes == boxes) continue;
    const TierResult tier = RunTier(boxes, /*seed=*/0x5F0C0FFEEULL + tiers.size());
    table.Row()
        .Add(tier.boxes)
        .Add(tier.population)
        .Add(tier.arrivals)
        .Add(tier.admitted)
        .Add(tier.rejected)
        .Add(static_cast<std::int64_t>(tier.p50_ns))
        .Add(static_cast<std::int64_t>(tier.p99_ns))
        .Add(static_cast<std::int64_t>(tier.max_ns));
    tiers.push_back(tier);
  }
  table.Print(std::cout);

  DiffResult diff;
  for (std::int64_t t = 0; t < diff_traces; ++t) {
    const DiffResult trace = RunDifferentialTrace(0xC0FFEEULL + static_cast<std::uint64_t>(t));
    diff.decisions += trace.decisions;
    diff.rejects += trace.rejects;
    diff.mismatches += trace.mismatches;
  }
  std::printf("differential: %lld trace(s), %lld decision(s) (%lld rejects), "
              "%lld mismatch(es)\n",
              static_cast<long long>(diff_traces), static_cast<long long>(diff.decisions),
              static_cast<long long>(diff.rejects), static_cast<long long>(diff.mismatches));

  const TierResult& top = tiers.back();
  const TierResult& bottom = tiers.front();
  const double p99_ratio =
      bottom.p99_ns > 0
          ? static_cast<double>(top.p99_ns) / static_cast<double>(bottom.p99_ns)
          : 0.0;
  bench::PrintNote(
      "an admit compares the rows its footprint touches against fixed-point "
      "running sums; cost is O(rows), so p99 stays flat as the live "
      "population grows 8x.");

  // The JSON carries the top tier's counters (the headline scale).
  auto& metrics = report.metrics();
  metrics.GetCounter("churn.boxes.target").Set(static_cast<std::uint64_t>(top.boxes));
  metrics.GetCounter("churn.population").Set(static_cast<std::uint64_t>(top.population));
  metrics.GetCounter("churn.admitted").Set(static_cast<std::uint64_t>(top.admitted));
  metrics.GetCounter("churn.rejected").Set(static_cast<std::uint64_t>(top.rejected));
  metrics.GetCounter("system.admit.latency.p50_ns").Set(top.p50_ns);
  metrics.GetCounter("system.admit.latency.p99_ns").Set(top.p99_ns);
  metrics.GetCounter("system.admit.latency.max_ns").Set(top.max_ns);
  metrics.GetCounter("churn.p99_scaling_ratio_x100")
      .Set(static_cast<std::uint64_t>(p99_ratio * 100.0));
  metrics.GetCounter("churn.diff.traces").Set(static_cast<std::uint64_t>(diff_traces));
  metrics.GetCounter("churn.diff.decisions").Set(static_cast<std::uint64_t>(diff.decisions));
  metrics.GetCounter("churn.diff.rejects").Set(static_cast<std::uint64_t>(diff.rejects));
  metrics.GetCounter("churn.diff.mismatches")
      .Set(static_cast<std::uint64_t>(diff.mismatches));

  report.AddTable("admission_churn", table);
  report.AddNote("p99 scaling ratio (top tier / bottom tier): " +
                 FormatDouble(p99_ratio, 2));
  report.Write();

  // SLO assertions — fail the bench (and CI) directly.
  bool ok = true;
  if (diff.mismatches != 0) {
    std::printf("SLO VIOLATION: %lld ledger-vs-closed-form mismatches\n",
                static_cast<long long>(diff.mismatches));
    ok = false;
  }
  if (diff.rejects == 0) {
    std::printf("SLO VIOLATION: the differential traces never rejected; capacity "
                "never bound\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
