// Fig. 7 — Throughput and resource utilization varying the allowed
// recirculation times (0..6, i.e. virtual pipelines of 8..56 stages).
//
// Setup per §VI-C: L=15 candidate SFCs (few, to isolate the effect of
// recirculation from inter-SFC contention), each a chain of 8 NFs
// drawn from 10 types — longer than the 8-stage pipeline, so ordering
// conflicts are common and folding matters.
//
// A second series measures intra-chain NF parallelism (DESIGN.md) end
// to end on the simulated data plane: the same concrete tenant chains
// are admitted into twin switches with packing off and on, and both
// the control-plane pass counts and the per-packet virtual latency
// (passes x one pipeline traversal) are compared.
//
// A third series measures cross-tenant pass co-scheduling (DESIGN.md
// "Cross-tenant pass sharing") on the engineered 50-tenant population
// of bench/xt_population.h: aggregate recirculation passes with
// per-tenant packing vs the stage-window co-scheduler.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "bench/xt_population.h"
#include "controlplane/approx_solver.h"
#include "dataplane/data_plane.h"
#include "nf/rate_limiter.h"
#include "workload/sfc_gen.h"
#include "workload/traffic.h"

using namespace sfp;
using namespace sfp::controlplane;

namespace {

/// One full pipeline traversal of the virtual switch (ingress to
/// recirculation port), used to turn pass counts into a deterministic
/// latency figure — machine-independent, unlike wall-clock ns.
constexpr double kPassTraversalNs = 450.0;

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto at = static_cast<std::size_t>(q * (static_cast<double>(values.size()) - 1));
  return values[at];
}

/// A data plane hosting every NF type once, on a seed-shuffled stage
/// layout (so chain order and stage order disagree as in Fig. 3).
dataplane::DataPlane MakePlane(bool parallel, const std::vector<int>& stages) {
  switchsim::SwitchConfig config;
  config.num_stages = nf::kNumNfTypes;
  config.planner = parallel ? switchsim::Planner::kPacked : switchsim::Planner::kSequential;
  dataplane::DataPlane plane(config);
  for (int t = 0; t < nf::kNumNfTypes; ++t) {
    const auto type = static_cast<nf::NfType>(t);
    const int stage = stages[static_cast<std::size_t>(t)];
    plane.InstallPhysicalNf(stage, type);
    if (type == nf::NfType::kRateLimiter) {
      static_cast<nf::RateLimiter*>(plane.PhysicalNf(stage, type))->AddBucket(100.0, 10.0);
    }
  }
  return plane;
}

}  // namespace

int main() {
  bench::PrintHeader("Fig. 7", "throughput + utilization vs recirculation times");
  bench::BenchReport report("fig07_recirculation",
                            "throughput + utilization vs recirculation times; "
                            "intra-chain NF parallelism pass savings");
  const int seeds = bench::NumSeeds();

  Table table({"recirc", "SFP thr (Gbps)", "Base thr (Gbps)", "SFP blocks", "Base blocks",
               "SFP entries", "Base entries"});

  for (int recirc = 0; recirc <= 6; ++recirc) {
    double sfp_thr = 0, base_thr = 0, sfp_blocks = 0, base_blocks = 0, sfp_entries = 0,
           base_entries = 0;
    for (int seed = 0; seed < seeds; ++seed) {
      Rng rng(7000 + static_cast<std::uint64_t>(seed) * 13);
      workload::DatasetParams params;
      params.num_sfcs = 15;
      params.num_types = 10;
      params.fixed_chain_len = 8;
      SwitchResources sw;
      auto instance = workload::GenerateInstance(params, sw, rng);

      ApproxOptions sfp_options;
      sfp_options.model.max_passes = recirc + 1;
      sfp_options.model.memory_model = MemoryModel::kConsolidated;
      sfp_options.only_max_passes = true;
      sfp_options.seed = static_cast<std::uint64_t>(seed) + 1;
      auto sfp = SolveApprox(instance, sfp_options);

      ApproxOptions base_options = sfp_options;
      base_options.model.memory_model = MemoryModel::kPerLogicalNf;
      auto base = SolveApprox(instance, base_options);

      sfp_thr += sfp.solution.OffloadedGbps(instance);
      base_thr += base.solution.OffloadedGbps(instance);
      sfp_blocks += sfp.solution.AvgBlockUtilization(instance, MemoryModel::kConsolidated);
      base_blocks += base.solution.AvgBlockUtilization(instance, MemoryModel::kPerLogicalNf);
      sfp_entries += sfp.solution.AvgEntryUtilization(instance);
      base_entries += base.solution.AvgEntryUtilization(instance);
    }
    const double n = seeds;
    table.Row()
        .Add(static_cast<std::int64_t>(recirc))
        .Add(sfp_thr / n, 1)
        .Add(base_thr / n, 1)
        .Add(sfp_blocks / n, 1)
        .Add(base_blocks / n, 1)
        .Add(sfp_entries / n, 1)
        .Add(base_entries / n, 1);
  }
  table.Print(std::cout);
  bench::PrintNote(
      "paper shape: with up to B=20 NF types per stage most length-8 chains "
      "already fit one pass, so recirc=0 places the bulk; one recirculation "
      "admits the order-conflicted remainder (paper: 138.3 -> 142.0 Gbps); "
      "more than one adds nothing. SFP > baseline entries throughout.");
  report.AddTable("recirculation", table);

  // ---- intra-chain NF parallelism: packed vs sequential passes -----
  bench::PrintHeader("Fig. 7b", "pass packing: sequential vs packed layouts");
  Table packing({"chain len", "seq passes", "packed passes", "saved %",
                 "seq p50 (ns)", "packed p50 (ns)", "seq p99 (ns)", "packed p99 (ns)"});
  std::int64_t grand_seq = 0, grand_packed = 0;
  std::int64_t l6_seq = 0, l6_packed = 0;
  double l6_seq_p99 = 0, l6_packed_p99 = 0;
  for (int chain_len = 2; chain_len <= 6; ++chain_len) {
    std::int64_t seq_passes = 0, packed_passes = 0;
    std::vector<double> seq_lat, packed_lat;
    for (int seed = 0; seed < seeds; ++seed) {
      Rng rng(9100 + static_cast<std::uint64_t>(seed) * 31 +
              static_cast<std::uint64_t>(chain_len) * 977);
      std::vector<int> stages(static_cast<std::size_t>(nf::kNumNfTypes));
      for (int t = 0; t < nf::kNumNfTypes; ++t) stages[static_cast<std::size_t>(t)] = t;
      rng.Shuffle(stages);
      auto sequential = MakePlane(false, stages);
      auto packed = MakePlane(true, stages);

      for (dataplane::TenantId tenant = 1; tenant <= 20; ++tenant) {
        const auto sfc =
            workload::GenerateConcreteSfc(tenant, chain_len, 10.0, rng, /*rules_per_nf=*/8);
        const auto seq_result = sequential.AllocateSfc(sfc);
        const auto packed_result = packed.AllocateSfc(sfc);
        if (!seq_result.ok || !packed_result.ok) continue;
        seq_passes += seq_result.passes;
        packed_passes += packed_result.passes;

        workload::PacketSizeProfile profile;
        const auto packets =
            workload::GenerateFlows(tenant, /*num_flows=*/4, /*count=*/25, profile, rng);
        for (const auto& packet : packets) {
          seq_lat.push_back(sequential.Process(packet).passes * kPassTraversalNs);
          packed_lat.push_back(packed.Process(packet).passes * kPassTraversalNs);
        }
      }
    }
    grand_seq += seq_passes;
    grand_packed += packed_passes;
    const double saved_pct =
        seq_passes > 0
            ? 100.0 * static_cast<double>(seq_passes - packed_passes) /
                  static_cast<double>(seq_passes)
            : 0.0;
    const double sp99 = Percentile(seq_lat, 0.99);
    const double pp99 = Percentile(packed_lat, 0.99);
    if (chain_len == 6) {
      l6_seq = seq_passes;
      l6_packed = packed_passes;
      l6_seq_p99 = sp99;
      l6_packed_p99 = pp99;
    }
    packing.Row()
        .Add(static_cast<std::int64_t>(chain_len))
        .Add(seq_passes)
        .Add(packed_passes)
        .Add(saved_pct, 1)
        .Add(Percentile(seq_lat, 0.50), 0)
        .Add(Percentile(packed_lat, 0.50), 0)
        .Add(sp99, 0)
        .Add(pp99, 0);
  }
  packing.Print(std::cout);
  bench::PrintNote(
      "same tenants, same shuffled stage layout: packing merges independent "
      "chain segments into shared passes, so both the solver-visible pass "
      "budget and the tail latency (passes x traversal) drop; the saved-% "
      "column is the acceptance metric (>=30% on mixed 6-NF chains).");
  report.AddTable("nf_parallelism", packing);

  // Deterministic acceptance counters (integer percent, gated in
  // tools/compare_bench_json.py).
  auto pct_saved = [](std::int64_t seq, std::int64_t packed) -> std::uint64_t {
    if (seq <= 0 || packed >= seq) return 0;
    return static_cast<std::uint64_t>(100 * (seq - packed) / seq);
  };
  report.metrics().GetCounter("parallelism.passes_saved_pct").Set(pct_saved(grand_seq, grand_packed));
  report.metrics().GetCounter("parallelism.passes_saved_pct_l6").Set(pct_saved(l6_seq, l6_packed));
  const std::uint64_t p99_saved_pct =
      l6_seq_p99 > 0 && l6_packed_p99 < l6_seq_p99
          ? static_cast<std::uint64_t>(100.0 * (l6_seq_p99 - l6_packed_p99) / l6_seq_p99)
          : 0;
  report.metrics().GetCounter("parallelism.p99_saved_pct_l6").Set(p99_saved_pct);

  // ---- cross-tenant pass co-scheduling: aggregate passes -----------
  // The engineered 50-tenant population of bench/xt_population.h is
  // admitted into twin planes: per-tenant packing (PR 9 baseline) vs
  // the stage-window co-scheduler. The acceptance metric is aggregate
  // recirculation passes across the whole population (gated >= 20%
  // saved): per-tenant packing lets order-free firewalls exhaust the
  // early firewall instance's table budget, folding later
  // order-constrained tenants; the co-scheduler steers them late.
  bench::PrintHeader("Fig. 7c", "cross-tenant co-scheduling: aggregate passes");
  auto per_tenant = bench::xt::MakeXtPlane(/*cross_tenant=*/false);
  auto co_sched = bench::xt::MakeXtPlane(/*cross_tenant=*/true);
  const auto population = bench::xt::BuildXtPopulation(/*bandwidth_gbps=*/10.0);
  std::int64_t xt_base_passes = 0, xt_co_passes = 0;
  std::int64_t xt_base_folded = 0, xt_co_folded = 0;
  int xt_base_admitted = 0, xt_co_admitted = 0;
  for (const auto& sfc : population) {
    const auto base_result = per_tenant.AllocateSfc(sfc);
    const auto co_result = co_sched.AllocateSfc(sfc);
    if (base_result.ok) {
      ++xt_base_admitted;
      xt_base_passes += base_result.passes;
      if (base_result.passes > 1) ++xt_base_folded;
    }
    if (co_result.ok) {
      ++xt_co_admitted;
      xt_co_passes += co_result.passes;
      if (co_result.passes > 1) ++xt_co_folded;
    }
  }
  Table xt_table({"planner", "admitted", "aggregate passes", "folded tenants"});
  xt_table.Row()
      .Add("per-tenant packed")
      .Add(static_cast<std::int64_t>(xt_base_admitted))
      .Add(xt_base_passes)
      .Add(xt_base_folded);
  xt_table.Row()
      .Add("cross-tenant co-scheduled")
      .Add(static_cast<std::int64_t>(xt_co_admitted))
      .Add(xt_co_passes)
      .Add(xt_co_folded);
  xt_table.Print(std::cout);
  bench::PrintNote(
      "same 50 tenants, same admission order, same 8-stage plane: the "
      "co-scheduler's stage-window steering keeps the early firewall "
      "instance free for order-constrained chains, so the aggregate "
      "pass count (and with it eq. 26 recirculation charge) drops.");
  report.AddTable("xt_packing", xt_table);
  report.metrics().GetCounter("parallelism.xt.aggregate_passes_per_tenant")
      .Set(static_cast<std::uint64_t>(xt_base_passes));
  report.metrics().GetCounter("parallelism.xt.aggregate_passes_cross_tenant")
      .Set(static_cast<std::uint64_t>(xt_co_passes));
  report.metrics().GetCounter("parallelism.xt.folded_tenants_per_tenant")
      .Set(static_cast<std::uint64_t>(xt_base_folded));
  report.metrics().GetCounter("parallelism.xt.folded_tenants_cross_tenant")
      .Set(static_cast<std::uint64_t>(xt_co_folded));
  report.metrics().GetCounter("parallelism.xt.passes_saved_pct")
      .Set(pct_saved(xt_base_passes, xt_co_passes));
  report.Write();
  return 0;
}
