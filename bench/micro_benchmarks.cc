// Micro-benchmarks (google-benchmark): hot paths of the simulator and
// the solver, plus the two design ablations DESIGN.md calls out
// (aggregated vs disaggregated consistency rows; structured vs naive
// rounding).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "controlplane/approx_solver.h"
#include "controlplane/greedy_solver.h"
#include "controlplane/model_builder.h"
#include "controlplane/verifier.h"
#include "core/sfp_system.h"
#include "lp/simplex.h"
#include "nf/firewall.h"
#include "nf/nf.h"
#include "switchsim/compiler/exec.h"
#include "switchsim/compiler/passes.h"
#include "switchsim/compiler/plan.h"
#include "workload/sfc_gen.h"
#include "workload/traffic.h"

// --- allocation counter ----------------------------------------------
// Counts every heap allocation in the binary so the zero-allocation
// benchmarks below can assert that the steady-state generate+serve
// loops never touch the heap per packet (an acceptance criterion of
// the reusable-buffer TrafficSource / SerializeInto path).

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sfp;

std::uint64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

// --- switch data path -------------------------------------------------

/// Provisions the one-NF-per-stage fw | lb | tc | rt layout and admits
/// tenant 1 with a chain of those four NFs in stage order (50 generated
/// rules each), so its packets take a single pass.
bool AdmitFourNfChain(core::SfpSystem& system) {
  constexpr nf::NfType kLayout[] = {nf::NfType::kFirewall, nf::NfType::kLoadBalancer,
                                    nf::NfType::kClassifier, nf::NfType::kRouter};
  std::vector<std::vector<nf::NfType>> stages;
  Rng rng(1);
  dataplane::Sfc sfc;
  sfc.tenant = 1;
  sfc.bandwidth_gbps = 10.0;
  for (const nf::NfType type : kLayout) {
    stages.push_back({type});
    nf::NfConfig config;
    config.type = type;
    config.rules = nf::MakeNf(type)->GenerateRules(rng, /*count=*/50);
    sfc.chain.push_back(std::move(config));
  }
  system.ProvisionPhysical(stages);
  return system.AdmitTenant(sfc).admitted;
}

void BM_PipelineProcess4Nf(benchmark::State& state) {
  core::SfpSystem system{switchsim::SwitchConfig{}};
  if (!AdmitFourNfChain(system)) {
    state.SkipWithError("admission failed");
    return;
  }
  auto packet = net::MakeTcpPacket(1, net::Ipv4Address::Of(10, 1, 2, 3),
                                   net::Ipv4Address::Of(10, 0, 0, 100), 1234, 80, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.Process(packet));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PipelineProcess4Nf);

void BM_PipelineProcessBatch4Nf(benchmark::State& state) {
  core::SfpSystem system{switchsim::SwitchConfig{}};
  if (!AdmitFourNfChain(system)) {
    state.SkipWithError("admission failed");
    return;
  }
  std::vector<net::Packet> batch;
  for (int i = 0; i < 1024; ++i) {
    batch.push_back(net::MakeTcpPacket(
        1, net::Ipv4Address::Of(10, 1, static_cast<std::uint8_t>(i >> 8),
                                static_cast<std::uint8_t>(i & 0xFF)),
        net::Ipv4Address::Of(10, 0, 0, 100), static_cast<std::uint16_t>(1024 + i), 80,
        256));
  }
  switchsim::BatchOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.ProcessBatch(batch, options));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_PipelineProcessBatch4Nf)->Arg(1)->Arg(2)->Arg(4);

// Serve-path cost as a function of *admitted tenants*. Every tenant
// installs the same small rule set, so with the exact-key lookup index
// the per-packet cost must stay flat (within 2x) from 10 to 1000
// tenants — the linear scan it replaced degraded proportionally.
void BM_PipelineServeVsTenants(benchmark::State& state) {
  const int tenants = static_cast<int>(state.range(0));
  switchsim::SwitchConfig config;
  config.backplane_gbps = 100000.0;  // admission capacity is not under test
  core::SfpSystem system{config};
  system.ProvisionPhysical({{nf::NfType::kFirewall, nf::NfType::kRateLimiter},
                            {nf::NfType::kLoadBalancer, nf::NfType::kNat},
                            {nf::NfType::kClassifier},
                            {nf::NfType::kRouter}});
  Rng rng(7);
  for (int t = 1; t <= tenants; ++t) {
    auto sfc = workload::GenerateConcreteSfc(t, 4, 0.05, rng, /*rules_per_nf=*/8);
    if (!system.AdmitTenant(sfc).admitted) {
      state.SkipWithError("admission failed");
      return;
    }
  }
  // Serve a fixed-size sample of tenants so the measured packet mix is
  // the same at every scale; only the installed-rule population grows.
  std::vector<net::Packet> probes;
  for (int i = 0; i < 16; ++i) {
    const int t = 1 + (i * std::max(1, tenants / 16)) % tenants;
    probes.push_back(net::MakeTcpPacket(
        static_cast<std::uint16_t>(t), net::Ipv4Address::Of(10, 1, 2, 3),
        net::Ipv4Address::Of(10, 0, 0, 100), static_cast<std::uint16_t>(1024 + i), 80,
        128));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.Process(probes[next]));
    next = (next + 1) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["tenants"] = tenants;
  state.counters["entries"] = static_cast<double>(system.Stats().entries_used);
}
BENCHMARK(BM_PipelineServeVsTenants)->Arg(10)->Arg(100)->Arg(1000);

void BM_TableLookup(benchmark::State& state) {
  const int entries = static_cast<int>(state.range(0));
  nf::Firewall fw;
  switchsim::MatchActionTable table("fw", fw.KeySpec());
  fw.BindActions(table);
  Rng rng(2);
  for (const auto& rule : fw.GenerateRules(rng, entries)) {
    // action 0 = allow (registered first).
    table.AddEntry(rule.matches, 0, rule.args, rule.priority);
  }
  auto packet = net::MakeTcpPacket(1, net::Ipv4Address::Of(10, 1, 2, 3),
                                   net::Ipv4Address::Of(10, 4, 5, 6), 1234, 80, 128);
  switchsim::PacketMeta meta;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(packet, meta));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableLookup)->Arg(10)->Arg(100)->Arg(1000);

// One compiled match slot's winner resolution over a tenant's firewall
// table of `rules` generated rules plus the catch-all the data plane
// installs: the linear scan (ScanWinner) against the interval index on
// source IP (FindWinner). Hit-heavy probes fall inside a random rule
// (its /24 source and its port range), miss-heavy ones are random and
// reach the catch-all. Registered as BM_CompiledSlotDispatch/
// {scan,interval}/{hit,miss}/{rules} in main.
void BM_CompiledSlotDispatch(benchmark::State& state, bool indexed, bool hit, int rules) {
  using namespace switchsim;
  constexpr std::uint16_t kTenant = 1;
  const auto fw = nf::MakeNf(nf::NfType::kFirewall);
  Pipeline pipeline;
  std::vector<MatchFieldSpec> key = {{FieldId::kTenantId, MatchKind::kExact},
                                     {FieldId::kPass, MatchKind::kExact}};
  for (const MatchFieldSpec& spec : fw->KeySpec()) key.push_back(spec);
  MatchActionTable* table = pipeline.stage(0).AddTable("fw", key);
  fw->BindActions(*table);
  Rng rng(11);
  const auto generated = fw->GenerateRules(rng, rules);
  const auto prefixed = [](std::vector<FieldMatch> payload) {
    std::vector<FieldMatch> matches = {FieldMatch::Exact(kTenant), FieldMatch::Exact(0)};
    matches.insert(matches.end(), payload.begin(), payload.end());
    return matches;
  };
  for (const nf::NfRule& rule : generated) {
    table->AddEntry(prefixed(rule.matches), /*action=*/0, rule.args, rule.priority, kTenant);
  }
  table->AddEntry(prefixed(std::vector<FieldMatch>(fw->KeySpec().size(), FieldMatch::Any())),
                  /*action=*/0, {}, -1000, kTenant);

  compiler::LiftResult lifted = compiler::LiftTenant(pipeline, kTenant, nullptr);
  if (!lifted.ok || (indexed && !compiler::BuildIntervalIndex(lifted.ir.passes[0].slots[0]))) {
    state.SkipWithError("lowering failed");
    return;
  }
  const auto plan = compiler::EmitPlan(lifted.ir, {});
  const compiler::CompiledSlot& slot = plan->passes[0].slots[0];

  constexpr std::size_t kProbes = 1024;
  std::vector<std::array<std::uint64_t, compiler::kNumFields>> probes(kProbes);
  for (auto& values : probes) {
    values.fill(0);
    values[static_cast<std::size_t>(FieldId::kSrcIp)] = rng.Next() & 0xFFFFFFFF;
    values[static_cast<std::size_t>(FieldId::kDstPort)] = rng.Next() & 0xFFFF;
    if (hit) {
      const nf::NfRule& rule = generated[rng.Next() % generated.size()];
      values[static_cast<std::size_t>(FieldId::kSrcIp)] =
          rule.matches[0].value | (rng.Next() & 0xFF);
      values[static_cast<std::size_t>(FieldId::kDstPort)] =
          rule.matches[3].lo + rng.Next() % (rule.matches[3].hi - rule.matches[3].lo + 1);
    }
  }
  std::size_t next = 0;
  std::int64_t hits = 0;
  for (auto _ : state) {
    const std::int32_t winner = indexed ? compiler::FindWinner(*plan, slot, probes[next].data())
                                        : compiler::ScanWinner(*plan, slot, probes[next].data());
    benchmark::DoNotOptimize(winner);
    hits += winner + 1 < static_cast<std::int32_t>(slot.actions.size()) ? 1 : 0;
    next = (next + 1) % kProbes;
  }
  state.SetItemsProcessed(state.iterations());
  const auto iterations = std::max<std::int64_t>(1, state.iterations());
  state.counters["hit_pct"] = 100.0 * static_cast<double>(hits) / static_cast<double>(iterations);
}

void BM_PacketParseSerialize(benchmark::State& state) {
  auto packet = net::MakeTcpPacket(3, net::Ipv4Address::Of(10, 1, 2, 3),
                                   net::Ipv4Address::Of(10, 4, 5, 6), 1234, 80, 512);
  const auto bytes = packet.Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Packet::Parse(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * bytes.size());
}
BENCHMARK(BM_PacketParseSerialize);

// --- telemetry --------------------------------------------------------

/// Serial per-packet Record (Arg 0) vs one RecordBatch call (Arg 1)
/// over the same mixed-tenant result array. The batch path pays one
/// shard lock per tenant group instead of one global lock per packet.
void BM_TelemetryRecord(benchmark::State& state) {
  const bool batched = state.range(0) == 1;
  constexpr std::size_t kBatch = 1024;
  dataplane::TelemetryCollector collector;
  std::vector<switchsim::ProcessResult> results(kBatch);
  std::vector<std::uint32_t> wire(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    results[i].meta.tenant_id = static_cast<std::uint16_t>(1 + i % 8);
    results[i].meta.dropped = (i % 31) == 0;
    results[i].passes = 1 + static_cast<int>(i % 3);
    results[i].latency_ns = 300.0 + static_cast<double>(i % 7) * 50.0;
    wire[i] = 64 + static_cast<std::uint32_t>(i % 1400);
  }
  for (auto _ : state) {
    if (batched) {
      collector.RecordBatch(wire, results);
    } else {
      for (std::size_t i = 0; i < kBatch; ++i) collector.Record(wire[i], results[i]);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_TelemetryRecord)->Arg(0)->Arg(1)->ArgNames({"batch"});

// --- zero-allocation steady state ------------------------------------

/// Streams a TrafficSource into one reusable PacketBatch, serves each
/// frame through the scalar path (the loop shape of fig05/ext1), and
/// re-serializes it into a reused wire buffer. After warm-up the loop
/// must not allocate: `allocs_per_packet` is the acceptance gate
/// (expected 0). The batched path adds only O(1) per-batch result
/// vectors, never per-packet allocations.
void BM_SteadyStateServeAllocs(benchmark::State& state) {
  constexpr std::size_t kBatch = 256;
  core::SfpSystem system{switchsim::SwitchConfig{}};
  system.ProvisionPhysical({{nf::NfType::kFirewall}});
  dataplane::Sfc sfc;
  sfc.tenant = 1;
  sfc.bandwidth_gbps = 10;
  {
    nf::NfConfig fw;
    fw.type = nf::NfType::kFirewall;
    fw.rules.push_back(nf::Firewall::Deny(
        switchsim::FieldMatch::Any(), switchsim::FieldMatch::Any(),
        switchsim::FieldMatch::Any(), switchsim::FieldMatch::Range(23, 23),
        switchsim::FieldMatch::Any()));
    sfc.chain = {fw};
  }
  if (!system.AdmitTenant(sfc).admitted) {
    state.SkipWithError("admission failed");
    return;
  }
  workload::TrafficSpec spec;
  spec.tenant = 1;
  spec.num_flows = 64;
  spec.round_robin_flows = true;
  workload::TrafficSource source(spec);
  workload::PacketBatch batch;
  std::vector<std::uint8_t> wire;
  wire.reserve(2048);
  // Warm-up: sizes the batch, the telemetry series map, and the wire
  // buffer to their steady-state capacities.
  for (int warm = 0; warm < 4; ++warm) {
    source.Refill(batch, kBatch);
    for (const auto& packet : batch.packets) {
      const auto out = system.Process(packet);
      benchmark::DoNotOptimize(out.passes);
      packet.SerializeInto(wire);
    }
  }
  const std::uint64_t before = AllocCount();
  std::uint64_t packets = 0;
  for (auto _ : state) {
    source.Refill(batch, kBatch);
    for (const auto& packet : batch.packets) {
      const auto out = system.Process(packet);
      benchmark::DoNotOptimize(out.passes);
      packet.SerializeInto(wire);
      benchmark::DoNotOptimize(wire.data());
    }
    packets += kBatch;
  }
  const std::uint64_t allocs = AllocCount() - before;
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.counters["allocs_per_packet"] =
      static_cast<double>(allocs) / static_cast<double>(std::max<std::uint64_t>(1, packets));
}
BENCHMARK(BM_SteadyStateServeAllocs);

// --- solver -----------------------------------------------------------

controlplane::PlacementInstance BenchInstance(int num_sfcs, std::uint64_t seed) {
  Rng rng(seed);
  workload::DatasetParams params;
  params.num_sfcs = num_sfcs;
  params.num_types = 10;
  controlplane::SwitchResources sw;
  return workload::GenerateInstance(params, sw, rng);
}

void BM_LpRelaxation(benchmark::State& state) {
  auto instance = BenchInstance(static_cast<int>(state.range(0)), 77);
  controlplane::ModelOptions options;
  options.max_passes = 3;
  auto pm = controlplane::BuildPlacementModel(instance, options);
  for (auto _ : state) {
    lp::Simplex simplex(pm.model);
    benchmark::DoNotOptimize(simplex.Solve());
  }
}
BENCHMARK(BM_LpRelaxation)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

// Ablation: aggregated (scalable) vs disaggregated (tight) eq. 9 rows.
void BM_LpConsistencyAblation(benchmark::State& state) {
  auto instance = BenchInstance(10, 78);
  controlplane::ModelOptions options;
  options.max_passes = 3;
  options.aggregated_consistency = state.range(0) == 1;
  auto pm = controlplane::BuildPlacementModel(instance, options);
  double bound = 0;
  for (auto _ : state) {
    lp::Simplex simplex(pm.model);
    auto solution = simplex.Solve();
    bound = solution.objective;
    benchmark::DoNotOptimize(solution);
  }
  state.counters["rows"] = static_cast<double>(pm.model.num_rows());
  state.counters["lp_bound"] = bound;
}
BENCHMARK(BM_LpConsistencyAblation)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"aggregated"});

// Naive independent rounding: every integer variable X.Y rounds up to
// X+1 with probability Y, on its own, then clamps to its bounds.
std::vector<double> IndependentRound(const lp::Model& model, const std::vector<double>& values,
                                     Rng& rng) {
  std::vector<double> rounded(values);
  for (lp::VarId v = 0; v < model.num_vars(); ++v) {
    const lp::Variable& var = model.var(v);
    if (!var.is_integer) continue;
    const double floor_value = std::floor(values[static_cast<std::size_t>(v)]);
    const double up = rng.Bernoulli(values[static_cast<std::size_t>(v)] - floor_value) ? 1.0 : 0.0;
    rounded[static_cast<std::size_t>(v)] = std::clamp(floor_value + up, var.lower, var.upper);
  }
  return rounded;
}

// Ablation: structured (dependent) vs naive independent rounding —
// measures cost and, via counters, how often each verifies.
void BM_RoundingAblation(benchmark::State& state) {
  auto instance = BenchInstance(15, 79);
  controlplane::ModelOptions options;
  options.max_passes = 3;
  auto pm = controlplane::BuildPlacementModel(instance, options);
  lp::Simplex simplex(pm.model);
  auto lp_solution = simplex.Solve();
  if (lp_solution.status != lp::SolveStatus::kOptimal) {
    state.SkipWithError("LP failed");
    return;
  }
  controlplane::VerifyOptions verify_options;
  verify_options.max_passes = 3;
  Rng rng(80);
  const bool structured = state.range(0) == 1;
  std::int64_t verified = 0, total = 0;
  for (auto _ : state) {
    ++total;
    if (structured) {
      auto rounded = controlplane::StructuredRound(instance, pm, lp_solution.values, rng);
      if (rounded && controlplane::Verify(instance, *rounded, verify_options).ok) ++verified;
      benchmark::DoNotOptimize(rounded);
    } else {
      auto values = IndependentRound(pm.model, lp_solution.values, rng);
      // Naive rounding rarely even yields a decodable placement; count
      // it verified only if the full model accepts it.
      auto extracted = controlplane::ExtractSolution(instance, pm, values);
      if (controlplane::Verify(instance, extracted, verify_options).ok) ++verified;
      benchmark::DoNotOptimize(extracted);
    }
  }
  state.counters["verify_rate"] =
      total > 0 ? static_cast<double>(verified) / static_cast<double>(total) : 0.0;
}
BENCHMARK(BM_RoundingAblation)->Arg(0)->Arg(1)->ArgNames({"structured"});

void BM_GreedyPlacement(benchmark::State& state) {
  auto instance = BenchInstance(static_cast<int>(state.range(0)), 81);
  controlplane::GreedyOptions options;
  options.max_passes = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(controlplane::SolveGreedy(instance, options));
  }
}
BENCHMARK(BM_GreedyPlacement)->Arg(20)->Arg(50)->Unit(benchmark::kMicrosecond);

void BM_SfcAllocateDeallocate(benchmark::State& state) {
  core::SfpSystem system{switchsim::SwitchConfig{}};
  system.ProvisionPhysical({{nf::NfType::kFirewall, nf::NfType::kClassifier},
                            {nf::NfType::kLoadBalancer, nf::NfType::kRouter},
                            {nf::NfType::kRateLimiter, nf::NfType::kNat},
                            {nf::NfType::kFirewall, nf::NfType::kRouter}});
  Rng rng(82);
  auto sfc = workload::GenerateConcreteSfc(1, 4, 5.0, rng, /*rules_per_nf=*/100);
  for (auto _ : state) {
    auto admitted = system.AdmitTenant(sfc);
    if (!admitted.admitted) state.SkipWithError("admission failed");
    system.RemoveTenant(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SfcAllocateDeallocate);

/// Display reporter that forwards to the default one and remembers
/// whether any run errored or skipped, so a broken benchmark fails the
/// binary instead of printing its error and exiting 0.
class FailureTrackingReporter : public benchmark::BenchmarkReporter {
 public:
  explicit FailureTrackingReporter(benchmark::BenchmarkReporter* display)
      : display_(display) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) failed_ |= Failed(run);
    display_->ReportRuns(runs);
  }
  void Finalize() override { display_->Finalize(); }

  bool failed() const { return failed_; }

 private:
  template <typename R>
  static bool Failed(const R& run) {
    if constexpr (requires { run.error_occurred; }) {
      return run.error_occurred;  // google-benchmark < 1.8
    } else {
      return run.skipped != decltype(run.skipped){};  // 1.8+: errors and skips
    }
  }

  benchmark::BenchmarkReporter* display_;
  bool failed_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  for (const bool indexed : {false, true}) {
    for (const bool hit : {true, false}) {
      for (const int rules : {1, 2, 8, 32, 128}) {
        const std::string name = std::string("BM_CompiledSlotDispatch/") +
                                 (indexed ? "interval" : "scan") + (hit ? "/hit/" : "/miss/") +
                                 std::to_string(rules);
        benchmark::RegisterBenchmark(name.c_str(), BM_CompiledSlotDispatch, indexed, hit, rules);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  FailureTrackingReporter reporter(benchmark::CreateDefaultDisplayReporter());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (reporter.failed()) {
    std::fprintf(stderr, "micro_benchmarks: at least one benchmark errored or skipped\n");
    return 1;
  }
  return 0;
}
