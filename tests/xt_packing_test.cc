// Tests for cross-tenant recirculation pass co-scheduling (DESIGN.md
// "Cross-tenant pass sharing"): the stage-window tallies, the
// co-scheduler's steering and never-worse guarantees, departure-time
// window compaction through SfpSystem, and — most importantly — the
// equivalence contract: a co-scheduled layout must be observably
// identical to the per-tenant packed reference, packet for packet and
// telemetry field for telemetry field (pass-derived fields excluded:
// reducing those is the feature).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <vector>

#include "bench/xt_population.h"
#include "common/metrics.h"
#include "dataplane/data_plane.h"
#include "dataplane/telemetry.h"
#include "core/sfp_system.h"
#include "nf/rate_limiter.h"
#include "workload/sfc_gen.h"
#include "workload/traffic.h"

namespace sfp::dataplane {
namespace {

using nf::NfConfig;
using nf::NfType;
using switchsim::FieldMatch;
using switchsim::SwitchConfig;

/// Src-ternary firewall with `rules` deny rules: reads the source
/// address NAT rewrites, so it must precede a NAT in the same chain.
NfConfig OrderedFw(int rules) {
  NfConfig config;
  config.type = NfType::kFirewall;
  for (int r = 0; r < rules; ++r) {
    config.rules.push_back(nf::Firewall::Deny(
        FieldMatch::Ternary(0x0A000000u + (static_cast<std::uint32_t>(r) << 8), 0xFFFFFF00),
        FieldMatch::Any(), FieldMatch::Any(), FieldMatch::Range(443, 443),
        FieldMatch::Any()));
  }
  return config;
}

/// Port-only firewall: independent of every other NF type used here.
NfConfig UnorderedFw(int rules) {
  NfConfig config;
  config.type = NfType::kFirewall;
  for (int r = 0; r < rules; ++r) {
    const auto port = static_cast<std::uint16_t>(7000 + r);
    config.rules.push_back(nf::Firewall::Deny(FieldMatch::Any(), FieldMatch::Any(),
                                              FieldMatch::Any(),
                                              FieldMatch::Range(port, port),
                                              FieldMatch::Any()));
  }
  return config;
}

NfConfig NatConfig() {
  NfConfig config;
  config.type = NfType::kNat;
  config.rules.push_back(nf::Nat::Translate(net::Ipv4Address::Of(10, 1, 2, 3),
                                            net::Ipv4Address::Of(203, 0, 113, 7)));
  return config;
}

Sfc MakeSfc(TenantId tenant, std::vector<NfConfig> chain) {
  Sfc sfc;
  sfc.tenant = tenant;
  sfc.bandwidth_gbps = 2.0;
  sfc.chain = std::move(chain);
  return sfc;
}

// ---- steering behaviour ---------------------------------------------

// A successor-free firewall has two instances to choose from (s1 and
// s6 on the bench layout): per-tenant packing takes the earliest, the
// co-scheduler the latest — same pass count either way.
TEST(XtPackingTest, SteersSuccessorFreeNfsToLateStages) {
  auto per_tenant = bench::xt::MakeXtPlane(false);
  auto co_sched = bench::xt::MakeXtPlane(true);
  const auto sfc = MakeSfc(1, {UnorderedFw(4)});

  const auto base = per_tenant.AllocateSfc(sfc);
  const auto co = co_sched.AllocateSfc(sfc);
  ASSERT_TRUE(base.ok) << base.error;
  ASSERT_TRUE(co.ok) << co.error;
  EXPECT_EQ(base.passes, 1);
  EXPECT_EQ(co.passes, 1);
  ASSERT_EQ(base.placements.size(), 1u);
  ASSERT_EQ(co.placements.size(), 1u);
  EXPECT_EQ(base.placements[0].stage, 1);  // earliest firewall instance
  EXPECT_EQ(co.placements[0].stage, 6);    // latest — early capacity preserved
}

// An order-constrained firewall (must precede its NAT) keeps the early
// instance under co-scheduling: it carries a successor, so phase 1
// places it exactly like per-tenant packing does.
TEST(XtPackingTest, OrderConstrainedNfsKeepEarlyStages) {
  auto co_sched = bench::xt::MakeXtPlane(true);
  const auto result = co_sched.AllocateSfc(MakeSfc(1, {OrderedFw(4), NatConfig()}));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.passes, 1);
  ASSERT_EQ(result.placements.size(), 2u);
  EXPECT_EQ(result.placements[0].stage, 1);  // firewall before the NAT (s3)
  EXPECT_EQ(result.placements[1].stage, 3);
}

// The engineered bench population: per-tenant packing folds the
// ordered tenants that lose the race for the early firewall instance,
// co-scheduling folds nobody. This is the tentpole acceptance bar
// (>= 20% aggregate passes saved) pinned at unit-test granularity.
TEST(XtPackingTest, PopulationSavesAggregatePasses) {
  auto per_tenant = bench::xt::MakeXtPlane(false);
  auto co_sched = bench::xt::MakeXtPlane(true);
  std::int64_t base_passes = 0, co_passes = 0;
  for (const auto& sfc : bench::xt::BuildXtPopulation(2.0)) {
    const auto base = per_tenant.AllocateSfc(sfc);
    const auto co = co_sched.AllocateSfc(sfc);
    ASSERT_TRUE(base.ok) << "tenant " << sfc.tenant << ": " << base.error;
    ASSERT_TRUE(co.ok) << "tenant " << sfc.tenant << ": " << co.error;
    EXPECT_LE(co.passes, base.passes) << "tenant " << sfc.tenant;  // never worse
    base_passes += base.passes;
    co_passes += co.passes;
  }
  EXPECT_EQ(base_passes, 71);
  EXPECT_EQ(co_passes, 50);
  EXPECT_GE(100 * (base_passes - co_passes) / base_passes, 20);
  EXPECT_TRUE(co_sched.Audit().empty());
}

// Without co-scheduling (the default planner is sequential), no xt
// metric is exported, and packed placements are bit-identical across
// planes.
TEST(XtPackingTest, OffByDefaultMatchesPerTenantPacking) {
  SwitchConfig config;
  EXPECT_EQ(config.planner, switchsim::Planner::kSequential);

  auto reference = bench::xt::MakeXtPlane(false);
  auto also_off = bench::xt::MakeXtPlane(false);
  for (const auto& sfc : bench::xt::BuildXtPopulation(2.0)) {
    const auto a = reference.AllocateSfc(sfc);
    const auto b = also_off.AllocateSfc(sfc);
    ASSERT_EQ(a.ok, b.ok);
    if (!a.ok) continue;
    ASSERT_EQ(a.passes, b.passes);
    ASSERT_EQ(a.placements.size(), b.placements.size());
    for (std::size_t p = 0; p < a.placements.size(); ++p) {
      EXPECT_EQ(a.placements[p].stage, b.placements[p].stage);
      EXPECT_EQ(a.placements[p].pass, b.placements[p].pass);
    }
  }
  common::metrics::Registry registry;
  reference.ExportMetrics(registry);
  for (const auto& counter : registry.Counters()) {
    EXPECT_EQ(counter.name.rfind("parallelism.xt.", 0), std::string::npos)
        << counter.name << " exported without co-scheduling";
  }
}

/// The parallelism.xt.{allocations, windows_opened, windows_joined,
/// fallback} counters `plane` exports.
std::vector<std::uint64_t> XtTallies(const DataPlane& plane) {
  common::metrics::Registry registry;
  plane.ExportMetrics(registry);
  std::map<std::string, std::uint64_t> counters;
  for (const auto& counter : registry.Counters()) counters[counter.name] = counter.value;
  std::vector<std::uint64_t> tallies;
  for (const char* name : {"parallelism.xt.allocations", "parallelism.xt.windows_opened",
                           "parallelism.xt.windows_joined", "parallelism.xt.fallback"}) {
    EXPECT_TRUE(counters.contains(name)) << name;
    tallies.push_back(counters[name]);
  }
  return tallies;
}

// xt metrics are exported under the co-scheduled planner, with the
// window open/join tallies exact: the 50 tenants' 191 placements share
// 8 stage windows, so joins dominate opens.
TEST(XtPackingTest, ExportsWindowMetricsWhenEnabled) {
  auto co_sched = bench::xt::MakeXtPlane(true);
  for (const auto& sfc : bench::xt::BuildXtPopulation(2.0)) {
    ASSERT_TRUE(co_sched.AllocateSfc(sfc).ok);
  }
  EXPECT_EQ(XtTallies(co_sched), (std::vector<std::uint64_t>{50, 8, 183, 0}));
}

// ---- allocation audit under churn -----------------------------------

// Admit/remove churn over the population: after every mutation the
// audit must hold (each table holds exactly the booked entries, each
// retained chain matches its booking), and the window tallies of the
// re-admissions stay exact.
TEST(XtPackingTest, LedgerAuditHoldsUnderChurn) {
  auto co_sched = bench::xt::MakeXtPlane(true);
  const auto population = bench::xt::BuildXtPopulation(2.0);
  for (const auto& sfc : population) {
    ASSERT_TRUE(co_sched.AllocateSfc(sfc).ok);
    ASSERT_TRUE(co_sched.Audit().empty());
  }
  // Remove every third tenant, then re-admit them.
  for (std::size_t i = 0; i < population.size(); i += 3) {
    ASSERT_TRUE(co_sched.DeallocateSfc(population[i].tenant));
    const auto issues = co_sched.Audit();
    ASSERT_TRUE(issues.empty()) << issues.front();
  }
  for (std::size_t i = 0; i < population.size(); i += 3) {
    ASSERT_TRUE(co_sched.AllocateSfc(population[i]).ok);
    const auto issues = co_sched.Audit();
    ASSERT_TRUE(issues.empty()) << issues.front();
  }
  std::size_t allocated = 0;
  for (const auto& sfc : population) allocated += co_sched.IsAllocated(sfc.tenant) ? 1 : 0;
  EXPECT_EQ(allocated, population.size());
  EXPECT_EQ(XtTallies(co_sched), (std::vector<std::uint64_t>{67, 8, 247, 0}));
}

// ---- departure-time window compaction (SfpSystem) -------------------

/// Small system on the bench layout with a tight stage budget: a hog
/// tenant fills the early firewall instance, folding a later ordered
/// tenant; the hog's departure must trigger compaction.
core::SfpSystem MakeCompactionSystem() {
  SwitchConfig config;
  config.num_stages = 8;
  config.blocks_per_stage = 1;
  config.entries_per_block = 30;
  config.planner = switchsim::Planner::kCoScheduled;
  core::SfpSystem system(config);
  system.ProvisionPhysical(std::vector<std::vector<NfType>>{
      {NfType::kClassifier}, {NfType::kFirewall}, {NfType::kRouter}, {NfType::kNat},
      {NfType::kLoadBalancer}, {NfType::kClassifier}, {NfType::kFirewall},
      {NfType::kLoadBalancer}});
  return system;
}

TEST(XtPackingTest, DepartureCompactionRepacksFoldedTenant) {
  auto system = MakeCompactionSystem();
  // Hog: 29 rules + catch-all = 30 entries, exactly the s1 budget. It
  // is order-constrained (firewall before NAT), so phase 1 puts it on
  // s1 even under co-scheduling.
  const auto hog = MakeSfc(1, {OrderedFw(29), NatConfig()});
  const auto folded = MakeSfc(2, {OrderedFw(8), NatConfig()});
  ASSERT_TRUE(system.AdmitTenant(hog).admitted);
  const auto admit = system.AdmitTenant(folded);
  ASSERT_TRUE(admit.admitted) << admit.reason;
  // s1 is full: tenant 2's firewall lands on s6, after the NAT (s3),
  // so the chain folds into two passes.
  EXPECT_EQ(admit.passes, 2);

  // Give tenant 2 a telemetry history that compaction must not touch.
  switchsim::ProcessResult sample;
  sample.meta.tenant_id = 2;
  sample.passes = 2;
  sample.latency_ns = 900.0;
  for (int i = 0; i < 5; ++i) system.Telemetry().Record(1000, sample);
  const auto before = system.Telemetry().Tenant(2);

  const double charged_before = system.Stats().backplane_gbps;
  ASSERT_TRUE(system.RemoveTenant(1));

  // Compaction re-planned tenant 2 into a single pass through the
  // atomic update path, shrinking its eq. 26 backplane charge.
  const auto* allocation = system.data_plane().FindAllocation(2);
  ASSERT_NE(allocation, nullptr);
  EXPECT_EQ(allocation->passes, 1);
  EXPECT_LT(system.Stats().backplane_gbps, charged_before);
  EXPECT_EQ(system.data_plane().xt_compactions(), 1u);
  EXPECT_EQ(system.data_plane().xt_compaction_passes_saved(), 1u);
  const auto issues = system.data_plane().Audit();
  EXPECT_TRUE(issues.empty()) << issues.front();
  // Windows are keyed by pass: the hog opens (p0, s1) and (p0, s3),
  // tenant 2 opens (p0, s6) and (p1, s3), and the move, with tenant 2
  // taken out first, opens (p0, s1) and (p0, s3) again.
  const auto stats = system.data_plane().pass_packing();
  EXPECT_EQ(stats.xt_windows_opened, 6u);
  EXPECT_EQ(stats.xt_windows_joined, 0u);

  // The telemetry series is byte-identical: compaction moves rules,
  // never counters.
  const auto after = system.Telemetry().Tenant(2);
  EXPECT_EQ(before.packets, after.packets);
  EXPECT_EQ(before.bytes, after.bytes);
  EXPECT_EQ(before.drops, after.drops);
  EXPECT_EQ(before.recirculated_packets, after.recirculated_packets);
  EXPECT_EQ(before.total_passes, after.total_passes);
  EXPECT_EQ(before.total_latency_ns, after.total_latency_ns);
  EXPECT_EQ(before.max_latency_ns, after.max_latency_ns);
}

// A re-plan plans as if the tenant had departed: a window that only
// the tenant itself holds is not open. Tenant 2 opens (p1, s0); tenant
// 1's successor-free classifier joins it rather than take (p0, s0),
// since both add no pass. Once tenant 2 leaves, tenant 1's re-plan
// must not see its own placement as an open window.
TEST(XtPackingTest, ReplanDoesNotSteerIntoWindowsOnlyTheTenantHolds) {
  SwitchConfig config;
  config.num_stages = 3;
  config.blocks_per_stage = 4;
  config.entries_per_block = 100;
  config.planner = switchsim::Planner::kCoScheduled;
  DataPlane dp(config);
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kNat));
  ASSERT_TRUE(dp.InstallPhysicalNf(2, NfType::kFirewall));
  NfConfig by_src;  // reads the source NAT rewrites: runs after the NAT
  by_src.type = NfType::kClassifier;
  by_src.rules.push_back(nf::Classifier::ClassifyBySrc(0xCB007100u, 0xFFFFFF00u, 1));
  NfConfig by_port;  // independent of the firewall and the NAT
  by_port.type = NfType::kClassifier;
  by_port.rules.push_back(nf::Classifier::ClassifyByPort(80, 80, 2));

  const auto second = dp.AllocateSfc(MakeSfc(2, {NatConfig(), by_src}));
  ASSERT_TRUE(second.ok) << second.error;
  ASSERT_EQ(second.placements.size(), 2u);
  EXPECT_EQ(second.placements[1].stage, 0);
  EXPECT_EQ(second.placements[1].pass, 1);

  const Sfc first = MakeSfc(1, {OrderedFw(2), NatConfig(), by_port});
  const auto joined = dp.AllocateSfc(first);
  ASSERT_TRUE(joined.ok) << joined.error;
  ASSERT_EQ(joined.placements.size(), 3u);
  EXPECT_EQ(joined.passes, 2);
  EXPECT_EQ(joined.placements[2].stage, 0);
  EXPECT_EQ(joined.placements[2].pass, 1);

  dp.DeallocateSfc(2);
  const auto replan = dp.PlanSfc(first);
  ASSERT_TRUE(replan.allocation.ok) << replan.allocation.error;
  EXPECT_EQ(replan.allocation.passes, 2);
  EXPECT_EQ(replan.allocation.placements[2].stage, 0);
  EXPECT_EQ(replan.allocation.placements[2].pass, 0);
}

// Without a freeing departure there is nothing to compact: removing an
// unrelated single-pass tenant must not move anybody.
TEST(XtPackingTest, NoCompactionWithoutFreedCapacity) {
  auto system = MakeCompactionSystem();
  ASSERT_TRUE(system.AdmitTenant(MakeSfc(1, {OrderedFw(8), NatConfig()})).admitted);
  ASSERT_TRUE(system.AdmitTenant(MakeSfc(2, {UnorderedFw(4)})).admitted);
  ASSERT_TRUE(system.RemoveTenant(2));
  EXPECT_EQ(system.data_plane().xt_compactions(), 0u);
  const auto* allocation = system.data_plane().FindAllocation(1);
  ASSERT_NE(allocation, nullptr);
  EXPECT_EQ(allocation->passes, 1);
}

// Churn round through SfpSystem: admissions and departures (with
// compaction firing) keep the data-plane audit clean at every step.
TEST(XtPackingTest, SystemChurnKeepsLedgerConsistent) {
  SwitchConfig config;
  config.num_stages = 8;
  config.blocks_per_stage = 1;
  config.entries_per_block = bench::xt::kEntriesPerBlock;
  config.planner = switchsim::Planner::kCoScheduled;
  core::SfpSystem system(config);
  system.ProvisionPhysical(std::vector<std::vector<NfType>>{
      {NfType::kClassifier}, {NfType::kFirewall}, {NfType::kRouter}, {NfType::kNat},
      {NfType::kLoadBalancer}, {NfType::kClassifier}, {NfType::kFirewall},
      {NfType::kLoadBalancer}});
  const auto population = bench::xt::BuildXtPopulation(1.0);
  Rng rng(4242);
  std::vector<bool> admitted(population.size(), false);
  int mutations = 0;
  for (int round = 0; round < 200; ++round) {
    const auto pick = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(population.size()) - 1));
    if (admitted[pick]) {
      ASSERT_TRUE(system.RemoveTenant(population[pick].tenant));
      admitted[pick] = false;
    } else {
      const auto result = system.AdmitTenant(population[pick]);
      if (result.admitted) admitted[pick] = true;
    }
    ++mutations;
    const auto issues = system.data_plane().Audit();
    ASSERT_TRUE(issues.empty()) << "after mutation " << mutations << ": " << issues.front();
  }
}

// ---- randomized differential: co-scheduled == per-tenant packed -----

int DiffChains() {
  if (const char* env = std::getenv("SFP_XT_DIFF_CHAINS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 300;
}

/// Twin planes on a seed-shuffled layout: `packed` runs per-tenant
/// packing (the PR 9 reference), `co` the cross-tenant co-scheduler.
/// Every NF type is installed once per plane, so the single
/// rate-limiter instance carries identical bucket state on both sides
/// as long as packets are processed in lockstep.
struct XtTwins {
  DataPlane packed;
  DataPlane co;

  static SwitchConfig Config(bool cross_tenant) {
    SwitchConfig config;
    config.num_stages = nf::kNumNfTypes;
    config.blocks_per_stage = 6;
    config.entries_per_block = 100;
    config.planner =
        cross_tenant ? switchsim::Planner::kCoScheduled : switchsim::Planner::kPacked;
    return config;
  }

  explicit XtTwins(Rng& rng) : packed(Config(false)), co(Config(true)) {
    std::vector<int> stages(static_cast<std::size_t>(nf::kNumNfTypes));
    for (int t = 0; t < nf::kNumNfTypes; ++t) stages[static_cast<std::size_t>(t)] = t;
    rng.Shuffle(stages);
    for (int t = 0; t < nf::kNumNfTypes; ++t) {
      const int stage = stages[static_cast<std::size_t>(t)];
      const auto type = static_cast<NfType>(t);
      EXPECT_TRUE(packed.InstallPhysicalNf(stage, type));
      EXPECT_TRUE(co.InstallPhysicalNf(stage, type));
      if (type == NfType::kRateLimiter) {
        static_cast<nf::RateLimiter*>(packed.PhysicalNf(stage, type))->AddBucket(100.0, 10.0);
        static_cast<nf::RateLimiter*>(co.PhysicalNf(stage, type))->AddBucket(100.0, 10.0);
      }
    }
  }
};

TEST(XtPackingEquivalenceTest, CoScheduledMatchesPerTenantPacked) {
  const int chains = DiffChains();
  int compared = 0;
  for (int i = 0; i < chains; ++i) {
    Rng rng(static_cast<std::uint64_t>(i) * 6151 + 29);
    XtTwins twins(rng);
    if (::testing::Test::HasFatalFailure()) return;

    // Several tenants per round so the co-scheduler actually sees
    // cross-tenant windows, not just a lone chain.
    constexpr int kTenants = 3;
    std::vector<TenantId> admitted;
    for (TenantId tenant = 1; tenant <= kTenants; ++tenant) {
      const int chain_len = static_cast<int>(rng.UniformInt(2, 6));
      const auto sfc = workload::GenerateConcreteSfc(tenant, chain_len, 5.0, rng,
                                                     /*rules_per_nf=*/8);
      const auto packed_result = twins.packed.AllocateSfc(sfc);
      const auto co_result = twins.co.AllocateSfc(sfc);
      // Co-scheduling only widens admissibility; whatever the packed
      // reference admits, the co-scheduler admits at no more passes.
      if (packed_result.ok) {
        ASSERT_TRUE(co_result.ok) << "chain " << i << ": " << co_result.error;
        ASSERT_LE(co_result.passes, packed_result.passes) << "chain " << i;
      }
      if (packed_result.ok && co_result.ok) admitted.push_back(tenant);
    }
    if (admitted.empty()) continue;
    ++compared;

    // Lockstep packet differential, telemetry recorded per plane.
    TelemetryCollector packed_telemetry, co_telemetry;
    for (const TenantId tenant : admitted) {
      workload::PacketSizeProfile profile;
      const auto packets =
          workload::GenerateFlows(tenant, /*num_flows=*/6, /*count=*/40, profile, rng);
      for (const auto& packet : packets) {
        const auto a = twins.packed.Process(packet);
        const auto b = twins.co.Process(packet);
        packed_telemetry.Record(1000, a);
        co_telemetry.Record(1000, b);
        ASSERT_EQ(a.meta.dropped, b.meta.dropped) << "chain " << i;
        ASSERT_EQ(a.meta.drop_reason, b.meta.drop_reason) << "chain " << i;
        if (a.meta.dropped) continue;  // post-drop header state is unobservable
        ASSERT_EQ(a.meta.flow_class, b.meta.flow_class) << "chain " << i;
        ASSERT_EQ(a.meta.egress_port, b.meta.egress_port) << "chain " << i;
        ASSERT_EQ(a.meta.scratch, b.meta.scratch) << "chain " << i;
        ASSERT_TRUE(a.packet.ipv4.has_value());
        ASSERT_TRUE(b.packet.ipv4.has_value());
        ASSERT_EQ(a.packet.ipv4->src, b.packet.ipv4->src) << "chain " << i;
        ASSERT_EQ(a.packet.ipv4->dst, b.packet.ipv4->dst) << "chain " << i;
        ASSERT_EQ(a.packet.ipv4->ttl, b.packet.ipv4->ttl) << "chain " << i;
        ASSERT_EQ(a.packet.Tuple().Hash(), b.packet.Tuple().Hash()) << "chain " << i;
      }
    }
    // Per-tenant telemetry matches on every field that is not derived
    // from the pass count (fewer passes is the feature, so
    // recirculated/total_passes/latency legitimately shrink).
    for (const TenantId tenant : admitted) {
      const auto a = packed_telemetry.Tenant(tenant);
      const auto b = co_telemetry.Tenant(tenant);
      ASSERT_EQ(a.packets, b.packets) << "chain " << i << " tenant " << tenant;
      ASSERT_EQ(a.bytes, b.bytes) << "chain " << i << " tenant " << tenant;
      ASSERT_EQ(a.drops, b.drops) << "chain " << i << " tenant " << tenant;
      ASSERT_LE(b.total_passes, a.total_passes) << "chain " << i << " tenant " << tenant;
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(XtPackingEquivalenceTest, CompiledMatchesInterpretedOnCoScheduledLayouts) {
  const int chains = std::min(DiffChains(), 40);
  for (int i = 0; i < chains; ++i) {
    Rng rng(static_cast<std::uint64_t>(i) * 92821 + 11);
    Rng rng_copy = rng;  // same stream -> identical shuffled layouts
    XtTwins interpreted_twins(rng);
    XtTwins compiled_twins(rng_copy);
    if (::testing::Test::HasFatalFailure()) return;
    compiled_twins.co.EnableCompiledPlans();

    const int chain_len = static_cast<int>(rng.UniformInt(2, 6));
    const auto sfc = workload::GenerateConcreteSfc(/*tenant=*/1, chain_len, 5.0, rng,
                                                   /*rules_per_nf=*/8);
    const auto interpreted = interpreted_twins.co.AllocateSfc(sfc);
    const auto compiled = compiled_twins.co.AllocateSfc(sfc);
    ASSERT_EQ(interpreted.ok, compiled.ok) << "chain " << i;
    if (!interpreted.ok) continue;
    ASSERT_EQ(interpreted.passes, compiled.passes) << "chain " << i;

    workload::PacketSizeProfile profile;
    const auto packets =
        workload::GenerateFlows(/*tenant=*/1, /*num_flows=*/8, /*count=*/128, profile, rng);
    switchsim::BatchOptions options;
    options.num_threads = 1;
    options.min_parallel_batch = 1;
    const auto a = interpreted_twins.co.ProcessBatch(packets, options);
    const auto b = compiled_twins.co.ProcessBatch(packets, options);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
      ASSERT_EQ(a[p].meta.dropped, b[p].meta.dropped) << "chain " << i << " pkt " << p;
      ASSERT_EQ(a[p].meta.drop_reason, b[p].meta.drop_reason) << "chain " << i;
      if (a[p].meta.dropped) continue;
      ASSERT_EQ(a[p].meta.flow_class, b[p].meta.flow_class) << "chain " << i;
      ASSERT_EQ(a[p].meta.egress_port, b[p].meta.egress_port) << "chain " << i;
      ASSERT_EQ(a[p].meta.scratch, b[p].meta.scratch) << "chain " << i;
      ASSERT_EQ(a[p].passes, b[p].passes) << "chain " << i;
      ASSERT_EQ(a[p].packet.Tuple().Hash(), b[p].packet.Tuple().Hash()) << "chain " << i;
    }
  }
}

}  // namespace
}  // namespace sfp::dataplane
