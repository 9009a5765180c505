// Tests for SfpSystem's one control-plane transaction (plan against
// the pipeline minus the tenant, check eq. 26 with the tenant's booked
// charge discounted, swap all-or-nothing, then book what is installed)
// and for the planning exclusion it rests on.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/faultinject.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/sfp_system.h"
#include "dataplane/data_plane.h"
#include "net/packet.h"
#include "nf/firewall.h"
#include "nf/router.h"
#include "switchsim/compiler/plan_cache.h"

namespace sfp {
namespace {

using common::faultinject::FaultSpec;
using common::faultinject::ScopedFaultPlan;
using dataplane::NfPlacement;
using dataplane::Sfc;
using nf::NfType;
using switchsim::FieldMatch;

nf::NfConfig Fw(int rules) {
  nf::NfConfig config;
  config.type = NfType::kFirewall;
  for (int i = 0; i < rules; ++i) {
    const auto port = static_cast<std::uint64_t>(1000 + i);
    config.rules.push_back(nf::Firewall::Deny(FieldMatch::Any(), FieldMatch::Any(),
                                              FieldMatch::Any(), FieldMatch::Range(port, port),
                                              FieldMatch::Any()));
  }
  return config;
}

nf::NfConfig Rt() {
  nf::NfConfig config;
  config.type = NfType::kRouter;
  config.rules.push_back(nf::Router::Route(0, 0, 1));
  return config;
}

Sfc MakeSfc(dataplane::TenantId tenant, double gbps, std::vector<nf::NfConfig> chain) {
  Sfc sfc;
  sfc.tenant = tenant;
  sfc.bandwidth_gbps = gbps;
  sfc.chain = std::move(chain);
  return sfc;
}

void ExpectSamePlacements(const std::vector<NfPlacement>& a,
                          const std::vector<NfPlacement>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].stage, b[j].stage) << "NF " << j;
    EXPECT_EQ(a[j].pass, b[j].pass) << "NF " << j;
    EXPECT_EQ(a[j].rec, b[j].rec) << "NF " << j;
  }
}

// Mirrors AdmissionLedgerTest.BackplaneRejectedAdmitTouchesNoTable for
// a re-provision: raising a live tenant's bandwidth past eq. 26 is
// rejected before any table mutates, so the tenant keeps serving its
// old allocation with its old charge and its compiled plan.
TEST(TransactionTest, BackplaneRejectedReprovisionKeepsTheOldAllocation) {
  switchsim::SwitchConfig config;
  config.num_stages = 2;
  config.backplane_gbps = 100.0;
  core::SfpSystem system(config);
  ASSERT_EQ(system.ProvisionPhysical({{NfType::kFirewall}, {NfType::kRouter}}), 2);
  system.EnableCompiledPlans();
  Sfc tenant = MakeSfc(1, 10.0, {Fw(2), Rt()});
  ASSERT_TRUE(system.AdmitTenant(tenant).admitted);
  ASSERT_TRUE(system.AdmitTenant(MakeSfc(2, 80.0, {Fw(1)})).admitted);

  auto* cache = system.data_plane().pipeline().plan_cache();
  const auto plan = cache->Acquire(1);
  ASSERT_NE(plan, nullptr);
  const auto placements = system.data_plane().FindAllocation(1)->placements;
  const int passes = system.data_plane().FindAllocation(1)->passes;
  const std::uint64_t epoch = system.data_plane().pipeline().table_mutation_epoch()->Value();
  const core::SfpStats stats = system.Stats();

  tenant.bandwidth_gbps = 30.0;  // 80 + 30 > 100
  const auto result = system.ReprovisionTenant(tenant);
  EXPECT_NE(result.reason.find("backplane capacity exceeded"), std::string::npos)
      << result.reason;
  EXPECT_EQ(result.passes, 0);

  const auto* allocation = system.data_plane().FindAllocation(1);
  ASSERT_NE(allocation, nullptr) << "a rejected re-provision dropped the tenant";
  EXPECT_EQ(allocation->passes, passes);
  ExpectSamePlacements(allocation->placements, placements);
  EXPECT_EQ(system.data_plane().pipeline().table_mutation_epoch()->Value(), epoch)
      << "a rejected re-provision mutated tables";
  const core::SfpStats after = system.Stats();
  EXPECT_EQ(after.tenants, stats.tenants);
  EXPECT_EQ(after.offered_gbps, stats.offered_gbps);
  EXPECT_EQ(after.backplane_gbps, stats.backplane_gbps);
  EXPECT_EQ(after.blocks_used, stats.blocks_used);
  EXPECT_EQ(after.entries_used, stats.entries_used);
  EXPECT_EQ(cache->Acquire(1).get(), plan.get()) << "the tenant's compiled plan was dropped";
}

// A re-provision faulted after the tenant's old entries came out, but
// before the new plan went in, restores the old entries at their old
// placements: the tenant keeps its 2-pass layout even though a fresh
// plan would now fit in one pass, and the ledger still charges exactly
// the installed passes x T.
TEST(TransactionTest, FaultedReprovisionKeepsTheOldPlacementAndCharge) {
  switchsim::SwitchConfig config;
  config.num_stages = 3;
  config.blocks_per_stage = 1;
  config.entries_per_block = 10;
  core::SfpSystem system(config);
  ASSERT_EQ(system.ProvisionPhysical({{NfType::kFirewall}, {NfType::kRouter}, {NfType::kFirewall}}),
            3);
  // Tenant 2 fills stage 2's firewall, so tenant 1's firewall folds
  // back to stage 0 in a second pass.
  ASSERT_TRUE(system.AdmitTenant(MakeSfc(2, 10.0, {Rt(), Fw(8)})).admitted);
  const Sfc tenant = MakeSfc(1, 10.0, {Rt(), Fw(1)});
  ASSERT_EQ(system.AdmitTenant(tenant).passes, 2);
  ASSERT_TRUE(system.RemoveTenant(2));
  const auto placements = system.data_plane().FindAllocation(1)->placements;

  core::AdmitOptions once;
  once.max_attempts = 1;
  once.initial_backoff = std::chrono::microseconds{0};
  {
    // Hit 1: before the old entries come out; hit 2: before the new
    // plan goes in.
    ScopedFaultPlan faults({.seed = 1, .faults = {FaultSpec::Nth("dataplane.apply_op", 2)}});
    const auto result = system.ReprovisionTenant(tenant, once);
    EXPECT_EQ(result.passes, 0);
  }
  const auto* allocation = system.data_plane().FindAllocation(1);
  ASSERT_NE(allocation, nullptr);
  EXPECT_EQ(allocation->passes, 2);
  ExpectSamePlacements(allocation->placements, placements);
  EXPECT_EQ(system.Stats().tenants, 1);
  EXPECT_DOUBLE_EQ(system.Stats().backplane_gbps, allocation->passes * tenant.bandwidth_gbps);

  // Unfaulted, the same re-provision compacts the tenant to one pass
  // and books the smaller charge.
  const auto moved = system.ReprovisionTenant(tenant, once);
  EXPECT_EQ(moved.passes, 1);
  EXPECT_EQ(system.data_plane().FindAllocation(1)->passes, 1);
  EXPECT_DOUBLE_EQ(system.Stats().backplane_gbps, tenant.bandwidth_gbps);
}

// A re-provision whose restore faults too loses the tenant's rules and
// its ledger booking (kDiverged). Removing the tenant afterwards must
// still retire its telemetry series: a series left live would never
// count against the departed-series cap.
TEST(TransactionTest, RemovingADivergedTenantRetiresItsTelemetry) {
  switchsim::SwitchConfig config;
  config.num_stages = 2;
  core::SfpSystem system(config);
  ASSERT_EQ(system.ProvisionPhysical({{NfType::kFirewall}, {NfType::kRouter}}), 2);
  const Sfc tenant = MakeSfc(1, 10.0, {Fw(2), Rt()});
  ASSERT_TRUE(system.AdmitTenant(tenant).admitted);
  const std::vector<net::Packet> packets = {net::MakeTcpPacket(
      1, net::Ipv4Address::Of(10, 0, 0, 1), net::Ipv4Address::Of(10, 0, 0, 2), 1234, 80, 64)};
  system.ProcessBatch(packets);
  ASSERT_EQ(system.Telemetry().Tenants(), std::vector<std::uint16_t>{1});

  core::AdmitOptions once;
  once.max_attempts = 1;
  once.initial_backoff = std::chrono::microseconds{0};
  {
    // Hit 2 of apply_op fails the swap after the old entries came out;
    // every restore install then fails.
    ScopedFaultPlan faults({.seed = 1,
                            .faults = {FaultSpec::Nth("dataplane.apply_op", 2),
                                       FaultSpec::Always("dataplane.install_rule")}});
    const auto result = system.ReprovisionTenant(tenant, once);
    ASSERT_EQ(result.code, core::AdmitCode::kDiverged) << result.reason;
  }
  EXPECT_FALSE(system.RemoveTenant(1)) << "the ledger no longer books a diverged tenant";
  EXPECT_TRUE(system.Telemetry().IsDeparted(1));
  // Every retained series is a departed one: none is left live.
  EXPECT_EQ(system.Telemetry().Tenants(), system.Telemetry().DepartedTenants());
}

// Removing a tenant that already departed leaves its departure where it
// was: with a cap of two departed series, the third departure evicts
// the first one, even though it was removed a second time in between.
TEST(TransactionTest, RemovingADepartedTenantAgainKeepsItsDepartureOrder) {
  switchsim::SwitchConfig config;
  config.num_stages = 2;
  core::SfpSystem system(config);
  ASSERT_EQ(system.ProvisionPhysical({{NfType::kFirewall}, {NfType::kRouter}}), 2);
  system.Telemetry().SetRetention(dataplane::TelemetryRetention::kKeepDeparted, 2);
  std::vector<net::Packet> packets;
  for (dataplane::TenantId t = 1; t <= 3; ++t) {
    ASSERT_TRUE(system.AdmitTenant(MakeSfc(t, 10.0, {Fw(2), Rt()})).admitted);
    packets.push_back(net::MakeTcpPacket(t, net::Ipv4Address::Of(10, 0, 0, 1),
                                         net::Ipv4Address::Of(10, 0, 0, 2), 1234, 80, 64));
  }
  system.ProcessBatch(packets);
  ASSERT_EQ(system.Telemetry().Tenants(), (std::vector<std::uint16_t>{1, 2, 3}));

  EXPECT_TRUE(system.RemoveTenant(1));
  EXPECT_TRUE(system.RemoveTenant(2));
  EXPECT_FALSE(system.RemoveTenant(1));
  EXPECT_TRUE(system.RemoveTenant(3));
  EXPECT_EQ(system.Telemetry().DepartedTenants(), (std::vector<std::uint16_t>{2, 3}));
}

// Every public control op files one wall-clock sample, whatever its
// outcome.
TEST(TransactionTest, EveryControlOpIsTimedOnce) {
  switchsim::SwitchConfig config;
  config.num_stages = 2;
  config.backplane_gbps = 100.0;
  core::SfpSystem system(config);
  ASSERT_EQ(system.ProvisionPhysical({{NfType::kFirewall}, {NfType::kRouter}}), 2);
  const Sfc a = MakeSfc(1, 10.0, {Fw(1)});
  ASSERT_TRUE(system.AdmitTenant(a).admitted);
  ASSERT_TRUE(system.AdmitTenant(MakeSfc(2, 10.0, {Rt()})).admitted);
  EXPECT_TRUE(system.ReprovisionTenant(a).admitted);
  EXPECT_FALSE(system.ReprovisionTenant(MakeSfc(1, 500.0, {Fw(1)})).admitted);
  EXPECT_TRUE(system.ReprovisionTenant(MakeSfc(3, 10.0, {Rt()})).admitted);
  EXPECT_TRUE(system.RemoveTenant(2));
  EXPECT_FALSE(system.RemoveTenant(9));

  common::metrics::Registry registry;
  system.ExportMetrics(registry);
  std::map<std::string, std::uint64_t> counts;
  for (const auto& histogram : registry.Histograms()) counts[histogram.name] = histogram.count;
  EXPECT_EQ(counts["system.admit.latency_ns"], 2u);
  EXPECT_EQ(counts["system.reprovision.latency_ns"], 3u);
  EXPECT_EQ(counts["system.remove.latency_ns"], 2u);
}

/// A random chain of 1-4 NFs over the five rule-carrying types, 1-24
/// rules each.
Sfc RandomChain(dataplane::TenantId tenant, Rng& rng) {
  const NfType types[] = {NfType::kFirewall, NfType::kClassifier, NfType::kRouter,
                          NfType::kNat, NfType::kLoadBalancer};
  Sfc sfc;
  sfc.tenant = tenant;
  sfc.bandwidth_gbps = 1.0;
  const int length = static_cast<int>(rng.UniformInt(1, 4));
  for (int j = 0; j < length; ++j) {
    nf::NfConfig config;
    config.type = types[rng.UniformInt(0, 4)];
    config.rules = nf::MakeNf(config.type)->GenerateRules(rng, static_cast<int>(rng.UniformInt(1, 24)));
    sfc.chain.push_back(std::move(config));
  }
  return sfc;
}

/// Two or three tables per stage, with small blocks so chains contend
/// for stage memory.
void InstallSharedLayout(dataplane::DataPlane& dp) {
  const std::vector<std::vector<NfType>> layout = {
      {NfType::kFirewall, NfType::kClassifier},
      {NfType::kRouter, NfType::kNat, NfType::kFirewall},
      {NfType::kLoadBalancer, NfType::kClassifier},
      {NfType::kNat, NfType::kRouter, NfType::kLoadBalancer}};
  for (std::size_t stage = 0; stage < layout.size(); ++stage) {
    for (const NfType type : layout[stage]) {
      ASSERT_TRUE(dp.InstallPhysicalNf(static_cast<int>(stage), type));
    }
  }
}

void ExpectSamePlan(const dataplane::AllocationPlan& a, const dataplane::AllocationPlan& b) {
  EXPECT_EQ(a.allocation.ok, b.allocation.ok);
  EXPECT_EQ(a.allocation.code, b.allocation.code);
  EXPECT_EQ(a.allocation.passes, b.allocation.passes);
  EXPECT_EQ(a.allocation.sequential_passes, b.allocation.sequential_passes);
  ExpectSamePlacements(a.allocation.placements, b.allocation.placements);
  EXPECT_EQ(a.packing.sequential, b.packing.sequential);
  EXPECT_EQ(a.packing.packed, b.packing.packed);
  EXPECT_EQ(a.packing.fallback_sequential, b.packing.fallback_sequential);
  EXPECT_EQ(a.packing.xt_allocations, b.packing.xt_allocations);
  EXPECT_EQ(a.packing.xt_fallback, b.packing.xt_fallback);
}

// Planning a re-provision of tenant t against the live pipeline (t's
// own entries discounted) must equal planning on a twin after
// DeallocateSfc(t), under each planner. The twins then apply the plan
// (a swap on one, a fresh install on the other) and must stay
// identical, so each later probe starts from a different population.
TEST(TransactionTest, PlanningMinusATenantMatchesPlanningAfterItsDeparture) {
  for (const int planner : {0, 1, 2}) {
    SCOPED_TRACE("planner " + std::to_string(planner));
    switchsim::SwitchConfig config;
    config.num_stages = 4;
    config.blocks_per_stage = 5;
    config.entries_per_block = 16;
    config.max_passes = 4;
    config.planner = static_cast<switchsim::Planner>(planner);
    dataplane::DataPlane live(config);
    dataplane::DataPlane twin(config);
    ASSERT_NO_FATAL_FAILURE(InstallSharedLayout(live));
    ASSERT_NO_FATAL_FAILURE(InstallSharedLayout(twin));

    Rng rng(0x5EEDu + static_cast<std::uint64_t>(planner));
    constexpr int kTenants = 12;
    int probes = 0;
    int moved = 0;
    for (int round = 0; round < 400; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const auto tenant = static_cast<dataplane::TenantId>(rng.UniformInt(1, kTenants));
      const Sfc sfc = RandomChain(tenant, rng);
      if (!live.IsAllocated(tenant)) {
        const auto a = live.AllocateSfc(sfc);
        const auto b = twin.AllocateSfc(sfc);
        ASSERT_EQ(a.ok, b.ok);
        continue;
      }
      if (rng.Bernoulli(0.2)) {
        live.DeallocateSfc(tenant);
        twin.DeallocateSfc(tenant);
        continue;
      }
      ++probes;
      const auto excluding = live.PlanSfc(sfc);
      twin.DeallocateSfc(tenant);
      const auto departed = twin.PlanSfc(sfc);
      ASSERT_NO_FATAL_FAILURE(ExpectSamePlan(excluding, departed));
      if (excluding.allocation.ok) {
        ++moved;
        ASSERT_TRUE(live.SwapSfc(tenant, &sfc, &excluding).ok);
        ASSERT_TRUE(twin.InstallSfc(sfc, departed).ok);
      } else {
        live.DeallocateSfc(tenant);
      }
      for (int k = 0; k < config.num_stages; ++k) {
        ASSERT_EQ(live.pipeline().stage(k).EntriesUsed(), twin.pipeline().stage(k).EntriesUsed());
        ASSERT_LE(live.pipeline().stage(k).BlocksUsed(), config.blocks_per_stage);
      }
      const auto issues = live.Audit();
      ASSERT_TRUE(issues.empty()) << issues.front();
    }
    EXPECT_GT(probes, 50);
    EXPECT_GT(moved, 20);
    EXPECT_EQ(live.pass_packing().packed, twin.pass_packing().packed);
    EXPECT_EQ(live.pass_packing().xt_windows_joined, twin.pass_packing().xt_windows_joined);
  }
}

}  // namespace
}  // namespace sfp
