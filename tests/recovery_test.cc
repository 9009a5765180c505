// Tests for the RecoveryController: signature-driven detection,
// sim-time exponential backoff, and the bounded-attempts quarantine
// that keeps a persistently failing tenant from livelocking the loop.
#include <gtest/gtest.h>

#include <vector>

#include "common/faultinject.h"
#include "nf/firewall.h"
#include "nf/router.h"
#include "scenario/recovery.h"

namespace sfp::scenario {
namespace {

using common::faultinject::FaultPlan;
using common::faultinject::FaultSpec;
using common::faultinject::ScopedFaultPlan;
using dataplane::Sfc;

nf::NfConfig Fw(std::uint16_t blocked_port) {
  nf::NfConfig config;
  config.type = nf::NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(
      switchsim::FieldMatch::Any(), switchsim::FieldMatch::Any(),
      switchsim::FieldMatch::Any(),
      switchsim::FieldMatch::Range(blocked_port, blocked_port),
      switchsim::FieldMatch::Any()));
  return config;
}

nf::NfConfig Rt() {
  nf::NfConfig config;
  config.type = nf::NfType::kRouter;
  config.rules.push_back(nf::Router::Route(0, 0, 1));
  return config;
}

switchsim::SwitchConfig SmallSwitch() {
  switchsim::SwitchConfig config;
  config.num_stages = 2;
  config.blocks_per_stage = 8;
  config.entries_per_block = 200;
  config.backplane_gbps = 400.0;
  return config;
}

core::SfpSystem MakeSystem() {
  core::SfpSystem system(SmallSwitch());
  EXPECT_GT(
      system.ProvisionPhysical({{nf::NfType::kFirewall}, {nf::NfType::kRouter}}), 0);
  return system;
}

/// Out-of-order chain on the {Firewall}, {Router} layout: folds into
/// two passes.
Sfc MultiPassSfc(dataplane::TenantId tenant) {
  Sfc sfc;
  sfc.tenant = tenant;
  sfc.bandwidth_gbps = 5.0;
  sfc.chain = {Rt(), Fw(7)};
  return sfc;
}

Sfc SinglePassSfc(dataplane::TenantId tenant) {
  Sfc sfc;
  sfc.tenant = tenant;
  sfc.bandwidth_gbps = 5.0;
  sfc.chain = {Fw(7)};
  return sfc;
}

/// Serves `count` packets for `tenant` (dport 2000: never matches the
/// deny rule, so any drop is injected).
void Serve(core::SfpSystem& system, dataplane::TenantId tenant, int count) {
  for (int i = 0; i < count; ++i) {
    system.Process(net::MakeTcpPacket(tenant, net::Ipv4Address::Of(10, 0, 0, 1),
                                      net::Ipv4Address::Of(2, 2, 2, 2), 1024, 2000, 64));
  }
}

TEST(RecoveryControllerTest, StructuralDamageIsDetectedAndRepairedSamePoll) {
  auto system = MakeSystem();
  const Sfc sfc = MultiPassSfc(1);
  const auto admit = system.AdmitTenant(sfc);
  ASSERT_TRUE(admit.admitted);
  ASSERT_EQ(admit.passes, 2);

  RecoveryController recovery(system);
  recovery.TrackTenant(sfc, admit.passes);

  // Strip the tenant's rules out from under it.
  system.data_plane().DeallocateSfc(1);
  ASSERT_FALSE(system.data_plane().IsAllocated(1));

  recovery.Poll(3.0);
  EXPECT_TRUE(system.data_plane().IsAllocated(1));
  ASSERT_EQ(recovery.episodes().size(), 1u);
  const auto& episode = recovery.episodes()[0];
  EXPECT_EQ(episode.tenant, 1u);
  EXPECT_TRUE(episode.recovered);
  EXPECT_EQ(episode.cause, "structural");
  EXPECT_EQ(episode.attempts, 1);
  EXPECT_DOUBLE_EQ(episode.DurationMs(), 0.0);
  EXPECT_EQ(recovery.counters().detections, 1u);
  EXPECT_EQ(recovery.counters().successes, 1u);
  EXPECT_TRUE(recovery.DegradedTenants().empty());
}

TEST(RecoveryControllerTest, PassesCollapseSignatureFlagsMultiPassTenant) {
  auto system = MakeSystem();
  const Sfc sfc = SinglePassSfc(1);
  const auto admit = system.AdmitTenant(sfc);
  ASSERT_TRUE(admit.admitted);

  RecoveryController recovery(system);
  // Expected passes deliberately exceed reality: the window's mean
  // pass count (1.0) sits far below 3 - margin, which is exactly what
  // a lost multi-pass tenant's traffic looks like (no catch-all rule,
  // no recirculation).
  recovery.TrackTenant(sfc, 3);

  Serve(system, 1, 32);
  recovery.Poll(1.0);

  ASSERT_EQ(recovery.episodes().size(), 1u);
  EXPECT_EQ(recovery.episodes()[0].cause, "passes-collapse");
  EXPECT_TRUE(recovery.episodes()[0].recovered);

  // The repair updated the expected pass count from the fresh
  // allocation, so the tenant is not re-flagged once its cooldown
  // expires.
  Serve(system, 1, 32);
  recovery.Poll(5.0);
  Serve(system, 1, 32);
  recovery.Poll(6.0);
  EXPECT_EQ(recovery.episodes().size(), 1u);
}

TEST(RecoveryControllerTest, DropSpikeSignatureFlagsInjectedDrops) {
  auto system = MakeSystem();
  const Sfc sfc = MultiPassSfc(1);
  const auto admit = system.AdmitTenant(sfc);
  ASSERT_TRUE(admit.admitted);

  RecoveryController recovery(system);
  recovery.TrackTenant(sfc, admit.passes);

  {
    FaultPlan plan;
    plan.seed = 99;
    plan.faults = {FaultSpec::Probability("switchsim.pipeline.serve", 0.9)};
    ScopedFaultPlan armed(plan);
    Serve(system, 1, 64);
  }
  recovery.Poll(1.0);

  ASSERT_EQ(recovery.episodes().size(), 1u);
  EXPECT_EQ(recovery.episodes()[0].cause, "drop-spike");
  EXPECT_TRUE(recovery.episodes()[0].recovered);
}

TEST(RecoveryControllerTest, SmallWindowsAreTooNoisyToJudge) {
  auto system = MakeSystem();
  const Sfc sfc = SinglePassSfc(1);
  ASSERT_TRUE(system.AdmitTenant(sfc).admitted);

  RecoveryOptions options;
  options.min_window_packets = 16;
  RecoveryController recovery(system, options);
  recovery.TrackTenant(sfc, 3);  // would flag passes-collapse...

  Serve(system, 1, 8);  // ...but the window is below the floor
  recovery.Poll(1.0);
  EXPECT_TRUE(recovery.episodes().empty());
  EXPECT_EQ(recovery.counters().detections, 0u);
}

TEST(RecoveryControllerTest, BackoffScheduleGatesRepairAttempts) {
  auto system = MakeSystem();
  const Sfc sfc = MultiPassSfc(1);
  ASSERT_TRUE(system.AdmitTenant(sfc).admitted);

  RecoveryOptions options;
  options.max_attempts = 4;
  options.initial_backoff_s = 0.5;
  options.max_backoff_s = 8.0;
  RecoveryController recovery(system, options);
  recovery.TrackTenant(sfc, 2);
  system.data_plane().DeallocateSfc(1);

  // Every repair attempt fails at the reprovision fault point.
  FaultPlan plan;
  plan.seed = 7;
  plan.faults = {FaultSpec::Always("core.reprovision")};
  ScopedFaultPlan armed(plan);

  // Attempt 1 at detection; backoff 0.5 s.
  recovery.Poll(0.0);
  EXPECT_EQ(recovery.counters().attempts, 1u);
  // Inside the backoff window: polls must not attempt.
  recovery.Poll(0.1);
  recovery.Poll(0.4);
  EXPECT_EQ(recovery.counters().attempts, 1u);
  // Attempt 2 at 0.5 s; backoff doubles to 1.0 s.
  recovery.Poll(0.5);
  EXPECT_EQ(recovery.counters().attempts, 2u);
  recovery.Poll(1.4);
  EXPECT_EQ(recovery.counters().attempts, 2u);
  // Attempt 3 at 1.5 s; backoff 2.0 s.
  recovery.Poll(1.5);
  EXPECT_EQ(recovery.counters().attempts, 3u);
  recovery.Poll(3.4);
  EXPECT_EQ(recovery.counters().attempts, 3u);
  // Attempt 4 at 3.5 s: max_attempts reached -> quarantine.
  recovery.Poll(3.5);
  EXPECT_EQ(recovery.counters().attempts, 4u);
  EXPECT_EQ(recovery.counters().quarantined, 1u);
  EXPECT_TRUE(recovery.IsQuarantined(1));
  EXPECT_EQ(recovery.QuarantinedTenants(), std::vector<dataplane::TenantId>{1});

  ASSERT_EQ(recovery.episodes().size(), 1u);
  const auto& episode = recovery.episodes()[0];
  EXPECT_FALSE(episode.recovered);
  EXPECT_EQ(episode.attempts, 4);
  EXPECT_DOUBLE_EQ(episode.detected_s, 0.0);
  EXPECT_DOUBLE_EQ(episode.ended_s, 3.5);

  // Quarantine released the tenant's admission and resources.
  EXPECT_EQ(system.Stats().tenants, 0);
  EXPECT_EQ(system.Stats().entries_used, 0);

  // No livelock: the quarantined tenant consumes no further attempts.
  recovery.Poll(10.0);
  recovery.Poll(60.0);
  EXPECT_EQ(recovery.counters().attempts, 4u);
  EXPECT_EQ(recovery.episodes().size(), 1u);

  // Counters export under system.recover.* (docs/METRICS.md).
  common::metrics::Registry registry;
  recovery.ExportMetrics(registry);
  EXPECT_EQ(registry.GetCounter("system.recover.attempts").Value(), 4u);
  EXPECT_EQ(registry.GetCounter("system.recover.failures").Value(), 4u);
  EXPECT_EQ(registry.GetCounter("system.recover.quarantined").Value(), 1u);
  EXPECT_EQ(registry.GetCounter("system.recover.successes").Value(), 0u);
}

TEST(RecoveryControllerTest, TransientFaultRecoversAfterBackoff) {
  auto system = MakeSystem();
  const Sfc sfc = MultiPassSfc(1);
  ASSERT_TRUE(system.AdmitTenant(sfc).admitted);

  RecoveryController recovery(system);
  recovery.TrackTenant(sfc, 2);
  system.data_plane().DeallocateSfc(1);

  // Only the first reprovision attempt fails.
  FaultPlan plan;
  plan.seed = 7;
  plan.faults = {FaultSpec::Nth("core.reprovision", 1)};
  ScopedFaultPlan armed(plan);

  recovery.Poll(0.0);  // attempt 1 fails
  EXPECT_TRUE(recovery.episodes().empty());
  recovery.Poll(0.5);  // attempt 2 succeeds after the 0.5 s backoff
  ASSERT_EQ(recovery.episodes().size(), 1u);
  const auto& episode = recovery.episodes()[0];
  EXPECT_TRUE(episode.recovered);
  EXPECT_EQ(episode.attempts, 2);
  EXPECT_DOUBLE_EQ(episode.DurationMs(), 500.0);
  EXPECT_TRUE(system.data_plane().IsAllocated(1));
  EXPECT_EQ(recovery.counters().failures, 1u);
  EXPECT_EQ(recovery.counters().successes, 1u);
}

TEST(RecoveryControllerTest, UntrackedTenantIsIgnored) {
  auto system = MakeSystem();
  const Sfc sfc = MultiPassSfc(1);
  ASSERT_TRUE(system.AdmitTenant(sfc).admitted);

  RecoveryController recovery(system);
  recovery.TrackTenant(sfc, 2);
  recovery.UntrackTenant(1);
  ASSERT_TRUE(system.RemoveTenant(1));  // planned departure

  recovery.Poll(1.0);  // no allocation — but no longer tracked
  EXPECT_TRUE(recovery.episodes().empty());
  EXPECT_EQ(recovery.counters().detections, 0u);
}

}  // namespace
}  // namespace sfp::scenario
