// Fault-injection tests for swap rollback (§V-E under failures): an
// injected fault at either step of DataPlane::SwapSfc must leave the
// data plane byte-for-byte equivalent to the pre-swap state, and a
// double fault (the restore also failing) must be reported as a
// divergence instead of silently losing the tenant.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/faultinject.h"
#include "dataplane/data_plane.h"
#include "nf/firewall.h"

namespace sfp::dataplane {
namespace {

using common::faultinject::FaultSpec;
using common::faultinject::ScopedFaultPlan;
using net::Ipv4Address;
using net::MakeTcpPacket;

nf::NfConfig Fw(std::uint16_t port, int extra_rules = 0) {
  nf::NfConfig config;
  config.type = nf::NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(
      switchsim::FieldMatch::Any(), switchsim::FieldMatch::Any(),
      switchsim::FieldMatch::Any(), switchsim::FieldMatch::Range(port, port),
      switchsim::FieldMatch::Any()));
  for (int i = 0; i < extra_rules; ++i) {
    config.rules.push_back(nf::Firewall::Deny(
        switchsim::FieldMatch::Any(), switchsim::FieldMatch::Any(),
        switchsim::FieldMatch::Any(),
        switchsim::FieldMatch::Range(10000 + static_cast<std::uint64_t>(i),
                                     10000 + static_cast<std::uint64_t>(i)),
        switchsim::FieldMatch::Any()));
  }
  return config;
}

Sfc MakeSfc(TenantId tenant, std::uint16_t port, int extra_rules = 0) {
  Sfc sfc;
  sfc.tenant = tenant;
  sfc.bandwidth_gbps = 5;
  sfc.chain = {Fw(port, extra_rules)};
  return sfc;
}

switchsim::SwitchConfig SmallSwitch() {
  switchsim::SwitchConfig config;
  config.num_stages = 1;
  config.blocks_per_stage = 1;
  config.entries_per_block = 50;
  return config;
}

/// Drop verdicts for a fixed probe matrix (tenants 1..4 x interesting
/// ports) — a packet-level fingerprint of the installed rule set.
std::vector<bool> ProbeFingerprint(DataPlane& dp) {
  std::vector<bool> dropped;
  for (std::uint16_t tenant = 1; tenant <= 4; ++tenant) {
    for (const std::uint16_t port : {std::uint16_t{80}, std::uint16_t{443},
                                     std::uint16_t{22}, std::uint16_t{8080}}) {
      auto out = dp.Process(MakeTcpPacket(tenant, Ipv4Address::Of(1, 1, 1, 1),
                                          Ipv4Address::Of(2, 2, 2, 2), 9, port, 64));
      dropped.push_back(out.meta.dropped);
    }
  }
  return dropped;
}

/// Installs tenant 1 (port 80) and a bystander tenant 2 (port 22).
void InstallTwoTenants(DataPlane& dp) {
  ASSERT_TRUE(dp.InstallPhysicalNf(0, nf::NfType::kFirewall));
  ASSERT_TRUE(dp.AllocateSfc(MakeSfc(1, 80)).ok);
  ASSERT_TRUE(dp.AllocateSfc(MakeSfc(2, 22)).ok);
}

TEST(RollbackFaultTest, InjectedFaultAtEveryOpIndexRollsBack) {
  // A replacing swap has two steps: take the old entries out, put the
  // new plan in. "dataplane.apply_op" is checked before each. Under
  // Planner::kCoScheduled the restore must also put back the tenant's
  // retained SFC.
  const Sfc replacement = MakeSfc(1, 443, /*extra_rules=*/2);
  for (const bool xt : {false, true}) {
    for (std::size_t fail_at = 0; fail_at < 2; ++fail_at) {
      SCOPED_TRACE(std::string(xt ? "cross-tenant, " : "") + "fault before step " +
                   std::to_string(fail_at));
      switchsim::SwitchConfig config = SmallSwitch();
      if (xt) config.planner = switchsim::Planner::kCoScheduled;
      DataPlane dp(config);
      ASSERT_NO_FATAL_FAILURE(InstallTwoTenants(dp));
      const auto entries_before = dp.pipeline().TotalEntriesUsed();
      const auto fingerprint_before = ProbeFingerprint(dp);
      const auto placements_before = dp.FindAllocation(1)->placements;
      const auto plan = dp.PlanSfc(replacement);

      AllocationResult result;
      {
        ScopedFaultPlan faults(
            {.seed = 1, .faults = {FaultSpec::Nth("dataplane.apply_op", fail_at + 1)}});
        result = dp.SwapSfc(1, &replacement, &plan);
      }
      EXPECT_FALSE(result.ok);
      EXPECT_EQ(result.code, AllocCode::kInstallFault);
      EXPECT_NE(result.error.find("dataplane.apply_op"), std::string::npos) << result.error;

      // Differential check: identical resources, placements and packet
      // verdicts to the pre-swap plane.
      ASSERT_TRUE(dp.IsAllocated(1));
      EXPECT_EQ(dp.FindAllocation(1)->placements.size(), placements_before.size());
      EXPECT_EQ(dp.FindAllocation(1)->placements[0].pass, placements_before[0].pass);
      EXPECT_TRUE(dp.IsAllocated(2));
      EXPECT_EQ(dp.pipeline().TotalEntriesUsed(), entries_before);
      EXPECT_EQ(ProbeFingerprint(dp), fingerprint_before);
      EXPECT_TRUE(dp.Audit().empty());
      EXPECT_EQ(dp.RetainedSfc(1) != nullptr, xt);

      // The same plan still applies once the fault is gone.
      ASSERT_TRUE(dp.SwapSfc(1, &replacement, &plan).ok);
      EXPECT_TRUE(dp.Audit().empty());
    }
  }
}

TEST(RollbackFaultTest, TableInstallFaultDuringBatchAdmitRollsBack) {
  // Same differential check, but the fault fires inside the switch
  // table (switchsim.table.add_entry) while the swap installs the new
  // plan.
  DataPlane dp(SmallSwitch());
  ASSERT_NO_FATAL_FAILURE(InstallTwoTenants(dp));
  const auto entries_before = dp.pipeline().TotalEntriesUsed();
  const auto fingerprint_before = ProbeFingerprint(dp);
  const Sfc replacement = MakeSfc(1, 443, /*extra_rules=*/2);
  const auto plan = dp.PlanSfc(replacement);

  AllocationResult result;
  {
    // Hit #3 of add_entry is the replacement's third rule; the first
    // two were installed and must be unwound.
    ScopedFaultPlan faults(
        {.seed = 1, .faults = {FaultSpec::Nth("switchsim.table.add_entry", 3)}});
    result = dp.SwapSfc(1, &replacement, &plan);
  }
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.code, AllocCode::kInstallFault);
  EXPECT_NE(result.error.find("transient rule-install failure"), std::string::npos)
      << result.error;
  EXPECT_TRUE(dp.IsAllocated(1));
  EXPECT_TRUE(dp.IsAllocated(2));
  EXPECT_EQ(dp.pipeline().TotalEntriesUsed(), entries_before);
  EXPECT_EQ(ProbeFingerprint(dp), fingerprint_before);
}

TEST(RollbackFaultTest, AllocateUnwindsPartialInstallOnFault) {
  DataPlane dp(SmallSwitch());
  ASSERT_TRUE(dp.InstallPhysicalNf(0, nf::NfType::kFirewall));
  const auto entries_before = dp.pipeline().TotalEntriesUsed();

  AllocationResult result;
  {
    // The SFC installs 1 rule + 1 catch-all; failing the second install
    // leaves a partial state that AllocateSfc must unwind itself.
    ScopedFaultPlan plan(
        {.seed = 1, .faults = {FaultSpec::Nth("dataplane.install_rule", 2)}});
    result = dp.AllocateSfc(MakeSfc(1, 80, /*extra_rules=*/3));
  }
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.code, AllocCode::kInstallFault);
  EXPECT_TRUE(result.transient());
  EXPECT_TRUE(result.placements.empty());
  EXPECT_FALSE(dp.IsAllocated(1));
  EXPECT_EQ(dp.pipeline().TotalEntriesUsed(), entries_before);
}

TEST(RollbackFaultTest, DoubleFaultDuringRollbackReportsDivergence) {
  DataPlane dp(SmallSwitch());
  ASSERT_NO_FATAL_FAILURE(InstallTwoTenants(dp));
  const Sfc replacement = MakeSfc(1, 443);
  const auto plan = dp.PlanSfc(replacement);

  AllocationResult result;
  {
    // The fault before the install step triggers the rollback; every
    // restore attempt for tenant 1 then hits a persistent install
    // fault. The plane must report the divergence instead of aborting.
    ScopedFaultPlan faults({.seed = 1,
                            .faults = {FaultSpec::Nth("dataplane.apply_op", 2),
                                       FaultSpec::Always("dataplane.install_rule")}});
    result = dp.SwapSfc(1, &replacement, &plan);
  }
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.code, AllocCode::kDiverged);
  EXPECT_FALSE(result.transient());
  // Tenant 1 really is gone — the report is truthful — and no partial
  // rule set was left behind; the bystander is untouched.
  EXPECT_FALSE(dp.IsAllocated(1));
  EXPECT_TRUE(dp.IsAllocated(2));
  EXPECT_EQ(dp.pipeline().TotalEntriesUsed(), 2);
  auto out = dp.Process(MakeTcpPacket(1, Ipv4Address::Of(1, 1, 1, 1),
                                      Ipv4Address::Of(2, 2, 2, 2), 9, 80, 64));
  EXPECT_FALSE(out.meta.dropped);  // tenant 1's deny rule no longer matches
}

TEST(RollbackFaultTest, RetriedRestoreSucceedsAndStaysConsistent) {
  DataPlane dp(SmallSwitch());
  ASSERT_NO_FATAL_FAILURE(InstallTwoTenants(dp));
  const auto fingerprint_before = ProbeFingerprint(dp);
  const Sfc replacement = MakeSfc(1, 443);
  const auto plan = dp.PlanSfc(replacement);

  AllocationResult result;
  {
    // The fault before the install step forces the rollback; the first
    // restore attempt fails once (install_rule capped at one fire) and
    // the bounded retry then restores tenant 1.
    ScopedFaultPlan faults({.seed = 1,
                            .faults = {FaultSpec::Nth("dataplane.apply_op", 2),
                                       FaultSpec::Always("dataplane.install_rule",
                                                         /*max_fires=*/1)}});
    result = dp.SwapSfc(1, &replacement, &plan);
  }
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.code, AllocCode::kInstallFault);
  EXPECT_TRUE(dp.IsAllocated(1));
  EXPECT_EQ(ProbeFingerprint(dp), fingerprint_before);
}

}  // namespace
}  // namespace sfp::dataplane
