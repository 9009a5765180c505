// Tests for DataPlane::SwapSfc, the all-or-nothing runtime update
// (§V-E) behind every SfpSystem control-plane transaction.
#include <gtest/gtest.h>

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

bool Drops(DataPlane& dp, std::uint16_t tenant, std::uint16_t port) {
  return dp.Process(MakeTcpPacket(tenant, Ipv4Address::Of(1, 1, 1, 1),
                                  Ipv4Address::Of(2, 2, 2, 2), 9, port, 64))
      .meta.dropped;
}

TEST(AtomicUpdateTest, FailedAdmitRollsEverythingBack) {
  DataPlane dp(SmallSwitch());
  ASSERT_TRUE(dp.InstallPhysicalNf(0, nf::NfType::kFirewall));
  // Tenant 1 occupies most of the 50-entry block; its replacement only
  // fits because planning discounts the 42 entries the swap takes out.
  ASSERT_TRUE(dp.AllocateSfc(MakeSfc(1, 80, /*extra_rules=*/40)).ok);
  const auto entries_before = dp.pipeline().TotalEntriesUsed();
  const Sfc replacement = MakeSfc(1, 443, /*extra_rules=*/45);
  const auto plan = dp.PlanSfc(replacement);
  ASSERT_TRUE(plan.allocation.ok) << plan.allocation.error;

  AllocationResult result;
  {
    // The third new entry fails to install.
    ScopedFaultPlan faults({.seed = 1, .faults = {FaultSpec::Nth("switchsim.table.add_entry", 3)}});
    result = dp.SwapSfc(1, &replacement, &plan);
  }
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.code, AllocCode::kInstallFault);
  // All-or-nothing: the partial install was unwound and tenant 1's old
  // rules are back.
  EXPECT_TRUE(dp.IsAllocated(1));
  EXPECT_EQ(dp.pipeline().TotalEntriesUsed(), entries_before);
  EXPECT_TRUE(Drops(dp, 1, 80));
  EXPECT_FALSE(Drops(dp, 1, 443));
}

TEST(AtomicUpdateTest, FailedRemoveRestoresRemovedTenants) {
  DataPlane dp(SmallSwitch());
  ASSERT_TRUE(dp.InstallPhysicalNf(0, nf::NfType::kFirewall));
  ASSERT_TRUE(dp.AllocateSfc(MakeSfc(1, 80)).ok);
  const Sfc replacement = MakeSfc(1, 443);
  const auto plan = dp.PlanSfc(replacement);

  AllocationResult result;
  {
    // The fault lands after the old entries came out, before the new
    // plan goes in.
    ScopedFaultPlan faults({.seed = 1, .faults = {FaultSpec::Nth("dataplane.apply_op", 2)}});
    result = dp.SwapSfc(1, &replacement, &plan);
  }
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.transient());
  EXPECT_NE(result.error.find("dataplane.apply_op"), std::string::npos) << result.error;
  // Tenant 1 was restored with working rules.
  ASSERT_TRUE(dp.IsAllocated(1));
  EXPECT_TRUE(Drops(dp, 1, 80));
  EXPECT_FALSE(Drops(dp, 1, 443));
}

TEST(AtomicUpdateTest, RemoveThenReadmitSwapsInPlace) {
  // Classic reconfiguration: replace a tenant's chain in one atomic step.
  DataPlane dp(SmallSwitch());
  ASSERT_TRUE(dp.InstallPhysicalNf(0, nf::NfType::kFirewall));
  ASSERT_TRUE(dp.AllocateSfc(MakeSfc(1, 80)).ok);

  const Sfc replacement = MakeSfc(1, 443);  // same tenant, new config
  const auto plan = dp.PlanSfc(replacement);
  const auto result = dp.SwapSfc(1, &replacement, &plan);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(Drops(dp, 1, 80));
  EXPECT_TRUE(Drops(dp, 1, 443));
}

TEST(AtomicUpdateTest, EmptyBatchIsNoOp) {
  // A swap with nothing to take out and nothing to put in mutates no
  // table.
  DataPlane dp(SmallSwitch());
  ASSERT_TRUE(dp.InstallPhysicalNf(0, nf::NfType::kFirewall));
  ASSERT_TRUE(dp.AllocateSfc(MakeSfc(1, 80)).ok);
  const auto epoch = dp.pipeline().table_mutation_epoch()->Value();
  EXPECT_TRUE(dp.SwapSfc(9, nullptr, nullptr).ok);
  EXPECT_EQ(dp.pipeline().table_mutation_epoch()->Value(), epoch);
  EXPECT_TRUE(dp.IsAllocated(1));
}

}  // namespace
}  // namespace sfp::dataplane
