// Tests for the SFP data plane: physical NF installation, logical SFC
// allocation with folding/recirculation, multi-tenant isolation, and
// deallocation (§IV).
#include "dataplane/data_plane.h"

#include <gtest/gtest.h>

#include "nf/classifier.h"
#include "nf/firewall.h"
#include "nf/load_balancer.h"
#include "nf/router.h"

namespace sfp::dataplane {
namespace {

using net::Ipv4Address;
using net::MakeTcpPacket;
using nf::NfConfig;
using nf::NfType;
using switchsim::FieldMatch;
using switchsim::SwitchConfig;

SwitchConfig SmallSwitch(int stages = 3) {
  SwitchConfig config;
  config.num_stages = stages;
  config.blocks_per_stage = 4;
  config.entries_per_block = 100;
  return config;
}

NfConfig FirewallBlocking(std::uint16_t port) {
  NfConfig config;
  config.type = NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(FieldMatch::Any(), FieldMatch::Any(),
                                            FieldMatch::Any(), FieldMatch::Range(port, port),
                                            FieldMatch::Any()));
  return config;
}

NfConfig ClassifierConfig(std::uint8_t cls) {
  NfConfig config;
  config.type = NfType::kClassifier;
  config.rules.push_back(nf::Classifier::ClassifyByPort(0, 65535, cls));
  return config;
}

NfConfig LbConfig(Ipv4Address vip, Ipv4Address dip) {
  NfConfig config;
  config.type = NfType::kLoadBalancer;
  config.rules.push_back(nf::LoadBalancer::SetBackend(vip, 80, dip));
  return config;
}

TEST(DataPlaneTest, InstallPhysicalNfRejectsDuplicates) {
  DataPlane dp(SmallSwitch());
  EXPECT_TRUE(dp.InstallPhysicalNf(0, NfType::kFirewall));
  EXPECT_FALSE(dp.InstallPhysicalNf(0, NfType::kFirewall));
  EXPECT_TRUE(dp.InstallPhysicalNf(0, NfType::kRouter));  // other type OK
  EXPECT_TRUE(dp.HasPhysicalNf(0, NfType::kFirewall));
  EXPECT_FALSE(dp.HasPhysicalNf(1, NfType::kFirewall));
}

TEST(DataPlaneTest, InstallPhysicalNfRespectsBlockBudget) {
  SwitchConfig config = SmallSwitch();
  config.blocks_per_stage = 2;
  DataPlane dp(config);
  EXPECT_TRUE(dp.InstallPhysicalNf(0, NfType::kFirewall));
  EXPECT_TRUE(dp.InstallPhysicalNf(0, NfType::kRouter));
  EXPECT_FALSE(dp.InstallPhysicalNf(0, NfType::kClassifier));  // no block left
}

// The paper's toy example (Fig. 3): pipeline = [TC, FW, LB]; SFC 1 =
// TC -> FW -> LB fits in one pass.
TEST(DataPlaneTest, InOrderSfcUsesOnePass) {
  DataPlane dp(SmallSwitch());
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));
  ASSERT_TRUE(dp.InstallPhysicalNf(2, NfType::kLoadBalancer));

  Sfc sfc;
  sfc.tenant = 1;
  sfc.bandwidth_gbps = 10;
  sfc.chain = {ClassifierConfig(2), FirewallBlocking(443),
               LbConfig(Ipv4Address::Of(10, 0, 0, 100), Ipv4Address::Of(192, 168, 0, 1))};
  auto result = dp.AllocateSfc(sfc);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.passes, 1);
  ASSERT_EQ(result.placements.size(), 3u);
  EXPECT_EQ(result.placements[0].stage, 0);
  EXPECT_EQ(result.placements[1].stage, 1);
  EXPECT_EQ(result.placements[2].stage, 2);
  for (const auto& p : result.placements) EXPECT_EQ(p.pass, 0);

  // Traffic to port 80 passes the FW, gets classified and rewritten.
  auto packet = MakeTcpPacket(1, Ipv4Address::Of(1, 1, 1, 1),
                              Ipv4Address::Of(10, 0, 0, 100), 999, 80, 128);
  auto out = dp.Process(packet);
  EXPECT_FALSE(out.meta.dropped);
  EXPECT_EQ(out.passes, 1);
  EXPECT_EQ(out.meta.flow_class, 2);
  EXPECT_EQ(out.packet.ipv4->dst, Ipv4Address::Of(192, 168, 0, 1));
}

// Fig. 3's SFC 2: FW -> LB -> TC on a [TC, FW, LB] pipeline needs two
// passes, with LB recirculating.
TEST(DataPlaneTest, OutOfOrderSfcFoldsIntoSecondPass) {
  DataPlane dp(SmallSwitch());
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));
  ASSERT_TRUE(dp.InstallPhysicalNf(2, NfType::kLoadBalancer));

  Sfc sfc;
  sfc.tenant = 2;
  sfc.bandwidth_gbps = 5;
  sfc.chain = {FirewallBlocking(443),
               LbConfig(Ipv4Address::Of(10, 0, 0, 100), Ipv4Address::Of(192, 168, 0, 2)),
               ClassifierConfig(4)};
  auto result = dp.AllocateSfc(sfc);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.passes, 2);
  EXPECT_EQ(result.placements[0].stage, 1);  // FW, pass 0
  EXPECT_EQ(result.placements[0].pass, 0);
  EXPECT_EQ(result.placements[1].stage, 2);  // LB, pass 0 (recirculates)
  EXPECT_EQ(result.placements[1].pass, 0);
  EXPECT_EQ(result.placements[2].stage, 0);  // TC, pass 1
  EXPECT_EQ(result.placements[2].pass, 1);

  auto packet = MakeTcpPacket(2, Ipv4Address::Of(1, 1, 1, 1),
                              Ipv4Address::Of(10, 0, 0, 100), 999, 80, 128);
  auto out = dp.Process(packet);
  EXPECT_FALSE(out.meta.dropped);
  EXPECT_EQ(out.passes, 2);
  EXPECT_EQ(out.packet.ipv4->dst, Ipv4Address::Of(192, 168, 0, 2));
  EXPECT_EQ(out.meta.flow_class, 4);  // TC applied on the second pass
}

TEST(DataPlaneTest, TenantsAreIsolated) {
  DataPlane dp(SmallSwitch());
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));

  // Tenant 1 blocks port 80; tenant 2 blocks port 443.
  Sfc sfc1;
  sfc1.tenant = 1;
  sfc1.chain = {FirewallBlocking(80)};
  Sfc sfc2;
  sfc2.tenant = 2;
  sfc2.chain = {FirewallBlocking(443)};
  ASSERT_TRUE(dp.AllocateSfc(sfc1).ok);
  ASSERT_TRUE(dp.AllocateSfc(sfc2).ok);

  auto t1_80 = dp.Process(MakeTcpPacket(1, Ipv4Address::Of(1, 1, 1, 1),
                                        Ipv4Address::Of(2, 2, 2, 2), 999, 80, 64));
  auto t2_80 = dp.Process(MakeTcpPacket(2, Ipv4Address::Of(1, 1, 1, 1),
                                        Ipv4Address::Of(2, 2, 2, 2), 999, 80, 64));
  auto t2_443 = dp.Process(MakeTcpPacket(2, Ipv4Address::Of(1, 1, 1, 1),
                                         Ipv4Address::Of(2, 2, 2, 2), 999, 443, 64));
  EXPECT_TRUE(t1_80.meta.dropped);    // tenant 1's rule fires
  EXPECT_FALSE(t2_80.meta.dropped);   // tenant 2 unaffected by tenant 1
  EXPECT_TRUE(t2_443.meta.dropped);   // tenant 2's own rule fires

  // A tenant with no SFC traverses as pure no-op.
  auto t9 = dp.Process(MakeTcpPacket(9, Ipv4Address::Of(1, 1, 1, 1),
                                     Ipv4Address::Of(2, 2, 2, 2), 999, 80, 64));
  EXPECT_FALSE(t9.meta.dropped);
  EXPECT_EQ(t9.passes, 1);
}

TEST(DataPlaneTest, SameTypeTwiceInChainNeedsSecondInstanceOrFold) {
  // Chain FW -> FW with a single physical FW: must fold to 2 passes.
  DataPlane dp(SmallSwitch(2));
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kFirewall));

  Sfc sfc;
  sfc.tenant = 3;
  sfc.chain = {FirewallBlocking(80), FirewallBlocking(443)};
  auto result = dp.AllocateSfc(sfc);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.passes, 2);

  // Both rules take effect even though they share one physical table.
  auto p80 = dp.Process(MakeTcpPacket(3, Ipv4Address::Of(1, 1, 1, 1),
                                      Ipv4Address::Of(2, 2, 2, 2), 9, 80, 64));
  auto p443 = dp.Process(MakeTcpPacket(3, Ipv4Address::Of(1, 1, 1, 1),
                                       Ipv4Address::Of(2, 2, 2, 2), 9, 443, 64));
  auto p22 = dp.Process(MakeTcpPacket(3, Ipv4Address::Of(1, 1, 1, 1),
                                      Ipv4Address::Of(2, 2, 2, 2), 9, 22, 64));
  EXPECT_TRUE(p80.meta.dropped);
  EXPECT_TRUE(p443.meta.dropped);
  EXPECT_FALSE(p22.meta.dropped);
  EXPECT_EQ(p22.passes, 2);
}

TEST(DataPlaneTest, AllocationFailsBeyondPassBudget) {
  DataPlane dp(SmallSwitch(2));
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kFirewall));

  Sfc sfc;
  sfc.tenant = 4;
  // 5 firewalls with a pass budget of 3 cannot fit (one per pass).
  for (int i = 0; i < 5; ++i) sfc.chain.push_back(FirewallBlocking(80));
  auto result = dp.AllocateSfc(sfc, /*max_passes=*/3);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(dp.IsAllocated(4));

  // Missing physical type fails cleanly too.
  Sfc sfc2;
  sfc2.tenant = 5;
  sfc2.chain = {ClassifierConfig(1)};
  EXPECT_FALSE(dp.AllocateSfc(sfc2).ok);
}

TEST(DataPlaneTest, DuplicateTenantRejected) {
  DataPlane dp(SmallSwitch());
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kFirewall));
  Sfc sfc;
  sfc.tenant = 6;
  sfc.chain = {FirewallBlocking(80)};
  ASSERT_TRUE(dp.AllocateSfc(sfc).ok);
  EXPECT_FALSE(dp.AllocateSfc(sfc).ok);
}

TEST(DataPlaneTest, DeallocateRemovesAllTenantState) {
  DataPlane dp(SmallSwitch());
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kFirewall));
  Sfc sfc;
  sfc.tenant = 7;
  sfc.chain = {FirewallBlocking(80)};
  ASSERT_TRUE(dp.AllocateSfc(sfc).ok);

  const auto entries_before = dp.pipeline().TotalEntriesUsed();
  EXPECT_GT(entries_before, 0);
  const auto removed = dp.DeallocateSfc(7);
  EXPECT_EQ(removed, static_cast<std::size_t>(entries_before));
  EXPECT_EQ(dp.pipeline().TotalEntriesUsed(), 0);
  EXPECT_FALSE(dp.IsAllocated(7));

  // Traffic that was dropped now sails through.
  auto p = dp.Process(MakeTcpPacket(7, Ipv4Address::Of(1, 1, 1, 1),
                                    Ipv4Address::Of(2, 2, 2, 2), 9, 80, 64));
  EXPECT_FALSE(p.meta.dropped);

  // And the tenant can be re-admitted.
  EXPECT_TRUE(dp.AllocateSfc(sfc).ok);
}

TEST(DataPlaneTest, AllocationRespectsMemoryCapacity) {
  SwitchConfig config = SmallSwitch(1);
  config.blocks_per_stage = 1;
  config.entries_per_block = 10;
  DataPlane dp(config);
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kFirewall));

  // 9 rules + 1 catch-all = 10 entries: fits exactly.
  Sfc big;
  big.tenant = 1;
  NfConfig fw;
  fw.type = NfType::kFirewall;
  for (int i = 0; i < 9; ++i) {
    fw.rules.push_back(nf::Firewall::Deny(FieldMatch::Any(), FieldMatch::Any(),
                                          FieldMatch::Any(),
                                          FieldMatch::Range(static_cast<std::uint64_t>(i),
                                                            static_cast<std::uint64_t>(i)),
                                          FieldMatch::Any()));
  }
  big.chain = {fw};
  ASSERT_TRUE(dp.AllocateSfc(big).ok);

  // No room for even a single-rule SFC now.
  Sfc small;
  small.tenant = 2;
  small.chain = {FirewallBlocking(80)};
  EXPECT_FALSE(dp.AllocateSfc(small).ok);

  // After deallocation it fits.
  dp.DeallocateSfc(1);
  EXPECT_TRUE(dp.AllocateSfc(small).ok);
}

TEST(DataPlaneTest, PhysicalLayoutReflectsInstalls) {
  DataPlane dp(SmallSwitch());
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kRouter));
  auto layout = dp.PhysicalLayout();
  ASSERT_EQ(layout.size(), 3u);
  EXPECT_EQ(layout[0], std::vector<NfType>{NfType::kClassifier});
  EXPECT_EQ(layout[1], (std::vector<NfType>{NfType::kFirewall, NfType::kRouter}));
  EXPECT_TRUE(layout[2].empty());
}

TEST(DataPlaneTest, RecirculatedLatencyMatchesTimingModel) {
  DataPlane dp(SmallSwitch());
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));

  Sfc sfc;
  sfc.tenant = 1;
  sfc.chain = {FirewallBlocking(443), ClassifierConfig(1)};  // FW@1 then TC@0: 2 passes
  ASSERT_TRUE(dp.AllocateSfc(sfc).ok);

  auto out = dp.Process(MakeTcpPacket(1, Ipv4Address::Of(1, 1, 1, 1),
                                      Ipv4Address::Of(2, 2, 2, 2), 9, 80, 64));
  EXPECT_EQ(out.passes, 2);
  const auto& timing = dp.pipeline().config().timing;
  EXPECT_NEAR(out.latency_ns,
              timing.LatencyNs(out.active_stages, out.idle_stages, out.passes), 1e-9);
}

// A chain whose NFs land in two tables of one stage must fit the
// stage's blocks with both of its own pending installs counted, under
// every planner: stage 0 hosts the firewall and the classifier (one
// block each), and each NF needs 11 entries (2 blocks), so the two
// together would take 4 of the stage's 3 blocks.
TEST(DataPlaneTest, PlannersCountEveryPendingEntryInTheStage) {
  for (const int planner : {0, 1, 2}) {
    SCOPED_TRACE("planner " + std::to_string(planner));
    SwitchConfig config;
    config.num_stages = 2;
    config.blocks_per_stage = 3;
    config.entries_per_block = 10;
    config.planner = static_cast<switchsim::Planner>(planner);
    DataPlane dp(config);
    ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kFirewall));
    ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));

    Sfc sfc;
    sfc.tenant = 1;
    sfc.chain = {FirewallBlocking(1), ClassifierConfig(1)};
    for (std::uint16_t port = 2; port <= 10; ++port) {
      sfc.chain[0].rules.push_back(FirewallBlocking(port).rules[0]);
      sfc.chain[1].rules.push_back(nf::Classifier::ClassifyByPort(port, port, 2));
    }
    const auto result = dp.AllocateSfc(sfc);
    EXPECT_FALSE(result.ok) << "placed over " << result.passes << " pass(es)";
    EXPECT_EQ(result.code, AllocCode::kNoPlacement);
    for (int k = 0; k < config.num_stages; ++k) {
      EXPECT_LE(dp.pipeline().stage(k).BlocksUsed(), config.blocks_per_stage) << "stage " << k;
    }
  }
}

/// Installs a rule owned by `owner` into `table` directly, bypassing
/// the allocator: (tenant, pass 0) exact, every NF-key field wildcard.
switchsim::EntryHandle AddStrayEntry(switchsim::MatchActionTable& table, TenantId owner) {
  std::vector<FieldMatch> matches(table.key().size(), FieldMatch::Any());
  matches[0] = FieldMatch::Exact(owner);
  matches[1] = FieldMatch::Exact(0);
  return table.AddEntry(std::move(matches), /*action=*/0, {}, /*priority=*/0, owner);
}

/// The one issue `dp.Audit()` reports, or a failure when it reports
/// any other number.
std::string OnlyIssue(const DataPlane& dp) {
  const auto issues = dp.Audit();
  EXPECT_EQ(issues.size(), 1u);
  return issues.empty() ? "" : issues.front();
}

// Under every planner, Audit() holds each physical table to what the
// allocations book there: admitted tenants leave it clean, each way a
// table can drift from the books is reported, and a departure leaves
// it clean again.
TEST(DataPlaneAuditTest, ReportsEveryTableThatDriftsFromTheBooks) {
  for (const int planner : {0, 1, 2}) {
    SCOPED_TRACE("planner " + std::to_string(planner));
    SwitchConfig config = SmallSwitch();
    config.planner = static_cast<switchsim::Planner>(planner);
    DataPlane dp(config);
    ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
    ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));
    for (const TenantId tenant : {1, 2}) {
      Sfc sfc;
      sfc.tenant = tenant;
      sfc.chain = {ClassifierConfig(1), FirewallBlocking(80)};
      ASSERT_TRUE(dp.AllocateSfc(sfc).ok);
    }
    EXPECT_TRUE(dp.Audit().empty());
    // The only firewall table: both tenants hold entries there.
    auto& firewall = *dp.pipeline().stage(1).tables().front();

    // An entry the allocation of tenant 1 does not book.
    const auto extra = AddStrayEntry(firewall, 1);
    EXPECT_NE(OnlyIssue(dp).find("tenant 1 holds 3 entries, its allocation books 2"),
              std::string::npos);
    ASSERT_TRUE(firewall.RemoveEntry(extra));
    EXPECT_TRUE(dp.Audit().empty());

    // An entry of a tenant with no allocation.
    const auto stray = AddStrayEntry(firewall, 9);
    EXPECT_NE(OnlyIssue(dp).find("tenant 9 holds 1 entries and no allocation"),
              std::string::npos);
    ASSERT_TRUE(firewall.RemoveEntry(stray));
    EXPECT_TRUE(dp.Audit().empty());

    // Booked entries the table lost.
    EXPECT_EQ(firewall.RemoveTenantEntries(2), 2u);
    EXPECT_NE(OnlyIssue(dp).find("tenant 2 holds 0 entries, its allocation books 2"),
              std::string::npos);

    // Departures take the books and the tables down together.
    dp.DeallocateSfc(2);
    EXPECT_TRUE(dp.Audit().empty());
    dp.DeallocateSfc(1);
    EXPECT_TRUE(dp.Audit().empty());
  }
}

}  // namespace
}  // namespace sfp::dataplane
