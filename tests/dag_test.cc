// Tests for branching-SFC flattening (§VII).
#include "dataplane/dag.h"

#include <gtest/gtest.h>

#include "dataplane/data_plane.h"
#include "nf/classifier.h"
#include "nf/firewall.h"
#include "nf/load_balancer.h"

namespace sfp::dataplane {
namespace {

nf::NfConfig Nf(nf::NfType type) {
  nf::NfConfig config;
  config.type = type;
  return config;
}

TEST(DagTest, ValidatesStructure) {
  SfcDag dag;
  dag.nodes.push_back({Nf(nf::NfType::kFirewall), {1}});
  dag.nodes.push_back({Nf(nf::NfType::kRouter), {}});
  EXPECT_TRUE(IsValidDag(dag));

  dag.nodes[1].successors = {5};  // out of range
  EXPECT_FALSE(IsValidDag(dag));

  dag.nodes[1].successors = {0};  // cycle 0 -> 1 -> 0
  EXPECT_FALSE(IsValidDag(dag));
}

TEST(DagTest, DepthsOnDiamond) {
  // 0 -> {1, 2} -> 3 (diamond: 1 and 2 are independent).
  SfcDag dag;
  dag.nodes.push_back({Nf(nf::NfType::kFirewall), {1, 2}});
  dag.nodes.push_back({Nf(nf::NfType::kClassifier), {3}});
  dag.nodes.push_back({Nf(nf::NfType::kRateLimiter), {3}});
  dag.nodes.push_back({Nf(nf::NfType::kRouter), {}});

  const auto depths = TopologicalDepths(dag);
  ASSERT_EQ(depths.size(), 4u);
  EXPECT_EQ(depths[0], 0);
  EXPECT_EQ(depths[1], 1);
  EXPECT_EQ(depths[2], 1);  // same depth as node 1: independent
  EXPECT_EQ(depths[3], 2);
}

TEST(DagTest, DepthsOnWideDagUseLongestPath) {
  // Two entries (0, 1) both feed the join 2; entry 0 also reaches 2
  // through the long arm 0 -> 3 -> 4 -> 2. Depth is the *longest*
  // path, so the join sits at 3, not at 1.
  SfcDag dag;
  dag.nodes.push_back({Nf(nf::NfType::kFirewall), {2, 3}});
  dag.nodes.push_back({Nf(nf::NfType::kClassifier), {2}});
  dag.nodes.push_back({Nf(nf::NfType::kRouter), {}});
  dag.nodes.push_back({Nf(nf::NfType::kRateLimiter), {4}});
  dag.nodes.push_back({Nf(nf::NfType::kNat), {2}});

  const auto depths = TopologicalDepths(dag);
  ASSERT_EQ(depths.size(), 5u);
  EXPECT_EQ(depths[0], 0);
  EXPECT_EQ(depths[1], 0);  // both entries at depth 0: independent
  EXPECT_EQ(depths[2], 3);  // join: longest incoming path wins
  EXPECT_EQ(depths[3], 1);
  EXPECT_EQ(depths[4], 2);
}

TEST(DagTest, FlattenTieBreaksByNodeIndex) {
  // A wide depth-1 layer declared out of index order in the successor
  // list: flatten must order by (depth, node index), not by edge
  // declaration order, so the linearization is deterministic.
  SfcDag dag;
  dag.nodes.push_back({Nf(nf::NfType::kFirewall), {3, 1, 2}});
  dag.nodes.push_back({Nf(nf::NfType::kClassifier), {4}});
  dag.nodes.push_back({Nf(nf::NfType::kRateLimiter), {4}});
  dag.nodes.push_back({Nf(nf::NfType::kNat), {4}});
  dag.nodes.push_back({Nf(nf::NfType::kRouter), {}});

  const auto sfc = FlattenDag(dag);
  ASSERT_TRUE(sfc.has_value());
  ASSERT_EQ(sfc->chain.size(), 5u);
  EXPECT_EQ(sfc->chain[0].type, nf::NfType::kFirewall);
  EXPECT_EQ(sfc->chain[1].type, nf::NfType::kClassifier);   // index 1
  EXPECT_EQ(sfc->chain[2].type, nf::NfType::kRateLimiter);  // index 2
  EXPECT_EQ(sfc->chain[3].type, nf::NfType::kNat);          // index 3
  EXPECT_EQ(sfc->chain[4].type, nf::NfType::kRouter);
}

TEST(DagTest, FlattenOrdersByDepthBeforeIndex) {
  // Node 1 has the *smallest* index after the entry but the deepest
  // position: 0 -> 4 -> 1. Depth dominates index in the ordering.
  SfcDag dag;
  dag.nodes.push_back({Nf(nf::NfType::kFirewall), {2, 4}});
  dag.nodes.push_back({Nf(nf::NfType::kRouter), {}});
  dag.nodes.push_back({Nf(nf::NfType::kClassifier), {}});
  dag.nodes.push_back({});  // isolated node: entry at depth 0
  dag.nodes.back().nf = Nf(nf::NfType::kRateLimiter);
  dag.nodes.push_back({Nf(nf::NfType::kNat), {1}});

  const auto sfc = FlattenDag(dag);
  ASSERT_TRUE(sfc.has_value());
  ASSERT_EQ(sfc->chain.size(), 5u);
  // Depth 0: nodes 0, 3 (index order); depth 1: 2, 4; depth 2: 1.
  EXPECT_EQ(sfc->chain[0].type, nf::NfType::kFirewall);
  EXPECT_EQ(sfc->chain[1].type, nf::NfType::kRateLimiter);
  EXPECT_EQ(sfc->chain[2].type, nf::NfType::kClassifier);
  EXPECT_EQ(sfc->chain[3].type, nf::NfType::kNat);
  EXPECT_EQ(sfc->chain[4].type, nf::NfType::kRouter);
}

TEST(DagTest, FlattenRespectsDependencies) {
  SfcDag dag;
  dag.tenant = 9;
  dag.bandwidth_gbps = 12;
  dag.nodes.push_back({Nf(nf::NfType::kFirewall), {1, 2}});
  dag.nodes.push_back({Nf(nf::NfType::kClassifier), {3}});
  dag.nodes.push_back({Nf(nf::NfType::kRateLimiter), {3}});
  dag.nodes.push_back({Nf(nf::NfType::kRouter), {}});

  const auto sfc = FlattenDag(dag);
  ASSERT_TRUE(sfc.has_value());
  EXPECT_EQ(sfc->tenant, 9);
  EXPECT_EQ(sfc->bandwidth_gbps, 12);
  ASSERT_EQ(sfc->chain.size(), 4u);
  // FW first, RT last; the independent middle pair keeps index order.
  EXPECT_EQ(sfc->chain[0].type, nf::NfType::kFirewall);
  EXPECT_EQ(sfc->chain[1].type, nf::NfType::kClassifier);
  EXPECT_EQ(sfc->chain[2].type, nf::NfType::kRateLimiter);
  EXPECT_EQ(sfc->chain[3].type, nf::NfType::kRouter);
}

TEST(DagTest, FlattenRejectsCycle) {
  SfcDag dag;
  dag.nodes.push_back({Nf(nf::NfType::kFirewall), {1}});
  dag.nodes.push_back({Nf(nf::NfType::kRouter), {0}});
  EXPECT_FALSE(FlattenDag(dag).has_value());
}

TEST(DagTest, EmptyDagFlattensToEmptyChain) {
  SfcDag dag;
  const auto sfc = FlattenDag(dag);
  ASSERT_TRUE(sfc.has_value());
  EXPECT_TRUE(sfc->chain.empty());
}

TEST(DagTest, FlattenedDiamondPacksIndependentArmsIntoOnePass) {
  // Diamond FW -> {LB, TC}: the arms are independent by construction
  // (the DAG said so), and their footprints are disjoint, so with
  // Planner::kPacked the flattened chain packs into one pass even on
  // a stage layout that is out of chain order.
  SfcDag dag;
  dag.tenant = 6;
  dag.bandwidth_gbps = 5;
  nf::NfConfig fw = Nf(nf::NfType::kFirewall);
  fw.rules.push_back(nf::Firewall::Deny(switchsim::FieldMatch::Any(),
                                        switchsim::FieldMatch::Any(),
                                        switchsim::FieldMatch::Any(),
                                        switchsim::FieldMatch::Range(443, 443),
                                        switchsim::FieldMatch::Any()));
  nf::NfConfig lb = Nf(nf::NfType::kLoadBalancer);
  lb.rules.push_back(nf::LoadBalancer::SetBackend(
      net::Ipv4Address::Of(10, 0, 0, 100), 80,
      net::Ipv4Address::Of(192, 168, 0, 2)));
  nf::NfConfig tc = Nf(nf::NfType::kClassifier);
  tc.rules.push_back(nf::Classifier::ClassifyByPort(0, 65535, 3));
  dag.nodes.push_back({fw, {1, 2}});
  dag.nodes.push_back({lb, {}});
  dag.nodes.push_back({tc, {}});

  const auto sfc = FlattenDag(dag);
  ASSERT_TRUE(sfc.has_value());
  ASSERT_EQ(sfc->chain.size(), 3u);

  switchsim::SwitchConfig config;
  config.num_stages = 3;
  config.planner = switchsim::Planner::kPacked;
  DataPlane dp(config);
  ASSERT_TRUE(dp.InstallPhysicalNf(0, nf::NfType::kClassifier));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, nf::NfType::kFirewall));
  ASSERT_TRUE(dp.InstallPhysicalNf(2, nf::NfType::kLoadBalancer));
  const auto result = dp.AllocateSfc(*sfc);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.passes, 1);
  EXPECT_EQ(result.sequential_passes, 2);
}

TEST(DagTest, FlattenedDagAllocatesOnDataPlane) {
  SfcDag dag;
  dag.tenant = 4;
  dag.bandwidth_gbps = 5;
  nf::NfConfig fw = Nf(nf::NfType::kFirewall);
  fw.rules.push_back(nf::Firewall::Deny(switchsim::FieldMatch::Any(),
                                        switchsim::FieldMatch::Any(),
                                        switchsim::FieldMatch::Any(),
                                        switchsim::FieldMatch::Range(80, 80),
                                        switchsim::FieldMatch::Any()));
  nf::NfConfig tc = Nf(nf::NfType::kClassifier);
  tc.rules.push_back(nf::Classifier::ClassifyByPort(0, 65535, 2));
  dag.nodes.push_back({fw, {1}});
  dag.nodes.push_back({tc, {}});

  const auto sfc = FlattenDag(dag);
  ASSERT_TRUE(sfc.has_value());

  switchsim::SwitchConfig config;
  config.num_stages = 2;
  DataPlane dp(config);
  ASSERT_TRUE(dp.InstallPhysicalNf(0, nf::NfType::kFirewall));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, nf::NfType::kClassifier));
  EXPECT_TRUE(dp.AllocateSfc(*sfc).ok);
}

}  // namespace
}  // namespace sfp::dataplane
