// Tests for intra-chain NF parallelism (DESIGN.md "Intra-chain NF
// parallelism"): the dependency-aware pass packer in
// DataPlane::AllocateSfc, its never-worse fallback, its metrics, and —
// most importantly — the equivalence contract: a packed layout must be
// observably identical to the sequential §IV reference, packet for
// packet, for every chain the conflict analysis lets it touch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/metrics.h"
#include "dataplane/data_plane.h"
#include "nf/classifier.h"
#include "nf/firewall.h"
#include "nf/load_balancer.h"
#include "nf/nat.h"
#include "nf/rate_limiter.h"
#include "workload/sfc_gen.h"
#include "workload/traffic.h"

namespace sfp::dataplane {
namespace {

using net::Ipv4Address;
using net::MakeTcpPacket;
using nf::NfConfig;
using nf::NfType;
using switchsim::FieldMatch;
using switchsim::SwitchConfig;

SwitchConfig Switch(int stages, bool parallel) {
  SwitchConfig config;
  config.num_stages = stages;
  config.blocks_per_stage = 6;
  config.entries_per_block = 100;
  config.planner = parallel ? switchsim::Planner::kPacked : switchsim::Planner::kSequential;
  return config;
}

NfConfig FwBlocking(std::uint16_t port, int copies = 1) {
  NfConfig config;
  config.type = NfType::kFirewall;
  for (int i = 0; i < copies; ++i) {
    config.rules.push_back(nf::Firewall::Deny(
        FieldMatch::Any(), FieldMatch::Any(), FieldMatch::Any(),
        FieldMatch::Range(static_cast<std::uint16_t>(port + i),
                          static_cast<std::uint16_t>(port + i)),
        FieldMatch::Any()));
  }
  return config;
}

NfConfig TcConfig(std::uint8_t cls) {
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

NfConfig FwSrcMatch() {
  NfConfig config;
  config.type = NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(
      FieldMatch::Ternary(0x0A000000, 0xFFFFFF00), FieldMatch::Any(), FieldMatch::Any(),
      FieldMatch::Range(443, 443), FieldMatch::Any()));
  return config;
}

NfConfig NatConfig() {
  NfConfig config;
  config.type = NfType::kNat;
  config.rules.push_back(nf::Nat::Translate(Ipv4Address::Of(10, 1, 2, 3),
                                            Ipv4Address::Of(203, 0, 113, 7)));
  return config;
}

NfConfig RlConfig() {
  NfConfig config;
  config.type = NfType::kRateLimiter;
  config.rules.push_back(nf::RateLimiter::Police(0x0A000000, 0xFF000000, 0));
  return config;
}

// Fig. 3's out-of-order SFC 2 (FW -> LB -> TC on a [TC, FW, LB]
// pipeline) needs two passes sequentially, but the three NFs are
// mutually independent: packing runs the whole chain in one pass.
TEST(PassPackingTest, OutOfOrderIndependentChainPacksIntoOnePass) {
  DataPlane dp(Switch(3, /*parallel=*/true));
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));
  ASSERT_TRUE(dp.InstallPhysicalNf(2, NfType::kLoadBalancer));

  Sfc sfc;
  sfc.tenant = 2;
  sfc.bandwidth_gbps = 5;
  sfc.chain = {FwBlocking(443),
               LbConfig(Ipv4Address::Of(10, 0, 0, 100), Ipv4Address::Of(192, 168, 0, 2)),
               TcConfig(4)};
  const auto result = dp.AllocateSfc(sfc);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.passes, 1);
  EXPECT_EQ(result.sequential_passes, 2);
  ASSERT_EQ(result.placements.size(), 3u);
  EXPECT_EQ(result.placements[0].stage, 1);  // FW
  EXPECT_EQ(result.placements[1].stage, 2);  // LB
  EXPECT_EQ(result.placements[2].stage, 0);  // TC runs "early" — independent
  for (const auto& p : result.placements) EXPECT_EQ(p.pass, 0);

  // Same observable outcome as the sequential reference, one pass.
  auto packet = MakeTcpPacket(2, Ipv4Address::Of(1, 1, 1, 1),
                              Ipv4Address::Of(10, 0, 0, 100), 999, 80, 128);
  auto out = dp.Process(packet);
  EXPECT_FALSE(out.meta.dropped);
  EXPECT_EQ(out.passes, 1);
  EXPECT_EQ(out.meta.flow_class, 4);
  EXPECT_EQ(out.packet.ipv4->dst, Ipv4Address::Of(192, 168, 0, 2));

  // Port 443 still firewalled.
  auto blocked = MakeTcpPacket(2, Ipv4Address::Of(1, 1, 1, 1),
                               Ipv4Address::Of(10, 0, 0, 100), 999, 443, 128);
  EXPECT_TRUE(dp.Process(blocked).meta.dropped);
}

TEST(PassPackingTest, FieldConflictFallsBackToSequentialLayout) {
  DataPlane dp(Switch(2, /*parallel=*/true));
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kNat));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));

  Sfc sfc;
  sfc.tenant = 1;
  sfc.bandwidth_gbps = 1;
  // NAT rewrites the source IP the firewall matches: not mergeable, so
  // the out-of-order chain still folds exactly like the §IV planner.
  sfc.chain = {FwSrcMatch(), NatConfig()};
  const auto result = dp.AllocateSfc(sfc);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.passes, 2);
  EXPECT_EQ(result.sequential_passes, 2);
  EXPECT_EQ(result.placements[0].stage, 1);
  EXPECT_EQ(result.placements[0].pass, 0);
  EXPECT_EQ(result.placements[1].stage, 0);
  EXPECT_EQ(result.placements[1].pass, 1);

  const auto stats = dp.pass_packing();
  EXPECT_GE(stats.reject_field_conflict, 1u);
  EXPECT_EQ(stats.fallback_sequential, 1u);
}

TEST(PassPackingTest, DropGateKeepsStatefulNfOrdered) {
  DataPlane dp(Switch(2, /*parallel=*/true));
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kRateLimiter));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));
  auto* rl = static_cast<nf::RateLimiter*>(dp.PhysicalNf(0, NfType::kRateLimiter));
  ASSERT_NE(rl, nullptr);
  rl->AddBucket(100.0, 10.0);

  Sfc sfc;
  sfc.tenant = 1;
  sfc.bandwidth_gbps = 1;
  // The firewall must keep filtering *before* the token bucket even
  // though the bucket's stage comes first in the pipeline.
  sfc.chain = {FwBlocking(443), RlConfig()};
  const auto result = dp.AllocateSfc(sfc);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.passes, 2);
  EXPECT_GE(dp.pass_packing().reject_drop_gate, 1u);
}

TEST(PassPackingTest, SameTypeDuplicatesLandOnDistinctStages) {
  DataPlane dp(Switch(3, /*parallel=*/true));
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));
  ASSERT_TRUE(dp.InstallPhysicalNf(2, NfType::kFirewall));

  Sfc sfc;
  sfc.tenant = 1;
  sfc.bandwidth_gbps = 1;
  // Two stateless firewalls commute (union of drop sets); they still
  // need *distinct* physical tables — same (tenant, pass) rules in one
  // table would collide.
  sfc.chain = {FwBlocking(443), FwBlocking(8080), TcConfig(2)};
  const auto result = dp.AllocateSfc(sfc);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.passes, 1);
  EXPECT_EQ(result.sequential_passes, 2);
  EXPECT_EQ(result.placements[0].stage, 1);
  EXPECT_EQ(result.placements[1].stage, 2);
  EXPECT_EQ(result.placements[2].stage, 0);

  auto blocked = MakeTcpPacket(1, Ipv4Address::Of(1, 1, 1, 1),
                               Ipv4Address::Of(9, 9, 9, 9), 999, 8080, 128);
  EXPECT_TRUE(dp.Process(blocked).meta.dropped);
  auto ok = MakeTcpPacket(1, Ipv4Address::Of(1, 1, 1, 1), Ipv4Address::Of(9, 9, 9, 9),
                          999, 80, 128);
  auto out = dp.Process(ok);
  EXPECT_FALSE(out.meta.dropped);
  EXPECT_EQ(out.meta.flow_class, 2);
  EXPECT_EQ(out.passes, 1);
}

TEST(PassPackingTest, PackingRespectsTableCapacity) {
  // One block per stage: each physical NF's table caps at 100 entries.
  SwitchConfig config = Switch(3, /*parallel=*/true);
  config.blocks_per_stage = 1;
  DataPlane dp(config);
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));
  ASSERT_TRUE(dp.InstallPhysicalNf(2, NfType::kFirewall));

  // Tenant A nearly fills the stage-1 firewall (90 rules + catch-all
  // of a 100-entry table).
  Sfc filler;
  filler.tenant = 1;
  filler.bandwidth_gbps = 1;
  filler.chain = {FwBlocking(1000, /*copies=*/90)};
  ASSERT_TRUE(dp.AllocateSfc(filler).ok);

  // Tenant B's firewall no longer fits at stage 1; packing places it
  // at stage 2 and still merges the trailing classifier into pass 0.
  Sfc sfc;
  sfc.tenant = 2;
  sfc.bandwidth_gbps = 1;
  sfc.chain = {FwBlocking(443, /*copies=*/20), TcConfig(3)};
  const auto result = dp.AllocateSfc(sfc);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.passes, 1);
  EXPECT_EQ(result.sequential_passes, 2);
  EXPECT_EQ(result.placements[0].stage, 2);  // FW skipped the full stage
  EXPECT_EQ(result.placements[1].stage, 0);  // TC packed before it
}

TEST(PassPackingTest, PackingExtendsAdmissibilityUnderPassBudget) {
  Sfc sfc;
  sfc.tenant = 2;
  sfc.bandwidth_gbps = 5;
  sfc.chain = {FwBlocking(443),
               LbConfig(Ipv4Address::Of(10, 0, 0, 100), Ipv4Address::Of(192, 168, 0, 2)),
               TcConfig(4)};

  for (const bool parallel : {false, true}) {
    DataPlane dp(Switch(3, parallel));
    ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
    ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));
    ASSERT_TRUE(dp.InstallPhysicalNf(2, NfType::kLoadBalancer));
    const auto result = dp.AllocateSfc(sfc, /*max_passes=*/1);
    if (parallel) {
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_EQ(result.passes, 1);
      // The reference plan does not fit the budget at all.
      EXPECT_EQ(result.sequential_passes, 0);
    } else {
      EXPECT_FALSE(result.ok);
      EXPECT_EQ(result.code, AllocCode::kNoPlacement);
    }
  }
}

TEST(PassPackingTest, PackingIsOffByDefault) {
  DataPlane dp(Switch(3, /*parallel=*/false));
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));
  ASSERT_TRUE(dp.InstallPhysicalNf(2, NfType::kLoadBalancer));

  Sfc sfc;
  sfc.tenant = 2;
  sfc.bandwidth_gbps = 5;
  sfc.chain = {FwBlocking(443),
               LbConfig(Ipv4Address::Of(10, 0, 0, 100), Ipv4Address::Of(192, 168, 0, 2)),
               TcConfig(4)};
  const auto result = dp.AllocateSfc(sfc);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.passes, 2);  // unchanged §IV behaviour
  EXPECT_EQ(result.sequential_passes, 2);
  // No packing stats recorded while the feature is off.
  EXPECT_EQ(dp.pass_packing().sequential, 0u);
  EXPECT_EQ(dp.pass_packing().packed, 0u);
}

TEST(PassPackingTest, ExportsPassMetrics) {
  DataPlane dp(Switch(3, /*parallel=*/true));
  ASSERT_TRUE(dp.InstallPhysicalNf(0, NfType::kClassifier));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, NfType::kFirewall));
  ASSERT_TRUE(dp.InstallPhysicalNf(2, NfType::kLoadBalancer));

  Sfc sfc;
  sfc.tenant = 2;
  sfc.bandwidth_gbps = 5;
  sfc.chain = {FwBlocking(443),
               LbConfig(Ipv4Address::Of(10, 0, 0, 100), Ipv4Address::Of(192, 168, 0, 2)),
               TcConfig(4)};
  ASSERT_TRUE(dp.AllocateSfc(sfc).ok);

  common::metrics::Registry registry;
  dp.ExportMetrics(registry);
  std::uint64_t sequential = 0, packed = 0, saved = 0;
  bool found_saved = false;
  for (const auto& counter : registry.Counters()) {
    if (counter.name == "pipeline.passes.sequential") sequential = counter.value;
    if (counter.name == "pipeline.passes.packed") packed = counter.value;
    if (counter.name == "pipeline.passes.saved") {
      saved = counter.value;
      found_saved = true;
    }
  }
  EXPECT_TRUE(found_saved);
  EXPECT_EQ(sequential, 2u);
  EXPECT_EQ(packed, 1u);
  EXPECT_EQ(saved, 1u);
}

// ---- randomized differential: packed == sequential, always ----------

int DiffChains() {
  if (const char* env = std::getenv("SFP_PACK_DIFF_CHAINS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 300;
}

struct TwinSystems {
  DataPlane sequential;
  DataPlane packed;

  explicit TwinSystems(Rng& rng)
      : sequential(Switch(nf::kNumNfTypes, false)), packed(Switch(nf::kNumNfTypes, true)) {
    std::vector<int> stages(static_cast<std::size_t>(nf::kNumNfTypes));
    for (int t = 0; t < nf::kNumNfTypes; ++t) stages[static_cast<std::size_t>(t)] = t;
    rng.Shuffle(stages);
    for (int t = 0; t < nf::kNumNfTypes; ++t) {
      const int stage = stages[static_cast<std::size_t>(t)];
      const auto type = static_cast<NfType>(t);
      EXPECT_TRUE(sequential.InstallPhysicalNf(stage, type));
      EXPECT_TRUE(packed.InstallPhysicalNf(stage, type));
      if (type == NfType::kRateLimiter) {
        // Generated police rules reference bucket 0 (same parameters
        // on both sides so token streams stay comparable).
        static_cast<nf::RateLimiter*>(sequential.PhysicalNf(stage, type))
            ->AddBucket(100.0, 10.0);
        static_cast<nf::RateLimiter*>(packed.PhysicalNf(stage, type))
            ->AddBucket(100.0, 10.0);
      }
    }
  }
};

TEST(PassPackingEquivalenceTest, PackedMatchesSequentialVerdictForVerdict) {
  const int chains = DiffChains();
  int compared = 0;
  std::int64_t total_saved = 0;
  for (int i = 0; i < chains; ++i) {
    Rng rng(static_cast<std::uint64_t>(i) * 7919 + 17);
    TwinSystems twins(rng);
    if (::testing::Test::HasFatalFailure()) return;

    const int chain_len = static_cast<int>(rng.UniformInt(2, 6));
    const auto sfc = workload::GenerateConcreteSfc(/*tenant=*/1, chain_len, 10.0, rng,
                                                   /*rules_per_nf=*/8);
    const auto seq_result = twins.sequential.AllocateSfc(sfc);
    const auto packed_result = twins.packed.AllocateSfc(sfc);
    // Packing only widens admissibility: whatever the reference admits,
    // the packed plane admits at no more passes.
    ASSERT_EQ(seq_result.ok, packed_result.ok)
        << "chain " << i << ": " << seq_result.error << " / " << packed_result.error;
    if (!seq_result.ok) continue;
    ASSERT_LE(packed_result.passes, seq_result.passes) << "chain " << i;
    ASSERT_EQ(packed_result.sequential_passes, seq_result.passes) << "chain " << i;
    total_saved += seq_result.passes - packed_result.passes;
    ++compared;

    workload::PacketSizeProfile profile;
    const auto packets =
        workload::GenerateFlows(/*tenant=*/1, /*num_flows=*/8, /*count=*/50, profile, rng);
    for (const auto& packet : packets) {
      const auto seq = twins.sequential.Process(packet);
      const auto packed = twins.packed.Process(packet);
      ASSERT_EQ(seq.meta.dropped, packed.meta.dropped) << "chain " << i;
      ASSERT_EQ(seq.meta.drop_reason, packed.meta.drop_reason) << "chain " << i;
      if (seq.meta.dropped) continue;  // post-drop header state is unobservable
      ASSERT_EQ(seq.meta.flow_class, packed.meta.flow_class) << "chain " << i;
      ASSERT_EQ(seq.meta.egress_port, packed.meta.egress_port) << "chain " << i;
      ASSERT_EQ(seq.meta.scratch, packed.meta.scratch) << "chain " << i;
      ASSERT_TRUE(seq.packet.ipv4.has_value());
      ASSERT_TRUE(packed.packet.ipv4.has_value());
      ASSERT_EQ(seq.packet.ipv4->src, packed.packet.ipv4->src) << "chain " << i;
      ASSERT_EQ(seq.packet.ipv4->dst, packed.packet.ipv4->dst) << "chain " << i;
      ASSERT_EQ(seq.packet.ipv4->ttl, packed.packet.ipv4->ttl) << "chain " << i;
      ASSERT_EQ(seq.packet.Tuple().Hash(), packed.packet.Tuple().Hash()) << "chain " << i;
    }
  }
  // The sweep must have exercised real comparisons and real packing.
  EXPECT_GT(compared, 0);
  EXPECT_GT(total_saved, 0) << "no chain ever packed — the feature never engaged";
}

TEST(PassPackingEquivalenceTest, CompiledMatchesInterpretedOnPackedLayouts) {
  const int chains = std::min(DiffChains(), 40);
  for (int i = 0; i < chains; ++i) {
    Rng rng(static_cast<std::uint64_t>(i) * 104729 + 5);
    Rng rng_copy = rng;  // same stream -> identical shuffled layouts
    TwinSystems twins(rng);  // reuse: .packed interpreted vs compiled
    TwinSystems compiled_twins(rng_copy);
    if (::testing::Test::HasFatalFailure()) return;
    compiled_twins.packed.EnableCompiledPlans();

    const int chain_len = static_cast<int>(rng.UniformInt(2, 6));
    const auto sfc = workload::GenerateConcreteSfc(/*tenant=*/1, chain_len, 10.0, rng,
                                                   /*rules_per_nf=*/8);
    const auto interpreted = twins.packed.AllocateSfc(sfc);
    const auto compiled = compiled_twins.packed.AllocateSfc(sfc);
    ASSERT_EQ(interpreted.ok, compiled.ok) << "chain " << i;
    if (!interpreted.ok) continue;
    ASSERT_EQ(interpreted.passes, compiled.passes) << "chain " << i;

    workload::PacketSizeProfile profile;
    const auto packets =
        workload::GenerateFlows(/*tenant=*/1, /*num_flows=*/8, /*count=*/128, profile, rng);
    switchsim::BatchOptions options;
    options.num_threads = 1;
    options.min_parallel_batch = 1;
    const auto a = twins.packed.ProcessBatch(packets, options);
    const auto b = compiled_twins.packed.ProcessBatch(packets, options);
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
