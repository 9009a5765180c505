// Tests for the switch simulator: match kinds, table lookup semantics,
// stage memory accounting, pipeline traversal, recirculation, timing.
#include "switchsim/pipeline.h"

#include <gtest/gtest.h>

#include "net/packet.h"

namespace sfp::switchsim {
namespace {

using net::Ipv4Address;
using net::MakeTcpPacket;

net::Packet TestPacket(std::uint16_t tenant = 1) {
  return MakeTcpPacket(tenant, Ipv4Address::Of(10, 0, 0, 1), Ipv4Address::Of(10, 0, 0, 2),
                       1111, 80, 128);
}

TEST(FieldMatchTest, ExactMatching) {
  EXPECT_TRUE(FieldMatches(FieldMatch::Exact(42), MatchKind::kExact, 42));
  EXPECT_FALSE(FieldMatches(FieldMatch::Exact(42), MatchKind::kExact, 43));
}

TEST(FieldMatchTest, TernaryMatching) {
  auto m = FieldMatch::Ternary(0x0A000000, 0xFF000000);
  EXPECT_TRUE(FieldMatches(m, MatchKind::kTernary, 0x0A123456));
  EXPECT_FALSE(FieldMatches(m, MatchKind::kTernary, 0x0B123456));
  EXPECT_TRUE(FieldMatches(FieldMatch::Any(), MatchKind::kTernary, 0xDEADBEEF));
}

TEST(FieldMatchTest, LpmMatching) {
  auto m = FieldMatch::Lpm(Ipv4Address::Of(192, 168, 0, 0).value, 16);
  EXPECT_TRUE(FieldMatches(m, MatchKind::kLpm, Ipv4Address::Of(192, 168, 55, 1).value));
  EXPECT_FALSE(FieldMatches(m, MatchKind::kLpm, Ipv4Address::Of(192, 169, 0, 1).value));
  EXPECT_TRUE(FieldMatches(FieldMatch::Lpm(0, 0), MatchKind::kLpm, 12345));
}

TEST(FieldMatchTest, RangeMatching) {
  auto m = FieldMatch::Range(100, 200);
  EXPECT_TRUE(FieldMatches(m, MatchKind::kRange, 100));
  EXPECT_TRUE(FieldMatches(m, MatchKind::kRange, 200));
  EXPECT_FALSE(FieldMatches(m, MatchKind::kRange, 99));
  EXPECT_FALSE(FieldMatches(m, MatchKind::kRange, 201));
}

TEST(TableTest, PriorityWinsOnOverlap) {
  MatchActionTable table("t", {{FieldId::kDstPort, MatchKind::kRange}});
  int fired = 0;
  auto a = table.RegisterAction("low", [&fired](net::Packet&, PacketMeta&,
                                                const ActionArgs&) { fired = 1; });
  auto b = table.RegisterAction("high", [&fired](net::Packet&, PacketMeta&,
                                                 const ActionArgs&) { fired = 2; });
  table.AddEntry({FieldMatch::Range(0, 1000)}, a, {}, /*priority=*/1);
  table.AddEntry({FieldMatch::Range(50, 100)}, b, {}, /*priority=*/9);

  auto packet = TestPacket();  // dst port 80
  PacketMeta meta;
  EXPECT_TRUE(table.Apply(packet, meta));
  EXPECT_EQ(fired, 2);
}

TEST(TableTest, LongestPrefixWins) {
  MatchActionTable table("t", {{FieldId::kDstIp, MatchKind::kLpm}});
  std::uint64_t chosen = 0;
  auto act = table.RegisterAction("set", [&chosen](net::Packet&, PacketMeta&,
                                                   const ActionArgs& args) {
    chosen = args[0];
  });
  table.AddEntry({FieldMatch::Lpm(Ipv4Address::Of(10, 0, 0, 0).value, 8)}, act, {8});
  table.AddEntry({FieldMatch::Lpm(Ipv4Address::Of(10, 0, 0, 0).value, 24)}, act, {24});

  auto packet = TestPacket();  // dst 10.0.0.2
  PacketMeta meta;
  table.Apply(packet, meta);
  EXPECT_EQ(chosen, 24u);
}

TEST(TableTest, MissRunsDefaultAction) {
  MatchActionTable table("t", {{FieldId::kDstPort, MatchKind::kExact}});
  bool default_ran = false;
  auto def = table.RegisterAction("noop", [&default_ran](net::Packet&, PacketMeta&,
                                                         const ActionArgs&) {
    default_ran = true;
  });
  table.SetDefaultAction(def);
  auto packet = TestPacket();
  PacketMeta meta;
  EXPECT_FALSE(table.Apply(packet, meta));
  EXPECT_TRUE(default_ran);
  EXPECT_EQ(table.miss_count(), 1u);
}

TEST(TableTest, RemoveByHandleAndTenant) {
  MatchActionTable table("t", {{FieldId::kDstPort, MatchKind::kExact}});
  auto act = table.RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  auto h1 = table.AddEntry({FieldMatch::Exact(80)}, act, {}, 0, /*tenant=*/1);
  table.AddEntry({FieldMatch::Exact(81)}, act, {}, 0, /*tenant=*/2);
  table.AddEntry({FieldMatch::Exact(82)}, act, {}, 0, /*tenant=*/2);
  EXPECT_EQ(table.num_entries(), 3u);
  EXPECT_TRUE(table.RemoveEntry(h1));
  EXPECT_FALSE(table.RemoveEntry(h1));
  EXPECT_EQ(table.RemoveTenantEntries(2), 2u);
  EXPECT_EQ(table.num_entries(), 0u);
}

// TenantEpoch moves only on changes the tenant's packets can see, and
// Snapshot(t) copies exactly the entries that can match them.
TEST(TableTest, TenantEpochAndSnapshotArePerTenant) {
  MatchActionTable table("t", {{FieldId::kTenantId, MatchKind::kExact},
                               {FieldId::kDstPort, MatchKind::kExact}});
  auto act = table.RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  table.AddEntry({FieldMatch::Exact(1), FieldMatch::Exact(80)}, act, {}, 0, 1);
  const std::uint64_t one = table.TenantEpoch(1);
  EXPECT_EQ(one, table.epoch());

  // Tenant 2 arrives, changes and leaves: tenant 1 never notices.
  const EntryHandle h2 = table.AddEntry({FieldMatch::Exact(2), FieldMatch::Exact(80)}, act, {},
                                        0, 2);
  table.AddEntry({FieldMatch::Exact(2), FieldMatch::Exact(81)}, act, {}, 0, 2);
  EXPECT_TRUE(table.RemoveEntry(h2));
  const std::uint64_t two = table.TenantEpoch(2);
  EXPECT_EQ(two, table.epoch());
  EXPECT_EQ(table.RemoveTenantEntries(2), 1u);
  EXPECT_EQ(table.TenantEpoch(1), one);
  // The departed ID keeps a later stamp, so a plan compiled for its
  // earlier holder cannot validate against a recycled one.
  EXPECT_GT(table.TenantEpoch(2), two);
  // A tenant that never held an entry shares the shared stamp.
  EXPECT_LT(table.TenantEpoch(3), one);

  ASSERT_EQ(table.Snapshot(1).entries.size(), 1u);
  EXPECT_EQ(table.Snapshot(1).epoch, one);
  EXPECT_TRUE(table.Snapshot(2).entries.empty());

  // An entry that wildcards the tenant field can match every tenant.
  const EntryHandle any = table.AddEntry({FieldMatch::Any(), FieldMatch::Exact(82)}, act);
  EXPECT_EQ(table.TenantEpoch(1), table.epoch());
  EXPECT_EQ(table.TenantEpoch(3), table.epoch());
  EXPECT_EQ(table.Snapshot(1).entries.size(), 2u);
  EXPECT_EQ(table.Snapshot(3).entries.size(), 1u);
  EXPECT_TRUE(table.RemoveEntry(any));

  // So does the default action.
  const std::uint64_t before = table.TenantEpoch(1);
  table.SetDefaultAction(act);
  EXPECT_GT(table.TenantEpoch(1), before);
  EXPECT_EQ(table.TenantEpoch(1), table.epoch());

  // Without an exact tenant field every change is shared.
  MatchActionTable flat("f", {{FieldId::kDstPort, MatchKind::kExact}});
  auto flat_act = flat.RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  flat.AddEntry({FieldMatch::Exact(80)}, flat_act, {}, 0, 5);
  EXPECT_EQ(flat.TenantEpoch(1), flat.epoch());
  EXPECT_EQ(flat.Snapshot(1).entries.size(), 1u);
}

// A removal that finds nothing moves neither the table's epoch nor the
// pipeline-wide mutation counter, so a departure leaves the plans of
// tenants it shared no table with on their one-load Validate fast path.
TEST(TableTest, NoOpTenantRemovalKeepsEpoch) {
  SwitchConfig config;
  config.num_stages = 1;
  Pipeline pipeline(config);
  MatchActionTable& table =
      *pipeline.stage(0).AddTable("t", {{FieldId::kDstPort, MatchKind::kExact}});
  table.RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  table.AddEntry({FieldMatch::Exact(80)}, 0, {}, 0, /*owner_tenant=*/7);
  const std::uint64_t epoch = table.epoch();
  const std::uint64_t mutations = pipeline.table_mutation_epoch()->Value();
  EXPECT_EQ(table.RemoveTenantEntries(99), 0u);  // tenant holds nothing here
  EXPECT_EQ(table.epoch(), epoch);
  EXPECT_EQ(pipeline.table_mutation_epoch()->Value(), mutations);
  EXPECT_EQ(table.RemoveTenantEntries(7), 1u);
  EXPECT_GT(table.epoch(), epoch);
  EXPECT_GT(pipeline.table_mutation_epoch()->Value(), mutations);
}

TEST(TableTest, NeedsTcamDetection) {
  MatchActionTable exact("e", {{FieldId::kDstIp, MatchKind::kExact}});
  MatchActionTable ternary("t", {{FieldId::kDstIp, MatchKind::kTernary}});
  EXPECT_FALSE(exact.NeedsTcam());
  EXPECT_TRUE(ternary.NeedsTcam());
}

TEST(StageTest, BlockAccounting) {
  SwitchConfig config;
  config.blocks_per_stage = 3;
  config.entries_per_block = 10;
  Stage stage(0, config);
  auto* t1 = stage.AddTable("a", {{FieldId::kDstPort, MatchKind::kExact}});
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(stage.BlocksUsed(), 1);  // empty table still reserves a block

  auto act = t1->RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(stage.CanAddEntry(*t1));
    t1->AddEntry({FieldMatch::Exact(static_cast<std::uint64_t>(i))}, act);
  }
  EXPECT_EQ(stage.BlocksUsed(), 2);  // ceil(15/10)

  auto* t2 = stage.AddTable("b", {{FieldId::kDstPort, MatchKind::kExact}});
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(stage.BlocksUsed(), 3);
  // Stage is now full: a third table cannot reserve its block.
  EXPECT_EQ(stage.AddTable("c", {{FieldId::kDstPort, MatchKind::kExact}}), nullptr);
  // And t1 cannot grow into a third block for itself.
  auto act2 = t2->RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  (void)act2;
  for (int i = 15; i < 20; ++i) {
    ASSERT_TRUE(stage.CanAddEntry(*t1));
    t1->AddEntry({FieldMatch::Exact(static_cast<std::uint64_t>(i))}, act);
  }
  EXPECT_FALSE(stage.CanAddEntry(*t1));  // 21st entry needs block #3
}

TEST(PipelineTest, SeedsTenantFromVlanAndCountsStages) {
  SwitchConfig config;
  config.num_stages = 4;
  Pipeline pipeline(config);
  auto result = pipeline.Process(TestPacket(/*tenant=*/9));
  EXPECT_EQ(result.meta.tenant_id, 9);
  EXPECT_EQ(result.passes, 1);
  EXPECT_EQ(result.active_stages, 0);
  EXPECT_EQ(result.idle_stages, 4);
  EXPECT_EQ(pipeline.packets_processed(), 1u);
}

TEST(PipelineTest, DropStopsTraversal) {
  SwitchConfig config;
  config.num_stages = 4;
  Pipeline pipeline(config);
  auto* table = pipeline.stage(1).AddTable("fw", {{FieldId::kDstPort, MatchKind::kExact}});
  auto deny = table->RegisterAction("deny", [](net::Packet&, PacketMeta& meta,
                                               const ActionArgs&) { meta.dropped = true; });
  table->AddEntry({FieldMatch::Exact(80)}, deny);

  auto result = pipeline.Process(TestPacket());
  EXPECT_TRUE(result.meta.dropped);
  // Stages 0 (idle) and 1 (active) ran; 2 and 3 were skipped.
  EXPECT_EQ(result.active_stages + result.idle_stages, 2);
  EXPECT_EQ(pipeline.packets_dropped(), 1u);
}

TEST(PipelineTest, RecirculationIncrementsPass) {
  SwitchConfig config;
  config.num_stages = 2;
  Pipeline pipeline(config);
  auto* table = pipeline.stage(1).AddTable("rec", {{FieldId::kPass, MatchKind::kExact}});
  auto rec = table->RegisterAction("recirc", [](net::Packet&, PacketMeta& meta,
                                                const ActionArgs&) {
    meta.recirculate = true;
  });
  // Recirculate on pass 0 and 1, then fall through on pass 2.
  table->AddEntry({FieldMatch::Exact(0)}, rec);
  table->AddEntry({FieldMatch::Exact(1)}, rec);

  auto result = pipeline.Process(TestPacket());
  EXPECT_EQ(result.passes, 3);
  EXPECT_EQ(result.meta.pass, 2);
  EXPECT_EQ(pipeline.recirculations(), 2u);
}

TEST(PipelineTest, RecirculationGuardStopsInfiniteLoop) {
  SwitchConfig config;
  config.num_stages = 1;
  config.max_passes = 5;
  Pipeline pipeline(config);
  auto* table = pipeline.stage(0).AddTable("rec", {{FieldId::kDstPort, MatchKind::kExact}});
  auto rec = table->RegisterAction("recirc", [](net::Packet&, PacketMeta& meta,
                                                const ActionArgs&) {
    meta.recirculate = true;
  });
  table->AddEntry({FieldMatch::Exact(80)}, rec);  // always recirculates

  // The packet exits at the pass limit with a truncated chain.
  auto result = pipeline.Process(TestPacket());
  EXPECT_EQ(result.passes, 5);
  EXPECT_FALSE(result.meta.dropped);
}

TEST(PipelineTest, ProcessBytesParsesWireFormat) {
  Pipeline pipeline;
  auto bytes = TestPacket(4).Serialize();
  auto result = pipeline.ProcessBytes(bytes);
  EXPECT_FALSE(result.parse_error);
  EXPECT_EQ(result.meta.tenant_id, 4);

  std::vector<std::uint8_t> garbage(5, 0xAB);
  EXPECT_TRUE(pipeline.ProcessBytes(garbage).parse_error);
}

TEST(TimingModelTest, MatchesPaperCalibration) {
  TimingModel timing;
  // 4-NF SFC in one 12-stage pass: ~341 ns (Fig. 5 "SFP").
  const double sfp = timing.LatencyNs(/*active=*/4, /*idle=*/8, /*passes=*/1);
  EXPECT_NEAR(sfp, 341.0, 2.0);
  // Same 4 NFs, one per pass over 4 passes: +~35 ns (Fig. 5 "SFP-Recir").
  const double recir = timing.LatencyNs(/*active=*/4, /*idle=*/44, /*passes=*/4);
  EXPECT_NEAR(recir - sfp, 35.0, 5.0);
}

TEST(PipelineTest, LatencyUsesTimingModel) {
  SwitchConfig config;
  config.num_stages = 12;
  Pipeline pipeline(config);
  auto result = pipeline.Process(TestPacket());
  EXPECT_NEAR(result.latency_ns,
              config.timing.LatencyNs(0, 12, 1), 1e-9);
}

}  // namespace
}  // namespace sfp::switchsim
