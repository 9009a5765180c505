// Unit tests for the per-tenant pipeline compiler (docs/COMPILER.md):
// one test group per layer — the tenant lift, each lowering pass
// (dead-table elimination, constant folding, match fusion), the
// struct-of-arrays plan emission, and the plan cache's warm /
// invalidate / fallback contract. The randomized compiled-vs-
// interpreted bit-identity suite lives in compiler_equivalence_test.cc.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataplane/data_plane.h"
#include "net/packet.h"
#include "nf/classifier.h"
#include "nf/firewall.h"
#include "nf/load_balancer.h"
#include "nf/router.h"
#include "switchsim/compiler/exec.h"
#include "switchsim/compiler/ir.h"
#include "switchsim/compiler/passes.h"
#include "switchsim/compiler/plan.h"
#include "switchsim/compiler/plan_cache.h"

namespace sfp::switchsim::compiler {
namespace {

using dataplane::DataPlane;
using dataplane::Sfc;

nf::NfConfig FwConfig() {
  nf::NfConfig config;
  config.type = nf::NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(
      FieldMatch::Any(), FieldMatch::Any(), FieldMatch::Any(), FieldMatch::Range(23, 23),
      FieldMatch::Any(), /*priority=*/10));
  config.rules.push_back(nf::Firewall::Allow(
      FieldMatch::Exact(0x0a000001), FieldMatch::Any(), FieldMatch::Any(),
      FieldMatch::Range(23, 23), FieldMatch::Any(), /*priority=*/20));
  return config;
}

nf::NfConfig TcConfig(std::uint8_t cls) {
  nf::NfConfig config;
  config.type = nf::NfType::kClassifier;
  config.rules.push_back(nf::Classifier::ClassifyByPort(0, 65535, cls));
  return config;
}

nf::NfConfig RtConfig() {
  nf::NfConfig config;
  config.type = nf::NfType::kRouter;
  config.rules.push_back(nf::Router::Route(0, 0, 7));
  return config;
}

/// fw | tc | rt layout with two allocated tenants; tenant 3 folds over
/// two passes (rt before fw).
DataPlane MakeDataPlane() {
  DataPlane dp;
  EXPECT_TRUE(dp.InstallPhysicalNf(0, nf::NfType::kFirewall));
  EXPECT_TRUE(dp.InstallPhysicalNf(1, nf::NfType::kClassifier));
  EXPECT_TRUE(dp.InstallPhysicalNf(2, nf::NfType::kRouter));
  Sfc t1;
  t1.tenant = 1;
  t1.chain = {FwConfig(), TcConfig(1), RtConfig()};
  Sfc t2;
  t2.tenant = 2;
  t2.chain = {TcConfig(2)};
  Sfc t3;  // router before firewall -> folds into pass 1
  t3.tenant = 3;
  t3.chain = {RtConfig(), FwConfig()};
  EXPECT_TRUE(dp.AllocateSfc(t1).ok);
  EXPECT_TRUE(dp.AllocateSfc(t2).ok);
  const auto a3 = dp.AllocateSfc(t3);
  EXPECT_TRUE(a3.ok);
  EXPECT_EQ(a3.passes, 2);
  return dp;
}

// ---------------------------------------------------------------- lift

TEST(LiftTest, SlicesOnlyTheTenantsEntriesInWinnerOrder) {
  auto dp = MakeDataPlane();
  const auto lifted = LiftTenant(dp.pipeline(), 1, nullptr);
  ASSERT_TRUE(lifted.ok) << lifted.error;
  const TenantIr& ir = lifted.ir;
  EXPECT_EQ(ir.tenant, 1);
  EXPECT_EQ(ir.num_stages, dp.pipeline().num_stages());
  ASSERT_EQ(ir.passes.size(), 1u);  // in-order chain, single pass
  ASSERT_EQ(ir.passes[0].slots.size(), 3u);  // fw, tc, rt tables

  const IrSlot& fw = ir.passes[0].slots[0];
  // 2 configured firewall rules + the per-tenant catch-all.
  ASSERT_EQ(fw.entries.size(), 3u);
  for (const IrEntry& entry : fw.entries) {
    // Every lifted entry names this tenant in the exact prefix.
    EXPECT_EQ(entry.matches[0].value, 1u);
  }
  // Winner order: priority 20 allow, then 10 deny, then -1000 catch-all.
  EXPECT_EQ(fw.entries[0].priority, 20);
  EXPECT_EQ(fw.entries[1].priority, 10);
  EXPECT_EQ(fw.entries[2].priority, -1000);
  EXPECT_TRUE(fw.entries[2].always_matches);
  // srcIp is read (the allow rule constrains it); dstIp never is.
  EXPECT_NE(fw.reads & FieldBit(FieldId::kSrcIp), 0u);
  EXPECT_EQ(fw.reads & FieldBit(FieldId::kDstIp), 0u);
}

TEST(LiftTest, FoldedChainLiftsOnePassPerRecirculation) {
  auto dp = MakeDataPlane();
  const auto lifted = LiftTenant(dp.pipeline(), 3, nullptr);
  ASSERT_TRUE(lifted.ok) << lifted.error;
  ASSERT_EQ(lifted.ir.passes.size(), 2u);
  // Pass 0 holds the router rules, pass 1 the firewall rules.
  EXPECT_TRUE(lifted.ir.passes[0].slots[0].entries.empty());   // fw @ pass 0
  EXPECT_FALSE(lifted.ir.passes[0].slots[2].entries.empty());  // rt @ pass 0
  EXPECT_FALSE(lifted.ir.passes[1].slots[0].entries.empty());  // fw @ pass 1
  // The tail (passes beyond the program) has no entries anywhere.
  for (const IrSlot& slot : lifted.ir.tail.slots) EXPECT_TRUE(slot.entries.empty());
}

TEST(LiftTest, TableWithoutTenantPassPrefixIsUnsupported) {
  Pipeline pipeline;
  auto* table = pipeline.stage(0).AddTable(
      "custom", {{FieldId::kSrcIp, MatchKind::kExact}});
  ASSERT_NE(table, nullptr);
  const auto lifted = LiftTenant(pipeline, 1, nullptr);
  EXPECT_FALSE(lifted.ok);
  EXPECT_NE(lifted.error.find("custom"), std::string::npos);
  EXPECT_NE(lifted.error.find("(tenant, pass)"), std::string::npos);
}

// An entry that wildcards the tenant field can match every tenant's
// packets, and one that wildcards the pass field matches at every pass;
// neither fits a per-(tenant, pass) slot. The lift must refuse them so
// the tenant serves interpreted instead of from a plan that ignores the
// entry.
TEST(LiftTest, EntryWildcardingThePrefixFallsBackToTheInterpreter) {
  DataPlane dp;
  ASSERT_TRUE(dp.InstallPhysicalNf(0, nf::NfType::kFirewall));
  ASSERT_TRUE(dp.InstallPhysicalNf(1, nf::NfType::kRouter));
  Sfc t1;
  t1.tenant = 1;
  t1.chain = {FwConfig(), RtConfig()};
  ASSERT_TRUE(dp.AllocateSfc(t1).ok);
  dp.EnableCompiledPlans();
  Pipeline& pipeline = dp.pipeline();
  auto* cache = pipeline.plan_cache();
  ASSERT_TRUE(cache->Warm(1));

  // Port 80 misses both firewall rules: tenant 1's catch-all forwards
  // it to the router, which sends it to port 7.
  const net::Packet packet =
      net::MakeTcpPacket(1, net::Ipv4Address::Of(10, 0, 0, 2), net::Ipv4Address::Of(10, 9, 0, 1),
                         1234, 80, 128);
  BatchOptions serve;
  serve.num_threads = 1;
  ASSERT_EQ(pipeline.ProcessBatch({&packet, 1}, serve)[0].meta.egress_port, 7);
  EXPECT_EQ(cache->InterpretedPackets(), 0u);

  // Installed with no DataPlane hook: tenant = Any, pass 0, deny,
  // outranking tenant 1's catch-all.
  auto* fw = pipeline.stage(0).tables()[0].get();
  const auto& names = fw->action_names();
  const auto deny =
      static_cast<ActionId>(std::find(names.begin(), names.end(), "deny") - names.begin());
  ASSERT_LT(static_cast<std::size_t>(deny), names.size());
  std::vector<FieldMatch> matches(fw->key().size(), FieldMatch::Any());
  matches[1] = FieldMatch::Exact(0);
  const EntryHandle any_tenant = fw->AddEntry(matches, deny);
  ASSERT_NE(any_tenant, kInvalidEntryHandle);

  const ProcessResult interpreted = pipeline.Process(packet);
  EXPECT_TRUE(interpreted.meta.dropped);
  const ProcessResult compiled = pipeline.ProcessBatch({&packet, 1}, serve)[0];
  EXPECT_TRUE(compiled.meta.dropped);
  EXPECT_EQ(compiled.meta.egress_port, interpreted.meta.egress_port);
  // The batch found no valid plan and interpreted the packet; the
  // scalar Process call above is not counted.
  EXPECT_EQ(cache->InterpretedPackets(), 1u);
  EXPECT_FALSE(cache->Warm(1));
  EXPECT_EQ(cache->FallbackTenants(), 1u);
  const auto lifted = LiftTenant(pipeline, 1, nullptr);
  EXPECT_FALSE(lifted.ok);
  EXPECT_NE(lifted.error.find("wildcards the (tenant, pass)"), std::string::npos)
      << lifted.error;

  // The same holds for an entry naming tenant 1 at every pass.
  ASSERT_TRUE(fw->RemoveEntry(any_tenant));
  ASSERT_TRUE(LiftTenant(pipeline, 1, nullptr).ok);
  matches[0] = FieldMatch::Exact(1);
  matches[1] = FieldMatch::Any();
  ASSERT_NE(fw->AddEntry(matches, deny), kInvalidEntryHandle);
  EXPECT_FALSE(LiftTenant(pipeline, 1, nullptr).ok);
}

// ------------------------------------------- pass: dead-table elimination

IrSlot MatchSlot(int stage, FieldSet reads = kNoFields, FieldSet writes = kNoFields) {
  IrSlot slot;
  slot.stage = stage;
  slot.kind = SlotKind::kMatch;
  slot.reads = reads;
  slot.writes = writes;
  slot.entries.emplace_back();  // non-empty by default
  return slot;
}

TEST(DeadTableEliminationTest, MarksEmptySlotsDeadAndCountsRealPassesOnly) {
  TenantIr ir;
  ir.passes.emplace_back();
  ir.passes[0].slots.push_back(MatchSlot(0));
  ir.passes[0].slots.push_back(MatchSlot(1));
  ir.passes[0].slots[1].entries.clear();  // no rules for this (tenant, pass)
  ir.tail.slots.push_back(MatchSlot(0));
  ir.tail.slots[0].entries.clear();

  EXPECT_EQ(DeadTableElimination(ir), 1);  // the tail slot is not counted
  EXPECT_EQ(ir.passes[0].slots[0].kind, SlotKind::kMatch);
  EXPECT_EQ(ir.passes[0].slots[1].kind, SlotKind::kDead);
  EXPECT_EQ(ir.passes[0].slots[1].reads, kNoFields);
  EXPECT_EQ(ir.tail.slots[0].kind, SlotKind::kDead);
}

// ------------------------------------------------ pass: constant folding

TEST(ConstantFoldTest, FoldsUnconditionalWinnerAndDropsUnreachableEntries) {
  TenantIr ir;
  ir.passes.emplace_back();
  IrSlot slot = MatchSlot(0, FieldBit(FieldId::kSrcIp), kAllFields);
  slot.entries[0].always_matches = true;
  slot.entries[0].act.traits = ActionTraits::SetFlowClass();
  slot.entries.push_back(slot.entries[0]);  // unreachable runner-up
  slot.entries[1].always_matches = false;
  ir.passes[0].slots.push_back(std::move(slot));

  EXPECT_EQ(ConstantFoldAlwaysMatch(ir), 1);
  const IrSlot& folded = ir.passes[0].slots[0];
  EXPECT_EQ(folded.kind, SlotKind::kAlways);
  EXPECT_EQ(folded.entries.size(), 1u);
  EXPECT_EQ(folded.reads, kNoFields);
  // Only the surviving winner's writes remain.
  EXPECT_EQ(folded.writes, FieldBit(FieldId::kFlowClass));
}

TEST(ConstantFoldTest, LeavesGuardedWinnersAlone) {
  TenantIr ir;
  ir.passes.emplace_back();
  ir.passes[0].slots.push_back(MatchSlot(0, FieldBit(FieldId::kDstPort)));
  ir.passes[0].slots[0].entries[0].always_matches = false;
  EXPECT_EQ(ConstantFoldAlwaysMatch(ir), 0);
  EXPECT_EQ(ir.passes[0].slots[0].kind, SlotKind::kMatch);
  EXPECT_EQ(ir.passes[0].slots[0].entries.size(), 1u);
}

// --------------------------------------------------- pass: match fusion

TEST(MatchFusionTest, FusesSlotsWithDisjointReadAndWriteSets) {
  TenantIr ir;
  ir.passes.emplace_back();
  auto& slots = ir.passes[0].slots;
  // A writes flow_class; B reads dst_port (disjoint) -> fuses with A;
  // C reads flow_class (conflicts with A's write) -> new group.
  slots.push_back(MatchSlot(0, FieldBit(FieldId::kSrcIp), FieldBit(FieldId::kFlowClass)));
  slots.push_back(MatchSlot(1, FieldBit(FieldId::kDstPort), kNoFields));
  slots.push_back(MatchSlot(2, FieldBit(FieldId::kFlowClass), kNoFields));

  EXPECT_EQ(MatchFusion(ir), 1);
  EXPECT_EQ(slots[0].fusion_group, slots[1].fusion_group);
  EXPECT_NE(slots[1].fusion_group, slots[2].fusion_group);
}

TEST(MatchFusionTest, CapsGroupsAtMaxFusedSlots) {
  TenantIr ir;
  ir.passes.emplace_back();
  for (int i = 0; i < kMaxFusedSlots + 4; ++i) {
    ir.passes[0].slots.push_back(MatchSlot(i));  // no conflicts at all
  }
  EXPECT_EQ(MatchFusion(ir), (kMaxFusedSlots - 1) + 3);
  EXPECT_EQ(ir.passes[0].slots[kMaxFusedSlots - 1].fusion_group,
            ir.passes[0].slots[0].fusion_group);
  EXPECT_NE(ir.passes[0].slots[kMaxFusedSlots].fusion_group,
            ir.passes[0].slots[0].fusion_group);
}

TEST(MatchFusionTest, DeadSlotsFuseTransparentlyWithoutCounting) {
  TenantIr ir;
  ir.passes.emplace_back();
  auto& slots = ir.passes[0].slots;
  slots.push_back(MatchSlot(0));
  slots[0].entries.clear();  // dead after DTE
  slots.push_back(MatchSlot(1));
  slots.push_back(MatchSlot(2));
  ASSERT_EQ(DeadTableElimination(ir), 1);
  // dead + live + live: only the third slot joins a group that already
  // has a live member.
  EXPECT_EQ(MatchFusion(ir), 1);
  EXPECT_EQ(slots[0].fusion_group, slots[1].fusion_group);
  EXPECT_EQ(slots[1].fusion_group, slots[2].fusion_group);
}

// ------------------------------------------- emission (SoA layout)

TEST(EmitPlanTest, LaysOutRulesStructOfArraysWithPrecomputedMasks) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  std::string error;
  const auto plan = CompileTenant(dp.pipeline(), 1, nullptr, &error);
  ASSERT_NE(plan, nullptr) << error;
  EXPECT_EQ(plan->tenant, 1);
  ASSERT_EQ(plan->passes.size(), 1u);
  ASSERT_FALSE(plan->table_epochs.empty());

  const CompiledPass& pass = plan->passes[0];
  ASSERT_EQ(pass.slots.size(), 3u);
  for (const CompiledSlot& slot : pass.slots) {
    // Parallel arrays: one op span and one action per entry.
    EXPECT_EQ(slot.op_begin.size(), slot.op_count.size());
    EXPECT_EQ(slot.op_begin.size(), slot.actions.size());
    for (std::size_t e = 0; e < slot.op_begin.size(); ++e) {
      EXPECT_LE(slot.op_begin[e] + slot.op_count[e], plan->ops.size());
    }
  }
  // The firewall's allow rule compiled a pre-masked src-ip op: the fw
  // column is ternary, and FieldMatch::Exact carries a full mask, so
  // emission pre-computes value & mask once at compile time. (Two of
  // the three entries constrain dst port, so the slot is indexed on
  // it and the src-ip op is the only one left to verify.)
  const CompiledSlot& fw = pass.slots[0];
  ASSERT_EQ(fw.kind, SlotKind::kInterval);
  EXPECT_EQ(fw.index_field, static_cast<std::uint8_t>(FieldId::kDstPort));
  bool found_src_op = false;
  for (std::size_t e = 0; e < fw.op_begin.size(); ++e) {
    for (std::uint16_t o = 0; o < fw.op_count[e]; ++o) {
      const CompiledOp& op = plan->ops[fw.op_begin[e] + o];
      if (op.field == static_cast<std::uint8_t>(FieldId::kSrcIp)) {
        EXPECT_EQ(op.kind, MatchKind::kTernary);
        EXPECT_EQ(op.a, 0x0a000001u & op.b);
        found_src_op = true;
      }
    }
  }
  EXPECT_TRUE(found_src_op);
  // Groups tile the slots exactly once, in order.
  std::uint32_t covered = 0;
  for (const CompiledGroup& group : pass.groups) {
    EXPECT_EQ(group.slot_begin, covered);
    covered += group.slot_count;
  }
  EXPECT_EQ(covered, pass.slots.size());
}

TEST(EmitPlanTest, FoldedCatchAllOnlyTableEmitsNoOps) {
  auto dp = MakeDataPlane();
  // Tenant 2's single-NF chain: tc holds one always-match rule + the
  // catch-all; fw and rt hold nothing.
  const auto plan = CompileTenant(dp.pipeline(), 2, nullptr);
  ASSERT_NE(plan, nullptr);
  const CompiledPass& pass = plan->passes[0];
  EXPECT_EQ(pass.slots[0].kind, SlotKind::kDead);    // fw
  EXPECT_EQ(pass.slots[1].kind, SlotKind::kAlways);  // tc folded
  EXPECT_EQ(pass.slots[2].kind, SlotKind::kDead);    // rt
  // A folded slot matches nothing: a single entry with an empty op span.
  ASSERT_EQ(pass.slots[1].op_count.size(), 1u);
  EXPECT_EQ(pass.slots[1].op_count[0], 0);
  EXPECT_GE(plan->stats.dead_tables, 2);
  EXPECT_GE(plan->stats.folded_tables, 1);
}

// ----------------------------------------------------------- plan cache

TEST(PlanCacheTest, WarmThenAcquireServesTheCompiledPlan) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  auto* cache = dp.pipeline().plan_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->Warm(1));
  const auto plan = cache->Acquire(1);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->Validate());
  EXPECT_GE(cache->PlansCompiled(), 1u);
  EXPECT_EQ(cache->FallbackTenants(), 0u);
}

TEST(PlanCacheTest, MutationHooksInvalidateAndRecompile) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  auto* cache = dp.pipeline().plan_cache();
  ASSERT_TRUE(cache->Warm(1));
  const auto before = cache->Acquire(1);
  const std::uint64_t generation = cache->generation();

  // Departure runs the DataPlane invalidation hook.
  EXPECT_GT(dp.DeallocateSfc(1), 0u);
  EXPECT_GE(cache->Invalidations(), 1u);
  EXPECT_NE(cache->generation(), generation);
  // The old plan is stale; a fresh Acquire compiles the empty program.
  EXPECT_FALSE(before->Validate());
  const auto after = cache->Acquire(1);
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(after->Validate());
  EXPECT_GE(cache->Recompiles(), 1u);
  for (const CompiledSlot& slot : after->passes.empty()
                                      ? after->tail.slots
                                      : after->passes[0].slots) {
    EXPECT_EQ(slot.kind, SlotKind::kDead);
  }
}

TEST(PlanCacheTest, ExecContextDetectsStaleEpochsPerPacket) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  auto* cache = dp.pipeline().plan_cache();
  ASSERT_TRUE(cache->Warm(1));

  ExecContext exec(*cache);
  // Hold a reference so `before` stays inspectable after the context
  // drops its memoized copy.
  const auto before = cache->Acquire(1);
  ASSERT_NE(before, nullptr);
  ASSERT_EQ(exec.PlanFor(1), before.get());

  // Mutate a lifted table directly — bypassing every DataPlane hook —
  // so only the per-packet epoch backstop can notice.
  auto* table = dp.pipeline().stage(0).tables()[0].get();
  std::vector<FieldMatch> matches(table->key().size(), FieldMatch::Any());
  matches[0] = FieldMatch::Exact(1);
  matches[1] = FieldMatch::Exact(0);
  ASSERT_NE(table->AddEntry(std::move(matches), 0, {}, 5, 1), kInvalidEntryHandle);

  // Stale detected on the very next resolve; the context invalidates
  // and recompiles in place against the mutated table.
  const CompiledPlan* recompiled = exec.PlanFor(1);
  ASSERT_NE(recompiled, nullptr);
  EXPECT_NE(recompiled, before.get());
  EXPECT_FALSE(before->Validate());
  EXPECT_TRUE(recompiled->Validate());
  EXPECT_GE(cache->Invalidations(), 1u);
  EXPECT_GE(cache->Recompiles(), 1u);
}

// Plans go stale per tenant: another tenant's admission, departure and
// atomic swap through the DataPlane leave tenant 1's stamps — and so
// its plan — untouched, while changes tenant 1 can see still make it
// stale.
TEST(PlanCacheTest, OtherTenantsRuleChangesLeaveThePlanValid) {
  auto dp = MakeDataPlane();
  dp.EnableCompiledPlans();
  auto* cache = dp.pipeline().plan_cache();
  ASSERT_TRUE(cache->Warm(1));
  const auto plan = cache->Acquire(1);
  ASSERT_NE(plan, nullptr);
  const std::uint64_t recompiles = cache->Recompiles();
  const std::uint64_t mutations = dp.pipeline().table_mutation_epoch()->Value();

  // Tenant 4 shares all three tables with tenant 1.
  Sfc b;
  b.tenant = 4;
  b.chain = {FwConfig(), TcConfig(4), RtConfig()};
  ASSERT_TRUE(dp.AllocateSfc(b).ok);
  EXPECT_GT(dp.DeallocateSfc(4), 0u);
  ASSERT_TRUE(dp.AllocateSfc(b).ok);
  Sfc swapped = b;
  swapped.chain = {TcConfig(5), RtConfig()};
  const auto swap_plan = dp.PlanSfc(swapped);
  const auto swap = dp.SwapSfc(b.tenant, &swapped, &swap_plan);
  ASSERT_TRUE(swap.ok) << swap.error;
  ASSERT_GT(dp.pipeline().table_mutation_epoch()->Value(), mutations);

  EXPECT_TRUE(plan->Validate());
  EXPECT_EQ(cache->Acquire(1), plan);
  ExecContext exec(*cache);
  EXPECT_EQ(exec.PlanFor(1), plan.get());
  EXPECT_EQ(cache->Recompiles(), recompiles);

  // A direct install under tenant 1's (tenant, pass) prefix.
  auto* fw = dp.pipeline().stage(0).tables()[0].get();
  std::vector<FieldMatch> matches(fw->key().size(), FieldMatch::Any());
  matches[0] = FieldMatch::Exact(1);
  matches[1] = FieldMatch::Exact(0);
  ASSERT_NE(fw->AddEntry(std::move(matches), 0, {}, 5, 1), kInvalidEntryHandle);
  EXPECT_FALSE(plan->Validate());

  // A default-action change on a lifted table: every tenant's misses
  // run it.
  cache->Invalidate(1);
  ASSERT_TRUE(cache->Warm(1));
  const auto fresh = cache->Acquire(1);
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->Validate());
  dp.pipeline().stage(2).tables()[0]->SetDefaultAction(0);
  EXPECT_FALSE(fresh->Validate());
}

TEST(PlanCacheTest, UnsupportedTenantIsCachedAsInterpreterFallback) {
  Pipeline pipeline;
  ASSERT_NE(pipeline.stage(0).AddTable("custom", {{FieldId::kSrcIp, MatchKind::kExact}}),
            nullptr);
  PlanCache cache(pipeline, ActionMetadata{});
  std::string error;
  EXPECT_FALSE(cache.Warm(7, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(cache.Acquire(7), nullptr);
  EXPECT_EQ(cache.FallbackTenants(), 1u);
  EXPECT_EQ(cache.PlansCompiled(), 0u);
}

}  // namespace
}  // namespace sfp::switchsim::compiler
