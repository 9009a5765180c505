// Tests for the interval-index lowering pass (docs/COMPILER.md, pass 4):
// the value set IntervalOf derives from each match kind, the pass's
// field choice, list cut, interval merge and size cap, and a randomized
// per-slot differential of interval dispatch (and of the linear scan it
// replaces) against a reference linear winner scan over the table's
// entries — every NF generator plus hand-built adversarial sets, with
// hit-heavy and miss-heavy field values.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nf/nf.h"
#include "switchsim/compiler/exec.h"
#include "switchsim/compiler/ir.h"
#include "switchsim/compiler/passes.h"
#include "switchsim/compiler/plan.h"
#include "switchsim/pipeline.h"

namespace sfp::switchsim::compiler {
namespace {

using Shape = FieldInterval::Shape;

constexpr std::uint16_t kTenant = 1;

// ------------------------------------------------------------ IntervalOf

TEST(IntervalOfTest, EveryMatchKindMapsToItsExactValueSet) {
  const FieldInterval exact =
      IntervalOf(FieldMatch::Exact(80), MatchKind::kExact, FieldId::kDstPort);
  EXPECT_EQ(exact.shape, Shape::kSpan);
  EXPECT_EQ(exact.lo, 80u);
  EXPECT_EQ(exact.hi, 80u);

  const FieldInterval lpm =
      IntervalOf(FieldMatch::Lpm(0x0a010203, 16), MatchKind::kLpm, FieldId::kDstIp);
  EXPECT_EQ(lpm.shape, Shape::kSpan);
  EXPECT_EQ(lpm.lo, 0x0a010000u);
  EXPECT_EQ(lpm.hi, 0x0a01FFFFu);

  const FieldInterval ternary = IntervalOf(FieldMatch::Ternary(0x0a0000ff, 0xFFFFFF00),
                                           MatchKind::kTernary, FieldId::kSrcIp);
  EXPECT_EQ(ternary.shape, Shape::kSpan);
  EXPECT_EQ(ternary.lo, 0x0a000000u);
  EXPECT_EQ(ternary.hi, 0x0a0000FFu);

  // A range past the field's width is clamped to it.
  const FieldInterval range =
      IntervalOf(FieldMatch::Range(1000, 1'000'000), MatchKind::kRange, FieldId::kDstPort);
  EXPECT_EQ(range.shape, Shape::kSpan);
  EXPECT_EQ(range.lo, 1000u);
  EXPECT_EQ(range.hi, 0xFFFFu);

  const FieldInterval any = IntervalOf(FieldMatch::Any(), MatchKind::kTernary, FieldId::kDscp);
  EXPECT_EQ(any.shape, Shape::kSpan);
  EXPECT_EQ(any.lo, 0u);
  EXPECT_EQ(any.hi, 0xFFu);
}

TEST(IntervalOfTest, UnreachableAndScatteredPatternsAreFlagged) {
  // No 8-bit protocol equals 300, and no 16-bit port reaches 70000.
  EXPECT_EQ(IntervalOf(FieldMatch::Exact(300), MatchKind::kExact, FieldId::kIpProto).shape,
            Shape::kEmpty);
  EXPECT_EQ(IntervalOf(FieldMatch::Range(70000, 80000), MatchKind::kRange, FieldId::kDstPort)
                .shape,
            Shape::kEmpty);
  // A ternary value bit above the field's width can never match.
  EXPECT_EQ(IntervalOf(FieldMatch::Ternary(0x10000, 0xFFFFFFFF), MatchKind::kTernary,
                       FieldId::kSrcPort)
                .shape,
            Shape::kEmpty);
  // Mask bits above the width are irrelevant: 0xFFFF'FFFF'FFFF'FF00 on
  // a port is the prefix mask 0xFF00.
  const FieldInterval wide = IntervalOf(FieldMatch::Ternary(0x1234, ~0xFFULL),
                                        MatchKind::kTernary, FieldId::kDstPort);
  EXPECT_EQ(wide.shape, Shape::kSpan);
  EXPECT_EQ(wide.lo, 0x1200u);
  EXPECT_EQ(wide.hi, 0x12FFu);
  // A mask with holes is not one interval.
  EXPECT_EQ(IntervalOf(FieldMatch::Ternary(0x0a000001, 0xFF0000FF), MatchKind::kTernary,
                       FieldId::kSrcIp)
                .shape,
            Shape::kScattered);
}

// ------------------------------------------------------ test fixtures

/// One-stage pipeline holding one table keyed (tenant, pass) + payload.
struct OneTable {
  std::unique_ptr<Pipeline> pipeline;
  MatchActionTable* table = nullptr;
  ActionId noop = 0;
  std::vector<MatchFieldSpec> key;

  explicit OneTable(std::vector<MatchFieldSpec> payload) : pipeline(std::make_unique<Pipeline>()) {
    key = {{FieldId::kTenantId, MatchKind::kExact}, {FieldId::kPass, MatchKind::kExact}};
    key.insert(key.end(), payload.begin(), payload.end());
    table = pipeline->stage(0).AddTable("t", key);
    noop = table->RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  }

  EntryHandle Add(std::vector<FieldMatch> payload, int priority = 0,
                  std::uint16_t tenant = kTenant, std::uint64_t pass = 0) {
    std::vector<FieldMatch> matches = {FieldMatch::Exact(tenant), FieldMatch::Exact(pass)};
    matches.insert(matches.end(), payload.begin(), payload.end());
    return table->AddEntry(std::move(matches), noop, {}, priority, tenant);
  }

  void AddCatchAll() {
    Add(std::vector<FieldMatch>(key.size() - 2, FieldMatch::Any()), /*priority=*/-1000);
  }
};

/// Tenant 1's pass-0 slot of `t`, lowered with the interval index
/// (`indexed`) or with the linear scan.
struct LoweredSlot {
  TenantIr ir;
  std::shared_ptr<const CompiledPlan> plan;

  const IrSlot& ir_slot() const { return ir.passes[0].slots[0]; }
  const CompiledSlot& slot() const { return plan->passes[0].slots[0]; }

  /// Handle of the winning entry for `values` (indexed by FieldId), or
  /// 0 on a miss.
  EntryHandle Winner(const std::uint64_t* values) const {
    std::int32_t w = -1;
    switch (slot().kind) {
      case SlotKind::kDead:
        break;
      case SlotKind::kAlways:
        w = 0;
        break;
      case SlotKind::kMatch:
        w = ScanWinner(*plan, slot(), values);
        break;
      case SlotKind::kInterval:
        w = FindWinner(*plan, slot(), values);
        break;
    }
    return w < 0 ? 0 : ir_slot().entries[static_cast<std::size_t>(w)].handle;
  }
};

LoweredSlot Lower(const OneTable& t, bool indexed) {
  LiftResult lifted = LiftTenant(*t.pipeline, kTenant, nullptr);
  EXPECT_TRUE(lifted.ok) << lifted.error;
  LoweredSlot out;
  out.ir = std::move(lifted.ir);
  DeadTableElimination(out.ir);
  ConstantFoldAlwaysMatch(out.ir);
  MatchFusion(out.ir);
  if (indexed && out.ir.passes[0].slots[0].kind == SlotKind::kMatch) {
    BuildIntervalIndex(out.ir.passes[0].slots[0]);
  }
  out.plan = EmitPlan(out.ir, PassStats{});
  return out;
}

/// The reference: a linear scan over every installed entry (all
/// tenants and passes) with the table's own field semantics, winner by
/// (priority desc, LPM prefix score desc, handle asc).
EntryHandle ReferenceWinner(const OneTable& t, const std::uint64_t* values) {
  const TableEntry* best = nullptr;
  int best_prefix = 0;
  for (const TableEntry& entry : t.table->entries()) {
    bool match = true;
    int prefix = 0;
    for (std::size_t f = 0; f < t.key.size() && match; ++f) {
      match = FieldMatches(entry.matches[f], t.key[f].kind,
                           values[static_cast<std::size_t>(t.key[f].field)]);
      if (t.key[f].kind == MatchKind::kLpm) prefix += entry.matches[f].prefix_len;
    }
    if (!match) continue;
    if (best == nullptr || entry.priority > best->priority ||
        (entry.priority == best->priority &&
         (prefix > best_prefix || (prefix == best_prefix && entry.handle < best->handle)))) {
      best = &entry;
      best_prefix = prefix;
    }
  }
  return best != nullptr ? best->handle : 0;
}

std::uint64_t RandomIn(Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + rng.Next() % (hi - lo + 1);
}

/// A value of `field` the pattern matches (when it can match any), or a
/// boundary neighbour of its interval: lo - 1, lo, hi or hi + 1.
std::uint64_t ValueNear(Rng& rng, const FieldMatch& m, MatchKind kind, FieldId field) {
  const std::uint64_t domain = FieldMaxValue(field);
  const FieldInterval iv = IntervalOf(m, kind, field);
  if (iv.shape == Shape::kSpan && rng.Bernoulli(0.5)) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        return iv.lo == 0 ? 0 : iv.lo - 1;
      case 1:
        return iv.lo;
      case 2:
        return iv.hi;
      default:
        return iv.hi == domain ? domain : iv.hi + 1;
    }
  }
  const std::uint64_t noise = RandomIn(rng, 0, domain);
  switch (kind) {
    case MatchKind::kExact:
      return m.mask == 0 ? noise : std::min(m.value, domain);
    case MatchKind::kTernary:
      return ((m.value & m.mask) | (noise & ~m.mask)) & domain;
    case MatchKind::kLpm: {
      if (m.prefix_len == 0) return noise;
      const std::uint64_t mask = LpmMask(m.prefix_len);
      return ((m.value & mask) | (noise & ~mask)) & domain;
    }
    case MatchKind::kRange:
      if (m.lo > m.hi || m.lo > domain) return noise;
      return RandomIn(rng, m.lo, std::min(m.hi, domain));
  }
  return noise;
}

/// Field values for one probe: hit-heavy probes start from a random
/// tenant-1 entry and land inside or at the edge of each of its
/// patterns; miss-heavy probes are uniform over every field's domain.
void Probe(Rng& rng, const OneTable& t, bool hit_heavy, std::uint64_t* values) {
  for (unsigned f = 0; f < kNumFields; ++f) {
    values[f] = RandomIn(rng, 0, FieldMaxValue(static_cast<FieldId>(f)));
  }
  values[static_cast<std::size_t>(FieldId::kTenantId)] = kTenant;
  values[static_cast<std::size_t>(FieldId::kPass)] = 0;
  const auto& entries = t.table->entries();
  if (!hit_heavy || entries.empty()) return;
  const TableEntry& entry =
      entries[static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(entries.size()) - 1))];
  for (std::size_t f = 2; f < t.key.size(); ++f) {
    values[static_cast<std::size_t>(t.key[f].field)] =
        ValueNear(rng, entry.matches[f], t.key[f].kind, t.key[f].field);
  }
}

struct DiffCounts {
  int hits = 0;
  int mismatches = 0;
};

/// Compares interval dispatch and the linear scan with the reference on
/// `probes` hit-heavy and `probes` miss-heavy value vectors.
DiffCounts Differential(const OneTable& t, Rng& rng, int probes) {
  const LoweredSlot indexed = Lower(t, /*indexed=*/true);
  const LoweredSlot linear = Lower(t, /*indexed=*/false);
  DiffCounts counts;
  std::uint64_t values[kNumFields];
  for (int i = 0; i < 2 * probes; ++i) {
    Probe(rng, t, /*hit_heavy=*/i < probes, values);
    const EntryHandle want = ReferenceWinner(t, values);
    if (want != 0) ++counts.hits;
    if (indexed.Winner(values) != want || linear.Winner(values) != want) ++counts.mismatches;
  }
  return counts;
}

// -------------------------------------------------- the pass itself

/// `slot` keeps the scan: still kMatch, no index.
void ExpectScan(const IrSlot& slot) {
  EXPECT_EQ(slot.kind, SlotKind::kMatch);
  EXPECT_TRUE(slot.index.bounds.empty());
  EXPECT_TRUE(slot.index.words.empty());
}

TEST(IntervalIndexTest, IndexesTheMostConstrainedFieldAndCutsAtTheFirstDecisiveEntry) {
  // dst port: three entries constrain it; src ip: one. The catch-all
  // and the port-only rule are decisive, so no list runs past them.
  OneTable t({{FieldId::kSrcIp, MatchKind::kTernary}, {FieldId::kDstPort, MatchKind::kRange}});
  t.Add({FieldMatch::Ternary(0x0a000000, 0xFFFFFF00), FieldMatch::Range(100, 199)}, 30);
  t.Add({FieldMatch::Any(), FieldMatch::Range(150, 299)}, 20);
  t.Add({FieldMatch::Any(), FieldMatch::Range(150, 160)}, 10);  // shadowed by the 20
  t.AddCatchAll();
  const LoweredSlot lowered = Lower(t, /*indexed=*/true);
  const IrSlot& slot = lowered.ir_slot();
  ASSERT_EQ(slot.kind, SlotKind::kInterval);
  EXPECT_EQ(slot.index.field, FieldId::kDstPort);
  // [0,100) [100,150) [150,200) [200,300) [300,max]: the priority-10
  // rule never shows (the priority-20 rule ends every list it is in),
  // so [150,160] merges into its neighbours.
  EXPECT_EQ(slot.index.bounds, (std::vector<std::uint32_t>{0, 100, 150, 200, 300}));
  ASSERT_EQ(slot.index.words.size(), 5u);
  EXPECT_EQ(slot.index.words[0], kSingleCandidate | 3u);  // catch-all only
  EXPECT_EQ(slot.index.words[3], kSingleCandidate | 1u);  // the 20 decides
  EXPECT_EQ(slot.index.words[4], kSingleCandidate | 3u);
  // [100,150): the 30 (guarded by src ip), then the catch-all.
  const std::uint32_t list = slot.index.words[1];
  ASSERT_EQ(list & kSingleCandidate, 0u);
  EXPECT_EQ(slot.index.lists[list], 2u);
  EXPECT_EQ(slot.index.lists[list + 1], 0u);
  EXPECT_EQ(slot.index.lists[list + 2], 3u);

  // Emission drops the ops the intervals decide: the 30 keeps only its
  // src-ip op, the port-only rules and the catch-all keep none.
  const CompiledSlot& compiled = lowered.slot();
  EXPECT_EQ(compiled.interval_count, 5u);
  EXPECT_EQ(compiled.index_field, static_cast<std::uint8_t>(FieldId::kDstPort));
  EXPECT_EQ(compiled.op_count, (std::vector<std::uint16_t>{1, 0, 0, 0}));
  EXPECT_EQ(lowered.plan->ops[compiled.op_begin[0]].field,
            static_cast<std::uint8_t>(FieldId::kSrcIp));
}

TEST(IntervalIndexTest, TiesGoToTheLowerFieldId) {
  OneTable t({{FieldId::kDstPort, MatchKind::kRange}, {FieldId::kSrcIp, MatchKind::kTernary}});
  t.Add({FieldMatch::Range(10, 20), FieldMatch::Ternary(0x0a000000, 0xFFFF0000)});
  t.Add({FieldMatch::Range(30, 40), FieldMatch::Ternary(0x0b000000, 0xFFFF0000)});
  const LoweredSlot lowered = Lower(t, /*indexed=*/true);
  ASSERT_EQ(lowered.ir_slot().kind, SlotKind::kInterval);
  EXPECT_EQ(lowered.ir_slot().index.field, FieldId::kSrcIp);
  EXPECT_EQ(lowered.ir_slot().index.key_field, 3u);
}

TEST(IntervalIndexTest, KeepsTheLinearScanWhenNoFieldIsAnInterval) {
  // Only scattered ternary masks: no field can be cut into intervals.
  OneTable t({{FieldId::kSrcIp, MatchKind::kTernary}});
  t.Add({FieldMatch::Ternary(0x01000001, 0xFF0000FF)});
  t.Add({FieldMatch::Ternary(0x02000002, 0xFF0000FF)});
  t.Add({FieldMatch::Ternary(0x03000003, 0xFF0000FF)});
  TenantIr ir = Lower(t, /*indexed=*/false).ir;
  EXPECT_FALSE(BuildIntervalIndex(ir.passes[0].slots[0]));
  ExpectScan(ir.passes[0].slots[0]);  // left untouched

  LiftResult lifted = LiftTenant(*t.pipeline, kTenant, nullptr);
  ASSERT_TRUE(lifted.ok);
  const PassStats stats = RunLoweringPasses(lifted.ir);
  EXPECT_EQ(stats.interval_slots, 0);
  EXPECT_EQ(stats.linear_slots, 1);
  ExpectScan(lifted.ir.passes[0].slots[0]);
}

TEST(IntervalIndexTest, KeepsTheLinearScanWhenListsWouldPassTheCap) {
  // 64 nested port ranges that each also constrain the protocol: no
  // entry is decisive, so the centre interval lists all 64 and the
  // lists total about n^2 / 2 words, past the cap of 4 words per entry.
  OneTable t({{FieldId::kDstPort, MatchKind::kRange}, {FieldId::kIpProto, MatchKind::kExact}});
  for (int i = 0; i < 64; ++i) {
    t.Add({FieldMatch::Range(static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(1000 - i)),
           FieldMatch::Exact(static_cast<std::uint64_t>(i % 7))},
          i);
  }
  LiftResult lifted = LiftTenant(*t.pipeline, kTenant, nullptr);
  ASSERT_TRUE(lifted.ok);
  IrSlot slot = lifted.ir.passes[0].slots[0];
  EXPECT_FALSE(BuildIntervalIndex(slot));
  ExpectScan(slot);
  const PassStats stats = RunLoweringPasses(lifted.ir);
  EXPECT_EQ(stats.linear_slots, 1);
  ExpectScan(lifted.ir.passes[0].slots[0]);
}

TEST(IntervalIndexTest, SlotsOfTwoEntriesOrFewerKeepTheScan) {
  // One rule and the catch-all: the index could save at most one entry
  // check, so the pass keeps the scan. A second rule indexes the slot.
  OneTable t({{FieldId::kDstPort, MatchKind::kRange}});
  t.Add({FieldMatch::Range(10, 20)});
  t.AddCatchAll();
  LiftResult small = LiftTenant(*t.pipeline, kTenant, nullptr);
  ASSERT_TRUE(small.ok);
  PassStats stats = RunLoweringPasses(small.ir);
  EXPECT_EQ(stats.interval_slots, 0);
  EXPECT_EQ(stats.linear_slots, 1);
  ExpectScan(small.ir.passes[0].slots[0]);

  t.Add({FieldMatch::Range(30, 40)});
  LiftResult larger = LiftTenant(*t.pipeline, kTenant, nullptr);
  ASSERT_TRUE(larger.ok);
  stats = RunLoweringPasses(larger.ir);
  EXPECT_EQ(stats.interval_slots, 1);
  EXPECT_EQ(stats.linear_slots, 0);
  EXPECT_EQ(larger.ir.passes[0].slots[0].kind, SlotKind::kInterval);
}

TEST(IntervalIndexTest, PassCountsIndexedAndLinearSlotsOverRealPassesOnly) {
  OneTable t({{FieldId::kDstIp, MatchKind::kLpm}});
  for (int i = 0; i < 5; ++i) {
    t.Add({FieldMatch::Lpm(static_cast<std::uint64_t>(i) << 24, 8)});
  }
  LiftResult lifted = LiftTenant(*t.pipeline, kTenant, nullptr);
  ASSERT_TRUE(lifted.ok);
  const PassStats stats = RunLoweringPasses(lifted.ir);
  EXPECT_EQ(stats.interval_slots, 1);
  EXPECT_EQ(stats.linear_slots, 0);
  EXPECT_EQ(lifted.ir.passes[0].slots[0].kind, SlotKind::kInterval);
  const std::string dump = ToString(lifted.ir);
  EXPECT_NE(dump.find("[interval group=0 on=hdr.ipv4.dstAddr intervals="), std::string::npos)
      << dump;
}

// ------------------------------------------------ the differential

TEST(IntervalDispatchDifferentialTest, EveryNfGeneratorMatchesTheReferenceScan) {
  Rng rng(17);
  int indexed_slots = 0;
  for (int type = 0; type < nf::kNumNfTypes; ++type) {
    const auto nf = nf::MakeNf(static_cast<nf::NfType>(type));
    for (const int n : {1, 2, 3, 5, 8, 13, 32, 64, 105, 200}) {
      OneTable t(nf->KeySpec());
      for (const nf::NfRule& rule : nf->GenerateRules(rng, n)) {
        // Few distinct priorities: plenty of priority and handle ties.
        t.Add(rule.matches, rule.priority + static_cast<int>(rng.UniformInt(0, 2)));
      }
      if (rng.Bernoulli(0.7)) t.AddCatchAll();
      // Another tenant's and another pass's rules must never leak in.
      const auto decoys = nf->GenerateRules(rng, 4);
      for (const nf::NfRule& rule : decoys) t.Add(rule.matches, 100, /*tenant=*/2);
      for (const nf::NfRule& rule : decoys) t.Add(rule.matches, 100, kTenant, /*pass=*/1);
      if (Lower(t, /*indexed=*/true).ir_slot().kind == SlotKind::kInterval) ++indexed_slots;
      const DiffCounts counts = Differential(t, rng, 300);
      EXPECT_EQ(counts.mismatches, 0) << nf::NfShortName(static_cast<nf::NfType>(type))
                                      << " with " << n << " rules";
      EXPECT_GT(counts.hits, 0);
    }
  }
  EXPECT_GE(indexed_slots, nf::kNumNfTypes * 9);
}

TEST(IntervalDispatchDifferentialTest, AdversarialPatternSetsMatchTheReferenceScan) {
  Rng rng(29);
  const std::vector<MatchFieldSpec> payload = {{FieldId::kSrcIp, MatchKind::kTernary},
                                               {FieldId::kDstIp, MatchKind::kLpm},
                                               {FieldId::kDstPort, MatchKind::kRange},
                                               {FieldId::kIpProto, MatchKind::kExact}};
  const std::uint32_t base = 0x0a000000;
  int src_indexed_rounds = 0;
  for (int round = 0; round < 40; ++round) {
    // Odd rounds constrain src ip on most entries, so the index sits on
    // the ternary field and meets its holed and unreachable masks.
    const bool src_heavy = round % 2 == 1;
    OneTable t(payload);
    const int n = static_cast<int>(rng.UniformInt(2, 120));
    for (int i = 0; i < n; ++i) {
      std::vector<FieldMatch> m(4, FieldMatch::Any());
      // Nested and sibling prefixes around one address (LPM ties on
      // equal lengths), both as LPM and as prefix-mask ternaries.
      const int len = static_cast<int>(rng.UniformInt(src_heavy ? 1 : 0, 32));
      const std::uint64_t addr = base | static_cast<std::uint64_t>(rng.UniformInt(0, 0xFFFF));
      if (rng.Bernoulli(src_heavy ? 0.3 : 0.6)) m[1] = FieldMatch::Lpm(addr, len);
      switch (rng.UniformInt(0, src_heavy ? 5 : 6)) {
        case 0:
        case 1:
          m[0] = FieldMatch::Ternary(addr, LpmMask(len));
          break;
        case 2:  // holes: scattered over the domain
          m[0] = FieldMatch::Ternary(addr, rng.Bernoulli(0.5) ? 0xFF00FF00 : rng.Next());
          break;
        case 3:  // a value bit above the 32-bit domain: never matches
          m[0] = FieldMatch::Ternary(addr | (1ULL << 40), ~0ULL);
          break;
        case 4:  // mask bits above the domain only
          m[0] = FieldMatch::Ternary(0, 0xFFFF000000000000ULL);
          break;
        default:
          break;
      }
      // Overlapping ranges, some past the 16-bit domain or empty.
      const auto lo = static_cast<std::uint64_t>(rng.UniformInt(0, 70000));
      const auto hi = lo + static_cast<std::uint64_t>(rng.UniformInt(0, 3000));
      if (rng.Bernoulli(src_heavy ? 0.3 : 0.6)) m[2] = FieldMatch::Range(lo, hi);
      // Exact protocols, some above the 8-bit domain.
      if (rng.Bernoulli(0.3)) {
        m[3] = FieldMatch::Exact(static_cast<std::uint64_t>(rng.UniformInt(0, 300)));
      }
      // Duplicates tie on priority, prefix score and all but handle.
      const int priority = static_cast<int>(rng.UniformInt(-2, 2));
      t.Add(m, priority);
      if (rng.Bernoulli(0.1)) t.Add(m, priority);
    }
    if (rng.Bernoulli(0.5)) t.AddCatchAll();
    const LoweredSlot lowered = Lower(t, /*indexed=*/true);
    if (lowered.ir_slot().kind == SlotKind::kInterval &&
        lowered.ir_slot().index.field == FieldId::kSrcIp) {
      ++src_indexed_rounds;
    }
    const DiffCounts counts = Differential(t, rng, 400);
    EXPECT_EQ(counts.mismatches, 0) << "round " << round << " with " << n << " entries";
  }
  EXPECT_GE(src_indexed_rounds, 15);
}

TEST(IntervalDispatchDifferentialTest, SingleFieldKindsIndexEveryEntry) {
  // One payload field of each kind, so every entry constrains the
  // indexed field and no op survives emission for the span shapes.
  Rng rng(41);
  const std::vector<MatchFieldSpec> kinds = {{FieldId::kDstIp, MatchKind::kLpm},
                                             {FieldId::kSrcIp, MatchKind::kTernary},
                                             {FieldId::kSrcPort, MatchKind::kRange},
                                             {FieldId::kFlowClass, MatchKind::kExact}};
  for (const MatchFieldSpec& spec : kinds) {
    for (int round = 0; round < 10; ++round) {
      OneTable t({spec});
      const int n = static_cast<int>(rng.UniformInt(1, 150));
      const std::uint64_t domain = FieldMaxValue(spec.field);
      for (int i = 0; i < n; ++i) {
        const std::uint64_t v = RandomIn(rng, 0, domain);
        FieldMatch m;
        switch (spec.kind) {
          case MatchKind::kLpm:
            m = FieldMatch::Lpm(v, static_cast<int>(rng.UniformInt(1, 32)));
            break;
          case MatchKind::kTernary:
            m = FieldMatch::Ternary(v, LpmMask(static_cast<int>(rng.UniformInt(1, 32))));
            break;
          case MatchKind::kRange:
            m = FieldMatch::Range(v, v + static_cast<std::uint64_t>(rng.UniformInt(0, 500)));
            break;
          case MatchKind::kExact:
            m = FieldMatch::Exact(rng.Bernoulli(0.9) ? v : domain + 1);
            break;
        }
        t.Add({m}, static_cast<int>(rng.UniformInt(0, 3)));
      }
      if (rng.Bernoulli(0.5)) t.AddCatchAll();
      const LoweredSlot lowered = Lower(t, /*indexed=*/true);
      if (lowered.ir_slot().kind == SlotKind::kInterval) {
        EXPECT_TRUE(lowered.plan->ops.empty()) << FieldName(spec.field);
      }
      const DiffCounts counts = Differential(t, rng, 300);
      EXPECT_EQ(counts.mismatches, 0) << FieldName(spec.field) << " round " << round;
    }
  }
}

}  // namespace
}  // namespace sfp::switchsim::compiler
