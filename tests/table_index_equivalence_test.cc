// Equivalence proof for the indexed match-action lookup: randomized
// entry sets (mixed exact/ternary/LPM/range keys, overlapping
// priorities, wildcards, interleaved installs and removes) are driven
// through both the indexed Lookup path and the reference linear scan
// (LookupReference), asserting identical winning entries and identical
// hit/miss/default counters. The parameterized suite totals 10k+
// randomized lookup rounds. Also covers default-action accounting and
// its per-table export.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/packet.h"
#include "switchsim/pipeline.h"
#include "switchsim/table.h"

namespace sfp::switchsim {
namespace {

using net::Ipv4Address;

/// Candidate key fields with small value domains so random packets
/// actually collide with installed entries.
struct FieldDomain {
  FieldId field;
  MatchKind kind;
  std::uint64_t max_value;  // packet/entry values drawn from [0, max]
};

const FieldDomain kFieldPool[] = {
    {FieldId::kTenantId, MatchKind::kExact, 3},
    {FieldId::kPass, MatchKind::kExact, 2},
    {FieldId::kFlowClass, MatchKind::kExact, 3},
    {FieldId::kSrcIp, MatchKind::kTernary, 0xFFFFFFFF},
    {FieldId::kDstIp, MatchKind::kLpm, 0xFFFFFFFF},
    {FieldId::kDstPort, MatchKind::kRange, 2000},
    {FieldId::kSrcPort, MatchKind::kRange, 2000},
    {FieldId::kIpProto, MatchKind::kTernary, 0xFF},
};

/// Random key spec: 2..5 distinct fields from the pool. Most draws
/// contain an exact field (SFP tables always carry the exact
/// (tenant, pass) prefix), but some have none at all — the index must
/// be correct for both.
std::vector<FieldDomain> RandomSpec(Rng& rng) {
  std::vector<FieldDomain> pool(std::begin(kFieldPool), std::end(kFieldPool));
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[static_cast<std::size_t>(rng.UniformInt(
                               0, static_cast<std::int64_t>(i) - 1))]);
  }
  const std::size_t arity = static_cast<std::size_t>(rng.UniformInt(2, 5));
  pool.resize(arity);
  return pool;
}

/// Random pattern for one field: wildcard with probability ~0.35,
/// else a concrete (possibly partial) pattern in the field's domain.
FieldMatch RandomMatch(Rng& rng, const FieldDomain& domain) {
  const bool wildcard = rng.Bernoulli(0.35);
  switch (domain.kind) {
    case MatchKind::kExact:
      // Exact fields can be wildcarded too (FieldMatch::Any(), the
      // data plane's per-pass catch-all shape) — such entries live in
      // the table's wildcard side tier and must agree with the
      // reference scan like everything else.
      if (wildcard) return FieldMatch::Any();
      return FieldMatch::Exact(
          static_cast<std::uint64_t>(rng.UniformInt(0, static_cast<std::int64_t>(domain.max_value))));
    case MatchKind::kTernary: {
      if (wildcard) return FieldMatch::Ternary(0, 0);
      // Byte-granular masks give overlapping patterns.
      std::uint64_t mask = 0;
      for (int b = 0; b < 4; ++b) {
        if (rng.Bernoulli(0.5)) mask |= 0xFFULL << (8 * b);
      }
      return FieldMatch::Ternary(rng.Next() & domain.max_value, mask & domain.max_value);
    }
    case MatchKind::kLpm: {
      if (wildcard) return FieldMatch::Lpm(0, 0);
      const int prefix = static_cast<int>(rng.UniformInt(1, 32));
      return FieldMatch::Lpm(rng.Next() & domain.max_value, prefix);
    }
    case MatchKind::kRange: {
      if (wildcard) return FieldMatch::Any();
      const auto lo = static_cast<std::uint64_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(domain.max_value)));
      const auto hi = lo + static_cast<std::uint64_t>(rng.UniformInt(
                               0, static_cast<std::int64_t>(domain.max_value / 4)));
      return FieldMatch::Range(lo, hi);
    }
  }
  return FieldMatch::Any();
}

/// A random packet + metadata whose field values stay inside the
/// domains the entries draw from.
std::pair<net::Packet, PacketMeta> RandomPacket(Rng& rng) {
  auto packet = net::MakeTcpPacket(
      static_cast<std::uint16_t>(rng.UniformInt(0, 3)),
      Ipv4Address{static_cast<std::uint32_t>(rng.Next())},
      Ipv4Address{static_cast<std::uint32_t>(rng.Next())},
      static_cast<std::uint16_t>(rng.UniformInt(0, 2000)),
      static_cast<std::uint16_t>(rng.UniformInt(0, 2000)), 64);
  PacketMeta meta;
  meta.tenant_id = packet.TenantId();
  meta.pass = static_cast<std::uint8_t>(rng.UniformInt(0, 2));
  meta.flow_class = static_cast<std::uint8_t>(rng.UniformInt(0, 3));
  return {std::move(packet), meta};
}

class IndexEquivalenceTest : public ::testing::TestWithParam<int> {};

// 20 seeds x 500 lookups = 10k randomized rounds, each against a table
// under churn (installs, single removes, bulk tenant removes).
TEST_P(IndexEquivalenceTest, IndexedLookupMatchesReferenceUnderChurn) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
  const auto spec = RandomSpec(rng);
  std::vector<MatchFieldSpec> key;
  for (const auto& domain : spec) key.push_back({domain.field, domain.kind});
  MatchActionTable table("t", key);
  const auto noop =
      table.RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  const bool with_default = rng.Bernoulli(0.5);
  if (with_default) table.SetDefaultAction(noop);

  std::vector<EntryHandle> live;
  std::uint64_t expect_hits = 0, expect_misses = 0, expect_defaults = 0;

  for (int round = 0; round < 500; ++round) {
    // Churn: keep the table populated, with occasional removals so the
    // index is rebuilt mid-stream.
    const double op = rng.UniformDouble();
    if (op < 0.60 || live.empty()) {
      std::vector<FieldMatch> matches;
      for (const auto& domain : spec) matches.push_back(RandomMatch(rng, domain));
      const auto handle =
          table.AddEntry(std::move(matches), noop, {},
                         static_cast<int>(rng.UniformInt(-2, 3)),
                         static_cast<std::uint16_t>(rng.UniformInt(0, 3)));
      ASSERT_NE(handle, kInvalidEntryHandle);
      live.push_back(handle);
    } else if (op < 0.75) {
      const std::size_t at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      EXPECT_TRUE(table.RemoveEntry(live[at]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (op < 0.80) {
      const auto tenant = static_cast<std::uint16_t>(rng.UniformInt(0, 3));
      table.RemoveTenantEntries(tenant);
      live.clear();
      for (const auto& entry : table.entries()) live.push_back(entry.handle);
    }

    auto [packet, meta] = RandomPacket(rng);
    const TableEntry* indexed = table.Lookup(packet, meta);
    const TableEntry* reference = table.LookupReference(packet, meta);
    if (reference == nullptr) {
      ASSERT_EQ(indexed, nullptr) << "indexed path matched where the scan missed";
    } else {
      ASSERT_NE(indexed, nullptr) << "indexed path missed where the scan matched";
      ASSERT_EQ(indexed->handle, reference->handle)
          << "winner diverged (priority " << reference->priority << ")";
    }

    // Apply must agree with the reference verdict and advance the
    // hit/miss/default counters exactly as documented.
    if (reference != nullptr) {
      ++expect_hits;
    } else {
      ++expect_misses;
      if (with_default) ++expect_defaults;
    }
    auto applied = packet;
    auto applied_meta = meta;
    EXPECT_EQ(table.Apply(applied, applied_meta), reference != nullptr);
  }

  EXPECT_EQ(table.hit_count(), expect_hits);
  EXPECT_EQ(table.miss_count(), expect_misses);
  EXPECT_EQ(table.default_hit_count(), expect_defaults);
}

INSTANTIATE_TEST_SUITE_P(RandomTables, IndexEquivalenceTest, ::testing::Range(0, 20));

// Pin the catch-all shape the data plane installs on exact-key NFs
// (NAT/LB): a low-priority entry with concrete (tenant, pass) prefix
// and FieldMatch::Any() on the NF's own exact key field must be
// reachable for *every* probe value, not just value 0 — it lives in
// the wildcard side tier, loses to any concrete rule, and still honors
// its own concrete prefix fields.
TEST(WildcardExactTest, CatchAllOnExactKeyFieldIsReachable) {
  MatchActionTable table("nat", {{FieldId::kTenantId, MatchKind::kExact},
                                 {FieldId::kPass, MatchKind::kExact},
                                 {FieldId::kSrcIp, MatchKind::kExact}});
  const auto noop =
      table.RegisterAction("noop", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  const auto translate =
      table.RegisterAction("translate", [](net::Packet&, PacketMeta&, const ActionArgs&) {});
  const auto rule = table.AddEntry(
      {FieldMatch::Exact(7), FieldMatch::Exact(0), FieldMatch::Exact(0x0A010203)},
      translate, {}, 0, 7);
  const auto catch_all = table.AddEntry(
      {FieldMatch::Exact(7), FieldMatch::Exact(0), FieldMatch::Any()}, noop, {},
      -1000, 7);
  ASSERT_NE(rule, kInvalidEntryHandle);
  ASSERT_NE(catch_all, kInvalidEntryHandle);

  const auto probe = [&](std::uint16_t tenant, std::uint8_t pass, std::uint32_t src) {
    auto packet = net::MakeTcpPacket(tenant, Ipv4Address{src},
                                     Ipv4Address{0x0A000064}, 1024, 80, 64);
    PacketMeta meta;
    meta.tenant_id = tenant;
    meta.pass = pass;
    return table.Lookup(packet, meta);
  };

  // Concrete rule wins where it matches; any other source falls
  // through to the catch-all (this is the recirculation guarantee).
  const TableEntry* hit = probe(7, 0, 0x0A010203);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->handle, rule);
  const TableEntry* fallback = probe(7, 0, 0xC0A80001);
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->handle, catch_all);
  // The catch-all's concrete prefix fields still constrain it: other
  // tenants and other passes miss outright.
  EXPECT_EQ(probe(8, 0, 0xC0A80001), nullptr);
  EXPECT_EQ(probe(7, 1, 0xC0A80001), nullptr);
  // Removal rebuilds the wildcard tier along with the index.
  EXPECT_TRUE(table.RemoveEntry(catch_all));
  EXPECT_EQ(probe(7, 0, 0xC0A80001), nullptr);
}

TEST(DefaultHitsTest, DefaultActionServesAreCountedSeparately) {
  // The table with a default lives in a pipeline, so its export is
  // checked too.
  SwitchConfig config;
  config.num_stages = 1;
  Pipeline pipeline(config);
  MatchActionTable& with_default =
      *pipeline.stage(0).AddTable("d", {{FieldId::kDstPort, MatchKind::kExact}});
  with_default.RegisterAction("mark",
                              [](net::Packet&, PacketMeta& meta, const ActionArgs&) {
                                meta.scratch = 42;
                              });
  with_default.SetDefaultAction(0);
  MatchActionTable without_default("n", {{FieldId::kDstPort, MatchKind::kExact}});
  without_default.RegisterAction("mark",
                                 [](net::Packet&, PacketMeta&, const ActionArgs&) {});

  auto packet = net::MakeTcpPacket(1, Ipv4Address::Of(1, 1, 1, 1),
                                   Ipv4Address::Of(2, 2, 2, 2), 9, 443, 64);
  PacketMeta meta;
  // Miss + default action: counted as a miss AND a default hit, and
  // the default action still mutates the packet metadata.
  EXPECT_FALSE(with_default.Apply(packet, meta));
  EXPECT_EQ(meta.scratch, 42u);
  EXPECT_EQ(with_default.miss_count(), 1u);
  EXPECT_EQ(with_default.default_hit_count(), 1u);
  // Miss without a default action: a bare miss.
  PacketMeta bare;
  EXPECT_FALSE(without_default.Apply(packet, bare));
  EXPECT_EQ(without_default.miss_count(), 1u);
  EXPECT_EQ(without_default.default_hit_count(), 0u);

  common::metrics::Registry registry;
  pipeline.ExportMetrics(registry);
  EXPECT_EQ(registry.GetCounter("pipeline.stage0.d.misses").Value(), 1u);
  EXPECT_EQ(registry.GetCounter("pipeline.stage0.d.default_hits").Value(), 1u);
}

}  // namespace
}  // namespace sfp::switchsim
