// Match-action table (MAT) of the switch simulator.
//
// A table declares a match key (a list of fields with match kinds),
// registers its actions as callbacks, and holds prioritized entries.
// Lookup semantics follow P4 targets: the highest-priority matching
// entry wins; among LPM fields the longest prefix wins; ties resolve to
// the earliest-installed entry. A miss applies the default action
// (SFP's physical NFs default to "No-Op": forward to the next stage,
// §IV).
//
// Lookup is indexed, mirroring how the rules land in Tofino SRAM/TCAM
// (§IV, Fig. 4): every entry's exact-kind key fields form a concrete
// value tuple (SFP prefixes every physical NF key with the exact
// tenant-ID and recirculation-pass fields), so entries are bucketed in
// a hash map keyed by that tuple. Within a bucket, entries whose
// remaining (ternary/LPM/range) fields are all wildcards form the
// "pure" hash tier — their winner is precomputed, making the common
// SFP lookup O(1) — while the rest sit in a priority-sorted spill list
// that is scanned only for the packet's own bucket and abandoned as
// soon as no remaining spill entry can outrank the best candidate.
// Lookup cost is therefore independent of how many *other* tenants
// hold rules in the table. The pre-index linear scan is kept as
// LookupReference for the randomized equivalence suite.
//
// Concurrency: Apply/Lookup take a shared lock and the hit/miss
// counters are relaxed atomics, so many packets can traverse the table
// in parallel (the batched path of Pipeline::ProcessBatch) while entry
// installation/removal — tenant admission and departure — takes the
// lock exclusively, mirroring a switch ASIC's lock-free lookups with
// serialized control-plane writes. Every mutation bumps a per-table
// epoch counter.
//
// Compiled plans go stale per tenant (docs/COMPILER.md): the exact
// tenant field keeps one tenant's entries from ever matching another
// tenant's packets, so each mutation also stamps the epoch it
// publishes on the one tenant it can affect — or, for a default-action
// change or an entry that wildcards the tenant field, on every tenant.
// TenantEpoch(t) and Snapshot(t) read those stamps, so one tenant's
// admission or departure leaves every other tenant's plan valid.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "switchsim/types.h"

namespace sfp::switchsim {

/// Action arguments are plain 64-bit words (P4 action data).
using ActionArgs = std::vector<std::uint64_t>;

/// Action implementation: mutates the packet and/or metadata.
using ActionFn = std::function<void(net::Packet&, PacketMeta&, const ActionArgs&)>;

/// Identifier of a registered action within one table.
using ActionId = std::int32_t;

/// Entry handle, unique within one table for its lifetime. Handles are
/// issued in install order, so "earliest installed" == smallest handle.
using EntryHandle = std::uint64_t;

/// Returned by AddEntry when the install fails (only possible under an
/// armed "switchsim.table.add_entry" fault plan; real inserts cannot
/// fail — memory admission is the stages' job).
inline constexpr EntryHandle kInvalidEntryHandle = 0;

/// Upper bound on key fields per table (fits every NF key plus the
/// (tenant, pass) prefix with room to spare).
inline constexpr std::size_t kMaxKeyFields = 16;

/// One installed rule.
struct TableEntry {
  std::vector<FieldMatch> matches;  // parallel to the table's key spec
  ActionId action = 0;
  ActionArgs args;
  /// Higher priority wins on overlap (TCAM semantics).
  int priority = 0;
  /// Owning tenant (0 = infrastructure rule); enables bulk removal when
  /// a tenant's SFC is deallocated.
  std::uint16_t owner_tenant = 0;
  EntryHandle handle = 0;
};

/// A match-action table.
class MatchActionTable {
 public:
  MatchActionTable(std::string name, std::vector<MatchFieldSpec> key);

  /// Registers an action; the returned id is used in entries.
  ActionId RegisterAction(std::string name, ActionFn fn);

  /// Sets the miss behaviour. Without a default action a miss is a
  /// true no-op.
  void SetDefaultAction(ActionId action, ActionArgs args = {});

  /// Installs an entry; returns its handle, or kInvalidEntryHandle when
  /// the "switchsim.table.add_entry" fault point fires (injected
  /// transient install failure). `matches` must have one pattern per
  /// key field and `action` must be registered.
  EntryHandle AddEntry(std::vector<FieldMatch> matches, ActionId action,
                       ActionArgs args = {}, int priority = 0,
                       std::uint16_t owner_tenant = 0);

  /// Removes an entry by handle; returns false if unknown.
  bool RemoveEntry(EntryHandle handle);

  /// Removes all entries owned by `tenant`; returns the removal count.
  std::size_t RemoveTenantEntries(std::uint16_t tenant);

  /// Returns the winning entry for the packet, or nullptr on miss.
  /// The pointer is only stable until the next entry mutation; under
  /// concurrency prefer Apply, which holds the entry lock throughout.
  const TableEntry* Lookup(const net::Packet& packet, const PacketMeta& meta) const;

  /// Reference implementation: the original linear scan over all
  /// entries in install order. Semantically identical to Lookup by
  /// construction; kept (and exercised by the randomized equivalence
  /// suite) as the oracle the indexed path is proven against.
  const TableEntry* LookupReference(const net::Packet& packet,
                                    const PacketMeta& meta) const;

  /// Lookup + action execution (default action on miss): the
  /// interpreter's step for one table. Returns true if an installed
  /// entry was hit.
  bool Apply(net::Packet& packet, PacketMeta& meta);

  const std::string& name() const { return name_; }
  const std::vector<MatchFieldSpec>& key() const { return key_; }
  std::size_t num_entries() const;
  /// Direct entry access for inspection/P4 emission; not synchronized —
  /// callers must not mutate the table concurrently.
  const std::vector<TableEntry>& entries() const { return entries_; }
  const std::vector<std::string>& action_names() const { return action_names_; }

  /// True if any key field needs TCAM (ternary/range).
  bool NeedsTcam() const;

  std::uint64_t hit_count() const { return hits_.Value(); }
  std::uint64_t miss_count() const { return misses_.Value(); }
  /// Misses that executed the default action (the "default no-op"
  /// served the packet, as opposed to a true no-rule miss). Disjoint
  /// accounting: every Apply is a hit, a default hit, or a bare miss;
  /// default_hit_count() <= miss_count().
  std::uint64_t default_hit_count() const { return default_hits_.Value(); }

  /// Mutation epoch: bumped by every AddEntry/RemoveEntry/
  /// RemoveTenantEntries/SetDefaultAction that changes the table. The
  /// per-tenant stamps below are drawn from it.
  std::uint64_t epoch() const { return epoch_.Value(); }

  /// The epoch of the last mutation that could change how `tenant`'s
  /// packets look up this table: the larger of the last change to
  /// entries whose exact tenant field names `tenant` and the last
  /// change every tenant sees (SetDefaultAction, an entry that
  /// wildcards the tenant field, any mutation of a table without an
  /// exact tenant field). Stamps come from the monotonic epoch and are
  /// never reset, so an unchanged value means nothing the tenant can
  /// match has changed — even across a recycled tenant ID.
  std::uint64_t TenantEpoch(std::uint16_t tenant) const;

  /// Optional pipeline-wide mutation counter, bumped alongside this
  /// table's own epoch. Compiled plans use it as a one-load fast path
  /// for per-packet staleness checks (see CompiledPlan::Validate);
  /// tables created outside a pipeline simply leave it unset.
  void SetSharedEpoch(common::metrics::RelaxedCounter* shared) { shared_epoch_ = shared; }

  /// Consistent copy of everything the pipeline compiler lifts for one
  /// tenant: the entries that can match its packets (its exact tenant
  /// value, or a wildcarded tenant field), the registered action
  /// callbacks and names, the default action, and TenantEpoch(tenant)
  /// at the time of the copy. Taken under the shared entry lock, so it
  /// can run concurrently with packet serving but never observes a
  /// half-applied mutation.
  struct CompileSnapshot {
    std::vector<TableEntry> entries;
    std::vector<ActionFn> actions;
    std::vector<std::string> action_names;
    std::optional<std::pair<ActionId, ActionArgs>> default_action;
    std::uint64_t epoch = 0;
  };
  CompileSnapshot Snapshot(std::uint16_t tenant) const;

  /// Batched counter commit for the compiled serve path: adds worker-
  /// buffered hit/miss/default-hit sums in one call each. Totals stay
  /// bit-identical to per-Apply bumps because the counts are plain
  /// integer sums.
  void AddApplyCounts(std::uint64_t hits, std::uint64_t misses,
                      std::uint64_t default_hits);

 private:
  /// Per exact-key-tuple bucket of the lookup index. Values index
  /// entries_; they are maintained incrementally on AddEntry and
  /// rebuilt wholesale on removal (control-plane slow path).
  struct Bucket {
    /// Winning "pure" entry (all non-exact fields wildcard): highest
    /// priority, earliest handle. npos = none.
    std::size_t pure = npos;
    /// Entries with at least one concrete ternary/LPM/range field,
    /// sorted by (priority desc, handle asc).
    std::vector<std::size_t> spill;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  };

  /// Transparent hash/equality so packet lookups can probe the index
  /// with a stack-array span — no per-packet key vector on the serve
  /// path (insertions still store owning vectors).
  struct ExactKeyHash {
    using is_transparent = void;
    std::size_t operator()(std::span<const std::uint64_t> key) const;
  };
  struct ExactKeyEqual {
    using is_transparent = void;
    bool operator()(std::span<const std::uint64_t> a,
                    std::span<const std::uint64_t> b) const {
      return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
    }
  };

  std::uint64_t TenantEpochLocked(std::uint16_t tenant) const;
  const TableEntry* LookupIndexedLocked(const std::uint64_t* values) const;
  const TableEntry* LookupReferenceLocked(const std::uint64_t* values) const;
  void ExtractKey(const net::Packet& packet, const PacketMeta& meta,
                  std::uint64_t* values) const;
  /// True if `entry` qualifies for the pure hash tier (every non-exact
  /// key field is a full wildcard).
  bool IsPureEntry(const TableEntry& entry) const;
  /// True if `entry` can match `tenant`'s packets as far as the exact
  /// tenant field decides: that field names `tenant` or is wildcarded,
  /// or the table has no exact tenant field.
  bool CanMatchTenant(const TableEntry& entry, std::uint16_t tenant) const;
  /// Stamps the epoch the next BumpEpoch publishes on the tenant whose
  /// packets `entry` can match, or on every tenant when it wildcards
  /// (or the table lacks) the exact tenant field. Exclusive lock held.
  void StampLocked(const TableEntry& entry);
  /// True if `entry` wildcards at least one exact-kind key field
  /// (mask == 0, the FieldMatch::Any() signature) and therefore lives
  /// in wildcard_spill_ instead of the value-hashed index.
  bool HasWildcardExact(const TableEntry& entry) const;
  std::vector<std::uint64_t> ExactKeyOf(const TableEntry& entry) const;
  /// Adds entries_[index] to the index (incremental insert).
  void IndexEntryLocked(std::size_t index);
  /// Rebuilds the whole index from entries_ (after removals).
  void RebuildIndexLocked();
  /// Sum of LPM prefix lengths of `entry` restricted to fields that
  /// match — the tie-break score of the documented semantics.
  int PrefixScore(const TableEntry& entry) const;

  std::string name_;
  std::vector<MatchFieldSpec> key_;
  /// Indices into key_ of the exact-kind fields (the index key).
  std::vector<std::size_t> exact_fields_;
  /// Indices into key_ of the remaining (ternary/LPM/range) fields.
  std::vector<std::size_t> nonexact_fields_;
  /// Index into key_ of the first exact-kind tenant-ID field (the
  /// field the per-tenant stamps key on), or npos when there is none.
  std::size_t tenant_field_ = Bucket::npos;
  std::vector<std::string> action_names_;
  std::vector<ActionFn> actions_;
  std::optional<std::pair<ActionId, ActionArgs>> default_action_;
  /// Guards entries_, index_ (and default_action_/actions_
  /// registration): packet lookups take it shared, so batch workers
  /// proceed in parallel; entry add/remove (tenant admission and
  /// departure) takes it exclusive.
  mutable std::shared_mutex entries_mutex_;
  std::vector<TableEntry> entries_;
  std::unordered_map<std::vector<std::uint64_t>, Bucket, ExactKeyHash, ExactKeyEqual>
      index_;
  /// Entries that wildcard at least one exact-kind key field
  /// (FieldMatch::Any(), mask == 0) cannot live in the value-hashed
  /// index: they must match *every* probe value for that field. They
  /// sit in this side tier, sorted by (priority desc, handle asc), and
  /// are scanned after the bucket with full-key verification. The tier
  /// is expected to stay tiny — the data plane only puts per-(tenant,
  /// pass) recirculation catch-alls here — and because such entries
  /// carry deeply negative priority, the priority-sorted early break
  /// makes the scan O(1) whenever any real rule matched.
  std::vector<std::size_t> wildcard_spill_;
  EntryHandle next_handle_ = 1;
  common::metrics::RelaxedCounter hits_;
  common::metrics::RelaxedCounter misses_;
  common::metrics::RelaxedCounter default_hits_;
  common::metrics::RelaxedCounter epoch_;
  common::metrics::RelaxedCounter* shared_epoch_ = nullptr;
  /// Per-tenant stamps behind TenantEpoch: epoch of the last change to
  /// entries whose exact tenant field holds the key, and of the last
  /// change every tenant sees. Written under the exclusive entry lock,
  /// read under the shared one; entries are never erased, so a stamp
  /// only grows.
  std::unordered_map<std::uint64_t, std::uint64_t> tenant_epochs_;
  std::uint64_t shared_tenant_epoch_ = 0;

  /// Single bump site: the table's own epoch plus the pipeline-wide
  /// counter when attached. Callers write the tenant stamps first. The
  /// release fence pairs with the acquire fence in
  /// CompiledPlan::Validate: a reader that observes the shared bump is
  /// guaranteed to also observe this table's stamps, so the one-load
  /// fast path can never cache a stale verdict.
  void BumpEpoch() {
    epoch_.Add(1);
    if (shared_epoch_ != nullptr) {
      std::atomic_thread_fence(std::memory_order_release);
      shared_epoch_->Add(1);
    }
  }
};

}  // namespace sfp::switchsim
