// Per-worker execution context for compiled plans.
//
// A batch worker owns one ExecContext for the duration of its shard.
// It memoizes tenant -> plan resolutions (so the shared PlanCache lock
// is touched once per tenant per generation, not per packet) and
// buffers all counter updates — per-table hit/miss/default and
// pipeline-level packets/drops/recirculations — as plain integers.
// Flush() applies the buffered deltas once per shard; integer sums
// commute, so totals are bit-identical to the interpreter's per-packet
// atomic bumps.
//
// The hot path is EntryFor(): ONE lookup resolves both the tenant's
// plan and this worker's delta buffer for it. Active tenants per shard
// are few, so the memo is a flat vector scanned linearly with an MRU
// fast path — no hashing, no node allocation, and the common case
// (consecutive packets of the same tenant) is a single compare.
//
// Invalidation: EntryFor revalidates the cache generation (one relaxed
// load) and the plan's per-tenant table stamps per packet. A stale
// plan is reported to the cache and recompiled in place; deltas
// buffered against the stale plan are retired — kept alive and still
// flushed — so no counted work is lost.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "switchsim/compiler/plan.h"
#include "switchsim/compiler/plan_cache.h"

namespace sfp::switchsim {
class Pipeline;
}  // namespace sfp::switchsim

namespace sfp::switchsim::compiler {

/// One precomputed predicate against the extracted field values
/// (indexed by FieldId).
inline bool OpMatches(const CompiledOp& op, const std::uint64_t* values) {
  const std::uint64_t value = values[op.field];
  switch (op.kind) {
    case MatchKind::kExact:
      return value == op.a;
    case MatchKind::kTernary:
    case MatchKind::kLpm:
      return (value & op.b) == op.a;
    case MatchKind::kRange:
      return value >= op.a && value <= op.b;
  }
  return false;
}

/// True when every op of `slot`'s entry `e` holds.
inline bool EntryMatches(const CompiledPlan& plan, const CompiledSlot& slot, std::uint32_t e,
                         const std::uint64_t* values) {
  const CompiledOp* op = plan.ops.data() + slot.op_begin[e];
  const CompiledOp* const end = op + slot.op_count[e];
  while (op != end && OpMatches(*op, values)) ++op;
  return op == end;
}

/// The winning entry of a kMatch `slot` for the extracted field values,
/// or -1 on a miss: the first entry (in winner order) whose ops all
/// hold.
inline std::int32_t ScanWinner(const CompiledPlan& plan, const CompiledSlot& slot,
                               const std::uint64_t* values) {
  const auto entries = static_cast<std::uint32_t>(slot.op_begin.size());
  for (std::uint32_t e = 0; e < entries; ++e) {
    if (EntryMatches(plan, slot, e, values)) return static_cast<std::int32_t>(e);
  }
  return -1;
}

/// The winning entry of a kInterval `slot` for the extracted field
/// values, or -1 on a miss: a branch-free binary search finds the
/// interval holding the indexed field's value, and the first of its
/// candidates (in winner order) whose ops all hold wins.
inline std::int32_t FindWinner(const CompiledPlan& plan, const CompiledSlot& slot,
                               const std::uint64_t* values) {
  const std::uint32_t* bounds = plan.bounds.data() + slot.interval_begin;
  std::uint32_t first = 0;
  std::uint32_t count = slot.interval_count;
  if (count > 1) {
    const std::uint64_t value = values[slot.index_field];
    while (count > 1) {
      const std::uint32_t half = count / 2;
      first = bounds[first + half] <= value ? first + half : first;
      count -= half;
    }
  }
  const std::uint32_t word = plan.words[slot.interval_begin + first];
  if (word == kNoCandidate) return -1;
  if ((word & kSingleCandidate) != 0) {
    const std::uint32_t e = word & ~kSingleCandidate;
    return EntryMatches(plan, slot, e, values) ? static_cast<std::int32_t>(e) : -1;
  }
  const std::uint32_t* list = plan.candidates.data() + slot.list_begin + word;  // count, entries
  for (std::uint32_t c = 1; c <= list[0]; ++c) {
    if (EntryMatches(plan, slot, list[c], values)) return static_cast<std::int32_t>(list[c]);
  }
  return -1;
}

/// Buffered counter deltas for one plan on one worker.
struct PlanDeltas {
  struct TableCounts {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t default_hits = 0;
  };
  /// Parallel to CompiledPlan::table_epochs.
  std::vector<TableCounts> tables;
  std::uint64_t packets = 0;
  std::uint64_t recirculations = 0;
  std::uint64_t drops = 0;
  std::uint64_t drops_nf = 0;
  std::uint64_t drops_overload = 0;
  std::uint64_t drops_injected = 0;

  /// Mirrors Pipeline::RecordDrop.
  void AddDrop(DropReason reason);
};

/// One batch worker's view of the plan cache (single-threaded; owned
/// and used by exactly one worker between construction and Flush).
class ExecContext {
 public:
  /// One tenant's resolved plan plus this worker's buffered deltas for
  /// it. `plan` is nullptr for interpreted-fallback tenants.
  struct Entry {
    std::uint16_t tenant = 0;
    std::shared_ptr<const CompiledPlan> plan;
    PlanDeltas deltas;
  };

  explicit ExecContext(PlanCache& cache) : cache_(cache) {}

  /// The entry to execute `tenant`'s packet with (plan + deltas in one
  /// lookup), or nullptr when the packet must take the interpreted
  /// path (no plan, a compile in flight, or a stale plan whose
  /// recompile did not land).
  Entry* EntryFor(std::uint16_t tenant) {
    const std::uint64_t generation = cache_.generation();
    if (generation != generation_) {
      RetireAll();
      generation_ = generation;
    }
    if (mru_ < entries_.size() && entries_[mru_].tenant == tenant) {
      return Check(entries_[mru_]);
    }
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].tenant == tenant) {
        mru_ = i;
        return Check(entries_[i]);
      }
    }
    return Miss(tenant);
  }

  /// The plan EntryFor would serve `tenant` with (nullptr = interpreted
  /// fallback). Inspection shim over EntryFor for tests.
  const CompiledPlan* PlanFor(std::uint16_t tenant) {
    Entry* entry = EntryFor(tenant);
    return entry != nullptr ? entry->plan.get() : nullptr;
  }

  /// Counts one packet that EntryFor sent to the interpreter.
  void CountInterpreted() { ++interpreted_packets_; }

  /// Applies every buffered delta — live entries and retired ones — to
  /// the tables and the pipeline, and the interpreted-packet count to
  /// the plan cache.
  void Flush(Pipeline& pipeline);

 private:
  /// Per-packet staleness check on a resolved entry; the cold stale
  /// branch recompiles in place.
  Entry* Check(Entry& entry) {
    if (entry.plan == nullptr) return nullptr;
    if (entry.plan->Validate()) return &entry;
    return Revalidate(entry);
  }

  /// Cold path: tenant not in the memo yet.
  Entry* Miss(std::uint16_t tenant);
  /// Cold path: `entry`'s table epochs went stale underneath it.
  Entry* Revalidate(Entry& entry);
  /// Moves every live entry's plan + deltas onto the retired list.
  void RetireAll();

  PlanCache& cache_;
  /// Cache generation the memo below is valid for.
  std::uint64_t generation_ = ~0ULL;
  /// Live per-tenant entries; few active tenants per shard, so a flat
  /// linear-scan vector beats a hash map on the per-packet path.
  std::vector<Entry> entries_;
  /// Index of the last entry served (fast path for runs of packets
  /// from one tenant).
  std::size_t mru_ = 0;
  /// Deltas buffered against plans that were invalidated or retired
  /// mid-batch; the shared_ptr keeps each plan's table list reachable
  /// until Flush. Partial flushes of the same plan are fine — all
  /// accumulators are exact integer sums.
  std::vector<std::pair<std::shared_ptr<const CompiledPlan>, PlanDeltas>> retired_;
  /// Packets this worker interpreted since the last Flush.
  std::uint64_t interpreted_packets_ = 0;
};

}  // namespace sfp::switchsim::compiler
