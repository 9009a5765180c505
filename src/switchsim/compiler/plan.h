// The executable artifact of the pipeline compiler.
//
// EmitPlan lowers a pass-annotated TenantIr into flat, cache-friendly
// data the batch workers execute directly (exec.cc): per slot, the
// matched rule data is laid out struct-of-arrays — parallel op-span
// and action vectors in winner order, with the match ops themselves
// pooled plan-wide and their masks precomputed — so the hot loop
// touches contiguous words instead of chasing TableEntry vectors.
// A kInterval slot resolves its winner through an interval index
// (interval bounds, one candidate word per interval, candidate lists;
// all pooled plan-wide); a kMatch slot scans its entries.
//
// A plan snapshots its tenant's stamp (MatchActionTable::TenantEpoch)
// of every table it was lifted from; Validate() rechecks them, which is
// the per-packet backstop of the invalidation contract
// (docs/COMPILER.md). Other tenants' rule changes leave the stamps, and
// so the plan, untouched.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "switchsim/compiler/ir.h"
#include "switchsim/compiler/passes.h"

namespace sfp::switchsim::compiler {

/// One precomputed field predicate. Semantics by kind:
///   kExact:   value == a
///   kTernary: (value & b) == a          (a pre-masked)
///   kLpm:     (value & b) == a          (b = 32-bit prefix mask)
///   kRange:   a <= value && value <= b
struct CompiledOp {
  std::uint8_t field = 0;  // FieldId
  MatchKind kind = MatchKind::kExact;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// One emitted action: an inline opcode with its argument, or an index
/// into the plan's opaque callback pool.
struct CompiledAction {
  ActionTraits::Kind kind = ActionTraits::Kind::kOpaque;
  /// Set meta.recirculate after the body unless the packet dropped
  /// (inline opcodes only; opaque callbacks already carry the REC
  /// wrapper inside the registered std::function).
  bool recirculate = false;
  std::uint64_t arg0 = 0;
  std::int32_t opaque = -1;
};

/// One (stage, table) of a compiled pass.
struct CompiledSlot {
  MatchActionTable* table = nullptr;
  /// Index into CompiledPlan::table_epochs (and PlanDeltas::tables).
  std::uint32_t table_index = 0;
  std::uint16_t stage = 0;
  SlotKind kind = SlotKind::kDead;
  bool has_default = false;
  /// FieldId whose value selects the interval (read only when the slot
  /// has more than one interval).
  std::uint8_t index_field = 0;
  CompiledAction default_action;
  /// A kInterval slot's intervals in CompiledPlan::bounds and ::words,
  /// and the start of its candidate lists in ::candidates
  /// (IntervalIndex has the encoding).
  std::uint32_t interval_begin = 0;
  std::uint32_t interval_count = 0;
  std::uint32_t list_begin = 0;
  /// Struct-of-arrays over the slot's entries in winner order: entry e
  /// matches iff ops [op_begin[e], op_begin[e] + op_count[e]) all hold;
  /// the first matching candidate wins and runs actions[e]. In a
  /// kInterval slot an entry's op on the indexed field is left out
  /// when the interval alone decides it.
  std::vector<std::uint32_t> op_begin;
  std::vector<std::uint16_t> op_count;
  std::vector<CompiledAction> actions;
};

/// A fused extraction group: `slot_count` consecutive slots whose
/// fields are extracted once, then matched eagerly before any member's
/// action runs.
struct CompiledGroup {
  std::uint32_t slot_begin = 0;
  std::uint32_t slot_count = 0;
  /// FieldIds to extract at group entry (union of member reads).
  std::vector<std::uint8_t> extract_fields;
};

/// One recirculation pass of the compiled program.
struct CompiledPass {
  std::vector<CompiledSlot> slots;
  std::vector<CompiledGroup> groups;
};

/// An admitted tenant's compiled program.
struct CompiledPlan {
  std::uint16_t tenant = 0;
  int num_stages = 0;
  /// Indexed by meta.pass; higher pass values execute `tail`.
  std::vector<CompiledPass> passes;
  CompiledPass tail;
  /// Plan-wide op pool (spans referenced by the slots).
  std::vector<CompiledOp> ops;
  /// Plan-wide pools of the slots' interval indexes (IntervalIndex's
  /// bounds, words and lists, copied as the pass built them).
  std::vector<std::uint32_t> bounds;
  std::vector<std::uint32_t> words;
  std::vector<std::uint32_t> candidates;
  struct OpaqueAction {
    ActionFn fn;
    ActionArgs args;
  };
  std::vector<OpaqueAction> opaque_actions;
  /// Every lifted table with TenantEpoch(tenant) at compile time, in
  /// program order.
  std::vector<std::pair<MatchActionTable*, std::uint64_t>> table_epochs;
  /// The pipeline's table-mutation counter (nullptr when the pipeline
  /// does not expose one, e.g. hand-built plans in tests).
  const common::metrics::RelaxedCounter* global_epoch = nullptr;
  /// Last global_epoch value at which every table_epochs stamp was
  /// verified unchanged. Serve workers advance it monotonically
  /// (relaxed: re-verification is idempotent), so the per-packet
  /// Validate fast path is one relaxed load instead of one per table.
  mutable std::atomic<std::uint64_t> global_epoch_seen{0};
  PassStats stats;

  /// True while no lifted table has changed in a way this tenant can
  /// see since compile time — checked per packet as the invalidation
  /// backstop. Fast path: if NOTHING in the pipeline mutated since the
  /// last full check, no tenant stamp can have changed either. The
  /// global counter is read before the per-table sweep, so a mutation
  /// racing the sweep leaves `global_epoch_seen` behind the counter
  /// and the next packet re-checks. Another tenant's mutation costs
  /// one sweep, after which the fast path resumes at the new value.
  bool Validate() const {
    std::uint64_t global = 0;
    if (global_epoch != nullptr) {
      global = global_epoch->Value();
      if (global == global_epoch_seen.load(std::memory_order_relaxed)) return true;
      // Pairs with the release fence in MatchActionTable::BumpEpoch:
      // every stamp written before the observed global value is
      // visible to the sweep below.
      std::atomic_thread_fence(std::memory_order_acquire);
    }
    for (const auto& [table, epoch] : table_epochs) {
      if (table->TenantEpoch(tenant) != epoch) return false;
    }
    if (global_epoch != nullptr) {
      global_epoch_seen.store(global, std::memory_order_relaxed);
    }
    return true;
  }
};

/// Emits the executable plan from a lowered IR (stats are carried along
/// for the plan cache's compiler.* counters).
std::shared_ptr<const CompiledPlan> EmitPlan(const TenantIr& ir, const PassStats& stats);

/// Lift + lower + emit for one tenant. Returns nullptr (and sets
/// `error` when non-null) if the tenant hits an unsupported construct
/// and must stay interpreted.
std::shared_ptr<const CompiledPlan> CompileTenant(const Pipeline& pipeline,
                                                  std::uint16_t tenant,
                                                  const ActionMetadata* metadata,
                                                  std::string* error = nullptr);

}  // namespace sfp::switchsim::compiler
