// Lowering passes of the pipeline compiler.
//
// Each pass is a small in-place transformation over a TenantIr; they
// run in a fixed order (RunLoweringPasses) and each is independently
// unit-tested. docs/COMPILER.md documents every pass with a worked
// before/after example — keep it in sync when adding one.
#pragma once

#include "switchsim/compiler/ir.h"

namespace sfp::switchsim::compiler {

/// What the pass pipeline did to one tenant's IR, counted over the
/// real passes (the synthesized all-dead tail is not counted).
struct PassStats {
  /// Slots with no entries for the (tenant, pass), demoted to kDead.
  int dead_tables = 0;
  /// Slots whose winner-order head always matches, demoted to kAlways.
  int folded_tables = 0;
  /// Non-dead slots that joined a predecessor's extraction group.
  int fused_stages = 0;
  /// Match slots given an interval index (kInterval).
  int interval_slots = 0;
  /// Match slots left on the linear scan (kMatch).
  int linear_slots = 0;
};

/// Pass 1 — dead-table elimination: a slot with no lifted entries can
/// never hit; demote it to kDead so the executor skips matching and
/// only accounts the miss (+ default action). Returns the demotions
/// over real passes.
int DeadTableElimination(TenantIr& ir);

/// Pass 2 — constant folding: if the first entry in winner order is a
/// full wildcard it wins for every packet, so the slot needs no
/// matching at all (kAlways) and everything it shadows is pruned.
/// Single-rule tables holding just the data plane's catch-all are the
/// common case. Returns the folds over real passes.
int ConstantFoldAlwaysMatch(TenantIr& ir);

/// Pass 3 — match fusion: consecutive slots whose match reads are
/// disjoint from every earlier group member's action writes share one
/// extraction group — their fields are extracted and matched together
/// before any of their actions run (actions still execute in slot
/// order). Groups are capped at kMaxFusedSlots. Returns the fused
/// (joined, non-dead) slot count over real passes.
int MatchFusion(TenantIr& ir);

/// Pass 4 — interval indexing: gives every kMatch slot of more than two
/// entries an interval index on one payload field (BuildIntervalIndex),
/// which makes it kInterval. Slots of two entries or fewer (one rule
/// and a catch-all) keep the scan, which is cheaper there
/// (BM_CompiledSlotDispatch and ext2, EXPERIMENTS.md). Returns the
/// indexed slots over real passes.
int IntervalIndexing(TenantIr& ir);

/// Builds `slot`'s interval index and makes it kInterval. The indexed
/// field is the one the most entries constrain to a proper interval
/// (ties go to the lower FieldId). Each elementary interval of that
/// field lists the entries that can match one of its values, in winner
/// order, up to and including the first that matches all of them;
/// adjacent intervals with the same list merge. Returns false, leaving
/// the slot untouched, when no entry constrains an indexable field or
/// when the lists would exceed 4 words per entry (nested or
/// overlapping patterns that each constrain another field too).
bool BuildIntervalIndex(IrSlot& slot);

/// Runs all passes in order and returns their combined stats.
PassStats RunLoweringPasses(TenantIr& ir);

}  // namespace sfp::switchsim::compiler
