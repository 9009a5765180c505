// NF dependency analysis for intra-chain parallelism (DESIGN.md,
// "Intra-chain NF parallelism").
//
// Two adjacent NFs of a tenant chain may share a recirculation pass —
// saving one ≈341 ns pass plus recirculation-port bandwidth — iff
// reordering them is unobservable. This module aggregates each logical
// NF's read/write/drop/state footprint from its rules and the NF
// library's ActionTraits, and decides pairwise independence:
//
//   A ∥ B  iff  writes(A) ∩ reads(B) = ∅
//          and  writes(B) ∩ reads(A) = ∅
//          and  writes(A) ∩ writes(B) = ∅
//          and  neither's drop decision gates the other's state
//               (¬(may_drop(A) ∧ stateful(B)) ∧ ¬(may_drop(B) ∧ stateful(A)))
//
// reads(X) = the match-key fields X's rules actually constrain (a
// wildcarded key field is not a read — the lookup result cannot depend
// on it) plus the action bodies' declared reads. writes(X) = the
// action bodies' declared writes, including the virtual effect bits
// (egress port, scratch, TTL) that no key can match but ProcessResult
// exposes. DataPlane::PlanSfc turns every *dependent* pair into a
// directed ordering edge (keep chain order across passes, or by stage
// within one pass) and list-schedules the chain under those edges
// (DataPlane::Schedule); a run of mutually independent NFs carries no
// edge and can collapse into a single pass.
#pragma once

#include <cstdint>
#include <vector>

#include "nf/nf.h"
#include "switchsim/compiler/action_traits.h"

namespace sfp::dataplane {

/// Aggregated footprint of one logical NF (rules + action traits).
struct NfEffects {
  switchsim::compiler::FieldSet reads = switchsim::compiler::kNoFields;
  switchsim::compiler::FieldSet writes = switchsim::compiler::kNoFields;
  /// Any rule's action may drop the packet.
  bool may_drop = false;
  /// Any rule's action mutates NF-instance state.
  bool stateful = false;
};

/// Why two NFs do not commute: the first violated clause of the
/// relation above.
enum class MergeReject : std::uint8_t {
  kNone = 0,
  /// A field-level conflict (read-after-write, write-after-read, or
  /// write-after-write).
  kFieldConflict,
  /// One NF's drop decision would gate the other's state.
  kDropGate,
};

/// Summarizes `config`'s rules against its NF type's key spec and
/// action traits. Unknown action names aggregate as fully conservative
/// (reads/writes everything, may drop, stateful), so they never merge.
NfEffects SummarizeNf(const nf::NfConfig& config);

/// True iff A and B commute (see the relation above). When false and
/// `why` is non-null, *why names the first violated clause.
bool Independent(const NfEffects& a, const NfEffects& b, MergeReject* why = nullptr);

/// Directed precedence edges over one chain's effect summaries:
/// preds[j] lists every i < j whose effects conflict with j's
/// (i.e. !Independent), so i must execute before j on the switch.
/// Each conflict is tallied into `rejects` by MergeReject when
/// non-null (`rejects` must then have at least 3 elements). Both the
/// per-tenant packed planner and the cross-tenant co-scheduler derive
/// their ordering constraints from this one relation.
std::vector<std::vector<std::size_t>> BuildPrecedence(
    const std::vector<NfEffects>& effects, std::vector<std::uint64_t>* rejects = nullptr);

/// Per chain element: true when no later element depends on it
/// (it appears in no preds list). Successor-free NFs are the ones the
/// cross-tenant co-scheduler may steer to late stage windows — nothing
/// downstream constrains where they run.
std::vector<bool> SuccessorFree(const std::vector<std::vector<std::size_t>>& preds);

}  // namespace sfp::dataplane
