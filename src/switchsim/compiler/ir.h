// Per-tenant intermediate representation of the pipeline compiler.
//
// LiftTenant slices a tenant's rules out of the shared pipeline: every
// physical NF table's key carries an exact (tenant, pass) prefix, so
// the entries whose prefix names this tenant are the *only* entries
// that can ever match its packets — unless an entry wildcards a prefix
// field (FieldMatch::Any()), which the lift refuses so the tenant stays
// interpreted. Each table is read through MatchActionTable::Snapshot
// (tenant), which copies just those entries and the tenant's stamp.
// The lift groups those entries by recirculation pass into a program of
// IrPass -> IrSlot (one slot per (stage, table), in pipeline order) and
// pre-sorts each slot's entries into winner order — (priority desc,
// LPM prefix score desc, install handle asc) — so "first full match
// wins" reproduces MatchActionTable's lookup semantics exactly.
//
// Lowering passes (passes.h) then annotate the IR in place; plan.h
// emits the executable CompiledPlan. See docs/COMPILER.md for the IR
// grammar and worked examples.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "switchsim/compiler/action_traits.h"
#include "switchsim/table.h"

namespace sfp::switchsim {
class Pipeline;
}  // namespace sfp::switchsim

namespace sfp::switchsim::compiler {

/// Cap on slots the match-fusion pass merges into one extraction
/// group; lets the executor keep its per-group winner list on the
/// stack.
inline constexpr int kMaxFusedSlots = 16;

/// One bound action of a lifted entry (or a table default).
struct IrAction {
  ActionTraits traits;
  ActionId action = 0;
  ActionArgs args;
  /// Copy of the registered callback — the execution vehicle for
  /// Kind::kOpaque (stateful callbacks share their captured state with
  /// the interpreter, so both paths see the same NF instance).
  ActionFn fn;
  /// Registered action name (debug dumps only).
  std::string name;
};

/// One lifted rule. `matches` stays parallel to the slot's full key
/// (tenant/pass prefix included); only `payload_fields` of the slot are
/// matched at run time.
struct IrEntry {
  std::vector<FieldMatch> matches;
  int priority = 0;
  EntryHandle handle = 0;
  /// Sum of LPM prefix lengths over the key's LPM fields — the
  /// entry-static tie-break score of MatchActionTable::PrefixScore.
  int prefix_score = 0;
  /// Every payload field pattern is a full wildcard: the entry matches
  /// any packet that reaches this (tenant, pass) slot.
  bool always_matches = false;
  IrAction act;
};

/// How a slot executes after lowering.
enum class SlotKind : std::uint8_t {
  /// Match the entry list in winner order; default action on miss.
  kMatch,
  /// Interval-indexed match: the packet's value of one payload field
  /// selects an interval, and only that interval's candidates are
  /// matched, in winner order (IrSlot::index).
  kInterval,
  /// Constant-folded: entry 0 always wins, no matching performed.
  kAlways,
  /// Dead table: no entries for this (tenant, pass) — every packet
  /// misses (default action + miss counters only).
  kDead,
};

/// The values of one payload field that a pattern can match, as the
/// interval index sees them.
struct FieldInterval {
  enum class Shape : std::uint8_t {
    /// Matches no value the field can take (an exact value above
    /// FieldMaxValue, say): the entry never wins.
    kEmpty,
    /// Matches exactly the values in [lo, hi] (the whole domain for a
    /// wildcard).
    kSpan,
    /// Not one interval (a ternary mask with holes): the index keeps
    /// the entry in every interval and its match op decides.
    kScattered,
  };
  Shape shape = Shape::kSpan;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// Exact value set of `match` on `field` under `kind`: exact is
/// [v, v]; LPM and prefix-mask ternary are [a, a | ~mask]; range is
/// [lo, min(hi, FieldMaxValue)]; wildcards span the whole domain.
FieldInterval IntervalOf(const FieldMatch& match, MatchKind kind, FieldId field);

/// Candidate word of one interval (IntervalIndex::words).
inline constexpr std::uint32_t kNoCandidate = 0xFFFFFFFFu;
/// Tag of a word that names its single candidate inline: the low bits
/// are the entry index.
inline constexpr std::uint32_t kSingleCandidate = 0x80000000u;

/// A slot's entries cut into elementary intervals of one payload field
/// (Lampson, Srinivasan & Varghese's range search): every entry whose
/// pattern can match a value of interval i is a candidate of i, in
/// winner order, and the list stops at the first candidate that
/// matches the whole interval.
struct IntervalIndex {
  /// Key position of the indexed field.
  std::size_t key_field = 0;
  FieldId field = FieldId::kTenantId;
  /// Interval i holds the values [bounds[i], bounds[i + 1]) (the last
  /// runs to FieldMaxValue); bounds[0] == 0 and adjacent intervals
  /// never share a candidate list.
  std::vector<std::uint32_t> bounds;
  /// One word per interval: kNoCandidate, kSingleCandidate | entry, or
  /// the offset in `lists` of a count-prefixed candidate list.
  std::vector<std::uint32_t> words;
  std::vector<std::uint32_t> lists;
};

/// One (stage, table) of one recirculation pass, restricted to the
/// tenant's entries.
struct IrSlot {
  MatchActionTable* table = nullptr;
  int stage = 0;
  std::vector<MatchFieldSpec> key;
  /// Key indices excluding the exact (tenant, pass) prefix — the fields
  /// actually matched at run time.
  std::vector<std::size_t> payload_fields;
  /// Entries in winner order (see file header).
  std::vector<IrEntry> entries;
  std::optional<IrAction> default_act;
  SlotKind kind = SlotKind::kMatch;
  /// Fields read by at least one concrete (non-wildcard) pattern of any
  /// entry. Wildcarded fields match regardless of value, so they are
  /// not reads.
  FieldSet reads = kNoFields;
  /// Fields any reachable action (entries + default) may write.
  FieldSet writes = kNoFields;
  /// Extraction group assigned by the match-fusion pass; slots sharing
  /// a group extract their fields together and match eagerly.
  int fusion_group = -1;
  /// Set by the interval-index pass (kInterval slots only).
  IntervalIndex index;
};

/// One recirculation pass: every pipeline table, in (stage, table)
/// program order.
struct IrPass {
  std::vector<IrSlot> slots;
};

/// The per-tenant IR.
struct TenantIr {
  std::uint16_t tenant = 0;
  int num_stages = 0;
  /// Indexed by meta.pass; pass values beyond the vector use `tail`.
  std::vector<IrPass> passes;
  /// Shared pass for recirculation beyond the tenant's last configured
  /// pass: every slot is dead (all tables miss), matching what the
  /// interpreter does for a (tenant, pass) with no entries.
  IrPass tail;
  /// Every lifted table with its TenantEpoch(tenant) at lift time, in
  /// program order. The emitted plan revalidates these per packet, so
  /// only changes this tenant can see make it stale.
  std::vector<std::pair<MatchActionTable*, std::uint64_t>> table_epochs;
  /// The pipeline's table-mutation counter (Validate fast path in the
  /// emitted plan); nullptr when the pipeline does not expose one.
  const common::metrics::RelaxedCounter* global_epoch = nullptr;
};

/// Lift outcome. !ok => the tenant (and with the current data plane
/// layout, every tenant) must stay on the interpreted path.
struct LiftResult {
  bool ok = false;
  std::string error;
  TenantIr ir;
};

/// Lifts `tenant`'s rules from the pipeline's tables. `metadata` may be
/// null: all actions are then treated as opaque (correct, unoptimized).
/// Unsupported constructs — a table without the exact (tenant, pass)
/// key prefix, or an entry that can match the tenant's packets while
/// wildcarding the tenant or pass field — yield !ok.
LiftResult LiftTenant(const Pipeline& pipeline, std::uint16_t tenant,
                      const ActionMetadata* metadata);

/// Multi-line debug dump of the IR (tests and COMPILER.md examples).
std::string ToString(const TenantIr& ir);

/// Largest value GetField can produce for `field` (e.g. 0xFFFF for a
/// port). Used to recognize full-range wildcards like Range(0, 65535).
std::uint64_t FieldMaxValue(FieldId field);

/// True when `match` can never exclude a packet under `kind` (ternary
/// mask 0, LPM prefix 0, range covering the field's whole domain).
/// Exact patterns always constrain.
bool IsWildcardMatch(const FieldMatch& match, MatchKind kind, FieldId field);

/// 32-bit mask of an LPM prefix, mirroring FieldMatches' arithmetic.
std::uint64_t LpmMask(int prefix_len);

}  // namespace sfp::switchsim::compiler
