#include "switchsim/compiler/passes.h"

#include <algorithm>
#include <bit>

namespace sfp::switchsim::compiler {

namespace {

/// Applies `fn(pass, counted)` to every pass; `counted` is false for
/// the tail so stats only reflect the tenant's real program.
template <typename Fn>
void ForEachPass(TenantIr& ir, Fn&& fn) {
  for (IrPass& pass : ir.passes) fn(pass, true);
  fn(ir.tail, false);
}

/// Cap on the candidate-list words of one slot's index, per entry: past
/// it the slot keeps the linear scan rather than grow toward n^2 words.
constexpr std::size_t kMaxListWordsPerEntry = 4;

/// Slots of at most this many entries (one rule and a catch-all) keep
/// the scan: there the index's dependent search costs more than the
/// one entry check it can save (EXPERIMENTS.md: BM_CompiledSlotDispatch
/// at one rule, and ext2, whose slots all hold two entries).
constexpr std::size_t kMaxScanEntries = 2;

}  // namespace

int DeadTableElimination(TenantIr& ir) {
  int dead = 0;
  ForEachPass(ir, [&dead](IrPass& pass, bool counted) {
    for (IrSlot& slot : pass.slots) {
      if (slot.kind != SlotKind::kMatch || !slot.entries.empty()) continue;
      slot.kind = SlotKind::kDead;
      slot.reads = kNoFields;
      if (counted) ++dead;
    }
  });
  return dead;
}

int ConstantFoldAlwaysMatch(TenantIr& ir) {
  int folded = 0;
  ForEachPass(ir, [&folded](IrPass& pass, bool counted) {
    for (IrSlot& slot : pass.slots) {
      if (slot.kind != SlotKind::kMatch || slot.entries.empty()) continue;
      if (!slot.entries.front().always_matches) continue;
      slot.kind = SlotKind::kAlways;
      // Entries below the unconditional winner are unreachable, and
      // with them goes every concrete pattern: the slot reads nothing
      // and only the winner's action can write.
      slot.entries.resize(1);
      slot.reads = kNoFields;
      slot.writes = slot.entries.front().act.traits.writes;
      if (counted) ++folded;
    }
  });
  return folded;
}

int MatchFusion(TenantIr& ir) {
  int fused = 0;
  ForEachPass(ir, [&fused](IrPass& pass, bool counted) {
    int group = -1;
    int group_size = 0;
    int group_live = 0;  // non-dead members (dead slots fuse transparently)
    FieldSet group_writes = kNoFields;
    for (IrSlot& slot : pass.slots) {
      // Safe to match this slot eagerly alongside the current group iff
      // no earlier member's action can write a field this slot reads
      // (actions still run in slot order, so write-before-write and
      // read-own-write hazards cannot arise).
      // kMaxFusedSlots caps the *live* members: only they consume a
      // winner index at execution time, so dead slots never split a
      // group. Packed multi-NF passes (DESIGN.md "Intra-chain NF
      // parallelism") rely on this to keep one extraction group per
      // recirculation pass.
      const bool join = group_size > 0 &&
                        group_live + (slot.kind != SlotKind::kDead ? 1 : 0) <=
                            kMaxFusedSlots &&
                        (slot.reads & group_writes) == kNoFields;
      if (!join) {
        ++group;
        group_size = 0;
        group_live = 0;
        group_writes = kNoFields;
      } else if (counted && slot.kind != SlotKind::kDead && group_live > 0) {
        ++fused;
      }
      slot.fusion_group = group;
      group_writes |= slot.writes;
      ++group_size;
      if (slot.kind != SlotKind::kDead) ++group_live;
    }
  });
  return fused;
}

bool BuildIntervalIndex(IrSlot& slot) {
  using Shape = FieldInterval::Shape;
  const std::size_t n = slot.entries.size();
  if (n == 0 || n >= kSingleCandidate) return false;

  // The field the most entries constrain to less than its whole domain.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t chosen = kNone;
  std::size_t chosen_count = 0;
  for (const std::size_t f : slot.payload_fields) {
    const FieldId field = slot.key[f].field;
    const std::uint64_t domain = FieldMaxValue(field);
    if (domain > 0xFFFFFFFFULL) continue;  // bounds are 32-bit
    std::size_t count = 0;
    for (const IrEntry& entry : slot.entries) {
      const FieldInterval iv = IntervalOf(entry.matches[f], slot.key[f].kind, field);
      const bool whole = iv.shape == Shape::kSpan && iv.lo == 0 && iv.hi == domain;
      if (iv.shape != Shape::kScattered && !whole) ++count;
    }
    if (count > chosen_count ||
        (count == chosen_count && count > 0 && field < slot.key[chosen].field)) {
      chosen = f;
      chosen_count = count;
    }
  }
  if (chosen == kNone) return false;
  const FieldId field = slot.key[chosen].field;
  const std::uint64_t domain = FieldMaxValue(field);

  // Sweep events, one 64-bit word each: position << 32 | start bit |
  // entry. Entries spanning the whole domain (or scattered over it)
  // are active from the start. An entry is decisive when it matches
  // every value of each interval it covers: a span on this field and a
  // wildcard on every other.
  constexpr std::uint64_t kStart = std::uint64_t{1} << 31;
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> active(words, 0);
  std::vector<std::uint64_t> decisive(words, 0);
  std::vector<std::uint64_t> events;
  events.reserve(2 * n);
  for (std::size_t e = 0; e < n; ++e) {
    const IrEntry& entry = slot.entries[e];
    const FieldInterval iv = IntervalOf(entry.matches[chosen], slot.key[chosen].kind, field);
    if (iv.shape == Shape::kEmpty) continue;  // never wins
    const std::uint64_t bit = std::uint64_t{1} << (e % 64);
    if (iv.shape == Shape::kSpan) {
      bool others_wild = true;
      for (const std::size_t f : slot.payload_fields) {
        if (f != chosen &&
            !IsWildcardMatch(entry.matches[f], slot.key[f].kind, slot.key[f].field)) {
          others_wild = false;
          break;
        }
      }
      if (others_wild) decisive[e / 64] |= bit;
    }
    if (iv.shape == Shape::kScattered || (iv.lo == 0 && iv.hi == domain)) {
      active[e / 64] |= bit;
      continue;
    }
    events.push_back(iv.lo << 32 | kStart | e);
    if (iv.hi < domain) events.push_back((iv.hi + 1) << 32 | e);
  }
  std::sort(events.begin(), events.end());

  IntervalIndex index;
  index.key_field = chosen;
  index.field = field;
  const std::size_t cap = kMaxListWordsPerEntry * n;
  std::vector<std::uint32_t> list;
  std::vector<std::uint32_t> previous;
  std::size_t next = 0;
  std::uint64_t position = 0;
  for (;;) {
    for (; next < events.size() && events[next] >> 32 == position; ++next) {
      const std::uint64_t e = events[next] & (kStart - 1);
      const std::uint64_t bit = std::uint64_t{1} << (e % 64);
      if ((events[next] & kStart) != 0) {
        active[e / 64] |= bit;
      } else {
        active[e / 64] &= ~bit;
      }
    }
    // The interval's candidates in winner order, through the first
    // decisive one.
    list.clear();
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = active[w];
      bool stop = false;
      while (bits != 0) {
        const auto e = static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        list.push_back(e);
        if ((decisive[w] & (bits & -bits)) != 0) {
          stop = true;
          break;
        }
        bits &= bits - 1;
      }
      if (stop) break;
    }
    if (index.bounds.empty() || list != previous) {
      index.bounds.push_back(static_cast<std::uint32_t>(position));
      if (list.empty()) {
        index.words.push_back(kNoCandidate);
      } else if (list.size() == 1) {
        index.words.push_back(kSingleCandidate | list.front());
      } else {
        index.words.push_back(static_cast<std::uint32_t>(index.lists.size()));
        index.lists.push_back(static_cast<std::uint32_t>(list.size()));
        index.lists.insert(index.lists.end(), list.begin(), list.end());
        if (index.lists.size() > cap) return false;
      }
      previous.swap(list);
    }
    if (next == events.size()) break;
    position = events[next] >> 32;
  }
  slot.kind = SlotKind::kInterval;
  slot.index = std::move(index);
  return true;
}

int IntervalIndexing(TenantIr& ir) {
  int indexed = 0;
  ForEachPass(ir, [&indexed](IrPass& pass, bool counted) {
    for (IrSlot& slot : pass.slots) {
      if (slot.kind == SlotKind::kMatch && slot.entries.size() > kMaxScanEntries &&
          BuildIntervalIndex(slot) && counted) {
        ++indexed;
      }
    }
  });
  return indexed;
}

PassStats RunLoweringPasses(TenantIr& ir) {
  PassStats stats;
  stats.dead_tables = DeadTableElimination(ir);
  stats.folded_tables = ConstantFoldAlwaysMatch(ir);
  stats.fused_stages = MatchFusion(ir);
  stats.interval_slots = IntervalIndexing(ir);
  for (const IrPass& pass : ir.passes) {
    for (const IrSlot& slot : pass.slots) {
      if (slot.kind == SlotKind::kMatch) ++stats.linear_slots;
    }
  }
  return stats;
}

}  // namespace sfp::switchsim::compiler
