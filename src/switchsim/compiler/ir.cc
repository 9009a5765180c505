#include "switchsim/compiler/ir.h"

#include <algorithm>
#include <sstream>

#include "switchsim/pipeline.h"

namespace sfp::switchsim::compiler {

namespace {

constexpr std::size_t kNoField = static_cast<std::size_t>(-1);

/// Matches MatchActionTable::PrefixScore: sum of LPM prefix lengths
/// over the key's LPM fields.
int PrefixScoreOf(const std::vector<MatchFieldSpec>& key,
                  const std::vector<FieldMatch>& matches) {
  int score = 0;
  for (std::size_t f = 0; f < key.size(); ++f) {
    if (key[f].kind == MatchKind::kLpm) score += matches[f].prefix_len;
  }
  return score;
}

/// A lifted table before it is split into per-pass slots.
struct RawTable {
  MatchActionTable* table = nullptr;
  int stage = 0;
  MatchActionTable::CompileSnapshot snap;
  std::size_t tenant_field = kNoField;
  std::size_t pass_field = kNoField;
  std::vector<std::size_t> payload_fields;
};

IrAction MakeAction(const RawTable& rt, ActionId id, ActionArgs args,
                    const ActionMetadata* metadata) {
  IrAction act;
  act.action = id;
  act.args = std::move(args);
  act.fn = rt.snap.actions[static_cast<std::size_t>(id)];
  act.name = rt.snap.action_names[static_cast<std::size_t>(id)];
  if (const ActionTraits* traits =
          metadata != nullptr ? metadata->Find(rt.table, id) : nullptr) {
    act.traits = *traits;
  }
  return act;
}

/// Builds the slot for one (table, pass); `pass` empty builds the tail
/// form (no entries: every packet misses). Moves the pass's entries'
/// patterns and arguments out of the snapshot: each snapshot entry
/// names one pass, so it lifts into one slot.
IrSlot BuildSlot(RawTable& rt, std::optional<std::uint64_t> pass,
                 const ActionMetadata* metadata) {
  IrSlot slot;
  slot.table = rt.table;
  slot.stage = rt.stage;
  slot.key = rt.table->key();
  slot.payload_fields = rt.payload_fields;
  if (rt.snap.default_action) {
    slot.default_act = MakeAction(rt, rt.snap.default_action->first,
                                  rt.snap.default_action->second, metadata);
    slot.writes |= slot.default_act->traits.writes;
  }
  if (!pass) return slot;

  // The snapshot holds only this tenant's entries (LiftTenant has
  // rejected any that wildcard the prefix), so the pass decides. Sort
  // small keys into winner order, then build the entries in that order.
  struct WinnerKey {
    int priority;
    int prefix_score;
    EntryHandle handle;
    std::size_t index;
  };
  std::vector<WinnerKey> order;
  for (std::size_t i = 0; i < rt.snap.entries.size(); ++i) {
    const TableEntry& entry = rt.snap.entries[i];
    // Empty patterns: already moved into an earlier pass's slot.
    if (entry.matches.empty() || entry.matches[rt.pass_field].value != *pass) continue;
    order.push_back({entry.priority, PrefixScoreOf(slot.key, entry.matches), entry.handle, i});
  }
  std::sort(order.begin(), order.end(), [](const WinnerKey& a, const WinnerKey& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.prefix_score != b.prefix_score) return a.prefix_score > b.prefix_score;
    return a.handle < b.handle;
  });
  slot.entries.reserve(order.size());
  for (const WinnerKey& key : order) {
    TableEntry& entry = rt.snap.entries[key.index];
    IrEntry& ie = slot.entries.emplace_back();
    ie.priority = entry.priority;
    ie.handle = entry.handle;
    ie.prefix_score = key.prefix_score;
    ie.always_matches = true;
    for (const std::size_t f : slot.payload_fields) {
      if (!IsWildcardMatch(entry.matches[f], slot.key[f].kind, slot.key[f].field)) {
        ie.always_matches = false;
        slot.reads |= FieldBit(slot.key[f].field);
      }
    }
    ie.act = MakeAction(rt, entry.action, std::move(entry.args), metadata);
    slot.writes |= ie.act.traits.writes;
    ie.matches.swap(entry.matches);  // leaves the snapshot's patterns empty
  }
  return slot;
}

}  // namespace

std::uint64_t FieldMaxValue(FieldId field) {
  switch (field) {
    case FieldId::kSrcIp:
    case FieldId::kDstIp:
      return 0xFFFFFFFFULL;
    case FieldId::kTenantId:
    case FieldId::kSrcPort:
    case FieldId::kDstPort:
    case FieldId::kEthType:
      return 0xFFFFULL;
    case FieldId::kPass:
    case FieldId::kIpProto:
    case FieldId::kDscp:
    case FieldId::kFlowClass:
      return 0xFFULL;
  }
  return ~0ULL;
}

std::uint64_t LpmMask(int prefix_len) {
  if (prefix_len >= 32) return 0xFFFFFFFFULL;
  return (0xFFFFFFFFULL << (32 - prefix_len)) & 0xFFFFFFFFULL;
}

bool IsWildcardMatch(const FieldMatch& match, MatchKind kind, FieldId field) {
  switch (kind) {
    case MatchKind::kExact:
      // mask == 0 is FieldMatch::Any(): even exact-kind fields can be
      // wildcarded (per-pass catch-alls on exact-key NFs).
      return match.mask == 0;
    case MatchKind::kTernary:
      return match.mask == 0;
    case MatchKind::kLpm:
      return match.prefix_len == 0;
    case MatchKind::kRange:
      return match.lo == 0 && match.hi >= FieldMaxValue(field);
  }
  return false;
}

FieldInterval IntervalOf(const FieldMatch& match, MatchKind kind, FieldId field) {
  using Shape = FieldInterval::Shape;
  const std::uint64_t domain = FieldMaxValue(field);
  FieldInterval out;
  out.hi = domain;
  if (IsWildcardMatch(match, kind, field)) return out;
  // Exact, ternary and LPM all match (value & mask) == want.
  std::uint64_t mask = ~0ULL;
  std::uint64_t want = match.value;
  switch (kind) {
    case MatchKind::kExact:
      break;
    case MatchKind::kTernary:
      mask = match.mask;
      want = match.value & mask;
      break;
    case MatchKind::kLpm:
      mask = LpmMask(match.prefix_len);
      want = match.value & mask;
      break;
    case MatchKind::kRange:
      if (match.lo > match.hi || match.lo > domain) {
        out.shape = Shape::kEmpty;
      } else {
        out.lo = match.lo;
        out.hi = std::min(match.hi, domain);
      }
      return out;
  }
  if ((want & ~domain) != 0) {
    // Wants a bit no value of the field has.
    out.shape = Shape::kEmpty;
    return out;
  }
  // Bits of the domain the pattern ignores. Only a run of low bits (a
  // prefix mask) leaves one interval.
  const std::uint64_t ignored = domain & ~mask;
  if ((ignored & (ignored + 1)) != 0) {
    out.shape = Shape::kScattered;
    return out;
  }
  out.lo = want;
  out.hi = want | ignored;
  return out;
}

LiftResult LiftTenant(const Pipeline& pipeline, std::uint16_t tenant,
                      const ActionMetadata* metadata) {
  LiftResult out;
  TenantIr& ir = out.ir;
  ir.tenant = tenant;
  ir.num_stages = pipeline.num_stages();
  ir.global_epoch = pipeline.table_mutation_epoch();

  std::vector<RawTable> raw;
  for (int k = 0; k < ir.num_stages; ++k) {
    for (const auto& table : pipeline.stage(k).tables()) {
      RawTable rt;
      rt.table = table.get();
      rt.stage = k;
      const auto& key = table->key();
      for (std::size_t f = 0; f < key.size(); ++f) {
        const bool exact = key[f].kind == MatchKind::kExact;
        if (exact && key[f].field == FieldId::kTenantId && rt.tenant_field == kNoField) {
          rt.tenant_field = f;
        } else if (exact && key[f].field == FieldId::kPass && rt.pass_field == kNoField) {
          rt.pass_field = f;
        } else {
          rt.payload_fields.push_back(f);
        }
      }
      if (rt.tenant_field == kNoField || rt.pass_field == kNoField) {
        // Without the exact (tenant, pass) prefix the table cannot be
        // sliced per tenant: another tenant's entries could match this
        // tenant's packets. Unsupported construct -> interpreted path.
        out.error = "table '" + table->name() + "' lacks the exact (tenant, pass) key prefix";
        return out;
      }
      rt.snap = table->Snapshot(tenant);
      for (const TableEntry& entry : rt.snap.entries) {
        if (entry.matches[rt.tenant_field].mask == 0 || entry.matches[rt.pass_field].mask == 0) {
          // A wildcarded prefix field lets the entry match this
          // tenant's packets at every pass (or every tenant's), which
          // the per-(tenant, pass) slots cannot express.
          // Unsupported construct -> interpreted path.
          out.error = "table '" + table->name() +
                      "' holds an entry that wildcards the (tenant, pass) key prefix";
          return out;
        }
      }
      ir.table_epochs.emplace_back(rt.table, rt.snap.epoch);
      raw.push_back(std::move(rt));
    }
  }

  // The tenant's pass count: one past the highest pass any of its
  // entries names. Entries beyond the recirculation guard (or the
  // uint8 pass counter) are unreachable and lift into no pass.
  const auto guard = static_cast<std::uint64_t>(pipeline.config().max_passes);
  std::uint64_t num_passes = 1;
  for (const RawTable& rt : raw) {
    for (const TableEntry& entry : rt.snap.entries) {
      const std::uint64_t pass = entry.matches[rt.pass_field].value;
      if (pass < guard && pass < 256) num_passes = std::max(num_passes, pass + 1);
    }
  }

  for (std::uint64_t pass = 0; pass < num_passes; ++pass) {
    IrPass ir_pass;
    for (RawTable& rt : raw) {
      ir_pass.slots.push_back(BuildSlot(rt, pass, metadata));
    }
    ir.passes.push_back(std::move(ir_pass));
  }
  for (RawTable& rt : raw) {
    ir.tail.slots.push_back(BuildSlot(rt, std::nullopt, metadata));
  }
  out.ok = true;
  return out;
}

namespace {

const char* SlotKindName(SlotKind kind) {
  switch (kind) {
    case SlotKind::kMatch:
      return "match";
    case SlotKind::kInterval:
      return "interval";
    case SlotKind::kAlways:
      return "always";
    case SlotKind::kDead:
      return "dead";
  }
  return "?";
}

void DumpPass(std::ostringstream& os, const IrPass& pass) {
  for (const IrSlot& slot : pass.slots) {
    os << "  s" << slot.stage << " " << slot.table->name() << " [" << SlotKindName(slot.kind)
       << " group=" << slot.fusion_group;
    if (slot.kind == SlotKind::kInterval) {
      os << " on=" << FieldName(slot.index.field) << " intervals=" << slot.index.bounds.size();
    }
    os << "]";
    for (const IrEntry& entry : slot.entries) {
      os << " {" << entry.act.name << " prio=" << entry.priority << " h=" << entry.handle;
      if (entry.always_matches) os << " always";
      os << "}";
    }
    os << "\n";
  }
}

}  // namespace

std::string ToString(const TenantIr& ir) {
  std::ostringstream os;
  os << "tenant " << ir.tenant << " passes=" << ir.passes.size() << "\n";
  for (std::size_t p = 0; p < ir.passes.size(); ++p) {
    os << "pass " << p << ":\n";
    DumpPass(os, ir.passes[p]);
  }
  os << "tail:\n";
  DumpPass(os, ir.tail);
  return os.str();
}

}  // namespace sfp::switchsim::compiler
