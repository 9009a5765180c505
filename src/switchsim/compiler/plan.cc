#include "switchsim/compiler/plan.h"

#include <unordered_map>

#include "common/check.h"

namespace sfp::switchsim::compiler {

namespace {

CompiledAction CompileAction(const IrAction& act, CompiledPlan& plan) {
  CompiledAction out;
  bool inline_ok = false;
  switch (act.traits.kind) {
    case ActionTraits::Kind::kNoop:
    case ActionTraits::Kind::kDrop:
      inline_ok = true;
      break;
    case ActionTraits::Kind::kSetFlowClass:
    case ActionTraits::Kind::kRoute:
    case ActionTraits::Kind::kSetBackend:
    case ActionTraits::Kind::kSetSrcIp:
      // The inline opcode hard-codes the single-argument form; anything
      // else runs the registered callback so arg checks fire exactly as
      // interpreted.
      inline_ok = act.args.size() == 1;
      if (inline_ok) out.arg0 = act.args[0];
      break;
    case ActionTraits::Kind::kOpaque:
      break;
  }
  if (inline_ok) {
    out.kind = act.traits.kind;
    out.recirculate = act.traits.recirculate;
  } else {
    out.kind = ActionTraits::Kind::kOpaque;
    out.opaque = static_cast<std::int32_t>(plan.opaque_actions.size());
    plan.opaque_actions.push_back({act.fn, act.args});
    // The registered callback is the full action — including any REC
    // wrapper — so the executor must not re-apply recirculation.
    out.recirculate = false;
  }
  return out;
}

void EmitPass(const IrPass& ir_pass, CompiledPlan& plan,
              const std::unordered_map<const MatchActionTable*, std::uint32_t>& table_index,
              CompiledPass& out) {
  for (const IrSlot& ir_slot : ir_pass.slots) {
    CompiledSlot slot;
    slot.table = ir_slot.table;
    slot.table_index = table_index.at(ir_slot.table);
    slot.stage = static_cast<std::uint16_t>(ir_slot.stage);
    slot.kind = ir_slot.kind;
    if (ir_slot.default_act) {
      slot.has_default = true;
      slot.default_action = CompileAction(*ir_slot.default_act, plan);
    }
    const bool indexed = ir_slot.kind == SlotKind::kInterval;
    for (const IrEntry& entry : ir_slot.entries) {
      const auto begin = static_cast<std::uint32_t>(plan.ops.size());
      if (ir_slot.kind == SlotKind::kMatch || indexed) {
        for (const std::size_t f : ir_slot.payload_fields) {
          const FieldMatch& m = entry.matches[f];
          const MatchKind kind = ir_slot.key[f].kind;
          if (IsWildcardMatch(m, kind, ir_slot.key[f].field)) continue;
          // The index decides the indexed field for every entry but a
          // scattered one: a span's candidates match it by
          // construction, and an empty pattern is nobody's candidate.
          if (indexed && f == ir_slot.index.key_field &&
              IntervalOf(m, kind, ir_slot.key[f].field).shape !=
                  FieldInterval::Shape::kScattered) {
            continue;
          }
          CompiledOp op;
          op.field = static_cast<std::uint8_t>(ir_slot.key[f].field);
          op.kind = kind;
          switch (kind) {
            case MatchKind::kExact:
              op.a = m.value;
              break;
            case MatchKind::kTernary:
              op.a = m.value & m.mask;
              op.b = m.mask;
              break;
            case MatchKind::kLpm:
              op.b = LpmMask(m.prefix_len);
              op.a = m.value & op.b;
              break;
            case MatchKind::kRange:
              op.a = m.lo;
              op.b = m.hi;
              break;
          }
          plan.ops.push_back(op);
        }
      }
      // kAlways: the winner fires without matching, so no ops emitted.
      slot.op_begin.push_back(begin);
      slot.op_count.push_back(static_cast<std::uint16_t>(plan.ops.size() - begin));
      slot.actions.push_back(CompileAction(entry.act, plan));
    }
    if (indexed) {
      // Pool the pass's index plan-wide, as built.
      const IntervalIndex& index = ir_slot.index;
      slot.index_field = static_cast<std::uint8_t>(index.field);
      slot.interval_begin = static_cast<std::uint32_t>(plan.bounds.size());
      slot.interval_count = static_cast<std::uint32_t>(index.bounds.size());
      slot.list_begin = static_cast<std::uint32_t>(plan.candidates.size());
      plan.bounds.insert(plan.bounds.end(), index.bounds.begin(), index.bounds.end());
      plan.words.insert(plan.words.end(), index.words.begin(), index.words.end());
      plan.candidates.insert(plan.candidates.end(), index.lists.begin(), index.lists.end());
    }
    out.slots.push_back(std::move(slot));
  }

  // Extraction groups from the fusion pass's annotations: consecutive
  // slots sharing a fusion_group id.
  std::size_t begin = 0;
  while (begin < ir_pass.slots.size()) {
    std::size_t end = begin + 1;
    while (end < ir_pass.slots.size() &&
           ir_pass.slots[end].fusion_group == ir_pass.slots[begin].fusion_group) {
      ++end;
    }
    CompiledGroup group;
    group.slot_begin = static_cast<std::uint32_t>(begin);
    group.slot_count = static_cast<std::uint32_t>(end - begin);
    FieldSet reads = kNoFields;
    for (std::size_t s = begin; s < end; ++s) reads |= ir_pass.slots[s].reads;
    for (unsigned f = 0; f < kNumFields; ++f) {
      if ((reads & (FieldSet{1} << f)) != 0) {
        group.extract_fields.push_back(static_cast<std::uint8_t>(f));
      }
    }
    out.groups.push_back(std::move(group));
    begin = end;
  }
}

}  // namespace

std::shared_ptr<const CompiledPlan> EmitPlan(const TenantIr& ir, const PassStats& stats) {
  auto plan = std::make_shared<CompiledPlan>();
  plan->tenant = ir.tenant;
  plan->num_stages = ir.num_stages;
  plan->table_epochs = ir.table_epochs;
  plan->global_epoch = ir.global_epoch;
  plan->stats = stats;

  std::unordered_map<const MatchActionTable*, std::uint32_t> table_index;
  for (std::size_t i = 0; i < ir.table_epochs.size(); ++i) {
    table_index.emplace(ir.table_epochs[i].first, static_cast<std::uint32_t>(i));
  }

  for (const IrPass& ir_pass : ir.passes) {
    CompiledPass pass;
    EmitPass(ir_pass, *plan, table_index, pass);
    plan->passes.push_back(std::move(pass));
  }
  EmitPass(ir.tail, *plan, table_index, plan->tail);
  return plan;
}

std::shared_ptr<const CompiledPlan> CompileTenant(const Pipeline& pipeline,
                                                  std::uint16_t tenant,
                                                  const ActionMetadata* metadata,
                                                  std::string* error) {
  LiftResult lifted = LiftTenant(pipeline, tenant, metadata);
  if (!lifted.ok) {
    if (error != nullptr) *error = std::move(lifted.error);
    return nullptr;
  }
  const PassStats stats = RunLoweringPasses(lifted.ir);
  return EmitPlan(lifted.ir, stats);
}

}  // namespace sfp::switchsim::compiler
