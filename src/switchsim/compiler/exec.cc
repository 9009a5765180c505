#include "switchsim/compiler/exec.h"

#include "common/check.h"
#include "common/faultinject.h"
#include "switchsim/compiler/plan_cache.h"
#include "switchsim/pipeline.h"

namespace sfp::switchsim::compiler {

void PlanDeltas::AddDrop(DropReason reason) {
  drops += 1;
  switch (reason) {
    case DropReason::kNone:
    case DropReason::kNfAction:
      drops_nf += 1;
      break;
    case DropReason::kRecirculationOverload:
      drops_overload += 1;
      break;
    case DropReason::kInjectedFault:
      drops_injected += 1;
      break;
  }
}

ExecContext::Entry* ExecContext::Miss(std::uint16_t tenant) {
  Entry entry;
  entry.tenant = tenant;
  entry.plan = cache_.Acquire(tenant);
  if (entry.plan != nullptr) entry.deltas.tables.resize(entry.plan->table_epochs.size());
  entries_.push_back(std::move(entry));
  mru_ = entries_.size() - 1;
  return Check(entries_.back());
}

ExecContext::Entry* ExecContext::Revalidate(Entry& entry) {
  // A table changed underneath the plan in a way this tenant can see
  // — a direct AddEntry naming the tenant with no DataPlane hook, a
  // default-action change, or an entry that wildcards the tenant
  // field. Report it (the cache bumps its generation)
  // and recompile in place, so the very next lookup serves compiled
  // again. Deltas already buffered against the stale plan are retired,
  // not dropped. If another worker holds the compile lock — or a
  // mutation races the recompile — interpret until a fresh compile
  // lands.
  cache_.Invalidate(entry.tenant);
  if (entry.deltas.packets != 0) {
    retired_.emplace_back(std::move(entry.plan), std::move(entry.deltas));
  }
  entry.plan = cache_.Acquire(entry.tenant);
  entry.deltas = PlanDeltas{};
  if (entry.plan == nullptr) return nullptr;
  entry.deltas.tables.resize(entry.plan->table_epochs.size());
  if (!entry.plan->Validate()) return nullptr;
  return &entry;
}

void ExecContext::RetireAll() {
  for (Entry& entry : entries_) {
    if (entry.plan != nullptr && entry.deltas.packets != 0) {
      retired_.emplace_back(std::move(entry.plan), std::move(entry.deltas));
    }
  }
  entries_.clear();
  mru_ = 0;
}

namespace {

void FlushOne(Pipeline& pipeline, const CompiledPlan& plan, const PlanDeltas& deltas) {
  for (std::size_t i = 0; i < deltas.tables.size(); ++i) {
    const PlanDeltas::TableCounts& counts = deltas.tables[i];
    if ((counts.hits | counts.misses | counts.default_hits) != 0) {
      plan.table_epochs[i].first->AddApplyCounts(counts.hits, counts.misses,
                                                 counts.default_hits);
    }
  }
  pipeline.AddCompiledCounts(deltas);
}

}  // namespace

void ExecContext::Flush(Pipeline& pipeline) {
  for (const Entry& entry : entries_) {
    if (entry.plan != nullptr && entry.deltas.packets != 0) {
      FlushOne(pipeline, *entry.plan, entry.deltas);
    }
  }
  for (const auto& [plan, deltas] : retired_) {
    FlushOne(pipeline, *plan, deltas);
  }
  cache_.AddInterpretedPackets(interpreted_packets_);
  entries_.clear();
  retired_.clear();
  mru_ = 0;
  interpreted_packets_ = 0;
}

namespace {

/// Inline specialization of switchsim::GetField for the compiled hot
/// path: identical field semantics (see types.cc), but header-level
/// inlinable and with direct port access instead of building a full
/// FiveTuple per port read.
inline std::uint64_t ExtractField(const net::Packet& packet, const PacketMeta& meta,
                                  FieldId field) {
  switch (field) {
    case FieldId::kTenantId:
      return meta.tenant_id;
    case FieldId::kPass:
      return meta.pass;
    case FieldId::kSrcIp:
      return packet.ipv4 ? packet.ipv4->src.value : 0;
    case FieldId::kDstIp:
      return packet.ipv4 ? packet.ipv4->dst.value : 0;
    case FieldId::kSrcPort:
      if (packet.tcp) return packet.tcp->src_port;
      if (packet.udp) return packet.udp->src_port;
      return 0;
    case FieldId::kDstPort:
      if (packet.tcp) return packet.tcp->dst_port;
      if (packet.udp) return packet.udp->dst_port;
      return 0;
    case FieldId::kIpProto:
      return packet.ipv4 ? packet.ipv4->protocol : 0;
    case FieldId::kDscp:
      return packet.ipv4 ? packet.ipv4->dscp : 0;
    case FieldId::kFlowClass:
      return meta.flow_class;
    case FieldId::kEthType:
      return packet.eth.ether_type;
  }
  return 0;
}

/// Inline dispatch of a compiled action. Each opcode is a bit-exact
/// transliteration of the NF library's registered callback (see
/// action_traits.h); kOpaque runs the callback itself.
inline void ApplyAction(const CompiledPlan& plan, const CompiledAction& act,
                        net::Packet& packet, PacketMeta& meta) {
  using Kind = ActionTraits::Kind;
  switch (act.kind) {
    case Kind::kNoop:
      break;
    case Kind::kDrop:
      meta.dropped = true;
      break;
    case Kind::kSetFlowClass:
      meta.flow_class = static_cast<std::uint8_t>(act.arg0);
      break;
    case Kind::kRoute:
      meta.egress_port = static_cast<std::int32_t>(act.arg0);
      if (packet.ipv4) {
        if (packet.ipv4->ttl == 0 || --packet.ipv4->ttl == 0) {
          meta.dropped = true;
        }
      }
      break;
    case Kind::kSetBackend:
      if (packet.ipv4) packet.ipv4->dst.value = static_cast<std::uint32_t>(act.arg0);
      meta.scratch = act.arg0;
      break;
    case Kind::kSetSrcIp:
      if (packet.ipv4) packet.ipv4->src.value = static_cast<std::uint32_t>(act.arg0);
      break;
    case Kind::kOpaque: {
      const CompiledPlan::OpaqueAction& opaque =
          plan.opaque_actions[static_cast<std::size_t>(act.opaque)];
      opaque.fn(packet, meta, opaque.args);
      return;  // the callback carries its own REC wrapper
    }
  }
  if (act.recirculate && !meta.dropped) meta.recirculate = true;
}

}  // namespace

}  // namespace sfp::switchsim::compiler

namespace sfp::switchsim {

// Defined here rather than pipeline.cc so the compiled serve path and
// its data structures live together; it is a Pipeline member for access
// to the config, the recirculation port, and the counters ProcessOne
// uses.
void Pipeline::ExecuteCompiled(const compiler::CompiledPlan& plan,
                               const net::Packet& packet, compiler::PlanDeltas& deltas,
                               ProcessResult& result) {
  using compiler::SlotKind;

  result.packet = packet;
  PacketMeta meta;
  meta.tenant_id = packet.TenantId();
  meta.time_ns = packet.ingress_time_ns;
  result.meta = meta;
  result.passes = 1;
  result.active_stages = 0;
  result.idle_stages = 0;
  result.latency_ns = 0.0;
  result.parse_error = false;
  deltas.packets += 1;

  if (SFP_FAULT("switchsim.pipeline.serve")) {
    result.meta.dropped = true;
    result.meta.drop_reason = DropReason::kInjectedFault;
    deltas.AddDrop(result.meta.drop_reason);
    result.latency_ns = config_.timing.LatencyNs(0, 0, result.passes);
    return;
  }

  std::uint64_t values[compiler::kNumFields];
  for (;;) {
    result.meta.recirculate = false;
    const compiler::CompiledPass& pass =
        static_cast<std::size_t>(result.meta.pass) < plan.passes.size()
            ? plan.passes[result.meta.pass]
            : plan.tail;

    // Stage-activity bookkeeping mirrors the interpreter: a stage is
    // active iff any of its tables hit an installed entry; on a drop
    // the dropping stage is still counted, later stages are not.
    int current_stage = 0;
    bool stage_active = false;
    bool aborted = false;
    for (const compiler::CompiledGroup& group : pass.groups) {
      for (const std::uint8_t field : group.extract_fields) {
        values[field] =
            compiler::ExtractField(result.packet, result.meta, static_cast<FieldId>(field));
      }
      // Eager matching (the fusion pass guarantees no member's action
      // writes a field a later member reads): resolve each slot's
      // winning entry index before any action runs.
      // winner[] is indexed by *live* slot position: dead slots never
      // resolve an entry, and the fusion cap (kMaxFusedSlots) counts
      // only live members, so a group may hold more total slots than
      // winner has entries.
      std::int32_t winner[compiler::kMaxFusedSlots];
      std::uint32_t live = 0;
      for (std::uint32_t s = 0; s < group.slot_count; ++s) {
        const compiler::CompiledSlot& slot = pass.slots[group.slot_begin + s];
        if (slot.kind == SlotKind::kDead) continue;
        if (slot.kind == SlotKind::kAlways) {
          winner[live++] = 0;
        } else if (slot.kind == SlotKind::kInterval) {
          winner[live++] = compiler::FindWinner(plan, slot, values);
        } else {
          winner[live++] = compiler::ScanWinner(plan, slot, values);
        }
      }
      // Commit counters and run actions in slot (program) order. Dead
      // slots take the miss/default path without consuming a winner.
      live = 0;
      for (std::uint32_t s = 0; s < group.slot_count; ++s) {
        const compiler::CompiledSlot& slot = pass.slots[group.slot_begin + s];
        const std::int32_t w = slot.kind == SlotKind::kDead ? -1 : winner[live++];
        if (slot.stage != current_stage) {
          // Cross stage boundaries in O(1): the stage being left
          // contributes its activity flag once; every stage skipped
          // over (no slots) was idle.
          result.active_stages += stage_active ? 1 : 0;
          result.idle_stages += slot.stage - current_stage - (stage_active ? 1 : 0);
          stage_active = false;
          current_stage = slot.stage;
        }
        compiler::PlanDeltas::TableCounts& counts = deltas.tables[slot.table_index];
        if (w >= 0) {
          counts.hits += 1;
          stage_active = true;
          compiler::ApplyAction(plan, slot.actions[static_cast<std::size_t>(w)],
                                result.packet, result.meta);
        } else {
          counts.misses += 1;
          if (slot.has_default) {
            counts.default_hits += 1;
            compiler::ApplyAction(plan, slot.default_action, result.packet, result.meta);
          }
        }
        if (result.meta.dropped) {
          aborted = true;
          break;
        }
      }
      if (aborted) break;
    }
    if (aborted) {
      // Count the stage the drop happened in; later stages are not
      // traversed (interpreter breaks out of its stage loop).
      if (stage_active) {
        ++result.active_stages;
      } else {
        ++result.idle_stages;
      }
    } else if (current_stage < plan.num_stages) {
      result.active_stages += stage_active ? 1 : 0;
      result.idle_stages += plan.num_stages - current_stage - (stage_active ? 1 : 0);
      stage_active = false;
      current_stage = plan.num_stages;
    }

    if (result.meta.dropped) {
      if (result.meta.drop_reason == DropReason::kNone) {
        result.meta.drop_reason = DropReason::kNfAction;
      }
      deltas.AddDrop(result.meta.drop_reason);
      break;
    }
    if (!result.meta.recirculate) break;
    if (result.passes >= config_.max_passes) break;
    const double service_ns =
        config_.recirculation_gbps > 0.0
            ? static_cast<double>(packet.WireBytes()) * 8.0 / config_.recirculation_gbps
            : 0.0;
    if (!AdmitRecirculation(result.meta.time_ns, service_ns)) {
      result.meta.dropped = true;
      result.meta.drop_reason = DropReason::kRecirculationOverload;
      deltas.AddDrop(result.meta.drop_reason);
      break;
    }
    deltas.recirculations += 1;
    ++result.passes;
    ++result.meta.pass;
  }

  result.latency_ns = config_.timing.LatencyNs(result.active_stages, result.idle_stages,
                                               result.passes);
}

void Pipeline::AddCompiledCounts(const compiler::PlanDeltas& deltas) {
  if (deltas.packets != 0) packets_.Add(deltas.packets);
  if (deltas.recirculations != 0) recirculations_.Add(deltas.recirculations);
  if (deltas.drops != 0) drops_.Add(deltas.drops);
  if (deltas.drops_nf != 0) drops_nf_.Add(deltas.drops_nf);
  if (deltas.drops_overload != 0) drops_overload_.Add(deltas.drops_overload);
  if (deltas.drops_injected != 0) drops_injected_.Add(deltas.drops_injected);
}

}  // namespace sfp::switchsim
