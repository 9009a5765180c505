#include "dataplane/data_plane.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/check.h"
#include "common/faultinject.h"
#include "common/logging.h"
#include "dataplane/nf_deps.h"
#include "switchsim/compiler/plan_cache.h"

namespace sfp::dataplane {

using switchsim::ActionArgs;
using switchsim::ActionId;
using switchsim::FieldId;
using switchsim::FieldMatch;
using switchsim::MatchFieldSpec;
using switchsim::MatchKind;

const char* AllocCodeName(AllocCode code) {
  switch (code) {
    case AllocCode::kOk:
      return "ok";
    case AllocCode::kEmptyChain:
      return "empty-chain";
    case AllocCode::kAlreadyAllocated:
      return "already-allocated";
    case AllocCode::kNoPlacement:
      return "no-placement";
    case AllocCode::kInstallFault:
      return "install-fault";
    case AllocCode::kDiverged:
      return "diverged";
  }
  return "unknown";
}

namespace {

/// One rule install of InstallSfc or a swap's restore. False when an
/// injected fault ("dataplane.install_rule", or the table's own
/// "switchsim.table.add_entry") rejects it.
bool InstallEntry(switchsim::MatchActionTable& table, std::vector<FieldMatch> matches,
                  ActionId action, const ActionArgs& args, int priority, TenantId tenant) {
  return !SFP_FAULT("dataplane.install_rule") &&
         table.AddEntry(std::move(matches), action, args, priority, tenant) !=
             switchsim::kInvalidEntryHandle;
}

/// The chain's dependency edges (nf_deps.h): NF j runs after every
/// earlier NF it does not commute with. Conflicts are tallied into
/// `rejects` by MergeReject when non-null.
std::vector<std::vector<std::size_t>> DependencyEdges(
    const Sfc& sfc, std::vector<std::uint64_t>* rejects = nullptr) {
  std::vector<NfEffects> effects;
  effects.reserve(sfc.chain.size());
  for (const auto& logical : sfc.chain) effects.push_back(SummarizeNf(logical));
  return BuildPrecedence(effects, rejects);
}

}  // namespace

DataPlane::DataPlane(switchsim::SwitchConfig config) : pipeline_(config) {}

DataPlane::PhysicalNfSlot* DataPlane::FindSlot(int stage, nf::NfType type) {
  for (auto& slot : slots_) {
    if (slot.stage == stage && slot.type == type) return &slot;
  }
  return nullptr;
}

const DataPlane::PhysicalNfSlot* DataPlane::FindSlot(int stage, nf::NfType type) const {
  for (const auto& slot : slots_) {
    if (slot.stage == stage && slot.type == type) return &slot;
  }
  return nullptr;
}

bool DataPlane::InstallPhysicalNf(int stage, nf::NfType type) {
  SFP_CHECK_GE(stage, 0);
  SFP_CHECK_LT(stage, pipeline_.num_stages());
  if (FindSlot(stage, type) != nullptr) return false;

  auto nf = nf::MakeNf(type);
  // Physical key = [tenant, pass] prefix + the NF's own key (§IV).
  std::vector<MatchFieldSpec> key = {{FieldId::kTenantId, MatchKind::kExact},
                                     {FieldId::kPass, MatchKind::kExact}};
  for (const auto& field : nf->KeySpec()) key.push_back(field);

  const std::string table_name =
      std::string(nf::NfShortName(type)) + "_s" + std::to_string(stage);
  auto* table = pipeline_.stage(stage).AddTable(table_name, std::move(key));
  if (table == nullptr) return false;  // stage out of blocks

  nf->BindActions(*table);
  PhysicalNfSlot slot;
  slot.type = type;
  slot.stage = stage;
  slot.table = table;
  // The "No-Ops" default rule of §IV, plus its REC twin for folding.
  nf::RegisterWithRecVariant(*table, "noop",
                             [](net::Packet&, switchsim::PacketMeta&, const ActionArgs&) {});
  for (std::size_t i = 0; i < table->action_names().size(); ++i) {
    slot.actions[table->action_names()[i]] = static_cast<ActionId>(i);
  }
  slot.noop = slot.actions.at("noop");
  table->SetDefaultAction(slot.noop);
  slot.nf = std::move(nf);
  slots_.push_back(std::move(slot));
  // A new physical table changes the lifted program shape for everyone:
  // rebuild the compiler's action metadata (which also drops every
  // cached plan).
  if (pipeline_.compiler_enabled()) EnableCompiledPlans();
  return true;
}

void DataPlane::EnableCompiledPlans() {
  switchsim::compiler::ActionMetadata metadata;
  for (const auto& slot : slots_) {
    const auto& names = slot.table->action_names();
    std::vector<switchsim::compiler::ActionTraits> traits;
    traits.reserve(names.size());
    for (const std::string& name : names) {
      const bool rec = name.size() > 4 && name.ends_with("_rec");
      const std::string base = rec ? name.substr(0, name.size() - 4) : name;
      switchsim::compiler::ActionTraits t = base == "noop"
                                                ? switchsim::compiler::ActionTraits::Noop()
                                                : slot.nf->TraitsOf(base);
      if (rec) t.recirculate = true;
      traits.push_back(t);
    }
    metadata.tables.emplace(slot.table, std::move(traits));
  }
  pipeline_.EnableCompiler(std::move(metadata));
}

void DataPlane::InvalidatePlan(TenantId tenant) {
  if (auto* cache = pipeline_.plan_cache()) cache->Invalidate(tenant);
}

bool DataPlane::HasPhysicalNf(int stage, nf::NfType type) const {
  return FindSlot(stage, type) != nullptr;
}

nf::NetworkFunction* DataPlane::PhysicalNf(int stage, nf::NfType type) {
  auto* slot = FindSlot(stage, type);
  return slot != nullptr ? slot->nf.get() : nullptr;
}

switchsim::EntryDeltas DataPlane::OwnEntriesOut(TenantId tenant) const {
  switchsim::EntryDeltas out;
  const auto it = allocations_.find(tenant);
  if (it == allocations_.end()) return out;
  for (const auto& [table, entries] : it->second.entries) out[table] = -entries;
  return out;
}

DataPlane::WindowCounts DataPlane::HeldWindows() const {
  WindowCounts held;
  for (const auto& [tenant, allocation] : allocations_) {
    for (const NfPlacement& placement : allocation.result.placements) {
      ++held[{placement.pass, placement.stage}];
    }
  }
  return held;
}

bool DataPlane::Schedule(const Sfc& sfc, int pass_limit,
                         const std::vector<std::vector<std::size_t>>& preds,
                         const std::vector<bool>& steer, const WindowCounts& held,
                         std::vector<PlanStep>& plan) const {
  plan.assign(sfc.chain.size(), PlanStep{});
  // Prospective entries per table: the tenant's own installed entries
  // out, plus this plan's earlier NFs landing in the stage.
  switchsim::EntryDeltas pending = OwnEntriesOut(sfc.tenant);
  // Planned as if the tenant had departed (a re-provision or a
  // compaction probe): a window is open only when another tenant holds
  // it, so its own placements don't count.
  const AllocationResult* own = steer.empty() ? nullptr : FindAllocation(sfc.tenant);
  auto open_for_others = [&](int pass, int stage) {
    const auto it = held.find({pass, stage});
    int others = it != held.end() ? it->second : 0;
    if (own != nullptr) {
      for (const NfPlacement& placement : own->placements) {
        if (placement.pass == pass && placement.stage == stage) --others;
      }
    }
    return others > 0;
  };
  std::vector<std::vector<const switchsim::MatchActionTable*>> claimed(
      static_cast<std::size_t>(std::max(pass_limit, 0)));
  int max_pass = -1;  // highest pass placed so far (-1: none)

  auto place = [&](std::size_t j, bool steered) {
    const auto& logical = sfc.chain[j];
    // Rules + one catch-all No-Op entry per logical NF.
    const std::int64_t entries = static_cast<std::int64_t>(logical.rules.size()) + 1;
    const PhysicalNfSlot* best = nullptr;
    int best_pass = 0;
    std::tuple<int, int, int, int> best_score{};
    for (int p = 0; p < pass_limit && (steered || best == nullptr); ++p) {
      // Stage floor within pass p; a predecessor in a later pass rules
      // p out.
      int floor = 0;
      bool after_preds = true;
      for (const std::size_t i : preds[j]) {
        after_preds = after_preds && plan[i].placement.pass <= p;
        if (plan[i].placement.pass == p) floor = std::max(floor, plan[i].placement.stage + 1);
      }
      if (!after_preds) continue;
      const auto& used = claimed[static_cast<std::size_t>(p)];
      for (int k = floor; k < pipeline_.num_stages(); ++k) {
        const PhysicalNfSlot* slot = FindSlot(k, logical.type);
        if (slot == nullptr) continue;
        if (std::find(used.begin(), used.end(), slot->table) != used.end()) continue;
        if (!pipeline_.stage(k).CanAddEntries(*slot->table, entries, pending)) continue;
        if (!steered) {
          best = slot;
          best_pass = p;
          break;
        }
        // Extra passes dominate, so steering never grows the plan by a
        // pass.
        const std::tuple<int, int, int, int> score{std::max(p - max_pass, 0), -k,
                                                   open_for_others(p, k) ? 0 : 1, p};
        if (best == nullptr || score < best_score) {
          best = slot;
          best_pass = p;
          best_score = score;
        }
      }
    }
    if (best == nullptr) return false;
    pending[best->table] += entries;
    claimed[static_cast<std::size_t>(best_pass)].push_back(best->table);
    plan[j] = PlanStep{best, NfPlacement{best->stage, best_pass}};
    max_pass = std::max(max_pass, best_pass);
    return true;
  };

  for (const bool steered : {false, true}) {
    for (std::size_t j = 0; j < plan.size(); ++j) {
      const bool in_steer = !steer.empty() && steer[j];
      if (in_steer == steered && !place(j, steered)) return false;
    }
  }
  return true;
}

int DataPlane::AssignRecMarks(std::vector<PlanStep>& plan) const {
  // Execution order within a pass is (stage, table position within the
  // stage) — the interpreter walks stages in order and each stage's
  // tables in creation order. The last-executed step of every
  // non-final pass carries REC so the packet recirculates into the
  // next pass.
  auto exec_key = [this](const PlanStep& step) {
    const auto& tables = pipeline_.stage(step.placement.stage).tables();
    int table_pos = 0;
    for (std::size_t t = 0; t < tables.size(); ++t) {
      if (tables[t].get() == step.slot->table) {
        table_pos = static_cast<int>(t);
        break;
      }
    }
    return std::pair<int, int>(step.placement.stage, table_pos);
  };

  int total_passes = 0;
  for (const PlanStep& step : plan) {
    total_passes = std::max(total_passes, step.placement.pass + 1);
  }
  std::vector<std::size_t> last(static_cast<std::size_t>(total_passes));
  std::vector<bool> seen(static_cast<std::size_t>(total_passes), false);
  for (std::size_t j = 0; j < plan.size(); ++j) {
    const auto p = static_cast<std::size_t>(plan[j].placement.pass);
    if (!seen[p] || exec_key(plan[last[p]]) < exec_key(plan[j])) {
      last[p] = j;
      seen[p] = true;
    }
    plan[j].placement.rec = false;
  }
  for (int p = 0; p + 1 < total_passes; ++p) {
    plan[last[static_cast<std::size_t>(p)]].placement.rec = true;
  }
  return total_passes;
}

AllocationPlan DataPlane::PlanSfc(const Sfc& sfc, std::optional<int> max_passes) const {
  AllocationPlan plan;
  AllocationResult& result = plan.allocation;
  const int pass_limit = max_passes.value_or(pipeline_.config().max_passes);

  if (sfc.chain.empty()) {
    result.code = AllocCode::kEmptyChain;
    result.error = "empty chain";
    return plan;
  }
  // Match logical NFs to physical slots; nothing below mutates a table.
  // The §IV walk is the reference every other planner must beat.
  std::vector<std::vector<std::size_t>> chain_order(sfc.chain.size());
  for (std::size_t j = 1; j < chain_order.size(); ++j) chain_order[j] = {j - 1};
  std::vector<PlanStep> steps;
  const bool sequential_ok = Schedule(sfc, pass_limit, chain_order, {}, {}, steps);
  const int sequential_passes = sequential_ok ? AssignRecMarks(steps) : 0;
  bool placed = sequential_ok;
  int total_passes = sequential_passes;

  PassPackingStats& stats = plan.packing;
  const switchsim::Planner planner = pipeline_.config().planner;
  if (planner != switchsim::Planner::kSequential) {
    // Dependency edges instead of chain order (DESIGN.md "Intra-chain
    // NF parallelism"): a conflicting pair keeps its chain order, an
    // independent pair may run either way round, even a pass apart.
    std::vector<std::uint64_t> rejects(3, 0);
    const auto preds = DependencyEdges(sfc, &rejects);
    stats.reject_field_conflict =
        rejects[static_cast<std::size_t>(MergeReject::kFieldConflict)];
    stats.reject_drop_gate = rejects[static_cast<std::size_t>(MergeReject::kDropGate)];
    std::vector<PlanStep> packed;
    if (Schedule(sfc, pass_limit, preds, {}, {}, packed)) {
      const int packed_passes = AssignRecMarks(packed);
      // Never-worse fallback: keep the sequential layout when greedy
      // packing needs at least as many passes.
      if (!placed || packed_passes < total_passes) {
        steps = std::move(packed);
        total_passes = packed_passes;
        placed = true;
      } else {
        stats.fallback_sequential = 1;
      }
    }
    if (planner == switchsim::Planner::kCoScheduled) {
      // Co-schedule against the windows the population holds, taken
      // only when it needs no more passes than the reference just
      // chosen (it may also place a chain the others could not).
      std::vector<PlanStep> co;
      const bool co_ok =
          Schedule(sfc, pass_limit, preds, SuccessorFree(preds), HeldWindows(), co);
      const int co_passes = co_ok ? AssignRecMarks(co) : 0;
      if (co_ok && (!placed || co_passes <= total_passes)) {
        steps = std::move(co);
        total_passes = co_passes;
        placed = true;
        stats.xt_allocations = 1;
      } else if (placed) {
        stats.xt_fallback = 1;
      }
    }
  }
  if (!placed) {
    result.code = AllocCode::kNoPlacement;
    result.error = "cannot place the chain within the recirculation budget";
    return plan;
  }
  stats.sequential = static_cast<std::uint64_t>(sequential_passes);
  stats.packed = static_cast<std::uint64_t>(total_passes);

  result.ok = true;
  result.passes = total_passes;
  result.sequential_passes = sequential_passes;
  result.placements.reserve(steps.size());
  for (const PlanStep& step : steps) result.placements.push_back(step.placement);
  return plan;
}

AllocationResult DataPlane::InstallSfc(const Sfc& sfc, const AllocationPlan& plan) {
  if (!plan.allocation.ok) return plan.allocation;
  SFP_CHECK_EQ(plan.allocation.placements.size(), sfc.chain.size());
  if (allocations_.contains(sfc.tenant)) {
    AllocationResult result;
    result.code = AllocCode::kAlreadyAllocated;
    result.error = "tenant already allocated";
    return result;
  }

  // Copy rules with the (tenant, pass) prefix. A rule install can fail
  // transiently under fault injection ("dataplane.install_rule" here,
  // "switchsim.table.add_entry" inside the table). On failure every
  // entry installed so far is unwound so the data plane is left exactly
  // as before the call.
  // Unwind sweeps every physical table, but tables holding none of
  // this tenant's rules are a no-op remove and keep their epoch and
  // the pipeline-wide mutation counter, so other tenants' compiled
  // plans stay on their one-load Validate fast path.
  auto unwind_install = [this, &sfc](const char* where) {
    for (auto& slot : slots_) slot.table->RemoveTenantEntries(sfc.tenant);
    InvalidatePlan(sfc.tenant);
    AllocationResult failed;
    failed.code = AllocCode::kInstallFault;
    failed.error = std::string("transient rule-install failure (") + where + ")";
    return failed;
  };

  Allocation allocation{plan.allocation, {}, {}};
  for (std::size_t j = 0; j < sfc.chain.size(); ++j) {
    const NfPlacement& placement = plan.allocation.placements[j];
    const auto& logical = sfc.chain[j];
    PhysicalNfSlot* slot = FindSlot(placement.stage, logical.type);
    SFP_CHECK_MSG(slot != nullptr, "allocation plan names a missing physical NF");
    allocation.entries[slot->table] += static_cast<std::int64_t>(logical.rules.size()) + 1;
    // PlanSfc flagged the execution-order-last NF of every non-final
    // pass.
    const bool rec = placement.rec;

    for (const auto& rule : logical.rules) {
      const std::string action_name = rec ? rule.action + "_rec" : rule.action;
      const auto it = slot->actions.find(action_name);
      SFP_CHECK_MSG(it != slot->actions.end(), "unknown NF action in rule");
      std::vector<FieldMatch> matches = {FieldMatch::Exact(sfc.tenant),
                                         FieldMatch::Exact(
                                             static_cast<std::uint64_t>(placement.pass))};
      for (const auto& m : rule.matches) matches.push_back(m);
      if (!InstallEntry(*slot->table, std::move(matches), it->second, rule.args, rule.priority,
                        sfc.tenant)) {
        return unwind_install(nf::NfFullName(logical.type));
      }
    }
    // Tenant catch-all: No-Op (or recirculating No-Op) at the lowest
    // priority so configured rules always win.
    const ActionId catch_all = rec ? slot->actions.at("noop_rec") : slot->noop;
    std::vector<FieldMatch> matches = {FieldMatch::Exact(sfc.tenant),
                                       FieldMatch::Exact(
                                           static_cast<std::uint64_t>(placement.pass))};
    for (std::size_t f = 0; f < slot->nf->KeySpec().size(); ++f) {
      matches.push_back(FieldMatch::Any());
    }
    if (!InstallEntry(*slot->table, std::move(matches), catch_all, {}, /*priority=*/-1000,
                      sfc.tenant)) {
      return unwind_install("catch-all");
    }
  }

  PassPackingStats stats = plan.packing;
  if (co_scheduled()) {
    // In chain order, a placement opens a window no allocation holds
    // and joins one that is held, by another tenant or by an earlier
    // NF of this chain (fallback installs count too: every allocation
    // holds its windows).
    WindowCounts held = HeldWindows();
    for (const NfPlacement& placement : plan.allocation.placements) {
      int& count = held[{placement.pass, placement.stage}];
      ++(count > 0 ? stats.xt_windows_joined : stats.xt_windows_opened);
      ++count;
    }
    allocation.sfc = sfc;
  }
  if (pipeline_.config().planner != switchsim::Planner::kSequential) RecordPassPacking(stats);
  allocations_[sfc.tenant] = std::move(allocation);
  // The tenant's rules just changed under any previously compiled plan
  // (re-admission after departure); the per-packet epoch check would
  // catch it, but invalidating here keeps the serve path fast.
  InvalidatePlan(sfc.tenant);
  SFP_LOG_DEBUG << "allocated tenant " << sfc.tenant << " over " << plan.allocation.passes
                << " pass(es)";
  return plan.allocation;
}

std::size_t DataPlane::DeallocateSfc(TenantId tenant) {
  std::size_t removed = 0;
  // Each per-table removal stamps the departed tenant's epoch only
  // where rules were actually removed; tables it held nothing in stay
  // put, so other tenants' compiled plans keep their stamps and their
  // one-load Validate fast path. The serve path may keep running
  // concurrently throughout.
  for (auto& slot : slots_) removed += slot.table->RemoveTenantEntries(tenant);
  allocations_.erase(tenant);
  InvalidatePlan(tenant);
  return removed;
}

std::vector<DataPlane::CompactionCandidate> DataPlane::PlanCompaction() const {
  std::vector<CompactionCandidate> candidates;
  if (!co_scheduled()) return candidates;
  const int pass_limit = pipeline_.config().max_passes;
  const WindowCounts held = HeldWindows();
  for (const auto& [tenant, allocation] : allocations_) {
    const int passes = allocation.result.passes;
    if (passes <= 1 || !allocation.sfc) continue;  // optimal, or nothing to re-plan
    const auto preds = DependencyEdges(*allocation.sfc);
    std::vector<PlanStep> probe;
    if (!Schedule(*allocation.sfc, pass_limit, preds, SuccessorFree(preds), held, probe)) {
      continue;
    }
    const int replanned = AssignRecMarks(probe);
    if (replanned < passes) candidates.push_back({tenant, passes, replanned});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const CompactionCandidate& a, const CompactionCandidate& b) {
              const int sa = a.current_passes - a.replanned_passes;
              const int sb = b.current_passes - b.replanned_passes;
              if (sa != sb) return sa > sb;
              return a.tenant < b.tenant;
            });
  return candidates;
}

std::vector<std::string> DataPlane::Audit() const {
  std::vector<std::string> issues;
  for (const auto& slot : slots_) {
    std::map<TenantId, std::int64_t> per_owner;
    for (const auto& entry : slot.table->entries()) ++per_owner[entry.owner_tenant];
    const std::string where = slot.table->name() + ": tenant ";
    for (const auto& [tenant, allocation] : allocations_) {
      const auto it = allocation.entries.find(slot.table);
      const std::int64_t booked = it != allocation.entries.end() ? it->second : 0;
      const auto node = per_owner.extract(tenant);
      const std::int64_t holds = node.empty() ? 0 : node.mapped();
      if (holds != booked) {
        issues.push_back(where + std::to_string(tenant) + " holds " + std::to_string(holds) +
                         " entries, its allocation books " + std::to_string(booked));
      }
    }
    for (const auto& [tenant, holds] : per_owner) {
      issues.push_back(where + std::to_string(tenant) + " holds " + std::to_string(holds) +
                       " entries and no allocation");
    }
  }
  if (!co_scheduled()) return issues;
  for (const auto& [tenant, allocation] : allocations_) {
    if (!allocation.sfc) {
      issues.push_back("tenant " + std::to_string(tenant) + " has no retained chain");
      continue;
    }
    std::int64_t booked = 0;
    for (const auto& [table, entries] : allocation.entries) booked += entries;
    // Rules + one catch-all per logical NF.
    const std::int64_t chain = allocation.sfc->TotalRules() + allocation.sfc->Length();
    if (chain != booked) {
      issues.push_back("tenant " + std::to_string(tenant) + " books " +
                       std::to_string(booked) + " entries, its retained chain expects " +
                       std::to_string(chain));
    }
  }
  return issues;
}

AllocationResult DataPlane::SwapSfc(TenantId tenant, const Sfc* sfc,
                                   const AllocationPlan* plan) {
  SFP_CHECK_EQ(sfc == nullptr, plan == nullptr);
  const auto it = allocations_.find(tenant);
  if (sfc == nullptr || it == allocations_.end()) {
    // One step only, and nothing to restore if it fails.
    if (sfc != nullptr) return InstallSfc(*sfc, *plan);
    DeallocateSfc(tenant);
    AllocationResult removed;
    removed.ok = true;
    return removed;
  }
  SFP_CHECK_EQ(sfc->tenant, tenant);
  auto injected = [](const char* step) {
    AllocationResult failed;
    failed.code = AllocCode::kInstallFault;
    failed.error = std::string("injected fault before ") + step + " (dataplane.apply_op)";
    return failed;
  };

  // Step 1: take the old entries out, keeping everything that puts
  // them back exactly: the entries themselves and the allocation
  // record.
  if (SFP_FAULT("dataplane.apply_op")) return injected("taking the old entries out");
  Allocation old = std::move(it->second);
  std::vector<std::pair<switchsim::MatchActionTable*, switchsim::TableEntry>> old_entries;
  for (auto& slot : slots_) {
    if (!old.entries.contains(slot.table)) continue;
    for (const auto& entry : slot.table->entries()) {
      if (entry.owner_tenant == tenant) old_entries.emplace_back(slot.table, entry);
    }
  }
  DeallocateSfc(tenant);

  // Step 2: install the plan exactly as it was checked.
  AllocationResult installed = SFP_FAULT("dataplane.apply_op")
                                   ? injected("installing the new plan")
                                   : InstallSfc(*sfc, *plan);
  if (installed.ok) return installed;

  // Roll back: InstallSfc unwound its partial install; re-add the old
  // entries at their old placements. Deletes cannot fault (FAULTS.md),
  // so each failed attempt unwinds cleanly before the next.
  constexpr int kRestoreAttempts = 3;
  for (int attempt = 0; attempt < kRestoreAttempts; ++attempt) {
    bool restored = true;
    for (const auto& [table, entry] : old_entries) {
      if (!InstallEntry(*table, entry.matches, entry.action, entry.args, entry.priority,
                        tenant)) {
        restored = false;
        break;
      }
    }
    if (restored) {
      allocations_.emplace(tenant, std::move(old));
      InvalidatePlan(tenant);
      return installed;
    }
    for (auto& slot : slots_) slot.table->RemoveTenantEntries(tenant);
  }
  InvalidatePlan(tenant);
  SFP_LOG_ERROR << "swap rollback failed to restore tenant " << tenant << ": "
                << installed.error;
  installed.code = AllocCode::kDiverged;
  installed.error += "; restoring the old entries failed too";
  return installed;
}

void DataPlane::RecordPassPacking(const PassPackingStats& stats) {
  if (stats.sequential != 0) passes_sequential_.Add(stats.sequential);
  if (stats.packed != 0) passes_packed_.Add(stats.packed);
  if (stats.reject_field_conflict != 0) {
    pack_reject_conflict_.Add(stats.reject_field_conflict);
  }
  if (stats.reject_drop_gate != 0) pack_reject_gate_.Add(stats.reject_drop_gate);
  if (stats.fallback_sequential != 0) pack_fallback_.Add(stats.fallback_sequential);
  if (stats.xt_allocations != 0) xt_allocations_.Add(stats.xt_allocations);
  if (stats.xt_windows_opened != 0) xt_windows_opened_.Add(stats.xt_windows_opened);
  if (stats.xt_windows_joined != 0) xt_windows_joined_.Add(stats.xt_windows_joined);
  if (stats.xt_fallback != 0) xt_fallback_.Add(stats.xt_fallback);
}

void DataPlane::RecordXtCompaction(std::uint64_t passes_saved) {
  xt_compactions_.Add(1);
  if (passes_saved != 0) xt_compaction_saved_.Add(passes_saved);
}

PassPackingStats DataPlane::pass_packing() const {
  PassPackingStats stats;
  stats.sequential = passes_sequential_.Value();
  stats.packed = passes_packed_.Value();
  stats.reject_field_conflict = pack_reject_conflict_.Value();
  stats.reject_drop_gate = pack_reject_gate_.Value();
  stats.fallback_sequential = pack_fallback_.Value();
  stats.xt_allocations = xt_allocations_.Value();
  stats.xt_windows_opened = xt_windows_opened_.Value();
  stats.xt_windows_joined = xt_windows_joined_.Value();
  stats.xt_fallback = xt_fallback_.Value();
  return stats;
}

void DataPlane::ExportMetrics(common::metrics::Registry& registry) const {
  pipeline_.ExportMetrics(registry);
  const PassPackingStats stats = pass_packing();
  registry.GetCounter("pipeline.passes.sequential").Set(stats.sequential);
  registry.GetCounter("pipeline.passes.packed").Set(stats.packed);
  registry.GetCounter("pipeline.passes.saved").Set(stats.sequential - stats.packed);
  registry.GetCounter("pipeline.passes.merge_rejects.field_conflict")
      .Set(stats.reject_field_conflict);
  registry.GetCounter("pipeline.passes.merge_rejects.drop_gate").Set(stats.reject_drop_gate);
  registry.GetCounter("pipeline.passes.fallback_sequential").Set(stats.fallback_sequential);
  if (co_scheduled()) {
    // Conditional like compiler.*: only co-scheduled runs carry the
    // parallelism.xt.* family, so per-tenant baselines stay unchanged.
    registry.GetCounter("parallelism.xt.allocations").Set(stats.xt_allocations);
    registry.GetCounter("parallelism.xt.windows_opened").Set(stats.xt_windows_opened);
    registry.GetCounter("parallelism.xt.windows_joined").Set(stats.xt_windows_joined);
    registry.GetCounter("parallelism.xt.fallback").Set(stats.xt_fallback);
    registry.GetCounter("parallelism.xt.compactions").Set(xt_compactions_.Value());
    registry.GetCounter("parallelism.xt.compaction_passes_saved")
        .Set(xt_compaction_saved_.Value());
  }
}

std::vector<std::vector<nf::NfType>> DataPlane::PhysicalLayout() const {
  std::vector<std::vector<nf::NfType>> layout(
      static_cast<std::size_t>(pipeline_.num_stages()));
  for (const auto& slot : slots_) {
    layout[static_cast<std::size_t>(slot.stage)].push_back(slot.type);
  }
  return layout;
}

}  // namespace sfp::dataplane
