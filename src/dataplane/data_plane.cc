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
  }
  return "unknown";
}

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

bool DataPlane::PlanSequential(const Sfc& sfc, int pass_limit,
                               std::vector<PlanStep>& plan) const {
  plan.clear();
  // Prospective extra entries per table, so capacity checks account for
  // earlier NFs of this same SFC landing in the same table.
  std::map<const switchsim::MatchActionTable*, std::int64_t> pending;

  int pass = 0;
  int cursor = 0;  // next candidate stage within the current pass
  for (std::size_t j = 0; j < sfc.chain.size(); ++j) {
    const auto& logical = sfc.chain[j];
    // Rules + one catch-all No-Op entry per logical NF.
    const std::int64_t entries = static_cast<std::int64_t>(logical.rules.size()) + 1;
    const PhysicalNfSlot* chosen = nullptr;
    while (chosen == nullptr) {
      for (int k = cursor; k < pipeline_.num_stages(); ++k) {
        auto* slot = FindSlot(k, logical.type);
        if (slot == nullptr) continue;
        const std::int64_t already = pending[slot->table];
        if (!pipeline_.stage(k).CanAddEntries(*slot->table, already + entries)) continue;
        chosen = slot;
        cursor = k + 1;
        break;
      }
      if (chosen != nullptr) break;
      // Fold into the next pass (§IV: "the SFC is folded and gets into
      // the pipeline in the next pass").
      ++pass;
      cursor = 0;
      if (pass >= pass_limit) return false;
    }
    pending[chosen->table] += entries;
    plan.push_back({chosen, NfPlacement{chosen->stage, pass}});
  }
  return true;
}

bool DataPlane::PlanPacked(const Sfc& sfc, int pass_limit, std::vector<PlanStep>& plan,
                           std::vector<std::uint64_t>& rejects) const {
  const std::size_t n = sfc.chain.size();
  plan.assign(n, PlanStep{});

  // Precedence edges: a conflicting pair (i before j in the chain)
  // must also execute in that order on the switch — either pass(i) <
  // pass(j), or the same pass with stage(i) < stage(j), which is
  // exactly the §IV same-pass semantics. An independent pair carries
  // no edge at all: either side may run first, even in an earlier
  // pass. Runs of mutually independent NFs (MergeRuns) are the
  // edge-free special case and collapse into one pass here.
  std::vector<NfEffects> effects;
  effects.reserve(n);
  for (const auto& logical : sfc.chain) effects.push_back(SummarizeNf(logical));
  const auto preds = BuildPrecedence(effects, &rejects);

  // Greedy list scheduling in chain order: each NF takes the earliest
  // (pass, stage) that (a) hosts its type with table capacity left,
  // (b) is not already claimed by this chain in that pass (two logical
  // NFs in one table would merge their (tenant, pass) rule sets), and
  // (c) executes after every conflicting predecessor.
  std::map<const switchsim::MatchActionTable*, std::int64_t> pending;
  std::vector<std::vector<const switchsim::MatchActionTable*>> claimed(
      static_cast<std::size_t>(pass_limit));
  for (std::size_t j = 0; j < n; ++j) {
    const auto& logical = sfc.chain[j];
    const std::int64_t entries = static_cast<std::int64_t>(logical.rules.size()) + 1;
    const PhysicalNfSlot* chosen = nullptr;
    int chosen_pass = 0;
    for (int p = 0; p < pass_limit && chosen == nullptr; ++p) {
      // Stage floor within pass p from the precedence edges; a
      // predecessor scheduled after pass p rules the pass out.
      int floor = 0;
      bool feasible = true;
      for (const std::size_t i : preds[j]) {
        if (plan[i].placement.pass > p) {
          feasible = false;
          break;
        }
        if (plan[i].placement.pass == p) {
          floor = std::max(floor, plan[i].placement.stage + 1);
        }
      }
      if (!feasible) continue;
      const auto& used = claimed[static_cast<std::size_t>(p)];
      for (int k = floor; k < pipeline_.num_stages(); ++k) {
        auto* slot = FindSlot(k, logical.type);
        if (slot == nullptr) continue;
        if (std::find(used.begin(), used.end(), slot->table) != used.end()) continue;
        const std::int64_t already = pending[slot->table];
        if (!pipeline_.stage(k).CanAddEntries(*slot->table, already + entries)) continue;
        chosen = slot;
        chosen_pass = p;
        break;
      }
    }
    if (chosen == nullptr) return false;  // no pass within the budget fits
    pending[chosen->table] += entries;
    claimed[static_cast<std::size_t>(chosen_pass)].push_back(chosen->table);
    plan[j] = PlanStep{chosen, NfPlacement{chosen->stage, chosen_pass}};
  }
  return true;
}

bool DataPlane::PlanCoScheduled(const Sfc& sfc, int pass_limit,
                                std::vector<PlanStep>& plan,
                                std::optional<TenantId> replan_tenant) const {
  const std::size_t n = sfc.chain.size();
  plan.assign(n, PlanStep{});

  std::vector<NfEffects> effects;
  effects.reserve(n);
  for (const auto& logical : sfc.chain) effects.push_back(SummarizeNf(logical));
  const auto preds = BuildPrecedence(effects);
  const auto successor_free = SuccessorFree(preds);

  // Compaction probes plan as if the tenant had already departed: its
  // installed entries are discounted from every capacity check and its
  // own claims don't count as open windows.
  std::map<const switchsim::MatchActionTable*, std::int64_t> pending;
  if (replan_tenant.has_value()) {
    for (const auto& [table, entries] : xt_ledger_.TenantFootprint(*replan_tenant)) {
      pending[table] = -entries;
    }
  }
  auto window_open = [this, &replan_tenant](int pass, int stage) {
    return replan_tenant.has_value()
               ? xt_ledger_.WindowOpenExcluding(pass, stage, *replan_tenant)
               : xt_ledger_.WindowOpen(pass, stage);
  };

  std::vector<std::vector<const switchsim::MatchActionTable*>> claimed(
      static_cast<std::size_t>(pass_limit));
  int max_pass = -1;  // highest pass index placed so far (-1: none)

  // Stage floor for NF j within pass p under the already-placed
  // precedence edges; false when a predecessor lands after pass p.
  auto pass_floor = [&](std::size_t j, int p, int& floor) {
    floor = 0;
    for (const std::size_t i : preds[j]) {
      if (plan[i].placement.pass > p) return false;
      if (plan[i].placement.pass == p) {
        floor = std::max(floor, plan[i].placement.stage + 1);
      }
    }
    return true;
  };

  auto commit = [&](std::size_t j, const PhysicalNfSlot* slot, int p,
                    std::int64_t entries) {
    pending[slot->table] += entries;
    claimed[static_cast<std::size_t>(p)].push_back(slot->table);
    plan[j] = PlanStep{slot, NfPlacement{slot->stage, p}};
    max_pass = std::max(max_pass, p);
  };

  // Phase 1: NFs some later NF depends on take the earliest feasible
  // (pass, stage), exactly like PlanPacked. Every predecessor of any
  // NF carries a successor by definition, so this prefix is closed
  // under the precedence relation: phase-2 NFs find all their
  // predecessors already placed.
  for (std::size_t j = 0; j < n; ++j) {
    if (successor_free[j]) continue;
    const auto& logical = sfc.chain[j];
    const std::int64_t entries = static_cast<std::int64_t>(logical.rules.size()) + 1;
    const PhysicalNfSlot* chosen = nullptr;
    for (int p = 0; p < pass_limit && chosen == nullptr; ++p) {
      int floor = 0;
      if (!pass_floor(j, p, floor)) continue;
      const auto& used = claimed[static_cast<std::size_t>(p)];
      for (int k = floor; k < pipeline_.num_stages(); ++k) {
        auto* slot = FindSlot(k, logical.type);
        if (slot == nullptr) continue;
        if (std::find(used.begin(), used.end(), slot->table) != used.end()) continue;
        const std::int64_t already = pending[slot->table];
        if (!pipeline_.stage(k).CanAddEntries(*slot->table, already + entries)) continue;
        chosen = slot;
        commit(j, slot, p, entries);
        break;
      }
    }
    if (chosen == nullptr) return false;
  }

  // Phase 2: successor-free NFs — nothing downstream constrains where
  // they run, so pick the feasible slot minimizing (extra passes over
  // the plan so far, latest stage, window not already open for another
  // tenant, pass index). Preferring *late* stages keeps scarce
  // early-stage table capacity for order-constrained chains — the
  // lever behind the aggregate pass savings — and among equal stages
  // the open-window bit lines this tenant's claims up with windows the
  // population already holds, so departures compact instead of
  // fragmenting. Extra passes dominate the score, so the per-tenant
  // plan never grows a pass just to steer late or join a window.
  for (std::size_t j = 0; j < n; ++j) {
    if (!successor_free[j]) continue;
    const auto& logical = sfc.chain[j];
    const std::int64_t entries = static_cast<std::int64_t>(logical.rules.size()) + 1;
    const PhysicalNfSlot* best = nullptr;
    int best_pass = 0;
    std::tuple<int, int, int, int> best_score{};
    for (int p = 0; p < pass_limit; ++p) {
      int floor = 0;
      if (!pass_floor(j, p, floor)) continue;
      const auto& used = claimed[static_cast<std::size_t>(p)];
      for (int k = floor; k < pipeline_.num_stages(); ++k) {
        auto* slot = FindSlot(k, logical.type);
        if (slot == nullptr) continue;
        if (std::find(used.begin(), used.end(), slot->table) != used.end()) continue;
        const std::int64_t already = pending[slot->table];
        if (!pipeline_.stage(k).CanAddEntries(*slot->table, already + entries)) continue;
        const int extra = p > max_pass ? p - max_pass : 0;
        const std::tuple<int, int, int, int> score{
            extra, -k, window_open(p, k) ? 0 : 1, p};
        if (best == nullptr || score < best_score) {
          best = slot;
          best_pass = p;
          best_score = score;
        }
      }
    }
    if (best == nullptr) return false;
    commit(j, best, best_pass, entries);
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
  if (allocations_.contains(sfc.tenant)) {
    result.code = AllocCode::kAlreadyAllocated;
    result.error = "tenant already allocated";
    return plan;
  }

  // Match logical NFs to physical slots; nothing below mutates a table.
  std::vector<PlanStep> steps;
  std::vector<PlanStep> sequential;
  const bool sequential_ok = PlanSequential(sfc, pass_limit, sequential);
  const int sequential_passes = sequential_ok ? AssignRecMarks(sequential) : 0;

  switchsim::Pipeline::PassPackingStats& stats = plan.packing;
  const bool xt = pipeline_.config().cross_tenant_packing;
  // Cross-tenant co-scheduling implies dependency-aware planning: the
  // packed per-tenant plan is the reference the co-scheduled plan must
  // never be worse than.
  const bool dependency_aware = pipeline_.config().nf_parallelism || xt;
  bool use_packed = false;
  bool use_xt = false;
  int total_passes = sequential_passes;
  if (dependency_aware) {
    std::vector<std::uint64_t> rejects(3, 0);
    std::vector<PlanStep> packed;
    const bool packed_ok = PlanPacked(sfc, pass_limit, packed, rejects);
    const int packed_passes = packed_ok ? AssignRecMarks(packed) : 0;
    stats.reject_field_conflict =
        rejects[static_cast<std::size_t>(MergeReject::kFieldConflict)];
    stats.reject_drop_gate = rejects[static_cast<std::size_t>(MergeReject::kDropGate)];
    // Never-worse fallback: keep the sequential reference layout when
    // greedy packing needs at least as many passes (or failed).
    use_packed = packed_ok && (!sequential_ok || packed_passes < sequential_passes);
    if (sequential_ok && packed_ok && packed_passes >= sequential_passes) {
      stats.fallback_sequential = 1;
    }
    if (use_packed) {
      steps = std::move(packed);
      total_passes = packed_passes;
    }
  }
  if (xt) {
    // Co-schedule against the fabric-wide stage-window ledger. The
    // per-tenant never-worse guard compares against the reference the
    // packed-vs-sequential selection just made: the co-scheduled plan
    // is taken only when it needs no more passes (it may also succeed
    // where the per-tenant planners failed, extending admissibility).
    std::vector<PlanStep> co;
    const bool co_ok = PlanCoScheduled(sfc, pass_limit, co);
    const int co_passes = co_ok ? AssignRecMarks(co) : 0;
    const bool have_reference = use_packed || sequential_ok;
    const int reference_passes = use_packed ? total_passes : sequential_passes;
    use_xt = co_ok && (!have_reference || co_passes <= reference_passes);
    if (use_xt) {
      steps = std::move(co);
      total_passes = co_passes;
    } else if (have_reference) {
      stats.xt_fallback = 1;
    }
  }
  if (!use_packed && !use_xt) {
    if (!sequential_ok) {
      result.code = AllocCode::kNoPlacement;
      result.error = "cannot place the chain within the recirculation budget";
      return plan;
    }
    steps = std::move(sequential);
  }
  stats.sequential = static_cast<std::uint64_t>(sequential_passes);
  stats.packed = static_cast<std::uint64_t>(total_passes);
  stats.xt_allocations = use_xt ? 1 : 0;

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
  // this tenant's rules are a no-op remove and keep their lookup epoch,
  // so in-flight workers' memoized decisions for other tenants stay
  // valid (flow_cache.h invalidation contract).
  auto unwind_install = [this, &sfc](const char* where) {
    for (auto& slot : slots_) slot.table->RemoveTenantEntries(sfc.tenant);
    InvalidatePlan(sfc.tenant);
    AllocationResult failed;
    failed.code = AllocCode::kInstallFault;
    failed.error = std::string("transient rule-install failure (") + where + ")";
    return failed;
  };

  std::vector<PhysicalNfSlot*> slots;
  slots.reserve(sfc.chain.size());
  for (std::size_t j = 0; j < sfc.chain.size(); ++j) {
    const NfPlacement& placement = plan.allocation.placements[j];
    const auto& logical = sfc.chain[j];
    PhysicalNfSlot* slot = FindSlot(placement.stage, logical.type);
    SFP_CHECK_MSG(slot != nullptr, "allocation plan names a missing physical NF");
    slots.push_back(slot);
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
      if (SFP_FAULT("dataplane.install_rule") ||
          slot->table->AddEntry(std::move(matches), it->second, rule.args, rule.priority,
                                sfc.tenant) == switchsim::kInvalidEntryHandle) {
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
    if (SFP_FAULT("dataplane.install_rule") ||
        slot->table->AddEntry(std::move(matches), catch_all, {}, /*priority=*/-1000,
                              sfc.tenant) == switchsim::kInvalidEntryHandle) {
      return unwind_install("catch-all");
    }
  }

  switchsim::Pipeline::PassPackingStats stats = plan.packing;
  const bool xt = pipeline_.config().cross_tenant_packing;
  if (xt) {
    // Book the installed placements in the shared ledger (one claim
    // per logical NF) — also for non-co-scheduled installs, so the
    // ledger mirrors the pipeline's whole occupancy and later tenants
    // see every open window.
    std::vector<StageWindowLedger::Claim> claims;
    claims.reserve(slots.size());
    for (std::size_t j = 0; j < slots.size(); ++j) {
      const NfPlacement& placement = plan.allocation.placements[j];
      claims.push_back({placement.pass, placement.stage, slots[j]->table,
                        static_cast<std::int64_t>(sfc.chain[j].rules.size()) + 1});
    }
    const auto [opened, joined] = xt_ledger_.Commit(sfc.tenant, std::move(claims));
    stats.xt_windows_opened = opened;
    stats.xt_windows_joined = joined;
    retained_[sfc.tenant] = sfc;
  }
  if (pipeline_.config().nf_parallelism || xt) pipeline_.RecordPassPacking(stats);
  allocations_[sfc.tenant] = plan.allocation;
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
  // Each per-table removal bumps that table's lookup epoch (only where
  // rules were actually removed), which invalidates exactly the flow
  // decision caches that could name the departed tenant's entries; the
  // serve path may keep running concurrently throughout.
  for (auto& slot : slots_) removed += slot.table->RemoveTenantEntries(tenant);
  allocations_.erase(tenant);
  // No-ops unless cross_tenant_packing booked the tenant at admit.
  xt_ledger_.Release(tenant);
  retained_.erase(tenant);
  InvalidatePlan(tenant);
  return removed;
}

std::vector<DataPlane::CompactionCandidate> DataPlane::PlanCompaction() const {
  std::vector<CompactionCandidate> candidates;
  if (!pipeline_.config().cross_tenant_packing) return candidates;
  const int pass_limit = pipeline_.config().max_passes;
  for (const auto& [tenant, allocation] : allocations_) {
    if (allocation.passes <= 1) continue;  // already optimal
    const auto it = retained_.find(tenant);
    if (it == retained_.end()) continue;
    std::vector<PlanStep> probe;
    if (!PlanCoScheduled(it->second, pass_limit, probe, tenant)) continue;
    const int replanned = AssignRecMarks(probe);
    if (replanned < allocation.passes) {
      candidates.push_back({tenant, allocation.passes, replanned});
    }
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

std::vector<std::string> DataPlane::AuditXtLedger() const {
  std::vector<std::string> issues;
  if (!pipeline_.config().cross_tenant_packing) return issues;
  for (const auto& [tenant, allocation] : allocations_) {
    if (!xt_ledger_.HasTenant(tenant)) {
      issues.push_back("tenant " + std::to_string(tenant) +
                       " allocated but missing from the ledger");
    }
  }
  for (const auto& [tenant, claims] : xt_ledger_.claims()) {
    if (!allocations_.contains(tenant)) {
      issues.push_back("tenant " + std::to_string(tenant) +
                       " in the ledger but not allocated");
      continue;
    }
    const auto it = retained_.find(tenant);
    if (it == retained_.end()) {
      issues.push_back("tenant " + std::to_string(tenant) + " has no retained SFC");
      continue;
    }
    std::int64_t expected = 0;
    for (const auto& logical : it->second.chain) {
      expected += static_cast<std::int64_t>(logical.rules.size()) + 1;
    }
    if (xt_ledger_.TenantEntries(tenant) != expected) {
      issues.push_back("tenant " + std::to_string(tenant) + " books " +
                       std::to_string(xt_ledger_.TenantEntries(tenant)) +
                       " ledger entries, chain expects " + std::to_string(expected));
    }
  }
  // Window aggregates must equal the per-tenant claims that formed them.
  std::map<StageWindowLedger::WindowKey, StageWindowLedger::Window> recomputed;
  for (const auto& [tenant, claims] : xt_ledger_.claims()) {
    for (const auto& claim : claims) {
      auto& window = recomputed[{claim.pass, claim.stage}];
      ++window.claims;
      window.entries += claim.entries;
    }
  }
  if (recomputed.size() != xt_ledger_.windows().size()) {
    issues.push_back("window count diverges from the committed claims");
  } else {
    for (const auto& [key, window] : xt_ledger_.windows()) {
      const auto it = recomputed.find(key);
      if (it == recomputed.end() || it->second.claims != window.claims ||
          it->second.entries != window.entries) {
        issues.push_back("window (pass " + std::to_string(key.first) + ", stage " +
                         std::to_string(key.second) + ") occupancy diverges");
      }
    }
  }
  // And the ledger total must equal the rules actually installed.
  if (xt_ledger_.TotalEntries() != pipeline_.TotalEntriesUsed()) {
    issues.push_back("ledger books " + std::to_string(xt_ledger_.TotalEntries()) +
                     " entries, pipeline holds " +
                     std::to_string(pipeline_.TotalEntriesUsed()));
  }
  return issues;
}

DataPlane::BatchResult DataPlane::ApplyAtomic(const std::vector<UpdateOp>& ops) {
  BatchResult result;
  std::vector<int> completed;  // indices of ops applied so far

  auto undo = [this, &ops, &completed, &result]() {
    for (auto it = completed.rbegin(); it != completed.rend(); ++it) {
      const UpdateOp& op = ops[static_cast<std::size_t>(*it)];
      if (op.kind == UpdateOp::Kind::kAdmit) {
        DeallocateSfc(op.sfc.tenant);
        continue;
      }
      // The SFC fit before the batch and all later ops are already
      // undone, so re-allocation into the restored resources succeeds
      // (possibly at a different feasible placement) — unless a second
      // fault hits the restore itself. Transient install faults are
      // retried a bounded number of times; a persistent failure is
      // reported as a consistency divergence rather than aborting.
      AllocationResult restored;
      for (int attempt = 0; attempt < 3; ++attempt) {
        restored = AllocateSfc(op.sfc);
        if (restored.ok || !restored.transient()) break;
      }
      if (!restored.ok) {
        SFP_LOG_ERROR << "atomic-update rollback failed to restore tenant "
                      << op.sfc.tenant << ": " << restored.error;
        result.consistency = BatchResult::Consistency::kDiverged;
        result.lost_tenants.push_back(op.sfc.tenant);
      }
    }
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const UpdateOp& op = ops[i];
    if (SFP_FAULT("dataplane.apply_op")) {
      undo();
      result.failed_op = static_cast<int>(i);
      result.error = "injected fault before op";
      return result;
    }
    if (op.kind == UpdateOp::Kind::kAdmit) {
      const auto allocation = AllocateSfc(op.sfc);
      if (!allocation.ok) {
        undo();
        result.failed_op = static_cast<int>(i);
        result.error = allocation.error;
        return result;
      }
    } else {
      if (!allocations_.contains(op.sfc.tenant)) {
        undo();
        result.failed_op = static_cast<int>(i);
        result.error = "tenant not allocated";
        return result;
      }
      DeallocateSfc(op.sfc.tenant);
    }
    completed.push_back(static_cast<int>(i));
  }
  result.ok = true;
  return result;
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
