// SFP data plane (§IV): physical NFs on a shared pipeline, virtualized
// to host many tenants' logical SFCs.
//
// Physical NFs are pre-installed, one (type, stage) pair each. Every
// physical NF's match key is the NF's own key *prefixed with two exact
// fields*: the tenant ID and the recirculation pass. Its default rule
// is "No-Op" — forward to the next stage untouched.
//
// Allocating a logical SFC walks the chain through the pipeline in
// passes (the §IV algorithm): starting at stage 0 of pass 0, each
// logical NF is matched to the nearest later physical NF of its type
// with spare memory; when the pipeline end is reached the chain is
// "folded" into the next pass. That walk is one list scheduler
// (DataPlane::Schedule) run on chain-order precedence edges; the other
// SwitchConfig::planner modes run it on dependency edges. Rules are
// copied with the (tenant, pass) prefix; the rules of the last NF of
// every non-final pass use the REC action variant so the packet
// recirculates.
// Additionally a lowest-priority per-(tenant, pass) catch-all No-Op
// rule is installed on that last NF so tenant traffic that misses every
// configured rule still recirculates and completes its chain.
//
// Planning is pure and always runs against the tables minus the
// planned tenant's own entries, so a re-provision plans exactly as if
// the tenant had departed. SwapSfc then replaces a tenant's allocation
// with such a plan all-or-nothing (§V-E): it is the one mutation
// SfpSystem's control-plane transaction makes.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "dataplane/sfc.h"
#include "switchsim/pipeline.h"

namespace sfp::dataplane {

/// Where one logical NF landed.
struct NfPlacement {
  int stage = 0;
  int pass = 0;
  /// The NF's rules take the REC action variant: it executes last in a
  /// non-final pass, so the packet recirculates after it.
  bool rec = false;
};

/// Failure class of AllocateSfc / SwapSfc, so callers can branch
/// without string matching. kInstallFault is the one *transient*
/// class: the placement was feasible but a rule install failed
/// mid-flight (only possible under fault injection) — retrying is
/// sensible.
enum class AllocCode : std::uint8_t {
  kOk = 0,
  kEmptyChain,
  kAlreadyAllocated,
  kNoPlacement,
  kInstallFault,
  /// A failed swap could not re-add the tenant's old entries either:
  /// the tenant now holds no entries and no allocation.
  kDiverged,
};

const char* AllocCodeName(AllocCode code);

/// Result of AllocateSfc.
struct AllocationResult {
  bool ok = false;
  AllocCode code = AllocCode::kOk;
  /// Reason when !ok.
  std::string error;
  /// Per-logical-NF placement, parallel to the chain.
  std::vector<NfPlacement> placements;
  /// Total passes the tenant's traffic makes (R_l + 1).
  int passes = 0;
  /// Passes the chain-order reference plan needs (== passes unless a
  /// packing SwitchConfig::planner put independent NFs together; 0
  /// when even the sequential plan is infeasible within the pass
  /// budget but packing found a layout).
  int sequential_passes = 0;

  /// True when retrying the same call may succeed (injected transient
  /// install failure rather than a deterministic capacity/shape miss).
  bool transient() const { return code == AllocCode::kInstallFault; }
};

/// The allocator's pass-packing tallies: one allocation's, or the
/// running totals of every installed one (exported as
/// pipeline.passes.* and parallelism.xt.*; see docs/METRICS.md). All
/// zero under the default Planner::kSequential.
struct PassPackingStats {
  /// Passes the chain-order reference plan would have used.
  std::uint64_t sequential = 0;
  /// Passes the installed (packed) plan uses.
  std::uint64_t packed = 0;
  /// Adjacent-NF merges rejected by a field-level conflict.
  std::uint64_t reject_field_conflict = 0;
  /// Merges rejected because a drop decision gates a stateful NF.
  std::uint64_t reject_drop_gate = 0;
  /// Packed plans discarded for the sequential reference (the
  /// never-worse fallback: greedy packing needed more passes).
  std::uint64_t fallback_sequential = 0;
  /// Cross-tenant co-scheduling tallies (parallelism.xt.*; all zero
  /// unless Planner::kCoScheduled).
  /// Allocations that installed the co-scheduled plan.
  std::uint64_t xt_allocations = 0;
  /// Placements that opened a new (pass, stage) window.
  std::uint64_t xt_windows_opened = 0;
  /// Placements that joined a window already held (by another tenant,
  /// or by an earlier NF of the same chain).
  std::uint64_t xt_windows_joined = 0;
  /// Co-scheduled plans discarded for the per-tenant reference (the
  /// never-worse fallback: co-scheduling needed more passes).
  std::uint64_t xt_fallback = 0;
};

/// A pure allocation plan (DataPlane::PlanSfc): where each logical NF
/// of one SFC would land against the current tables minus the tenant's
/// own entries, computed without touching them. Valid for
/// DataPlane::InstallSfc / SwapSfc until the next (de)allocation.
struct AllocationPlan {
  /// What AllocateSfc reports for this plan: on success the per-NF
  /// placements and pass counts, otherwise the deterministic failure
  /// (kEmptyChain, kNoPlacement).
  AllocationResult allocation;
  /// Planner tallies, booked into the data plane's pass-packing
  /// totals only when the plan is installed.
  PassPackingStats packing;
};

/// The SFP data plane: a switch pipeline plus the virtualization layer.
class DataPlane {
 public:
  explicit DataPlane(switchsim::SwitchConfig config = {});

  /// Pre-installs a physical NF of `type` at `stage`. At most one NF
  /// of each type per stage; fails (false) when the stage has no spare
  /// block or already hosts this type.
  bool InstallPhysicalNf(int stage, nf::NfType type);

  /// True if a physical NF of `type` exists at `stage`.
  bool HasPhysicalNf(int stage, nf::NfType type) const;

  /// The NF instance backing the physical NF at (stage, type), e.g. to
  /// register load-balancer pools; nullptr if absent.
  nf::NetworkFunction* PhysicalNf(int stage, nf::NfType type);

  /// Plans a tenant SFC onto the physical pipeline without installing
  /// anything (the §IV placement: passes, folding, REC marks), so the
  /// control plane can run admission control on the planned pass count
  /// before any table mutates. The plan is made against the tables
  /// minus `sfc.tenant`'s own allocation — exactly what it would be
  /// after DeallocateSfc of that tenant — so a re-provision plans as if
  /// the tenant had departed. `max_passes` bounds folding (defaults to
  /// the switch config's recirculation guard).
  AllocationPlan PlanSfc(const Sfc& sfc, std::optional<int> max_passes = {}) const;

  /// Installs a PlanSfc plan for a tenant that holds no allocation:
  /// copies the tenant's rules with the (tenant, pass) prefix and books
  /// the allocation. A failed plan is returned as is. A transient
  /// rule-install fault unwinds every entry installed so far
  /// (kInstallFault), leaving the data plane unchanged and the plan
  /// still valid for a retry.
  AllocationResult InstallSfc(const Sfc& sfc, const AllocationPlan& plan);

  /// PlanSfc followed by InstallSfc. On failure the data plane is left
  /// unchanged.
  AllocationResult AllocateSfc(const Sfc& sfc, std::optional<int> max_passes = {}) {
    return InstallSfc(sfc, PlanSfc(sfc, max_passes));
  }

  /// Removes every rule of `tenant` and forgets its allocation.
  /// Returns the number of rules removed.
  std::size_t DeallocateSfc(TenantId tenant);

  /// Replaces `tenant`'s allocation all-or-nothing (§V-E runtime
  /// update): takes its installed entries out (all of them when `sfc`
  /// and `plan` are null), then installs `plan` exactly as planned. On
  /// a transient fault the new entries are unwound and the old ones
  /// re-added at their old placements (kInstallFault: retry the same
  /// plan); a re-add that keeps faulting leaves the tenant with
  /// nothing (kDiverged). "dataplane.apply_op" is checked before each
  /// step of a swap that replaces an installed allocation.
  AllocationResult SwapSfc(TenantId tenant, const Sfc* sfc, const AllocationPlan* plan);

  /// True if the tenant currently has an allocated SFC.
  bool IsAllocated(TenantId tenant) const { return allocations_.contains(tenant); }

  /// The tenant's current allocation (placements + pass count), or
  /// nullptr when none. Valid until the next (de)allocation.
  const AllocationResult* FindAllocation(TenantId tenant) const {
    const auto it = allocations_.find(tenant);
    return it != allocations_.end() ? &it->second.result : nullptr;
  }

  /// Runs one packet through the shared pipeline.
  switchsim::ProcessResult Process(const net::Packet& packet) {
    return pipeline_.Process(packet);
  }

  /// Batched serve path: shards the batch by flow across a worker pool
  /// (see switchsim::Pipeline::ProcessBatch). Safe to run while another
  /// thread admits or removes tenants; physical-NF installation must
  /// stay quiesced.
  std::vector<switchsim::ProcessResult> ProcessBatch(
      std::span<const net::Packet> packets, const switchsim::BatchOptions& options = {}) {
    return pipeline_.ProcessBatch(packets, options);
  }

  /// ProcessBatch into a caller-reused result buffer (steady-state
  /// serving without per-batch allocation; see
  /// switchsim::Pipeline::ProcessBatchInto).
  void ProcessBatchInto(std::span<const net::Packet> packets,
                        std::span<switchsim::ProcessResult> results,
                        const switchsim::BatchOptions& options = {}) {
    pipeline_.ProcessBatchInto(packets, results, options);
  }

  /// Turns on the pipeline compiler (docs/COMPILER.md) for the batched
  /// serve path: per-tenant plans are compiled from the installed rules
  /// and executed by the batch workers, with interpreted fallback per
  /// tenant. Action traits are derived from each physical NF's
  /// TraitsOf. Call after installing the physical layout; installing
  /// another physical NF later rebuilds the metadata (dropping all
  /// cached plans). Installs, departures and swaps proactively
  /// invalidate the affected tenant's plan.
  void EnableCompiledPlans();
  bool compiled_plans_enabled() const { return pipeline_.compiler_enabled(); }

  switchsim::Pipeline& pipeline() { return pipeline_; }
  const switchsim::Pipeline& pipeline() const { return pipeline_; }

  /// The SFC a tenant was admitted with (kept in its allocation for
  /// departure-time window compaction; Planner::kCoScheduled only).
  /// nullptr when unknown. Valid until the next (de)allocation.
  const Sfc* RetainedSfc(TenantId tenant) const {
    const auto it = allocations_.find(tenant);
    return it != allocations_.end() && it->second.sfc ? &*it->second.sfc : nullptr;
  }

  /// One tenant whose retained SFC would re-plan into fewer passes
  /// against the other tenants' current allocations.
  struct CompactionCandidate {
    TenantId tenant = 0;
    int current_passes = 0;
    int replanned_passes = 0;
  };

  /// Probes every allocated multi-pass tenant for a window-compaction
  /// win (pure — nothing is moved). Candidates are sorted biggest
  /// pass saving first, ties by tenant id, so SfpSystem::RemoveTenant
  /// moves them deterministically through its control-plane
  /// transaction. Empty unless Planner::kCoScheduled.
  std::vector<CompactionCandidate> PlanCompaction() const;

  /// Checks the installed tables against the allocation books (empty
  /// == consistent, entries describe violations): every physical table
  /// holds, per owner tenant, exactly the entries that tenant's
  /// allocation books there, so no table holds entries of a tenant
  /// without one; under Planner::kCoScheduled each retained chain's
  /// Σ (rules + 1) also equals its allocation's booked entries.
  /// O(installed entries); call with no control op in flight.
  std::vector<std::string> Audit() const;

  /// All physical NF types installed per stage (for inspection/P4 gen).
  std::vector<std::vector<nf::NfType>> PhysicalLayout() const;

  /// Packing tallies summed over every installed allocation.
  PassPackingStats pass_packing() const;

  /// Accumulates one departure-time window-compaction move that
  /// re-provisioned a tenant into `passes_saved` fewer passes
  /// (SfpSystem only; exported as parallelism.xt.compaction*).
  void RecordXtCompaction(std::uint64_t passes_saved);
  std::uint64_t xt_compactions() const { return xt_compactions_.Value(); }
  std::uint64_t xt_compaction_passes_saved() const { return xt_compaction_saved_.Value(); }

  /// The pipeline's counters (switchsim::Pipeline::ExportMetrics) plus
  /// the allocator's tallies: pipeline.passes.*, and parallelism.xt.*
  /// under Planner::kCoScheduled (docs/METRICS.md).
  void ExportMetrics(common::metrics::Registry& registry) const;

 private:
  struct PhysicalNfSlot {
    nf::NfType type;
    int stage;
    std::unique_ptr<nf::NetworkFunction> nf;
    switchsim::MatchActionTable* table;  // owned by the pipeline stage
    std::map<std::string, switchsim::ActionId> actions;
    switchsim::ActionId noop = -1;
  };

  PhysicalNfSlot* FindSlot(int stage, nf::NfType type);
  const PhysicalNfSlot* FindSlot(int stage, nf::NfType type) const;

  /// One allocated tenant: its allocation, the entries it holds per
  /// table (what planning "minus the tenant" discounts), and under
  /// Planner::kCoScheduled the chain compaction re-plans.
  struct Allocation {
    AllocationResult result;
    switchsim::EntryDeltas entries;
    std::optional<Sfc> sfc;
  };

  /// Logical-NF placements per (pass, stage) window: the stage-window
  /// occupancy the co-scheduler steers against (DESIGN.md
  /// "Cross-tenant pass sharing").
  using WindowCounts = std::map<std::pair<int, int>, int>;

  /// Every allocation's placements per window, in one pass.
  WindowCounts HeldWindows() const;

  /// The capacity deltas every planner starts from: `tenant`'s own
  /// installed entries, negated (empty when it holds none).
  switchsim::EntryDeltas OwnEntriesOut(TenantId tenant) const;

  /// One planned rule-copy target: which physical slot hosts logical
  /// NF j, at which (stage, pass), and whether its rules carry the REC
  /// variant (execution-order-last step of a non-final pass).
  struct PlanStep {
    const PhysicalNfSlot* slot = nullptr;
    NfPlacement placement;
  };

  bool co_scheduled() const {
    return pipeline_.config().planner == switchsim::Planner::kCoScheduled;
  }

  /// The one list scheduler behind every planner. Pure (no installs).
  /// A slot (pass p, stage k) is feasible for NF j when the stage hosts
  /// j's type, the chain has not claimed that table in pass p (two
  /// logical NFs in one table would merge their (tenant, pass) rule
  /// sets), the stage memory takes j's rules with the tenant's own
  /// entries out and this plan's earlier ones in, and every
  /// predecessor in `preds[j]` runs before it (an earlier pass, or an
  /// earlier stage of pass p). Each NF not in `steer` takes, in chain
  /// order, the earliest feasible slot. Each NF in `steer` then takes
  /// the feasible slot with the lowest (passes added to the plan so
  /// far, -stage, window not already open for another tenant, pass):
  /// late stages keep early-stage capacity for order-constrained
  /// chains, and open windows (`held` minus the tenant's own
  /// placements) line placements up across tenants. `steer` (empty:
  /// none) must be successor-free, so every NF finds its predecessors
  /// placed. preds[j] = {j - 1} is the paper's §IV walk. Returns false
  /// when some NF fits no slot within `pass_limit`.
  bool Schedule(const Sfc& sfc, int pass_limit,
                const std::vector<std::vector<std::size_t>>& preds,
                const std::vector<bool>& steer, const WindowCounts& held,
                std::vector<PlanStep>& plan) const;

  /// Marks the execution-order-last step of every non-final pass with
  /// the REC flag (stage order, then table order within the stage —
  /// the interpreter's execution order) and returns the pass count.
  int AssignRecMarks(std::vector<PlanStep>& plan) const;

  /// Drops `tenant`'s compiled plan after a rule mutation (no-op while
  /// the compiler is off or the tenant has no cached plan).
  void InvalidatePlan(TenantId tenant);

  /// Adds one installed allocation's tallies to the running totals.
  void RecordPassPacking(const PassPackingStats& stats);

  switchsim::Pipeline pipeline_;
  std::vector<PhysicalNfSlot> slots_;
  /// tenant -> its allocation: the one record of what is installed.
  std::map<TenantId, Allocation> allocations_;
  /// Running PassPackingStats totals and compaction tallies (relaxed
  /// atomics, so ExportMetrics may run beside the control plane).
  common::metrics::RelaxedCounter passes_sequential_;
  common::metrics::RelaxedCounter passes_packed_;
  common::metrics::RelaxedCounter pack_reject_conflict_;
  common::metrics::RelaxedCounter pack_reject_gate_;
  common::metrics::RelaxedCounter pack_fallback_;
  common::metrics::RelaxedCounter xt_allocations_;
  common::metrics::RelaxedCounter xt_windows_opened_;
  common::metrics::RelaxedCounter xt_windows_joined_;
  common::metrics::RelaxedCounter xt_fallback_;
  common::metrics::RelaxedCounter xt_compactions_;
  common::metrics::RelaxedCounter xt_compaction_saved_;
};

}  // namespace sfp::dataplane
