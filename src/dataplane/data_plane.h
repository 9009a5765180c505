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
// "folded" into the next pass. Rules are copied with the
// (tenant, pass) prefix; the rules of the last NF of every non-final
// pass use the REC action variant so the packet recirculates.
// Additionally a lowest-priority per-(tenant, pass) catch-all No-Op
// rule is installed on that last NF so tenant traffic that misses every
// configured rule still recirculates and completes its chain.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataplane/sfc.h"
#include "dataplane/stage_window.h"
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

/// Failure class of AllocateSfc, so callers can branch without string
/// matching. kInstallFault is the one *transient* class: the placement
/// was feasible but a rule install failed mid-flight (only possible
/// under fault injection) — retrying is sensible.
enum class AllocCode : std::uint8_t {
  kOk = 0,
  kEmptyChain,
  kAlreadyAllocated,
  kNoPlacement,
  kInstallFault,
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
  /// Passes the chain-order reference plan needs (== passes unless
  /// SwitchConfig::nf_parallelism packed independent NFs together; 0
  /// when even the sequential plan is infeasible within the pass
  /// budget but packing found a layout).
  int sequential_passes = 0;

  /// True when retrying the same call may succeed (injected transient
  /// install failure rather than a deterministic capacity/shape miss).
  bool transient() const { return code == AllocCode::kInstallFault; }
};

/// A pure allocation plan (DataPlane::PlanSfc): where each logical NF
/// of one SFC would land against the current tables, computed without
/// touching them. Valid for DataPlane::InstallSfc until the next
/// (de)allocation.
struct AllocationPlan {
  /// What AllocateSfc reports for this plan: on success the per-NF
  /// placements and pass counts, otherwise the deterministic failure
  /// (kEmptyChain, kAlreadyAllocated, kNoPlacement).
  AllocationResult allocation;
  /// Planner tallies, booked into the pipeline's pass-packing counters
  /// only when the plan is installed.
  switchsim::Pipeline::PassPackingStats packing;
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
  /// before any table mutates. `max_passes` bounds folding (defaults to
  /// the switch config's recirculation guard).
  AllocationPlan PlanSfc(const Sfc& sfc, std::optional<int> max_passes = {}) const;

  /// Installs a PlanSfc plan: copies the tenant's rules with the
  /// (tenant, pass) prefix and books the allocation. A failed plan is
  /// returned as is. A transient rule-install fault unwinds every entry
  /// installed so far (kInstallFault), leaving the data plane unchanged
  /// and the plan still valid for a retry.
  AllocationResult InstallSfc(const Sfc& sfc, const AllocationPlan& plan);

  /// PlanSfc followed by InstallSfc. On failure the data plane is left
  /// unchanged.
  AllocationResult AllocateSfc(const Sfc& sfc, std::optional<int> max_passes = {}) {
    return InstallSfc(sfc, PlanSfc(sfc, max_passes));
  }

  /// Removes every rule of `tenant` and forgets its allocation.
  /// Returns the number of rules removed.
  std::size_t DeallocateSfc(TenantId tenant);

  /// One operation of an atomic update batch. Removals carry the
  /// tenant's SFC so a failed batch can restore it.
  struct UpdateOp {
    enum class Kind { kAdmit, kRemove };
    Kind kind = Kind::kAdmit;
    Sfc sfc;
  };

  /// Result of ApplyAtomic.
  struct BatchResult {
    /// Rollback verdict. kConsistent: the data plane serves exactly as
    /// before the batch (the all-or-nothing guarantee held). kDiverged:
    /// a second fault hit *during rollback* and one or more removed
    /// SFCs could not be restored — `lost_tenants` lists them; their
    /// rules are fully absent (never partially installed).
    enum class Consistency : std::uint8_t { kConsistent = 0, kDiverged };

    bool ok = false;
    /// Index of the op that failed (-1 when ok) and why.
    int failed_op = -1;
    std::string error;
    Consistency consistency = Consistency::kConsistent;
    /// Tenants whose SFCs were lost to a rollback double-fault.
    std::vector<TenantId> lost_tenants;
  };

  /// Applies a batch of admissions/removals with all-or-nothing
  /// semantics (§V-E: reconciling all SFCs on update): ops run in
  /// order; if any fails, every completed op is rolled back in reverse
  /// (re-allocating removed SFCs — their rules are reinstalled, though
  /// possibly at a different feasible placement) and the data plane is
  /// left functionally unchanged. Rollback is double-fault-safe: a
  /// fault while restoring a removed SFC is retried a bounded number of
  /// times and, if it persists, reported as Consistency::kDiverged with
  /// the lost tenants, instead of aborting or silently diverging.
  /// Fault points: "dataplane.apply_op" fails op i before it runs;
  /// install faults inside ops surface through AllocateSfc.
  BatchResult ApplyAtomic(const std::vector<UpdateOp>& ops);

  /// True if the tenant currently has an allocated SFC.
  bool IsAllocated(TenantId tenant) const { return allocations_.contains(tenant); }

  /// The tenant's current allocation (placements + pass count), or
  /// nullptr when none. Valid until the next (de)allocation.
  const AllocationResult* FindAllocation(TenantId tenant) const {
    const auto it = allocations_.find(tenant);
    return it != allocations_.end() ? &it->second : nullptr;
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
  /// cached plans). Admissions, departures, and atomic updates
  /// proactively invalidate the affected tenant's plan.
  void EnableCompiledPlans();
  bool compiled_plans_enabled() const { return pipeline_.compiler_enabled(); }

  switchsim::Pipeline& pipeline() { return pipeline_; }
  const switchsim::Pipeline& pipeline() const { return pipeline_; }

  /// The fabric-wide stage-window occupancy ledger, or nullptr unless
  /// SwitchConfig::cross_tenant_packing (DESIGN.md "Cross-tenant pass
  /// sharing"). Read-only; valid until the next (de)allocation.
  const StageWindowLedger* xt_ledger() const {
    return pipeline_.config().cross_tenant_packing ? &xt_ledger_ : nullptr;
  }

  /// The SFC a tenant was admitted with (retained for departure-time
  /// window compaction; cross_tenant_packing only). nullptr when
  /// unknown.
  const Sfc* RetainedSfc(TenantId tenant) const {
    const auto it = retained_.find(tenant);
    return it != retained_.end() ? &it->second : nullptr;
  }

  /// One tenant whose retained SFC would re-plan into fewer passes
  /// against the current ledger (its own footprint discounted).
  struct CompactionCandidate {
    TenantId tenant = 0;
    int current_passes = 0;
    int replanned_passes = 0;
  };

  /// Probes every allocated multi-pass tenant for a window-compaction
  /// win (pure — nothing is moved). Candidates are sorted biggest
  /// pass saving first, ties by tenant id, so the §V-E re-provision
  /// driver in SfpSystem::RemoveTenant applies them deterministically.
  /// Empty unless cross_tenant_packing.
  std::vector<CompactionCandidate> PlanCompaction() const;

  /// Ledger conservation check (empty == consistent, entries describe
  /// violations): ledger tenants == allocated tenants, per-tenant
  /// ledger entries == Σ (rules + 1) over the retained chain, window
  /// occupancy == Σ claims, and the ledger total == the pipeline's
  /// installed entry count. Always empty when cross_tenant_packing is
  /// off.
  std::vector<std::string> AuditXtLedger() const;

  /// All physical NF types installed per stage (for inspection/P4 gen).
  std::vector<std::vector<nf::NfType>> PhysicalLayout() const;

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

  /// One planned rule-copy target: which physical slot hosts logical
  /// NF j, at which (stage, pass), and whether its rules carry the REC
  /// variant (execution-order-last step of a non-final pass).
  struct PlanStep {
    const PhysicalNfSlot* slot = nullptr;
    NfPlacement placement;
  };

  /// Chain-order §IV planner: each NF lands at the nearest later stage
  /// of its type with spare memory; the chain folds into the next pass
  /// at the pipeline end. Pure (no installs). Returns false when the
  /// chain cannot be placed within `pass_limit` (plan is then invalid).
  bool PlanSequential(const Sfc& sfc, int pass_limit, std::vector<PlanStep>& plan) const;

  /// Dependency-aware planner (DESIGN.md "Intra-chain NF parallelism"):
  /// partitions the chain into maximal runs of mutually independent
  /// NFs (nf_deps.h) and places each run inside one pass, so
  /// out-of-order but commuting NFs stop forcing recirculations.
  /// `rejects` tallies failed merges by MergeReject. Pure.
  bool PlanPacked(const Sfc& sfc, int pass_limit, std::vector<PlanStep>& plan,
                  std::vector<std::uint64_t>& rejects) const;

  /// Cross-tenant co-scheduler (DESIGN.md "Cross-tenant pass
  /// sharing"): schedules successor-carrying NFs exactly like
  /// PlanPacked (earliest feasible (pass, stage)), then steers
  /// successor-free NFs to the best-scoring slot — fewest extra
  /// passes, then the latest stage, then windows other tenants
  /// already hold open — so early-stage capacity stays free for
  /// order-constrained chains and claims line up in shared windows.
  /// With `replan_tenant` set (departure compaction probe) that
  /// tenant's own table entries and window claims are discounted, as
  /// if it had departed. Pure.
  bool PlanCoScheduled(const Sfc& sfc, int pass_limit, std::vector<PlanStep>& plan,
                       std::optional<TenantId> replan_tenant = {}) const;

  /// Marks the execution-order-last step of every non-final pass with
  /// the REC flag (stage order, then table order within the stage —
  /// the interpreter's execution order) and returns the pass count.
  int AssignRecMarks(std::vector<PlanStep>& plan) const;

  /// Drops `tenant`'s compiled plan after a rule mutation (no-op while
  /// the compiler is off or the tenant has no cached plan).
  void InvalidatePlan(TenantId tenant);

  switchsim::Pipeline pipeline_;
  std::vector<PhysicalNfSlot> slots_;
  /// tenant -> placements of its chain (for bookkeeping / tests).
  std::map<TenantId, AllocationResult> allocations_;
  /// Shared (pass, stage) occupancy across tenants; only populated
  /// while cross_tenant_packing is on.
  StageWindowLedger xt_ledger_;
  /// Admitted SFCs kept for departure-time compaction re-plans
  /// (cross_tenant_packing only).
  std::map<TenantId, Sfc> retained_;
};

}  // namespace sfp::dataplane
