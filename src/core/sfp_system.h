// SfpSystem — the top-level SFP facade (the paper's full system).
//
// Wires the control plane and the data plane together:
//
//   1. `ProvisionPhysical` runs the §V placement over an expected
//      workload (or an explicit layout) and pre-installs the physical
//      NFs on the switch pipeline — the boot-time step of §IV. The
//      solver path degrades gracefully (LP+rounding → greedy →
//      static layout → structured error; see ProvisionReport).
//   2. `AdmitTenant` / `ReprovisionTenant` / `RemoveTenant` manage
//      logical SFCs at runtime (§V-E) through one control-plane
//      transaction: plan the desired chain onto the shared physical
//      NFs against the pipeline minus the tenant's own allocation,
//      check eq. 26 on the planned pass count with the tenant's booked
//      charge discounted, swap the allocation all-or-nothing (rules
//      with (tenant, pass) match prefixes and REC recirculation marks;
//      transient install faults retried with bounded backoff), then
//      book what was installed. Departure releases rules, memory and
//      backplane bandwidth and applies the telemetry retention policy.
//   3. `Process` serves tenant packets through the virtualized
//      pipeline; `ProcessBatch` serves whole batches flow-sharded
//      across a worker pool (DESIGN.md, "Batched execution").
//
// Admission enforces the backplane-capacity constraint (eq. 26) through
// an exact controlplane::AdmissionLedger: a tenant whose folded chain
// would push sum(passes x T) past the chip capacity is rejected even
// when switch memory would suffice — before any of its rules reaches a
// table, so serving never sees a rejected tenant, and a rejected or
// failed re-provision leaves the tenant serving what it served before.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "controlplane/admission_ledger.h"
#include "controlplane/approx_solver.h"
#include "dataplane/data_plane.h"
#include "dataplane/telemetry.h"

namespace sfp::core {

/// Failure class of an admission attempt, so callers (and the chaos
/// harness) can branch without string matching.
enum class AdmitCode : std::uint8_t {
  kOk = 0,
  /// The tenant already holds an admitted SFC.
  kAlreadyAdmitted,
  /// No feasible placement (shape/memory/recirculation budget) —
  /// deterministic; retrying the same SFC cannot help.
  kAllocationFailed,
  /// eq. 26: admitting would push sum(passes x T) past the backplane.
  kBackplaneExceeded,
  /// Transient rule-install faults persisted through every retry.
  kInstallFault,
  /// A re-provision failed and so did restoring the tenant's old
  /// entries: the tenant lost its rules and its admission (a later
  /// re-provision may re-admit it from scratch).
  kDiverged,
};

const char* AdmitCodeName(AdmitCode code);

/// Result of an admission or re-provision attempt.
struct AdmitResult {
  bool admitted = false;
  AdmitCode code = AdmitCode::kOk;
  std::string reason;           // set when rejected (for humans)
  int passes = 0;               // R_l + 1 when admitted
  double backplane_gbps = 0.0;  // capacity charged (passes * T)
  int attempts = 0;             // swap attempts (>1 = retried install faults)
};

/// Retry policy for transient install faults during admission.
struct AdmitOptions {
  /// Total allocation attempts (1 = no retry).
  int max_attempts = 3;
  /// Sleep before the first retry; doubles each further retry. Zero
  /// disables sleeping (tests / chaos harness).
  std::chrono::microseconds initial_backoff{50};
};

/// Which solver ultimately produced the physical layout.
enum class ProvisionPath : std::uint8_t {
  /// §V-B LP relaxation + randomized rounding (the intended path).
  kApprox = 0,
  /// Algorithm 2 greedy — used when the approx solver fails or blows
  /// its deadline.
  kGreedy,
  /// Static one-NF-of-each-type round-robin layout — last resort.
  kStatic,
  /// Even the static layout installed nothing.
  kFailed,
};

const char* ProvisionPathName(ProvisionPath path);

/// Outcome of the boot-time provisioning degradation chain.
struct ProvisionReport {
  bool ok = false;
  ProvisionPath path = ProvisionPath::kFailed;
  int installed = 0;
  std::string error;  // set when !ok
  /// The approx solver hit its deadline (wall clock or injected).
  bool solver_deadline_exceeded = false;
};

/// System-wide counters.
struct SfpStats {
  int tenants = 0;
  double offered_gbps = 0.0;    // sum of admitted T_l
  double backplane_gbps = 0.0;  // sum of admitted passes * T_l
  int blocks_used = 0;
  std::int64_t entries_used = 0;
};

/// The SFP system.
class SfpSystem {
 public:
  explicit SfpSystem(switchsim::SwitchConfig config = {});

  /// Boot-time physical provisioning from an expected workload: solves
  /// the §V placement (LP + rounding) on the abstract instance derived
  /// from `expected` and installs the chosen physical NFs, degrading to
  /// the greedy solver and then a static layout when a solver fails or
  /// exhausts its deadline. Returns the number of physical NFs
  /// installed.
  int ProvisionPhysical(const std::vector<dataplane::Sfc>& expected,
                        const controlplane::ApproxOptions& options = {});

  /// Same degradation chain with the full report (which path won, what
  /// failed). Prefer this in robustness-aware callers.
  ProvisionReport ProvisionPhysicalWithReport(
      const std::vector<dataplane::Sfc>& expected,
      const controlplane::ApproxOptions& options = {});

  /// Installs an explicit physical layout: one NF of each listed type
  /// per stage. Returns the number installed.
  int ProvisionPhysical(const std::vector<std::vector<nf::NfType>>& layout);

  /// Turns on the per-tenant pipeline compiler (docs/COMPILER.md) for
  /// the batched serve path and warm-compiles every already-admitted
  /// tenant; tenants admitted afterwards are warm-compiled as part of
  /// AdmitTenant, so their first served batch already runs compiled.
  /// Results and counters are bit-identical to the interpreted path.
  void EnableCompiledPlans();
  bool compiled_plans_enabled() const { return data_plane_.compiled_plans_enabled(); }

  /// Admits a tenant SFC through the control-plane transaction. A
  /// tenant rejected by placement or by eq. 26 never touches a table.
  /// Transient install faults are retried per `options`; the result
  /// carries the structured reject code. Every call is timed
  /// (system.admit.latency_ns).
  AdmitResult AdmitTenant(const dataplane::Sfc& sfc, const AdmitOptions& options = {});

  /// Removes a tenant, releases its resources, and applies the
  /// telemetry retention policy to its series. Returns false if the
  /// ledger does not book the tenant (never admitted, already removed,
  /// or lost to a diverged re-provision); the retention policy still
  /// applies to any live series it left. Under Planner::kCoScheduled
  /// the departure also runs window compaction: remaining multi-pass
  /// tenants whose chains now re-plan into fewer passes (the departed
  /// tenant's windows freed capacity) are moved through the
  /// transaction, biggest saving first, bounded per departure. A
  /// compaction move only ever *reduces* a tenant's pass count — and
  /// with it its eq. 26 backplane charge — and never touches its
  /// telemetry series. Every call is timed, compaction moves included
  /// (system.remove.latency_ns).
  bool RemoveTenant(dataplane::TenantId tenant);

  /// Re-provisions a tenant to `sfc` — the authoritative desired chain
  /// — through the control-plane transaction (§V-E runtime update). A
  /// rejected or failed re-provision leaves the tenant serving its old
  /// allocation with its old charge booked; only a swap whose rollback
  /// also keeps faulting loses it (kDiverged, admission released).
  /// Works on tenants whose rules were already lost, whether or not
  /// their admission record survived, and never touches the telemetry
  /// series. Fault point "core.reprovision" fails a swap attempt before
  /// it starts. Every call is timed (system.reprovision.latency_ns).
  AdmitResult ReprovisionTenant(const dataplane::Sfc& sfc, const AdmitOptions& options = {});

  /// Serves one packet through the shared pipeline and records
  /// per-tenant telemetry.
  switchsim::ProcessResult Process(const net::Packet& packet) {
    const std::uint32_t wire = packet.WireBytes();
    auto result = data_plane_.Process(packet);
    telemetry_.Record(wire, result);
    return result;
  }

  /// Batched serve path: processes the whole batch through the
  /// flow-sharded worker pool, with telemetry accounting fused into
  /// the batch workers (each worker batch-records its own shard into
  /// the sharded collector). Counters are bit-identical to a scalar
  /// Process loop — the collector sums latencies in fixed-point, so
  /// worker interleaving cannot change any total. Concurrent
  /// AdmitTenant/RemoveTenant from another thread is safe; traffic
  /// itself must come from one thread at a time (or via this batch
  /// API, which parallelizes internally). The telemetry sink replaces
  /// options.result_sink.
  std::vector<switchsim::ProcessResult> ProcessBatch(
      std::span<const net::Packet> packets, const switchsim::BatchOptions& options = {});

  /// ProcessBatch into a caller-reused result buffer: same semantics
  /// (including the fused telemetry sinks), but the steady-state serve
  /// loop does no per-batch allocation — every result field is
  /// rewritten, so the buffer needs no re-zeroing between batches.
  void ProcessBatchInto(std::span<const net::Packet> packets,
                        std::span<switchsim::ProcessResult> results,
                        const switchsim::BatchOptions& options = {});

  /// Snapshots the data plane's counters (DataPlane::ExportMetrics),
  /// per-tenant telemetry, and the admission/reject taxonomy into
  /// `registry` (names documented in docs/METRICS.md).
  void ExportMetrics(common::metrics::Registry& registry) const;

  /// Admission totals read from the ledger plus switch occupancy.
  SfpStats Stats() const;

  /// Per-tenant packet/byte/drop/latency counters.
  const dataplane::TelemetryCollector& Telemetry() const { return telemetry_; }
  dataplane::TelemetryCollector& Telemetry() { return telemetry_; }

  dataplane::DataPlane& data_plane() { return data_plane_; }
  const dataplane::DataPlane& data_plane() const { return data_plane_; }

  /// Converts a concrete SFC into the abstract control-plane form
  /// (type index = NfType, F_jl = rule count).
  static controlplane::SfcSpec ToSpec(const dataplane::Sfc& sfc);

 private:
  /// The one control-plane transaction (control_mutex_ held):
  ///   1. plan `desired` with DataPlane::PlanSfc against the pipeline
  ///      minus the tenant's own allocation (pure);
  ///   2. check eq. 26 on the planned pass count, the tenant's booked
  ///      charge discounted;
  ///   3. swap the allocation through DataPlane::SwapSfc, retrying
  ///      transient faults with backoff per `options` (a re-provision
  ///      also checks "core.reprovision" before each attempt);
  ///   4. book in the ledger exactly what is installed.
  /// A null `desired` departs the tenant. Rejections end before step
  /// 3, so they touch no table.
  AdmitResult Transact(dataplane::TenantId tenant, const dataplane::Sfc* desired,
                       const AdmitOptions& options, bool reprovision);

  /// Departure-time window compaction (control_mutex_ held): moves
  /// DataPlane::PlanCompaction candidates through Transact until no
  /// candidate improves, a move stops paying off, or the per-departure
  /// move bound is hit. A no-op unless Planner::kCoScheduled.
  void CompactAfterDeparture();

  dataplane::DataPlane data_plane_;
  /// Admitted tenants with their bandwidth, passes and eq. 26 charge
  /// (backplane row only: the data plane checks memory when planning).
  /// Guarded by control_mutex_.
  controlplane::AdmissionLedger ledger_;
  /// Wall-clock latency of AdmitTenant, RemoveTenant and
  /// ReprovisionTenant, one sample per call (exported as the
  /// system.{admit,remove,reprovision}.latency_ns histograms).
  /// Histograms rather than counters: wall-clock values differ run to
  /// run, and counters stay deterministic. Held by pointer to keep
  /// SfpSystem movable.
  std::unique_ptr<common::metrics::Histogram> admit_latency_ns_;
  std::unique_ptr<common::metrics::Histogram> remove_latency_ns_;
  std::unique_ptr<common::metrics::Histogram> reprovision_latency_ns_;
  dataplane::TelemetryCollector telemetry_;
  /// Admission outcome taxonomy (exported as system.admit.*).
  common::metrics::RelaxedCounter admits_ok_;
  common::metrics::RelaxedCounter rejects_already_;
  common::metrics::RelaxedCounter rejects_alloc_;
  common::metrics::RelaxedCounter rejects_backplane_;
  common::metrics::RelaxedCounter rejects_install_;
  common::metrics::RelaxedCounter install_retries_;
  /// Serializes control-plane transactions (and Stats) against each
  /// other, so they can run concurrently with the serve path. Held by
  /// pointer to keep SfpSystem movable.
  std::unique_ptr<std::mutex> control_mutex_ = std::make_unique<std::mutex>();
};

}  // namespace sfp::core
