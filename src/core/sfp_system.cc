#include "core/sfp_system.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/check.h"
#include "common/faultinject.h"
#include "common/logging.h"
#include "controlplane/greedy_solver.h"
#include "switchsim/compiler/plan_cache.h"

namespace sfp::core {

const char* AdmitCodeName(AdmitCode code) {
  switch (code) {
    case AdmitCode::kOk:
      return "ok";
    case AdmitCode::kAlreadyAdmitted:
      return "already-admitted";
    case AdmitCode::kAllocationFailed:
      return "allocation-failed";
    case AdmitCode::kBackplaneExceeded:
      return "backplane-exceeded";
    case AdmitCode::kInstallFault:
      return "install-fault";
    case AdmitCode::kDiverged:
      return "diverged";
  }
  return "unknown";
}

const char* ProvisionPathName(ProvisionPath path) {
  switch (path) {
    case ProvisionPath::kApprox:
      return "approx";
    case ProvisionPath::kGreedy:
      return "greedy";
    case ProvisionPath::kStatic:
      return "static";
    case ProvisionPath::kFailed:
      return "failed";
  }
  return "unknown";
}

namespace {

/// 250 ns .. ~2 ms: plan + swap of a chain through retry backoff.
std::unique_ptr<common::metrics::Histogram> ControlLatencyHistogram() {
  return std::make_unique<common::metrics::Histogram>(
      common::metrics::ExponentialBounds(250.0, 2.0, 14));
}

/// Files one wall-clock sample of a control op started at `started`.
void ObserveSince(common::metrics::Histogram& histogram,
                  std::chrono::steady_clock::time_point started) {
  const auto elapsed = std::chrono::steady_clock::now() - started;
  histogram.Observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
}

}  // namespace

SfpSystem::SfpSystem(switchsim::SwitchConfig config)
    : data_plane_(config),
      // Backplane row only: the data plane checks memory when planning.
      ledger_(controlplane::AdmissionCapacity{config.backplane_gbps, {}}),
      admit_latency_ns_(ControlLatencyHistogram()),
      remove_latency_ns_(ControlLatencyHistogram()),
      reprovision_latency_ns_(ControlLatencyHistogram()) {}

controlplane::SfcSpec SfpSystem::ToSpec(const dataplane::Sfc& sfc) {
  controlplane::SfcSpec spec;
  spec.bandwidth_gbps = sfc.bandwidth_gbps;
  for (const auto& nf : sfc.chain) {
    spec.boxes.push_back({static_cast<int>(nf.type),
                          static_cast<std::int64_t>(nf.rules.size()) + 1});  // +catch-all
  }
  return spec;
}

namespace {

/// Installs the solver's physical layout onto the data plane.
int InstallSolution(dataplane::DataPlane& data_plane,
                    const controlplane::PlacementInstance& instance,
                    const controlplane::PlacementSolution& solution) {
  int installed = 0;
  for (int i = 0; i < instance.num_types; ++i) {
    for (int s = 0; s < instance.sw.stages; ++s) {
      if (!solution.physical[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)]) {
        continue;
      }
      if (data_plane.InstallPhysicalNf(s, static_cast<nf::NfType>(i))) ++installed;
    }
  }
  return installed;
}

}  // namespace

int SfpSystem::ProvisionPhysical(const std::vector<dataplane::Sfc>& expected,
                                 const controlplane::ApproxOptions& options) {
  return ProvisionPhysicalWithReport(expected, options).installed;
}

ProvisionReport SfpSystem::ProvisionPhysicalWithReport(
    const std::vector<dataplane::Sfc>& expected,
    const controlplane::ApproxOptions& options) {
  ProvisionReport report;

  controlplane::PlacementInstance instance;
  const auto& config = data_plane_.pipeline().config();
  instance.sw.stages = config.num_stages;
  instance.sw.blocks_per_stage = config.blocks_per_stage;
  instance.sw.entries_per_block = config.entries_per_block;
  instance.sw.capacity_gbps = config.backplane_gbps;
  instance.num_types = nf::kNumNfTypes;
  for (const auto& sfc : expected) instance.sfcs.push_back(ToSpec(sfc));

  // Tier 1: LP relaxation + randomized rounding (§V-B).
  const auto approx = controlplane::SolveApprox(instance, options);
  report.solver_deadline_exceeded = approx.deadline_exceeded;
  if (approx.ok) {
    report.installed = InstallSolution(data_plane_, instance, approx.solution);
    if (report.installed > 0) {
      report.ok = true;
      report.path = ProvisionPath::kApprox;
      SFP_LOG_INFO << "provisioned " << report.installed << " physical NFs (approx)";
      return report;
    }
  }
  SFP_LOG_WARN << "approx provisioning "
               << (approx.deadline_exceeded ? "exhausted its deadline" : "failed")
               << " without a usable placement; degrading to greedy";

  // Tier 2: Algorithm 2 greedy over the same instance.
  controlplane::GreedyOptions greedy_options;
  greedy_options.max_passes = options.model.max_passes;
  greedy_options.memory_model = options.model.memory_model;
  const auto greedy = controlplane::SolveGreedy(instance, greedy_options);
  report.installed = InstallSolution(data_plane_, instance, greedy.solution);
  if (report.installed > 0) {
    report.ok = true;
    report.path = ProvisionPath::kGreedy;
    SFP_LOG_INFO << "provisioned " << report.installed << " physical NFs (greedy fallback)";
    return report;
  }
  SFP_LOG_WARN << "greedy provisioning placed nothing; degrading to the static layout";

  // Tier 3: one NF of each type, round-robin over stages — always
  // serves single-NF chains even when no solver produced a placement.
  for (int i = 0; i < nf::kNumNfTypes; ++i) {
    if (data_plane_.InstallPhysicalNf(i % config.num_stages, static_cast<nf::NfType>(i))) {
      ++report.installed;
    }
  }
  if (report.installed > 0) {
    report.ok = true;
    report.path = ProvisionPath::kStatic;
    SFP_LOG_WARN << "provisioned " << report.installed << " physical NFs (static layout)";
    return report;
  }

  report.path = ProvisionPath::kFailed;
  report.error = "no provisioning path installed any physical NF (approx "
                 + std::string(approx.deadline_exceeded ? "deadline-exceeded" : "failed")
                 + ", greedy empty, static install rejected)";
  SFP_LOG_ERROR << report.error;
  return report;
}

int SfpSystem::ProvisionPhysical(const std::vector<std::vector<nf::NfType>>& layout) {
  int installed = 0;
  for (std::size_t stage = 0; stage < layout.size(); ++stage) {
    for (const nf::NfType type : layout[stage]) {
      if (data_plane_.InstallPhysicalNf(static_cast<int>(stage), type)) ++installed;
    }
  }
  return installed;
}

namespace {

/// Fuses telemetry recording into the batch workers via
/// BatchOptions::result_sink; wire sizes (pure arithmetic over header
/// presence, no locks) are computed in the sink too, so there is no
/// serial full-batch pre-pass on the caller thread at all.
switchsim::BatchOptions FuseTelemetry(dataplane::TelemetryCollector& telemetry,
                                      std::span<const net::Packet> packets,
                                      const switchsim::BatchOptions& options) {
  switchsim::BatchOptions fused = options;
  fused.result_sink = [&telemetry, packets](std::span<const std::uint32_t> indices,
                                            std::span<const switchsim::ProcessResult> results) {
    telemetry.RecordBatch(indices, packets, results);
  };
  return fused;
}

}  // namespace

std::vector<switchsim::ProcessResult> SfpSystem::ProcessBatch(
    std::span<const net::Packet> packets, const switchsim::BatchOptions& options) {
  return data_plane_.ProcessBatch(packets, FuseTelemetry(telemetry_, packets, options));
}

void SfpSystem::ProcessBatchInto(std::span<const net::Packet> packets,
                                 std::span<switchsim::ProcessResult> results,
                                 const switchsim::BatchOptions& options) {
  data_plane_.ProcessBatchInto(packets, results, FuseTelemetry(telemetry_, packets, options));
}

void SfpSystem::ExportMetrics(common::metrics::Registry& registry) const {
  data_plane_.ExportMetrics(registry);
  // One all-shard locking pass for the whole collector instead of a
  // lock acquisition per tenant.
  const auto snapshot = telemetry_.TakeSnapshot();
  const auto& total = snapshot.total;
  registry.GetCounter("telemetry.total.packets").Set(total.packets);
  registry.GetCounter("telemetry.total.bytes").Set(total.bytes);
  registry.GetCounter("telemetry.total.drops").Set(total.drops);
  registry.GetCounter("telemetry.total.recirculated_packets")
      .Set(total.recirculated_packets);
  registry.GetCounter("telemetry.total.passes").Set(total.total_passes);
  // Latency sums are exported in the collector's exact fixed-point
  // units (1/4096 ns) so the bench-regression gate can compare them
  // bit-for-bit; total_latency_ns is fp/4096 and converts back
  // exactly.
  registry.GetCounter("telemetry.total.latency_fp")
      .Set(static_cast<std::uint64_t>(
          std::llround(total.total_latency_ns * dataplane::TelemetryCollector::kLatencyScale)));
  registry.GetCounter("telemetry.tenants").Set(snapshot.tenants.size());
  registry.GetCounter("telemetry.departed").Set(snapshot.departed);
  for (const auto& [tenant, counters] : snapshot.tenants) {
    const std::string prefix = "telemetry.tenant" + std::to_string(tenant) + ".";
    registry.GetCounter(prefix + "packets").Set(counters.packets);
    registry.GetCounter(prefix + "bytes").Set(counters.bytes);
    registry.GetCounter(prefix + "drops").Set(counters.drops);
    registry.GetCounter(prefix + "recirculated_packets").Set(counters.recirculated_packets);
    registry.GetCounter(prefix + "passes").Set(counters.total_passes);
  }
  registry.GetCounter("system.admit.admitted").Set(admits_ok_.Value());
  registry.GetCounter("system.admit.rejected.already_admitted").Set(rejects_already_.Value());
  registry.GetCounter("system.admit.rejected.allocation_failed").Set(rejects_alloc_.Value());
  registry.GetCounter("system.admit.rejected.backplane_exceeded")
      .Set(rejects_backplane_.Value());
  registry.GetCounter("system.admit.rejected.install_fault").Set(rejects_install_.Value());
  registry.GetCounter("system.admit.install_retries").Set(install_retries_.Value());
  {
    std::lock_guard<std::mutex> lock(*control_mutex_);
    registry.GetCounter("system.tenants").Set(ledger_.size());
    registry.GetHistogram("system.admit.latency_ns", admit_latency_ns_->bounds())
        .Assign(*admit_latency_ns_);
    registry.GetHistogram("system.remove.latency_ns", remove_latency_ns_->bounds())
        .Assign(*remove_latency_ns_);
    registry.GetHistogram("system.reprovision.latency_ns", reprovision_latency_ns_->bounds())
        .Assign(*reprovision_latency_ns_);
  }
}

void SfpSystem::EnableCompiledPlans() {
  std::lock_guard<std::mutex> lock(*control_mutex_);
  data_plane_.EnableCompiledPlans();
  auto* cache = data_plane_.pipeline().plan_cache();
  for (const auto& [tenant, charge] : ledger_.tenants()) {
    cache->Warm(static_cast<dataplane::TenantId>(tenant));
  }
}

AdmitResult SfpSystem::AdmitTenant(const dataplane::Sfc& sfc, const AdmitOptions& options) {
  std::lock_guard<std::mutex> lock(*control_mutex_);
  const auto started = std::chrono::steady_clock::now();
  AdmitResult result;
  if (ledger_.Contains(sfc.tenant) || data_plane_.IsAllocated(sfc.tenant)) {
    result.code = AdmitCode::kAlreadyAdmitted;
    result.reason = "tenant already admitted";
  } else {
    result = Transact(sfc.tenant, &sfc, options, /*reprovision=*/false);
  }
  switch (result.code) {
    case AdmitCode::kOk:
      admits_ok_.Add();
      break;
    case AdmitCode::kAlreadyAdmitted:
      rejects_already_.Add();
      break;
    case AdmitCode::kAllocationFailed:
      rejects_alloc_.Add();
      break;
    case AdmitCode::kBackplaneExceeded:
      rejects_backplane_.Add();
      break;
    case AdmitCode::kInstallFault:
    case AdmitCode::kDiverged:  // unreachable: an admit has nothing to restore
      rejects_install_.Add();
      break;
  }
  ObserveSince(*admit_latency_ns_, started);
  return result;
}

AdmitResult SfpSystem::ReprovisionTenant(const dataplane::Sfc& sfc,
                                         const AdmitOptions& options) {
  std::lock_guard<std::mutex> lock(*control_mutex_);
  const auto started = std::chrono::steady_clock::now();
  AdmitResult result = Transact(sfc.tenant, &sfc, options, /*reprovision=*/true);
  ObserveSince(*reprovision_latency_ns_, started);
  return result;
}

bool SfpSystem::RemoveTenant(dataplane::TenantId tenant) {
  std::lock_guard<std::mutex> lock(*control_mutex_);
  const auto started = std::chrono::steady_clock::now();
  const bool known = ledger_.Contains(tenant);
  if (known) Transact(tenant, nullptr, {}, /*reprovision=*/false);
  // Also when the ledger no longer books the tenant, if its series is
  // still live: a diverged re-provision lost its rules and its booking
  // but not its series. An already departed series keeps its place in
  // the departure order (the departed-series cap evicts the oldest).
  if (known || !telemetry_.IsDeparted(tenant)) telemetry_.MarkDeparted(tenant);
  if (known) CompactAfterDeparture();
  ObserveSince(*remove_latency_ns_, started);
  return known;
}

AdmitResult SfpSystem::Transact(dataplane::TenantId tenant, const dataplane::Sfc* desired,
                                const AdmitOptions& options, bool reprovision) {
  AdmitResult result;
  result.attempts = 1;

  // 1. Plan the §IV allocation against the pipeline minus the tenant's
  // own allocation (pure). Deterministic rejections end here.
  dataplane::AllocationPlan plan;
  controlplane::TenantFootprint footprint;  // a departure charges nothing
  if (desired != nullptr) {
    plan = data_plane_.PlanSfc(*desired);
    if (!plan.allocation.ok) {
      result.code = AdmitCode::kAllocationFailed;
      result.reason = plan.allocation.error;
      return result;
    }
    footprint.bandwidth_gbps = desired->bandwidth_gbps;
    footprint.passes = plan.allocation.passes;
  }

  // 2. eq. 26 on the planned pass count: recirculated traffic competes
  // with new inbound traffic on the backplane. Checked before any
  // table mutates, so a rejected tenant never becomes briefly
  // servable, never invalidates anyone's plan, and a rejected
  // re-provision keeps serving its old allocation.
  if (!ledger_.FitsReplacing(tenant, footprint)) {
    result.code = AdmitCode::kBackplaneExceeded;
    result.reason = "backplane capacity exceeded";
    return result;
  }

  // 3. Swap. A transient fault leaves the data plane as it was (the
  // swap unwinds and restores), so the same plan is retried with
  // exponential backoff.
  const int max_attempts = std::max(1, options.max_attempts);
  auto backoff = options.initial_backoff;
  dataplane::AllocationResult swapped;
  for (;; ++result.attempts) {
    if (reprovision && SFP_FAULT("core.reprovision")) {
      swapped = {};
      swapped.code = dataplane::AllocCode::kInstallFault;
      swapped.error = "injected reprovision fault (core.reprovision)";
    } else {
      swapped = data_plane_.SwapSfc(tenant, desired, desired != nullptr ? &plan : nullptr);
    }
    if (swapped.ok || !swapped.transient() || result.attempts == max_attempts) break;
    install_retries_.Add();
    SFP_LOG_WARN << "tenant " << tenant << " hit a transient fault (attempt "
                 << result.attempts << "/" << max_attempts << "): " << swapped.error;
    if (backoff.count() > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
  }

  // 4. Book exactly what is installed: the new charge after a swap,
  // nothing after a departure or a lost tenant, and the old charge
  // (untouched) after a failed swap that restored the old entries.
  if (!swapped.ok) {
    result.reason = swapped.error;
    if (swapped.code == dataplane::AllocCode::kDiverged) {
      // The tenant lost its rules; its telemetry series stays live (it
      // has not departed, and a later re-provision can repair it).
      ledger_.Remove(tenant);
      result.code = AdmitCode::kDiverged;
    } else {
      result.code = swapped.transient() ? AdmitCode::kInstallFault
                                        : AdmitCode::kAllocationFailed;
    }
    return result;
  }
  ledger_.Remove(tenant);
  if (desired == nullptr) return result;
  const bool booked = ledger_.TryAdmit(tenant, footprint);
  SFP_CHECK_MSG(booked, "eq. 26 charge stopped fitting between plan and swap");
  result.admitted = true;
  result.passes = swapped.passes;
  result.backplane_gbps = static_cast<double>(ledger_.tenants().at(tenant).backplane_bps) /
                          controlplane::AdmissionLedger::kUnitsPerGbps;
  // Warm compile so the tenant's first served batch runs the compiled
  // plan instead of paying a serve-path try-lock compile.
  if (auto* cache = data_plane_.pipeline().plan_cache()) cache->Warm(tenant);
  return result;
}

void SfpSystem::CompactAfterDeparture() {
  // Bounded so a single departure cannot stall the control plane: at
  // most this many moves per departure. Each successful move strictly
  // reduces the population's aggregate pass count, so the loop also
  // terminates without the bound.
  constexpr int kMaxMovesPerDeparture = 8;
  for (int move = 0; move < kMaxMovesPerDeparture; ++move) {
    const auto candidates = data_plane_.PlanCompaction();
    if (candidates.empty()) return;
    const auto& best = candidates.front();
    const auto* retained = data_plane_.RetainedSfc(best.tenant);
    if (retained == nullptr) return;
    // A copy: the swap takes the tenant out, which destroys the
    // retained SFC a reference would point into.
    const dataplane::Sfc sfc = *retained;
    const auto before = best.current_passes;
    // No backoff: a transiently faulted move is simply skipped — the
    // next departure probes again. A kDiverged move released the
    // tenant's admission; the recovery loop repairs such tenants like
    // any other structural damage.
    AdmitOptions options;
    options.max_attempts = 1;
    const auto result = Transact(sfc.tenant, &sfc, options, /*reprovision=*/true);
    if (!result.admitted) return;
    if (result.passes >= before) return;  // lateral move: stop compacting
    data_plane_.RecordXtCompaction(static_cast<std::uint64_t>(before - result.passes));
    SFP_LOG_DEBUG << "compacted tenant " << best.tenant << " from " << before << " to "
                  << result.passes << " pass(es) after a departure";
  }
}

SfpStats SfpSystem::Stats() const {
  std::lock_guard<std::mutex> lock(*control_mutex_);
  SfpStats stats;
  stats.tenants = static_cast<int>(ledger_.size());
  constexpr double kUnitsPerGbps = controlplane::AdmissionLedger::kUnitsPerGbps;
  stats.offered_gbps = static_cast<double>(ledger_.offered_bps()) / kUnitsPerGbps;
  stats.backplane_gbps = static_cast<double>(ledger_.backplane_used_bps()) / kUnitsPerGbps;
  stats.blocks_used = data_plane_.pipeline().TotalBlocksUsed();
  stats.entries_used = data_plane_.pipeline().TotalEntriesUsed();
  return stats;
}

}  // namespace sfp::core
