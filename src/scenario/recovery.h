// Telemetry-driven recovery loop (docs/SCENARIOS.md).
//
// The RecoveryController closes the loop between the sharded
// TelemetryCollector and the §V-E runtime-update path: it polls the
// collector's drift query for damage signatures — per-tenant drop-rate
// spikes and multi-pass throughput collapse (a tenant whose rules were
// lost stops recirculating, so its window mean pass count falls to 1) —
// plus a structural check (allocation gone), and repairs flagged
// tenants through SfpSystem::ReprovisionTenant. Repairs that keep
// failing are retried with sim-time exponential backoff and, after a
// bounded number of attempts, the tenant is *quarantined* (removed,
// resources released) instead of livelocking the loop — a persistently
// broken tenant can never starve the healthy ones.
//
// Blast radius: detection only reads telemetry, and a repair runs one
// control-plane transaction whose swap touches only the damaged
// tenant's (tenant, pass) rules, so unaffected tenants' packet
// accounting is byte-identical
// with and without a concurrent recovery (asserted in
// tests/scenario_test.cc).
//
// Detectability boundary: a *single-pass* tenant whose rules are lost
// keeps forwarding (the physical NFs' default action is No-Op), so its
// telemetry is indistinguishable from health — only the structural
// check catches it. Multi-pass tenants are always telemetry-visible.
//
// The controller is single-threaded by design: the scenario driver
// calls Poll from its tick loop. All times are simulated seconds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sfp_system.h"

namespace sfp::scenario {

/// Tuning for the detection/repair loop.
struct RecoveryOptions {
  /// Window drop rate above which a tenant is flagged ("drop-spike").
  double drop_rate_threshold = 0.10;
  /// A multi-pass tenant is flagged when its window mean pass count
  /// falls more than this below its expected passes
  /// ("passes-collapse").
  double passes_margin = 0.5;
  /// Windows with fewer packets than this are too noisy to judge.
  std::uint64_t min_window_packets = 16;
  /// Repair attempts before the tenant is quarantined.
  int max_attempts = 5;
  /// Sim-time backoff before the second attempt; doubles per failure.
  double initial_backoff_s = 0.5;
  double max_backoff_s = 8.0;
  /// Detection holdoff after a successful repair, so the window that
  /// straddles the repair cannot re-flag the tenant on stale damage.
  double cooldown_s = 1.5;
  /// Anti-thrash escalation ceiling: a tenant re-flagged shortly after
  /// a successful repair (it is probably sitting in a fault storm the
  /// repair cannot fix) doubles its holdoff per repeat, up to this cap;
  /// staying healthy past twice the current holdoff resets it.
  double max_cooldown_s = 30.0;
};

/// One closed detection→repair episode.
struct RecoveryEpisode {
  dataplane::TenantId tenant = 0;
  double detected_s = 0.0;
  double ended_s = 0.0;
  int attempts = 0;
  /// true = repaired; false = quarantined after max_attempts.
  bool recovered = false;
  /// Signature that triggered detection: "structural", "drop-spike" or
  /// "passes-collapse".
  std::string cause;

  double DurationMs() const { return (ended_s - detected_s) * 1e3; }
};

/// Monotonic loop counters (exported as system.recover.*).
struct RecoveryCounters {
  std::uint64_t polls = 0;
  std::uint64_t detections = 0;
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::uint64_t diverged = 0;
  std::uint64_t quarantined = 0;
};

class RecoveryController {
 public:
  explicit RecoveryController(core::SfpSystem& system, RecoveryOptions options = {});

  /// Registers a tenant's desired state (its authoritative SFC and the
  /// pass count its admission landed on). Re-tracking an id replaces
  /// the record.
  void TrackTenant(const dataplane::Sfc& sfc, int expected_passes);

  /// Forgets a tenant (planned departure — not damage).
  void UntrackTenant(dataplane::TenantId tenant);

  /// One loop iteration at simulated time `now_s`: consumes the drift
  /// window, flags damage signatures, and runs every due repair
  /// (respecting per-tenant backoff).
  void Poll(double now_s);

  bool IsQuarantined(dataplane::TenantId tenant) const;
  std::vector<dataplane::TenantId> QuarantinedTenants() const;

  /// Tenants currently flagged as damaged and awaiting repair.
  std::vector<dataplane::TenantId> DegradedTenants() const;

  const std::vector<RecoveryEpisode>& episodes() const { return episodes_; }
  const RecoveryCounters& counters() const { return counters_; }

  /// Exports the loop counters as system.recover.* (docs/METRICS.md).
  void ExportMetrics(common::metrics::Registry& registry) const;

 private:
  enum class Health : std::uint8_t { kHealthy, kDegraded, kQuarantined };

  struct Tracked {
    dataplane::Sfc sfc;
    int expected_passes = 1;
    Health health = Health::kHealthy;
    double detected_s = 0.0;
    int attempts = 0;
    double backoff_s = 0.0;
    double next_attempt_s = 0.0;
    double cooldown_until_s = 0.0;
    /// Escalating holdoff state (see RecoveryOptions::max_cooldown_s).
    double current_cooldown_s = 0.0;
    double last_repair_s = -1e300;
    std::string cause;
  };

  void Flag(Tracked& tracked, double now_s, const char* cause);

  core::SfpSystem& system_;
  RecoveryOptions options_;
  std::map<dataplane::TenantId, Tracked> tracked_;
  /// Rolling drift window start (advanced by every Poll).
  dataplane::TelemetryCollector::Snapshot window_;
  std::vector<RecoveryEpisode> episodes_;
  RecoveryCounters counters_;
};

}  // namespace sfp::scenario
