#include "scenario/recovery.h"

#include <algorithm>

#include "common/logging.h"

namespace sfp::scenario {

RecoveryController::RecoveryController(core::SfpSystem& system, RecoveryOptions options)
    : system_(system), options_(options) {
  // Anchor the drift window at construction so the first Poll sees
  // only traffic served after the controller came up.
  window_ = system_.Telemetry().TakeSnapshot();
}

void RecoveryController::TrackTenant(const dataplane::Sfc& sfc, int expected_passes) {
  Tracked tracked;
  tracked.sfc = sfc;
  tracked.expected_passes = expected_passes;
  tracked_[sfc.tenant] = std::move(tracked);
}

void RecoveryController::UntrackTenant(dataplane::TenantId tenant) {
  tracked_.erase(tenant);
}

void RecoveryController::Flag(Tracked& tracked, double now_s, const char* cause) {
  tracked.health = Health::kDegraded;
  tracked.detected_s = now_s;
  tracked.attempts = 0;
  tracked.backoff_s = options_.initial_backoff_s;
  tracked.next_attempt_s = now_s;  // first repair runs in the same poll
  tracked.cause = cause;
  ++counters_.detections;
}

void RecoveryController::Poll(double now_s) {
  ++counters_.polls;

  // Detection: one drift window per poll. Tenants whose series
  // restarted inside the window (purged then re-seen) report absolute
  // counters, not movement — skip signature checks for that window.
  const auto drifts = system_.Telemetry().DriftSince(window_);
  for (auto& [tenant, tracked] : tracked_) {
    if (tracked.health != Health::kHealthy) continue;
    if (now_s < tracked.cooldown_until_s) continue;

    const char* cause = nullptr;
    if (!system_.data_plane().IsAllocated(tenant)) {
      cause = "structural";
    } else {
      const auto it = std::lower_bound(
          drifts.begin(), drifts.end(), tenant,
          [](const dataplane::TelemetryCollector::TenantDrift& d, dataplane::TenantId id) {
            return d.tenant < id;
          });
      if (it != drifts.end() && it->tenant == tenant && !it->restarted &&
          it->packets >= options_.min_window_packets) {
        if (it->DropRate() > options_.drop_rate_threshold) {
          cause = "drop-spike";
        } else if (tracked.expected_passes > 1 &&
                   it->MeanPasses() <
                       static_cast<double>(tracked.expected_passes) - options_.passes_margin) {
          cause = "passes-collapse";
        }
      }
    }
    if (cause != nullptr) {
      SFP_LOG_INFO << "recovery: tenant " << tenant << " flagged (" << cause << ") at t="
                   << now_s << "s";
      Flag(tracked, now_s, cause);
    }
  }

  // Repair: every degraded tenant whose backoff has elapsed gets one
  // re-provision. The call itself does not retry or sleep — backoff is
  // sim-time, spread across polls.
  for (auto& [tenant, tracked] : tracked_) {
    if (tracked.health != Health::kDegraded) continue;
    if (now_s + 1e-12 < tracked.next_attempt_s) continue;

    ++counters_.attempts;
    ++tracked.attempts;
    core::AdmitOptions once;
    once.max_attempts = 1;
    once.initial_backoff = std::chrono::microseconds{0};
    const auto result = system_.ReprovisionTenant(tracked.sfc, once);
    if (result.admitted) {
      ++counters_.successes;
      episodes_.push_back({tenant, tracked.detected_s, now_s, tracked.attempts, true,
                           tracked.cause});
      tracked.health = Health::kHealthy;
      tracked.expected_passes = result.passes;
      // Escalate the holdoff when damage recurs on the heels of the
      // last repair (a storm the re-provision cannot cure): doubling
      // it caps pointless repair churn — and the quarantine risk each
      // attempt carries — for the storm's duration.
      if (tracked.detected_s <= tracked.last_repair_s + 2.0 * tracked.current_cooldown_s) {
        tracked.current_cooldown_s =
            std::min(tracked.current_cooldown_s * 2.0, options_.max_cooldown_s);
      } else {
        tracked.current_cooldown_s = options_.cooldown_s;
      }
      tracked.last_repair_s = now_s;
      tracked.cooldown_until_s = now_s + tracked.current_cooldown_s;
      continue;
    }

    ++counters_.failures;
    if (result.code == core::AdmitCode::kDiverged) ++counters_.diverged;
    if (tracked.attempts >= options_.max_attempts) {
      // Quarantine: stop burning attempts on a tenant that cannot be
      // repaired; release whatever it still holds so healthy tenants
      // can use the capacity. The scenario driver stops its traffic.
      ++counters_.quarantined;
      episodes_.push_back({tenant, tracked.detected_s, now_s, tracked.attempts, false,
                           tracked.cause});
      tracked.health = Health::kQuarantined;
      system_.RemoveTenant(tenant);  // false when the admission is already gone
      SFP_LOG_ERROR << "recovery: tenant " << tenant << " quarantined after "
                    << tracked.attempts << " attempts (" << result.reason << ")";
    } else {
      tracked.next_attempt_s = now_s + tracked.backoff_s;
      tracked.backoff_s = std::min(tracked.backoff_s * 2.0, options_.max_backoff_s);
    }
  }
}

bool RecoveryController::IsQuarantined(dataplane::TenantId tenant) const {
  const auto it = tracked_.find(tenant);
  return it != tracked_.end() && it->second.health == Health::kQuarantined;
}

std::vector<dataplane::TenantId> RecoveryController::QuarantinedTenants() const {
  std::vector<dataplane::TenantId> tenants;
  for (const auto& [tenant, tracked] : tracked_) {
    if (tracked.health == Health::kQuarantined) tenants.push_back(tenant);
  }
  return tenants;
}

std::vector<dataplane::TenantId> RecoveryController::DegradedTenants() const {
  std::vector<dataplane::TenantId> tenants;
  for (const auto& [tenant, tracked] : tracked_) {
    if (tracked.health == Health::kDegraded) tenants.push_back(tenant);
  }
  return tenants;
}

void RecoveryController::ExportMetrics(common::metrics::Registry& registry) const {
  registry.GetCounter("system.recover.polls").Set(counters_.polls);
  registry.GetCounter("system.recover.detections").Set(counters_.detections);
  registry.GetCounter("system.recover.attempts").Set(counters_.attempts);
  registry.GetCounter("system.recover.successes").Set(counters_.successes);
  registry.GetCounter("system.recover.failures").Set(counters_.failures);
  registry.GetCounter("system.recover.diverged").Set(counters_.diverged);
  registry.GetCounter("system.recover.quarantined").Set(counters_.quarantined);
  registry.GetCounter("system.recover.episodes").Set(episodes_.size());
}

}  // namespace sfp::scenario
