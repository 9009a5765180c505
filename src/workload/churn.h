// Pareto-lifetime tenant churn traces (online admission at scale).
//
// Arrivals form a Poisson process whose rate lambda = target_population
// / mean_lifetime keeps ~target_population tenants live in steady
// state (Little's law); lifetimes are Pareto(shape, scale) with the
// scale chosen so the mean equals mean_lifetime (shape > 1), giving
// the long-tailed session lengths real tenant workloads show: most
// tenants churn quickly while a heavy tail stays pinned for the whole
// trace. Each arrival carries a synthetic TenantFootprint drawn like
// the §VI-A dataset — chain length U[3, 7], per-NF entries
// U[100, 2100], per-SFC bandwidth Pareto(1.6, 3.0) capped at one port
// — folded onto the physical stages from a random offset so long
// chains wrap around the pipeline (recirculation passes charge the
// eq. 26 backplane row multiple times).
//
// The trace is the shared input of bench/ext3_admission_churn, the
// AdmissionChurnTest differential suite and `sfpctl churn`: all three
// replay the identical event stream for a given (options, seed) through
// a controlplane::AdmissionLedger sized by CapacityAtMidpoint.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "controlplane/admission_ledger.h"

namespace sfp::workload {

/// Knobs for one churn trace. Defaults follow the §VI-A dataset shape.
struct ChurnOptions {
  /// Steady-state live-tenant target (sets the Poisson arrival rate).
  std::int64_t target_population = 1000;
  /// Total arrival events to generate.
  std::int64_t num_arrivals = 5000;
  /// Mean tenant lifetime in trace seconds.
  double mean_lifetime = 100.0;
  /// Lifetime tail index (> 1 so the mean exists). 1.5 gives the
  /// classic heavy tail: ~10% of tenants hold ~50% of tenant-seconds.
  double lifetime_pareto_shape = 1.5;
  /// Departures scheduled after the final arrival are dropped so the
  /// trace ends at steady-state population (the p99 measurement
  /// window); set false to drain the population to zero instead.
  bool truncate_at_last_arrival = true;

  /// Footprint synthesis (see sfc_gen.h DatasetParams for provenance).
  int num_stages = 12;
  int min_chain_len = 3;
  int max_chain_len = 7;
  std::int64_t min_rules = 100;
  std::int64_t max_rules = 2100;
  double bw_pareto_shape = 1.6;
  double bw_pareto_scale_gbps = 3.0;
  double bw_cap_gbps = 100.0;
};

/// One arrival or departure. Departures reference the tenant of a
/// prior arrival and carry an empty footprint.
struct ChurnEvent {
  enum class Kind { kArrive, kDepart };
  double time = 0.0;
  Kind kind = Kind::kArrive;
  controlplane::TenantKey tenant = 0;
  controlplane::TenantFootprint footprint;
};

/// Draws one tenant footprint from the dataset distributions.
controlplane::TenantFootprint SyntheticFootprint(const ChurnOptions& options, Rng& rng);

/// Generates a time-sorted arrival/departure stream. Tenant keys are
/// the arrival index (0, 1, ...); every departure follows its arrival.
std::vector<ChurnEvent> GenerateChurnTrace(const ChurnOptions& options, Rng& rng);

/// Ledger row capacities calibrated from a trace: the live demand per
/// stage row and on the eq. 26 backplane at the midpoint arrival
/// (assuming every arrival admits), scaled by `scale`. Anchoring to
/// realized demand instead of the analytic steady state makes scale
/// >= 1 run the second half of the trace at capacity and scale < 1 force
/// a reject-heavy mix — the heavy-tailed lifetimes make the analytic
/// ramp converge too slowly to saturate short traces.
controlplane::AdmissionCapacity CapacityAtMidpoint(const std::vector<ChurnEvent>& trace,
                                                   const ChurnOptions& options,
                                                   double scale);

}  // namespace sfp::workload
