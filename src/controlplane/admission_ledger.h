// Exact admission ledger (eq. 26 and per-stage memory, §V-E arrivals
// and departures).
//
// SFP admits a tenant only while every shared resource row still
// covers what the tenant would use:
//
//   sum_live passes_t * T_t  +  passes * T   <=  backplane      (eq. 26)
//   sum_live entries_{t,s}   +  entries_s    <=  capacity_s     (stage s)
//
// Each row is a closed form over the live set, so the ledger keeps one
// running sum per row and decides an arrival by comparing the rows the
// candidate touches against their residuals: O(rows), whatever the
// population.
//
// The sums are fixed-point integers. Bandwidth is quantized to whole
// bits per second (1 Gbps = 10^9 units) and a tenant's backplane
// charge is passes x its quantized bandwidth; stage rows count table
// entries. Capacities are quantized the same way. Admission books the
// tenant's quantized charge and departure subtracts exactly that
// record, so after any number of arrivals and departures every sum
// equals a from-scratch recomputation over the live set: decisions
// cannot drift, and they are a pure function of the live set and the
// candidate.
//
// Not thread-safe; callers serialize (SfpSystem holds its control
// mutex across admission).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sfp::controlplane {

/// Ledger key, decoupled from dataplane::TenantId (uint16) so churn
/// workloads can stream millions of logical tenants through one ledger.
using TenantKey = std::uint32_t;

/// Per-tenant resource usage offered for admission.
struct TenantFootprint {
  double bandwidth_gbps = 0.0;  // T_t
  int passes = 1;               // R_t + 1
  /// (stage, entries) pairs — table entries the folded chain consumes
  /// per stage row, at most one pair per stage. Stages must lie in
  /// [0, stage rows).
  std::vector<std::pair<int, double>> stage_entries;

  double BackplaneCharge() const { return passes * bandwidth_gbps; }
};

/// Row capacities of a ledger.
struct AdmissionCapacity {
  /// eq. 26 backplane capacity (Gbps).
  double backplane_gbps = 0.0;
  /// Table-entry capacity per stage row; size() sets the number of
  /// stage rows (zero when the data plane checks memory itself).
  std::vector<double> stage_entries;
};

/// A footprint quantized onto the ledger's rows; what the ledger books
/// per live tenant.
struct AdmissionCharge {
  /// T, bits per second.
  std::int64_t bandwidth_bps = 0;
  int passes = 0;
  /// passes x T, bits per second (the eq. 26 row).
  std::int64_t backplane_bps = 0;
  /// (stage, entries) per stage row the tenant touches.
  std::vector<std::pair<int, std::int64_t>> stage_entries;
};

class AdmissionLedger {
 public:
  /// Backplane fixed-point scale: whole bits per second.
  static constexpr double kUnitsPerGbps = 1e9;

  explicit AdmissionLedger(const AdmissionCapacity& capacity);

  /// Quantizes a footprint onto the ledger's units. Negative or NaN
  /// quantities count as zero; huge ones saturate.
  static AdmissionCharge Quantize(const TenantFootprint& footprint);

  /// True iff the footprint fits every row it touches next to the live
  /// set.
  bool Fits(const TenantFootprint& footprint) const { return Fits(Quantize(footprint)); }

  /// Books `tenant` iff its footprint fits; returns the decision.
  /// `tenant` must not be live.
  bool TryAdmit(TenantKey tenant, const TenantFootprint& footprint);

  /// Releases exactly the charge booked for `tenant`. Returns false if
  /// the tenant is not live.
  bool Remove(TenantKey tenant);

  bool Contains(TenantKey tenant) const { return live_.contains(tenant); }
  std::size_t size() const { return live_.size(); }
  /// Live tenants and their booked charges (unordered).
  const std::unordered_map<TenantKey, AdmissionCharge>& tenants() const { return live_; }

  /// Running sums and capacities, in the ledger's units.
  std::int64_t offered_bps() const { return offered_bps_; }
  std::int64_t backplane_used_bps() const { return backplane_used_bps_; }
  std::int64_t backplane_capacity_bps() const { return backplane_capacity_bps_; }
  int num_stage_rows() const { return static_cast<int>(stage_capacity_.size()); }
  std::int64_t stage_used(int stage) const {
    return stage_used_[static_cast<std::size_t>(stage)];
  }

 private:
  bool Fits(const AdmissionCharge& charge) const;

  std::int64_t backplane_capacity_bps_ = 0;
  std::int64_t backplane_used_bps_ = 0;
  std::int64_t offered_bps_ = 0;
  std::vector<std::int64_t> stage_capacity_;
  std::vector<std::int64_t> stage_used_;
  std::unordered_map<TenantKey, AdmissionCharge> live_;
};

/// Differential oracle for the ledger's running sums: the same closed
/// form recomputed from scratch over `live` (quantized like the
/// ledger). The churn differentials replay every decision against it.
bool ClosedFormFits(const AdmissionCapacity& capacity,
                    const std::vector<const TenantFootprint*>& live,
                    const TenantFootprint& candidate);

}  // namespace sfp::controlplane
