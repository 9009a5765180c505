#include "controlplane/admission_ledger.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace sfp::controlplane {
namespace {

/// Saturation bound for quantized quantities (9 Pbps on the backplane
/// row): exact as a double, and far enough from int64 overflow that a
/// capacity minus its used sum never wraps.
constexpr std::int64_t kMaxUnits = std::int64_t{1} << 53;

std::int64_t ToUnits(double value, double scale) {
  const double scaled = value * scale;
  if (!(scaled > 0.0)) return 0;  // also NaN
  if (scaled >= static_cast<double>(kMaxUnits)) return kMaxUnits;
  return std::llround(scaled);
}

/// True iff `need` more units fit next to `used` under `capacity`
/// (used <= capacity holds for every booked row, so nothing wraps).
bool RowFits(std::int64_t used, std::int64_t need, std::int64_t capacity) {
  return need <= capacity - used;
}

}  // namespace

AdmissionLedger::AdmissionLedger(const AdmissionCapacity& capacity)
    : backplane_capacity_bps_(ToUnits(capacity.backplane_gbps, kUnitsPerGbps)),
      stage_used_(capacity.stage_entries.size(), 0) {
  stage_capacity_.reserve(capacity.stage_entries.size());
  for (const double entries : capacity.stage_entries) {
    stage_capacity_.push_back(ToUnits(entries, 1.0));
  }
}

AdmissionCharge AdmissionLedger::Quantize(const TenantFootprint& footprint) {
  AdmissionCharge charge;
  charge.bandwidth_bps = ToUnits(footprint.bandwidth_gbps, kUnitsPerGbps);
  charge.passes = std::max(footprint.passes, 0);
  charge.backplane_bps = charge.passes > 0 && charge.bandwidth_bps > kMaxUnits / charge.passes
                             ? kMaxUnits
                             : charge.passes * charge.bandwidth_bps;
  charge.stage_entries.reserve(footprint.stage_entries.size());
  for (const auto& [stage, entries] : footprint.stage_entries) {
    charge.stage_entries.emplace_back(stage, ToUnits(entries, 1.0));
  }
  return charge;
}

bool AdmissionLedger::Fits(const AdmissionCharge& charge,
                           const AdmissionCharge* released) const {
  for (const auto& [stage, entries] : charge.stage_entries) {
    SFP_CHECK_GE(stage, 0);
    SFP_CHECK_LT(stage, num_stage_rows());
    const auto s = static_cast<std::size_t>(stage);
    std::int64_t used = stage_used_[s];
    if (released != nullptr) {
      for (const auto& [own_stage, own] : released->stage_entries) {
        if (own_stage == stage) used -= own;
      }
    }
    if (!RowFits(used, entries, stage_capacity_[s])) return false;
  }
  const std::int64_t used =
      backplane_used_bps_ - (released != nullptr ? released->backplane_bps : 0);
  return RowFits(used, charge.backplane_bps, backplane_capacity_bps_);
}

bool AdmissionLedger::FitsReplacing(TenantKey tenant, const TenantFootprint& footprint) const {
  const auto it = live_.find(tenant);
  return Fits(Quantize(footprint), it != live_.end() ? &it->second : nullptr);
}

bool AdmissionLedger::TryAdmit(TenantKey tenant, const TenantFootprint& footprint) {
  SFP_CHECK_MSG(!live_.contains(tenant), "tenant already booked in the admission ledger");
  AdmissionCharge charge = Quantize(footprint);
  if (!Fits(charge, nullptr)) return false;
  for (const auto& [stage, entries] : charge.stage_entries) {
    stage_used_[static_cast<std::size_t>(stage)] += entries;
  }
  backplane_used_bps_ += charge.backplane_bps;
  offered_bps_ += charge.bandwidth_bps;
  live_.emplace(tenant, std::move(charge));
  return true;
}

bool AdmissionLedger::Remove(TenantKey tenant) {
  const auto it = live_.find(tenant);
  if (it == live_.end()) return false;
  const AdmissionCharge& charge = it->second;
  for (const auto& [stage, entries] : charge.stage_entries) {
    stage_used_[static_cast<std::size_t>(stage)] -= entries;
  }
  backplane_used_bps_ -= charge.backplane_bps;
  offered_bps_ -= charge.bandwidth_bps;
  live_.erase(it);
  return true;
}

bool ClosedFormFits(const AdmissionCapacity& capacity,
                    const std::vector<const TenantFootprint*>& live,
                    const TenantFootprint& candidate) {
  std::vector<std::int64_t> stage(capacity.stage_entries.size(), 0);
  std::int64_t backplane = 0;
  for (const TenantFootprint* footprint : live) {
    const AdmissionCharge charge = AdmissionLedger::Quantize(*footprint);
    for (const auto& [s, entries] : charge.stage_entries) {
      stage[static_cast<std::size_t>(s)] += entries;
    }
    backplane += charge.backplane_bps;
  }
  const AdmissionCharge charge = AdmissionLedger::Quantize(candidate);
  for (const auto& [s, entries] : charge.stage_entries) {
    const std::int64_t cap = ToUnits(capacity.stage_entries[static_cast<std::size_t>(s)], 1.0);
    if (!RowFits(stage[static_cast<std::size_t>(s)], entries, cap)) return false;
  }
  return RowFits(backplane, charge.backplane_bps,
                 ToUnits(capacity.backplane_gbps, AdmissionLedger::kUnitsPerGbps));
}

}  // namespace sfp::controlplane
