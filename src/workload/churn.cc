#include "workload/churn.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"

namespace sfp::workload {

controlplane::TenantFootprint SyntheticFootprint(const ChurnOptions& options, Rng& rng) {
  SFP_CHECK_GT(options.num_stages, 0);
  SFP_CHECK_LE(options.min_chain_len, options.max_chain_len);
  controlplane::TenantFootprint footprint;
  footprint.bandwidth_gbps =
      std::min(rng.Pareto(options.bw_pareto_shape, options.bw_pareto_scale_gbps),
               options.bw_cap_gbps);
  const int chain_len =
      static_cast<int>(rng.UniformInt(options.min_chain_len, options.max_chain_len));
  const int start = static_cast<int>(rng.UniformInt(0, options.num_stages - 1));
  // Fold the chain onto consecutive stages from a random offset; a wrap
  // past the last stage is one recirculation pass (charges eq. 26 again).
  footprint.passes = 1 + (start + chain_len - 1) / options.num_stages;
  std::vector<double> per_stage(static_cast<std::size_t>(options.num_stages), 0.0);
  for (int i = 0; i < chain_len; ++i) {
    const int stage = (start + i) % options.num_stages;
    per_stage[static_cast<std::size_t>(stage)] +=
        static_cast<double>(rng.UniformInt(options.min_rules, options.max_rules));
  }
  for (int s = 0; s < options.num_stages; ++s) {
    if (per_stage[static_cast<std::size_t>(s)] != 0.0) {
      footprint.stage_entries.emplace_back(s, per_stage[static_cast<std::size_t>(s)]);
    }
  }
  return footprint;
}

std::vector<ChurnEvent> GenerateChurnTrace(const ChurnOptions& options, Rng& rng) {
  SFP_CHECK_GT(options.target_population, 0);
  SFP_CHECK_GT(options.num_arrivals, 0);
  SFP_CHECK_GT(options.mean_lifetime, 0.0);
  SFP_CHECK_GT(options.lifetime_pareto_shape, 1.0);

  // Pareto mean = scale * shape / (shape - 1); invert for the scale
  // that yields mean_lifetime.
  const double lifetime_scale = options.mean_lifetime *
                                (options.lifetime_pareto_shape - 1.0) /
                                options.lifetime_pareto_shape;
  const double mean_interarrival =
      options.mean_lifetime / static_cast<double>(options.target_population);

  std::vector<ChurnEvent> events;
  events.reserve(static_cast<std::size_t>(2 * options.num_arrivals));
  double clock = 0.0;
  for (std::int64_t t = 0; t < options.num_arrivals; ++t) {
    clock += rng.Exponential(mean_interarrival);
    ChurnEvent arrive;
    arrive.time = clock;
    arrive.kind = ChurnEvent::Kind::kArrive;
    arrive.tenant = static_cast<controlplane::TenantKey>(t);
    arrive.footprint = SyntheticFootprint(options, rng);
    events.push_back(std::move(arrive));

    ChurnEvent depart;
    depart.time = clock + rng.Pareto(options.lifetime_pareto_shape, lifetime_scale);
    depart.kind = ChurnEvent::Kind::kDepart;
    depart.tenant = static_cast<controlplane::TenantKey>(t);
    events.push_back(std::move(depart));
  }
  const double horizon = clock;
  if (options.truncate_at_last_arrival) {
    std::erase_if(events, [horizon](const ChurnEvent& e) {
      return e.kind == ChurnEvent::Kind::kDepart && e.time > horizon;
    });
  }
  // Deterministic replay order: exact time ties (measure-zero for
  // continuous draws, but belt and braces) break by tenant then kind.
  std::sort(events.begin(), events.end(), [](const ChurnEvent& a, const ChurnEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.tenant != b.tenant) return a.tenant < b.tenant;
    return a.kind < b.kind;
  });
  return events;
}

controlplane::AdmissionCapacity CapacityAtMidpoint(const std::vector<ChurnEvent>& trace,
                                                   const ChurnOptions& options,
                                                   double scale) {
  std::vector<double> stage(static_cast<std::size_t>(options.num_stages), 0.0);
  double backplane = 0.0;
  std::unordered_map<controlplane::TenantKey, const controlplane::TenantFootprint*> live;
  std::int64_t arrivals_seen = 0;
  const std::int64_t midpoint = options.num_arrivals / 2;
  for (const auto& event : trace) {
    if (event.kind == ChurnEvent::Kind::kArrive) {
      for (const auto& [s, entries] : event.footprint.stage_entries) {
        stage[static_cast<std::size_t>(s)] += entries;
      }
      backplane += event.footprint.BackplaneCharge();
      live.emplace(event.tenant, &event.footprint);
      if (++arrivals_seen == midpoint) break;
    } else if (const auto it = live.find(event.tenant); it != live.end()) {
      for (const auto& [s, entries] : it->second->stage_entries) {
        stage[static_cast<std::size_t>(s)] -= entries;
      }
      backplane -= it->second->BackplaneCharge();
      live.erase(it);
    }
  }
  controlplane::AdmissionCapacity capacity;
  capacity.backplane_gbps = backplane * scale;
  capacity.stage_entries.reserve(stage.size());
  for (const double demand : stage) capacity.stage_entries.push_back(demand * scale);
  return capacity;
}

}  // namespace sfp::workload
