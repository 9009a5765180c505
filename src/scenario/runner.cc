#include "scenario/runner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "nf/firewall.h"
#include "nf/router.h"

namespace sfp::scenario {

namespace {

using common::faultinject::FaultSchedule;
using common::faultinject::Registry;

constexpr double kNever = std::numeric_limits<double>::infinity();

/// Tenant NF builders. Firewall deny ports live in [1, 1000] while
/// generated traffic uses destination ports >= 2000, so the steady
/// state has no NF drops — drop spikes then cleanly attribute to
/// injected faults or recirculation overload.
nf::NfConfig Fw(std::uint16_t blocked_port, int extra_rules = 0) {
  nf::NfConfig config;
  config.type = nf::NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(
      switchsim::FieldMatch::Any(), switchsim::FieldMatch::Any(),
      switchsim::FieldMatch::Any(),
      switchsim::FieldMatch::Range(blocked_port, blocked_port),
      switchsim::FieldMatch::Any()));
  for (int i = 0; i < extra_rules; ++i) {
    const auto port = static_cast<std::uint64_t>(500 + i);
    config.rules.push_back(nf::Firewall::Deny(
        switchsim::FieldMatch::Any(), switchsim::FieldMatch::Any(),
        switchsim::FieldMatch::Any(), switchsim::FieldMatch::Range(port, port),
        switchsim::FieldMatch::Any()));
  }
  return config;
}

nf::NfConfig Rt() {
  nf::NfConfig config;
  config.type = nf::NfType::kRouter;
  config.rules.push_back(nf::Router::Route(0, 0, 1));
  return config;
}

/// Rule entries an admitted SFC occupies (rules + 1 catch-all per NF).
std::int64_t ExpectedEntries(const dataplane::Sfc& sfc) {
  std::int64_t entries = 0;
  for (const auto& nf : sfc.chain) {
    entries += static_cast<std::int64_t>(nf.rules.size()) + 1;
  }
  return entries;
}

std::uint64_t SumFaultFires() {
  std::uint64_t fires = 0;
  for (const auto& [point, stats] : Registry::Instance().AllStats()) fires += stats.fires;
  return fires;
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size())) - 1.0;
  const auto index = static_cast<std::size_t>(
      std::clamp(rank, 0.0, static_cast<double>(values.size() - 1)));
  return values[index];
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {
  system_ = std::make_unique<core::SfpSystem>(spec_.switch_config);
  const auto layout = spec_.layout.empty()
                          ? std::vector<std::vector<nf::NfType>>{{nf::NfType::kFirewall},
                                                                 {nf::NfType::kRouter}}
                          : spec_.layout;
  if (system_->ProvisionPhysical(layout) == 0) {
    setup_error_ = "scenario '" + spec_.name + "': physical layout installed no NFs";
  }
  // Departed series must survive churn for the packet-conservation
  // check; the cap comfortably exceeds any builtin scenario's
  // lifetime tenant count.
  system_->Telemetry().SetRetention(dataplane::TelemetryRetention::kKeepDeparted, 8192);
  if (spec_.use_compiled_plans) system_->EnableCompiledPlans();
  recovery_ = std::make_unique<RecoveryController>(*system_, spec_.recovery);
}

bool ScenarioRunner::SpawnTenant(double now_s, double departs_s, Rng& rng) {
  dataplane::Sfc sfc;
  sfc.tenant = next_tenant_++;
  sfc.bandwidth_gbps = std::min(rng.Pareto(2.0, 1.0), 8.0);
  const auto port = static_cast<std::uint16_t>(rng.UniformInt(1, 400));
  if (rng.UniformDouble() < spec_.multi_pass_fraction) {
    // Out-of-order on the {Firewall}, {Router} layout: folds into a
    // second pass, making the tenant telemetry-visible when damaged.
    if (rng.Bernoulli(0.5)) {
      sfc.chain = {Rt(), Fw(port, static_cast<int>(rng.UniformInt(0, 4)))};
    } else {
      sfc.chain = {Fw(port), Rt(), Fw(static_cast<std::uint16_t>(port + 1))};
    }
  } else {
    sfc.chain = rng.Bernoulli(0.5)
                    ? std::vector<nf::NfConfig>{Fw(port)}
                    : std::vector<nf::NfConfig>{Fw(port, 2), Rt()};
  }

  core::AdmitOptions options;
  options.max_attempts = 3;
  options.initial_backoff = std::chrono::microseconds{0};
  const auto result = system_->AdmitTenant(sfc, options);
  if (!result.admitted) return false;
  recovery_->TrackTenant(sfc, result.passes);
  ActiveTenant tenant;
  tenant.sfc = std::move(sfc);
  tenant.passes = result.passes;
  tenant.departs_s = departs_s;
  tenant.rank = next_rank_++;
  active_.push_back(std::move(tenant));
  (void)now_s;
  return true;
}

double ScenarioRunner::LoadFactor(double now_s) const {
  double factor = 1.0;
  for (const auto& event : spec_.events) {
    if (now_s < event.start_s || now_s >= event.end_s) continue;
    switch (event.kind) {
      case Event::Kind::kDiurnal: {
        const double phase = 2.0 * M_PI * (now_s - event.start_s) / event.period_s;
        factor *= std::max(0.0, 1.0 + event.amplitude * std::sin(phase));
        break;
      }
      case Event::Kind::kFlashCrowd:
        factor *= event.load_multiplier;
        break;
      default:
        break;
    }
  }
  return factor;
}

double ScenarioRunner::DriftWeight(double now_s, int rank, int population) const {
  double weight = 1.0;
  if (population <= 1) return weight;
  for (const auto& event : spec_.events) {
    if (event.kind != Event::Kind::kTrafficDrift) continue;
    if (now_s < event.start_s || now_s >= event.end_s) continue;
    const double span = std::max(event.end_s - event.start_s, 1e-9);
    const double f = std::clamp((now_s - event.start_s) / span, 0.0, 1.0) *
                     event.drift_fraction;
    const double position =
        2.0 * static_cast<double>(rank) / static_cast<double>(population - 1) - 1.0;
    weight *= std::max(0.0, 1.0 + f * position);
  }
  return weight;
}

void ScenarioRunner::CheckConservation(double now_s, ScenarioResult& result) {
  ++result.conservation_checks;
  auto violate = [&](const std::string& message) {
    ++result.conservation_violations;
    if (result.errors.size() < 8) {
      result.errors.push_back("t=" + std::to_string(now_s) + "s: " + message);
    }
  };

  // Every generated packet was recorded exactly once (departed series
  // retained; tenant ids never reused).
  const auto total = system_->Telemetry().Total();
  if (total.packets != packets_sent_) {
    violate("telemetry packets " + std::to_string(total.packets) + " != sent " +
            std::to_string(packets_sent_));
  }
  if (total.bytes != bytes_sent_) {
    violate("telemetry bytes " + std::to_string(total.bytes) + " != sent " +
            std::to_string(bytes_sent_));
  }
  if (total.drops > total.packets) violate("drops exceed packets");

  // Rule-entry conservation: the switch holds exactly the currently
  // allocated tenants' entries — nothing leaked by faulted admissions,
  // removals, quarantines, or re-provisions.
  const auto stats = system_->Stats();
  std::int64_t expected_entries = 0;
  for (const auto& tenant : active_) {
    if (system_->data_plane().IsAllocated(tenant.sfc.tenant)) {
      expected_entries += ExpectedEntries(tenant.sfc);
    }
  }
  if (stats.entries_used != expected_entries) {
    violate("entries used " + std::to_string(stats.entries_used) + " != expected " +
            std::to_string(expected_entries));
  }

  // eq. 26: the admitted backplane charge never exceeds capacity.
  const double capacity = system_->data_plane().pipeline().config().backplane_gbps;
  if (stats.backplane_gbps > capacity + 1e-6) {
    violate("backplane charge " + std::to_string(stats.backplane_gbps) +
            " exceeds capacity " + std::to_string(capacity));
  }

  // Per table, under every planner: each physical table holds exactly
  // the entries the data plane's allocations book there.
  for (const auto& issue : system_->data_plane().Audit()) violate("data plane: " + issue);
}

ScenarioResult ScenarioRunner::Run() {
  ScenarioResult result;
  if (!setup_error_.empty()) {
    result.errors.push_back(setup_error_);
    return result;
  }

  Rng root(spec_.seed);
  Rng shape_rng = root.Fork();
  Rng traffic_rng = root.Fork();
  Rng churn_rng = root.Fork();

  FaultSchedule schedule;
  for (const auto& event : spec_.events) {
    if (event.kind == Event::Kind::kFaultStorm) {
      schedule.AddWindow(event.start_s, event.end_s, event.plan);
    }
  }

  for (int i = 0; i < spec_.initial_tenants; ++i) {
    if (SpawnTenant(0.0, kNever, shape_rng)) {
      ++result.tenants_admitted;
    } else {
      ++result.admit_rejects;
    }
  }

  // Lazily armed per-churn-event arrival clocks.
  std::vector<double> next_arrival(spec_.events.size(), -1.0);

  const auto total_ticks =
      static_cast<std::uint64_t>(std::llround(spec_.duration_s / spec_.tick_s));
  double next_poll = 0.0;
  double next_check = spec_.check_interval_s;
  std::vector<net::Packet> batch;
  std::vector<switchsim::ProcessResult> results;

  for (std::uint64_t tick = 0; tick < total_ticks; ++tick) {
    const double now = static_cast<double>(tick) * spec_.tick_s;

    // Fault windows. Re-arming resets the registry's counters, so
    // harvest the outgoing window set's firing count first.
    const std::uint64_t pending_fires = schedule.active() ? SumFaultFires() : 0;
    if (schedule.AdvanceTo(now)) result.fault_fires += pending_fires;

    // Tenant churn: Poisson arrivals, Pareto lifetimes.
    for (std::size_t e = 0; e < spec_.events.size(); ++e) {
      const auto& event = spec_.events[e];
      if (event.kind != Event::Kind::kTenantChurn) continue;
      if (now < event.start_s || now >= event.end_s) continue;
      if (next_arrival[e] < event.start_s) {
        next_arrival[e] = event.start_s + churn_rng.Exponential(1.0 / event.arrivals_per_s);
      }
      while (next_arrival[e] <= now) {
        const double lifetime =
            churn_rng.Pareto(event.pareto_shape, event.pareto_scale_s);
        if (SpawnTenant(now, now + lifetime, shape_rng)) {
          ++result.tenants_admitted;
        } else {
          ++result.admit_rejects;
        }
        next_arrival[e] += churn_rng.Exponential(1.0 / event.arrivals_per_s);
      }
    }

    // Quarantined tenants stop sending (the controller already
    // released their resources); departures release theirs here.
    bool departed_this_tick = false;
    for (auto it = active_.begin(); it != active_.end();) {
      if (recovery_->IsQuarantined(it->sfc.tenant)) {
        it = active_.erase(it);
      } else if (it->departs_s <= now) {
        system_->RemoveTenant(it->sfc.tenant);
        recovery_->UntrackTenant(it->sfc.tenant);
        ++result.tenants_departed;
        departed_this_tick = true;
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
    // Cross-tenant window compaction inside RemoveTenant may have
    // legally re-provisioned survivors into fewer passes; re-track
    // them so the recovery loop's passes-collapse signature doesn't
    // mistake the improvement for damage.
    const auto planner = system_->data_plane().pipeline().config().planner;
    if (departed_this_tick && planner == switchsim::Planner::kCoScheduled) {
      for (auto& tenant : active_) {
        const auto* allocation =
            system_->data_plane().FindAllocation(tenant.sfc.tenant);
        if (allocation == nullptr || allocation->passes == tenant.passes) continue;
        tenant.passes = allocation->passes;
        recovery_->TrackTenant(tenant.sfc, tenant.passes);
      }
    }

    // Offered load for this tick: per-tenant packet counts scaled by
    // the global load factor and the tenant's drift weight. Each
    // tenant's packets arrive as one contiguous microburst (ingress
    // gap spec_.packet_gap_ns), tenant bursts spread evenly across the
    // tick — burst depth therefore scales with load, which is what
    // lets flash crowds overload the finite recirculation port while
    // steady bursts drain within its queue bound.
    batch.clear();
    const double factor = LoadFactor(now);
    const double clump_spacing_ns =
        spec_.tick_s * 1e9 / static_cast<double>(std::max<std::size_t>(active_.size(), 1));
    bool truncated = false;
    for (std::size_t i = 0; i < active_.size() && !truncated; ++i) {
      const auto& tenant = active_[i];
      const double weight =
          DriftWeight(now, static_cast<int>(i), static_cast<int>(active_.size()));
      const auto count = static_cast<int>(
          std::llround(spec_.packets_per_tenant_tick * factor * weight));
      for (int p = 0; p < count; ++p) {
        if (batch.size() >= spec_.max_batch) {
          truncated = true;
          break;
        }
        auto packet = net::MakeTcpPacket(
            tenant.sfc.tenant, net::Ipv4Address::Of(10, 0, 0, 1),
            net::Ipv4Address::Of(2, 2, 2, 2),
            static_cast<std::uint16_t>(1024 + traffic_rng.UniformInt(0, 255)),
            static_cast<std::uint16_t>(2000 + traffic_rng.UniformInt(0, 9999)),
            static_cast<std::uint32_t>(traffic_rng.UniformInt(64, 1200)));
        packet.ingress_time_ns = now * 1e9 + static_cast<double>(i) * clump_spacing_ns +
                                 static_cast<double>(p) * spec_.packet_gap_ns;
        bytes_sent_ += packet.WireBytes();
        batch.push_back(std::move(packet));
      }
    }
    if (truncated) ++result.truncated_ticks;
    if (!batch.empty()) {
      switchsim::BatchOptions options;
      options.num_threads = spec_.serve_threads;
      results.resize(batch.size());
      system_->ProcessBatchInto(batch, results, options);
      packets_sent_ += batch.size();
    }

    if (spec_.enable_recovery && now + 1e-9 >= next_poll) {
      recovery_->Poll(now);
      while (next_poll <= now + 1e-9) next_poll += spec_.poll_interval_s;
    }
    if (now + 1e-9 >= next_check) {
      CheckConservation(now, result);
      while (next_check <= now + 1e-9) next_check += spec_.check_interval_s;
    }
  }

  if (schedule.active()) result.fault_fires += SumFaultFires();
  schedule.Stop();

  // Traffic-free drain: let pending backoffs finish so episodes close
  // with the registry disarmed (repairs can no longer be faulted).
  if (spec_.enable_recovery) {
    for (int i = 1; i <= spec_.drain_polls; ++i) {
      recovery_->Poll(spec_.duration_s + static_cast<double>(i) * spec_.poll_interval_s);
    }
  }
  for (auto it = active_.begin(); it != active_.end();) {
    if (recovery_->IsQuarantined(it->sfc.tenant)) {
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  CheckConservation(spec_.duration_s, result);

  result.ticks = total_ticks;
  result.packets_sent = packets_sent_;
  result.bytes_sent = bytes_sent_;
  result.total = system_->Telemetry().Total();
  result.recovery = recovery_->counters();
  result.episodes = recovery_->episodes();
  result.open_episodes = recovery_->DegradedTenants().size();
  std::vector<double> durations;
  for (const auto& episode : result.episodes) {
    if (episode.recovered) durations.push_back(episode.DurationMs());
  }
  result.recovery_p50_ms = Percentile(durations, 0.50);
  result.recovery_p99_ms = Percentile(durations, 0.99);
  result.recovery_max_ms = durations.empty()
                               ? 0.0
                               : *std::max_element(durations.begin(), durations.end());
  result.ok = result.conservation_violations == 0;
  return result;
}

}  // namespace sfp::scenario
