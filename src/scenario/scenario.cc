#include "scenario/scenario.h"

namespace sfp::scenario {

using common::faultinject::FaultPlan;
using common::faultinject::FaultSpec;

const char* EventKindName(Event::Kind kind) {
  switch (kind) {
    case Event::Kind::kFaultStorm: return "fault-storm";
    case Event::Kind::kFlashCrowd: return "flash-crowd";
    case Event::Kind::kDiurnal: return "diurnal";
    case Event::Kind::kTenantChurn: return "tenant-churn";
    case Event::Kind::kTrafficDrift: return "traffic-drift";
  }
  return "?";
}

namespace {

/// Shared small-switch base: two stages so out-of-order chains fold
/// (multi-pass tenants are the telemetry-visible ones), a finite
/// recirculation port so flash crowds can overload it, and modest
/// memory so churn exercises admission rejects.
ScenarioSpec Base(std::string name, std::string description) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.switch_config.num_stages = 2;
  spec.switch_config.blocks_per_stage = 8;
  spec.switch_config.entries_per_block = 200;
  spec.switch_config.backplane_gbps = 400.0;
  // 40 Gbps drains a steady 16-packet microburst (~126 ns to serialize
  // an average frame vs the 100 ns ingress gap) but not a flash-crowd
  // burst six times as deep; 8 µs of queue absorbs size variance.
  spec.switch_config.recirculation_gbps = 40.0;
  spec.switch_config.recirculation_queue_ns = 8000.0;
  spec.layout = {{nf::NfType::kFirewall}, {nf::NfType::kRouter}};
  return spec;
}

Event Storm(double start_s, double end_s, std::uint64_t seed,
            std::vector<FaultSpec> faults) {
  Event event;
  event.kind = Event::Kind::kFaultStorm;
  event.start_s = start_s;
  event.end_s = end_s;
  event.plan.seed = seed;
  event.plan.faults = std::move(faults);
  return event;
}

}  // namespace

ScenarioSpec FailureStormScenario() {
  ScenarioSpec spec = Base("failure_storm",
                           "three seed-driven fault bursts: injected serve drops plus "
                           "atomic-update and rule-install faults; the recovery loop "
                           "re-provisions flagged tenants through the storms");
  spec.seed = 0xF57A11u;
  spec.duration_s = 900.0;
  spec.initial_tenants = 8;
  // Each burst drops a slice of served packets (telemetry drop-spike
  // signature) and fails a fraction of repair swaps (exercising
  // sim-time backoff and, via rollback double-faults, divergence).
  // Repair-path fault rates are set with compounding in mind: one
  // re-provision swap rolls apply_op per step (x2) and install_rule /
  // add_entry per installed rule (x4-10), so even these low per-point
  // probabilities leave every repair a ~20-40% coin flip during a
  // storm. High enough to exercise backoff and the occasional
  // quarantine; low enough that five consecutive failures (the
  // quarantine bar) stay rare — a storm should degrade the fleet, not
  // execute it.
  spec.events.push_back(Storm(
      60.0, 180.0, 11,
      {FaultSpec::Probability("switchsim.pipeline.serve", 0.25),
       FaultSpec::Probability("dataplane.apply_op", 0.15),
       FaultSpec::Probability("dataplane.install_rule", 0.03)}));
  spec.events.push_back(Storm(
      330.0, 450.0, 22,
      {FaultSpec::Probability("switchsim.pipeline.serve", 0.40),
       FaultSpec::Probability("core.reprovision", 0.30),
       FaultSpec::Probability("switchsim.table.add_entry", 0.02)}));
  spec.events.push_back(Storm(
      620.0, 700.0, 33,
      {FaultSpec::EveryNth("switchsim.pipeline.serve", 3),
       FaultSpec::Probability("dataplane.apply_op", 0.15),
       FaultSpec::Probability("dataplane.install_rule", 0.03)}));
  return spec;
}

ScenarioSpec FlashCrowdScenario() {
  ScenarioSpec spec = Base("flash_crowd",
                           "two sudden load surges overload the finite recirculation "
                           "port; overload drops must stay attributed and conserved, "
                           "and the backlog must drain after each surge");
  spec.seed = 0xF1A54u;
  spec.duration_s = 900.0;
  spec.initial_tenants = 6;
  // Less recirculation headroom than the base config: the x6 surge
  // must actually overload the port (two-pass microbursts of ~100
  // packets exceed the 8 us queue at 25 Gbps; steady 16-packet bursts
  // drain).
  spec.switch_config.recirculation_gbps = 25.0;
  Event surge;
  surge.kind = Event::Kind::kFlashCrowd;
  surge.start_s = 200.0;
  surge.end_s = 320.0;
  surge.load_multiplier = 6.0;
  spec.events.push_back(surge);
  surge.start_s = 600.0;
  surge.end_s = 660.0;
  surge.load_multiplier = 10.0;
  spec.events.push_back(surge);
  // Overload drops are congestion, not damage — keep the drop-spike
  // detector from thrashing re-provisions that cannot help.
  spec.recovery.drop_rate_threshold = 0.60;
  return spec;
}

ScenarioSpec DiurnalScenario() {
  ScenarioSpec spec = Base("diurnal",
                           "two simulated hours of sinusoidal day/night load with a "
                           "small fault burst at the nightly trough");
  spec.seed = 0xD10A1u;
  spec.duration_s = 7200.0;
  spec.tick_s = 2.0;
  spec.check_interval_s = 60.0;
  spec.initial_tenants = 6;
  // At the nightly trough a 1-tick drift window holds ~6 packets —
  // below the detector's noise floor. A 10 s poll window keeps the
  // trough storm detectable without lowering the floor.
  spec.poll_interval_s = 10.0;
  Event cycle;
  cycle.kind = Event::Kind::kDiurnal;
  cycle.start_s = 0.0;
  cycle.end_s = spec.duration_s;
  cycle.period_s = 3600.0;
  cycle.amplitude = 0.6;
  spec.events.push_back(cycle);
  spec.events.push_back(Storm(
      2640.0, 2760.0, 44,
      {FaultSpec::Probability("switchsim.pipeline.serve", 0.30),
       FaultSpec::Probability("dataplane.apply_op", 0.15)}));
  return spec;
}

ScenarioSpec TenantChurnScenario() {
  ScenarioSpec spec = Base("tenant_churn",
                           "Poisson arrivals with Pareto lifetimes churn the tenant "
                           "population for half a simulated hour; admission control, "
                           "telemetry retention, and rule-entry conservation hold "
                           "throughout");
  spec.seed = 0xC4A54u;
  spec.duration_s = 1800.0;
  spec.initial_tenants = 4;
  Event churn;
  churn.kind = Event::Kind::kTenantChurn;
  churn.start_s = 0.0;
  churn.end_s = spec.duration_s;
  churn.arrivals_per_s = 0.08;
  churn.pareto_shape = 1.5;
  churn.pareto_scale_s = 60.0;
  spec.events.push_back(churn);
  spec.events.push_back(Storm(
      900.0, 1000.0, 55,
      {FaultSpec::Probability("dataplane.install_rule", 0.10),
       FaultSpec::Probability("switchsim.table.add_entry", 0.03),
       FaultSpec::Probability("switchsim.pipeline.serve", 0.15)}));
  return spec;
}

ScenarioSpec TrafficDriftScenario() {
  ScenarioSpec spec = Base("traffic_drift",
                           "per-tenant load drifts apart over the run while a mid-run "
                           "fault burst hits; drift alone must not trip the recovery "
                           "loop's damage signatures");
  spec.seed = 0xD41F7u;
  spec.duration_s = 900.0;
  spec.initial_tenants = 8;
  Event drift;
  drift.kind = Event::Kind::kTrafficDrift;
  drift.start_s = 100.0;
  drift.end_s = 800.0;
  drift.drift_fraction = 0.7;
  spec.events.push_back(drift);
  spec.events.push_back(Storm(
      400.0, 480.0, 66,
      {FaultSpec::Probability("switchsim.pipeline.serve", 0.30),
       FaultSpec::Probability("dataplane.apply_op", 0.20)}));
  return spec;
}

std::vector<ScenarioSpec> BuiltinScenarios() {
  return {FailureStormScenario(), FlashCrowdScenario(), DiurnalScenario(),
          TenantChurnScenario(), TrafficDriftScenario()};
}

bool FindScenario(const std::string& name, ScenarioSpec& out) {
  for (auto& spec : BuiltinScenarios()) {
    if (spec.name == name) {
      out = std::move(spec);
      return true;
    }
  }
  return false;
}

}  // namespace sfp::scenario
