// AdmissionLedger decision equivalence and SfpSystem integration under
// Pareto-lifetime churn (workload/churn.h): the ledger's running sums
// must agree with the closed form recomputed from scratch on every
// admit/reject, release capacity on departure, and — at the system
// level — match the legacy floating-point eq. 26 sum over admissions
// decision for decision.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "controlplane/admission_ledger.h"
#include "core/sfp_system.h"
#include "nf/firewall.h"
#include "workload/churn.h"

namespace sfp {
namespace {

using controlplane::AdmissionCapacity;
using controlplane::AdmissionLedger;
using controlplane::TenantFootprint;

/// Replays a trace through a ledger, asserting every decision against
/// the closed form recomputed from scratch over the tenants the ledger
/// admitted; admit/reject tallies land in the out-params (gtest ASSERTs
/// require a void-returning helper).
void ReplayAgainstColdOracle(const AdmissionCapacity& capacity,
                             const std::vector<workload::ChurnEvent>& trace,
                             int* admitted_out = nullptr, int* rejected_out = nullptr) {
  AdmissionLedger ledger(capacity);
  std::unordered_map<controlplane::TenantKey, const TenantFootprint*> live;
  int admitted = 0, rejected = 0;
  for (const auto& event : trace) {
    if (event.kind == workload::ChurnEvent::Kind::kDepart) {
      ASSERT_EQ(ledger.Remove(event.tenant), live.erase(event.tenant) == 1)
          << "tenant " << event.tenant << " departure disagrees";
      continue;
    }
    std::vector<const TenantFootprint*> live_set;
    for (const auto& [tenant, footprint] : live) live_set.push_back(footprint);
    const bool oracle = controlplane::ClosedFormFits(capacity, live_set, event.footprint);
    const bool booked = ledger.TryAdmit(event.tenant, event.footprint);
    ASSERT_EQ(booked, oracle) << "tenant " << event.tenant
                              << " ledger/closed-form decision flip";
    if (booked) live.emplace(event.tenant, &event.footprint);
    (booked ? admitted : rejected)++;
  }
  ASSERT_EQ(ledger.size(), live.size());
  if (admitted_out) *admitted_out = admitted;
  if (rejected_out) *rejected_out = rejected;
}

workload::ChurnOptions SmallChurn(std::int64_t population, std::int64_t arrivals) {
  workload::ChurnOptions churn;
  churn.target_population = population;
  churn.num_arrivals = arrivals;
  churn.num_stages = 4;
  return churn;
}

TEST(AdmissionChurnTest, DecisionsMatchColdReferenceUnderChurn) {
  // Tight capacity (60% of the midpoint demand) forces a mixed
  // admit/reject stream; every single decision must match the oracle.
  workload::ChurnOptions churn = SmallChurn(32, 160);
  Rng rng(1);
  const auto trace = workload::GenerateChurnTrace(churn, rng);
  int admitted = 0, rejected = 0;
  ReplayAgainstColdOracle(workload::CapacityAtMidpoint(trace, churn, 0.6), trace, &admitted,
                          &rejected);
  if (HasFatalFailure()) return;
  EXPECT_GT(admitted, 0);
  EXPECT_GT(rejected, 0) << "capacity never bound; differential only saw admits";
}

TEST(AdmissionChurnTest, RemoveReleasesCapacityForReadmission) {
  AdmissionCapacity capacity;
  capacity.backplane_gbps = 10.0;
  AdmissionLedger ledger(capacity);

  TenantFootprint fp;
  fp.bandwidth_gbps = 8.0;
  fp.passes = 1;
  EXPECT_TRUE(ledger.TryAdmit(1, fp));
  EXPECT_FALSE(ledger.TryAdmit(2, fp));  // 8 + 8 > 10
  EXPECT_TRUE(ledger.Remove(1));
  EXPECT_FALSE(ledger.Remove(1));  // already gone
  EXPECT_TRUE(ledger.TryAdmit(3, fp));   // capacity released
  EXPECT_TRUE(ledger.Contains(3));
  EXPECT_FALSE(ledger.Contains(1));
  EXPECT_EQ(ledger.size(), 1u);
}

// --- SfpSystem integration ------------------------------------------

nf::NfConfig Fw(std::uint16_t blocked_port) {
  nf::NfConfig config;
  config.type = nf::NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(
      switchsim::FieldMatch::Any(), switchsim::FieldMatch::Any(),
      switchsim::FieldMatch::Any(),
      switchsim::FieldMatch::Range(blocked_port, blocked_port),
      switchsim::FieldMatch::Any()));
  return config;
}

switchsim::SwitchConfig TestSwitch(double backplane_gbps) {
  switchsim::SwitchConfig config;
  config.num_stages = 8;
  config.blocks_per_stage = 20;
  config.entries_per_block = 1000;
  config.backplane_gbps = backplane_gbps;
  return config;
}

dataplane::Sfc FwSfc(dataplane::TenantId tenant, double bandwidth_gbps) {
  dataplane::Sfc sfc;
  sfc.tenant = tenant;
  sfc.bandwidth_gbps = bandwidth_gbps;
  sfc.chain = {Fw(443)};
  return sfc;
}

TEST(AdmissionChurnTest, SystemLedgerMatchesLegacySumDecisionForDecision) {
  // Reference model: the floating-point eq. 26 check the ledger
  // replaced — re-sum passes x T over every admitted tenant and accept
  // iff used + charge fits the backplane within 1e-9 Gbps.
  constexpr double kBackplane = 100.0;
  core::SfpSystem system(TestSwitch(kBackplane));
  system.ProvisionPhysical({{nf::NfType::kFirewall}});
  std::map<dataplane::TenantId, double> legacy;  // tenant -> charge (1 pass)

  Rng rng(9);
  for (int step = 0; step < 60; ++step) {
    const auto tenant = static_cast<dataplane::TenantId>(1 + rng.UniformInt(0, 11));
    if (rng.Bernoulli(0.35)) {
      EXPECT_EQ(system.RemoveTenant(tenant), legacy.erase(tenant) == 1) << "step " << step;
      continue;
    }
    const double bw = static_cast<double>(rng.UniformInt(0, 4)) * 10.0;  // 0: zero charge
    const auto result = system.AdmitTenant(FwSfc(tenant, bw));
    if (legacy.contains(tenant)) {
      EXPECT_EQ(result.code, core::AdmitCode::kAlreadyAdmitted) << "step " << step;
      continue;
    }
    double used = 0.0;
    for (const auto& [t, charge] : legacy) used += charge;
    const bool accepted = used + bw <= kBackplane + 1e-9;
    EXPECT_EQ(result.admitted, accepted) << "step " << step << " bw " << bw;
    EXPECT_EQ(result.code,
              accepted ? core::AdmitCode::kOk : core::AdmitCode::kBackplaneExceeded)
        << "step " << step;
    if (accepted) legacy[tenant] = bw;
  }
  double used = 0.0;
  for (const auto& [t, charge] : legacy) used += charge;
  EXPECT_EQ(system.Stats().tenants, static_cast<int>(legacy.size()));
  EXPECT_NEAR(system.Stats().backplane_gbps, used, 1e-9);
}

TEST(AdmissionChurnTest, SystemTimesEveryAdmitOutcome) {
  // Admitted, already-admitted, allocation-failed and backplane-
  // rejected calls are all timed.
  core::SfpSystem system(TestSwitch(100.0));
  system.ProvisionPhysical({{nf::NfType::kFirewall}});
  ASSERT_TRUE(system.AdmitTenant(FwSfc(1, 10.0)).admitted);
  ASSERT_EQ(system.AdmitTenant(FwSfc(1, 10.0)).code, core::AdmitCode::kAlreadyAdmitted);
  dataplane::Sfc empty = FwSfc(2, 10.0);
  empty.chain.clear();
  ASSERT_EQ(system.AdmitTenant(empty).code, core::AdmitCode::kAllocationFailed);
  ASSERT_EQ(system.AdmitTenant(FwSfc(3, 200.0)).code, core::AdmitCode::kBackplaneExceeded);
  common::metrics::Registry registry;
  system.ExportMetrics(registry);
  const auto& latency = registry.GetHistogram("system.admit.latency_ns");
  EXPECT_EQ(latency.Count(), 4u);
  EXPECT_GT(latency.Sum(), 0.0);
  EXPECT_GT(latency.Min(), 0.0);
  EXPECT_LE(latency.Max(), latency.Sum());
  EXPECT_GE(latency.Max() * 4, latency.Sum());
  // A second export overwrites the snapshot rather than adding to it.
  system.ExportMetrics(registry);
  EXPECT_EQ(registry.GetHistogram("system.admit.latency_ns").Count(), 4u);
  for (const auto& counter : registry.Counters()) {
    EXPECT_FALSE(counter.name.starts_with("solver.warm.")) << counter.name;
  }
}

TEST(AdmissionChurnTest, ConcurrentAdmitsUnderChurn) {
  // TSan target: admission runs under the control mutex, so concurrent
  // admit/remove across threads must be race-free and conserve the
  // ledger.
  core::SfpSystem system(TestSwitch(100000.0));
  system.ProvisionPhysical({{nf::NfType::kFirewall}});
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 40;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&system, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto tenant = static_cast<dataplane::TenantId>(1 + t * kOpsPerThread + i);
        ASSERT_TRUE(system.AdmitTenant(FwSfc(tenant, 1.0)).admitted);
        if (i % 2 == 0) ASSERT_TRUE(system.RemoveTenant(tenant));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(system.Stats().tenants, kThreads * kOpsPerThread / 2);
  common::metrics::Registry registry;
  system.ExportMetrics(registry);
  EXPECT_EQ(registry.GetHistogram("system.admit.latency_ns").Count(),
            static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  EXPECT_NEAR(system.Stats().backplane_gbps, kThreads * kOpsPerThread / 2 * 1.0, 1e-9);
}

}  // namespace
}  // namespace sfp
