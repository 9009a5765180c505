// controlplane::AdmissionLedger unit tests (fixed-point exactness,
// per-row decisions, drift-free bookkeeping over a million arrivals)
// and SfpSystem's plan-before-install admission order: a tenant that
// eq. 26 rejects must never reach a table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "controlplane/admission_ledger.h"
#include "core/sfp_system.h"
#include "workload/traffic.h"

namespace sfp {
namespace {

using controlplane::AdmissionCapacity;
using controlplane::AdmissionLedger;
using controlplane::TenantFootprint;

TenantFootprint Footprint(double gbps, int passes,
                          std::vector<std::pair<int, double>> stage_entries = {}) {
  TenantFootprint footprint;
  footprint.bandwidth_gbps = gbps;
  footprint.passes = passes;
  footprint.stage_entries = std::move(stage_entries);
  return footprint;
}

TEST(AdmissionLedgerTest, QuantizesBandwidthToWholeBitsPerSecond) {
  const auto charge = AdmissionLedger::Quantize(Footprint(2.5, 3));
  EXPECT_EQ(charge.bandwidth_bps, 2'500'000'000);
  EXPECT_EQ(charge.passes, 3);
  EXPECT_EQ(charge.backplane_bps, 7'500'000'000);  // passes x quantized T
  // Sub-bit fractions round to the nearest bit; negatives and NaN
  // count as zero.
  EXPECT_EQ(AdmissionLedger::Quantize(Footprint(1e-10, 1)).bandwidth_bps, 0);
  EXPECT_EQ(AdmissionLedger::Quantize(Footprint(-4.0, 1)).backplane_bps, 0);
  EXPECT_EQ(AdmissionLedger::Quantize(Footprint(std::nan(""), 1)).backplane_bps, 0);
}

TEST(AdmissionLedgerTest, ExactThirdsFillTheBackplane) {
  // 3 x (100/3) Gbps sums to 100.00000000000001 in doubles; the fixed-
  // point rows hold exactly 3 x 33333333333 bps <= 10^11.
  AdmissionCapacity capacity;
  capacity.backplane_gbps = 100.0;
  AdmissionLedger ledger(capacity);
  for (controlplane::TenantKey t = 0; t < 3; ++t) {
    EXPECT_TRUE(ledger.TryAdmit(t, Footprint(100.0 / 3.0, 1))) << "tenant " << t;
  }
  EXPECT_FALSE(ledger.TryAdmit(3, Footprint(0.001, 1)));
  EXPECT_TRUE(ledger.TryAdmit(4, Footprint(0.0, 5)));  // zero charge always fits
  EXPECT_EQ(ledger.backplane_used_bps(), 99'999'999'999);
  EXPECT_EQ(ledger.offered_bps(), 99'999'999'999);
}

TEST(AdmissionLedgerTest, PassesMultiplyTheBackplaneCharge) {
  AdmissionCapacity capacity;
  capacity.backplane_gbps = 30.0;
  AdmissionLedger ledger(capacity);
  EXPECT_TRUE(ledger.TryAdmit(1, Footprint(10.0, 2)));   // charges 20
  EXPECT_FALSE(ledger.TryAdmit(2, Footprint(10.0, 2)));  // 20 + 20 > 30
  EXPECT_TRUE(ledger.TryAdmit(3, Footprint(10.0, 1)));   // 20 + 10 == 30
  EXPECT_EQ(ledger.backplane_used_bps(), ledger.backplane_capacity_bps());
  EXPECT_EQ(ledger.offered_bps(), 20'000'000'000);
}

TEST(AdmissionLedgerTest, StageRowsBindIndependently) {
  AdmissionCapacity capacity;
  capacity.backplane_gbps = 1000.0;
  capacity.stage_entries = {100.0, 50.0};
  AdmissionLedger ledger(capacity);
  EXPECT_TRUE(ledger.TryAdmit(1, Footprint(1.0, 1, {{0, 60.0}, {1, 10.0}})));
  // Stage 0 has 40 entries left: a 41-entry claim fails there even
  // though stage 1 and the backplane have room.
  EXPECT_FALSE(ledger.TryAdmit(2, Footprint(1.0, 1, {{0, 41.0}})));
  EXPECT_TRUE(ledger.TryAdmit(3, Footprint(1.0, 1, {{0, 40.0}, {1, 40.0}})));
  EXPECT_FALSE(ledger.TryAdmit(4, Footprint(1.0, 1, {{1, 1.0}})));
  EXPECT_EQ(ledger.stage_used(0), 100);
  EXPECT_EQ(ledger.stage_used(1), 50);
  EXPECT_TRUE(ledger.Remove(1));
  EXPECT_EQ(ledger.stage_used(0), 40);
  EXPECT_EQ(ledger.stage_used(1), 40);
  EXPECT_TRUE(ledger.TryAdmit(4, Footprint(1.0, 1, {{1, 10.0}})));
}

// A re-provision is checked against the live set minus the tenant's
// own booking, on every row it touches; other tenants' bookings still
// count in full.
TEST(AdmissionLedgerTest, ReplacingDiscountsOnlyTheTenantsOwnCharge) {
  AdmissionCapacity capacity;
  capacity.backplane_gbps = 100.0;
  capacity.stage_entries = {50.0};
  AdmissionLedger ledger(capacity);
  ASSERT_TRUE(ledger.TryAdmit(1, Footprint(10.0, 2, {{0, 30.0}})));  // charges 20
  ASSERT_TRUE(ledger.TryAdmit(2, Footprint(60.0, 1, {{0, 10.0}})));
  // 60 + 40 == 100 and 10 + 40 == 50 fit once tenant 1's own 20 Gbps
  // and 30 entries are released; on top of them they would not.
  EXPECT_FALSE(ledger.Fits(Footprint(20.0, 2, {{0, 40.0}})));
  EXPECT_TRUE(ledger.FitsReplacing(1, Footprint(20.0, 2, {{0, 40.0}})));
  EXPECT_FALSE(ledger.FitsReplacing(1, Footprint(20.5, 2)));
  EXPECT_FALSE(ledger.FitsReplacing(1, Footprint(1.0, 1, {{0, 41.0}})));
  // Tenant 3 is not live: nothing is released.
  EXPECT_FALSE(ledger.FitsReplacing(3, Footprint(20.0, 2, {{0, 40.0}})));
  EXPECT_TRUE(ledger.FitsReplacing(3, Footprint(10.0, 2, {{0, 10.0}})));
}

TEST(AdmissionLedgerTest, MillionArrivalsLeaveNoDrift) {
  // Fractional bandwidths whose floating-point running sum would
  // accumulate rounding error: after a million arrivals and their
  // departures the fixed-point rows return to exactly zero, and along
  // the way they equal a from-scratch recomputation over the live set.
  AdmissionCapacity capacity;
  capacity.backplane_gbps = 500.0;
  capacity.stage_entries = {5000.0, 5000.0, 5000.0};
  AdmissionLedger ledger(capacity);
  Rng rng(2024);
  std::map<controlplane::TenantKey, TenantFootprint> live;
  std::int64_t admitted = 0;
  constexpr controlplane::TenantKey kArrivals = 1'000'000;
  for (controlplane::TenantKey t = 0; t < kArrivals; ++t) {
    TenantFootprint footprint =
        Footprint(rng.UniformDouble(0.1, 7.3), static_cast<int>(rng.UniformInt(1, 3)),
                  {{static_cast<int>(rng.UniformInt(0, 2)),
                    static_cast<double>(rng.UniformInt(1, 300))}});
    if (ledger.TryAdmit(t, footprint)) {
      live.emplace(t, std::move(footprint));
      ++admitted;
    }
    // The oldest tenant departs at a slower rate than arrivals come,
    // so the population grows until capacity binds and then churns
    // there.
    if (!live.empty() && rng.Bernoulli(0.45)) {
      ASSERT_TRUE(ledger.Remove(live.begin()->first));
      live.erase(live.begin());
    }
    if (t % 100'000 == 0) {
      std::int64_t backplane = 0;
      std::int64_t offered = 0;
      for (const auto& [key, fp] : live) {
        const auto charge = AdmissionLedger::Quantize(fp);
        backplane += charge.backplane_bps;
        offered += charge.bandwidth_bps;
      }
      ASSERT_EQ(ledger.backplane_used_bps(), backplane) << "arrival " << t;
      ASSERT_EQ(ledger.offered_bps(), offered) << "arrival " << t;
      ASSERT_EQ(ledger.size(), live.size());
    }
  }
  EXPECT_GT(admitted, kArrivals / 4);
  EXPECT_LT(admitted, kArrivals * 3 / 4) << "capacity never bound";
  for (const auto& [key, fp] : live) ASSERT_TRUE(ledger.Remove(key));
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.backplane_used_bps(), 0);
  EXPECT_EQ(ledger.offered_bps(), 0);
  for (int s = 0; s < ledger.num_stage_rows(); ++s) EXPECT_EQ(ledger.stage_used(s), 0);
}

// --- SfpSystem: plan, check eq. 26, then install ----------------------

/// §VI-B-sized switch with a tight backplane and two instances of each
/// stateless NF type, so chains fold and tenants share tables.
core::SfpSystem NearBackplaneSystem(double backplane_gbps) {
  switchsim::SwitchConfig config;
  config.num_stages = 12;
  config.backplane_gbps = backplane_gbps;
  config.planner = switchsim::Planner::kPacked;
  core::SfpSystem system(config);
  const std::vector<nf::NfType> types = {nf::NfType::kFirewall, nf::NfType::kClassifier,
                                         nf::NfType::kRouter, nf::NfType::kNat,
                                         nf::NfType::kLoadBalancer, nf::NfType::kFirewall};
  std::vector<std::vector<nf::NfType>> layout;
  for (int s = 0; s < config.num_stages; ++s) {
    layout.push_back({types[static_cast<std::size_t>(s) % types.size()]});
  }
  system.ProvisionPhysical(layout);
  system.EnableCompiledPlans();
  return system;
}

dataplane::Sfc ChainFor(dataplane::TenantId tenant, double gbps, Rng& rng) {
  std::vector<nf::NfType> types = {nf::NfType::kFirewall, nf::NfType::kClassifier,
                                   nf::NfType::kRouter, nf::NfType::kNat,
                                   nf::NfType::kLoadBalancer};
  for (std::size_t i = types.size(); i > 1; --i) {
    std::swap(types[i - 1],
              types[static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(i) - 1))]);
  }
  types.resize(static_cast<std::size_t>(rng.UniformInt(2, 4)));
  dataplane::Sfc sfc;
  sfc.tenant = tenant;
  sfc.bandwidth_gbps = gbps;
  for (const auto type : types) {
    nf::NfConfig config;
    config.type = type;
    config.rules = nf::MakeNf(type)->GenerateRules(rng, rng.UniformInt(1, 6));
    sfc.chain.push_back(std::move(config));
  }
  return sfc;
}

std::map<std::string, std::uint64_t> CountersWithPrefix(const core::SfpSystem& system,
                                                        const std::string& prefix) {
  common::metrics::Registry registry;
  system.ExportMetrics(registry);
  std::map<std::string, std::uint64_t> counters;
  for (const auto& counter : registry.Counters()) {
    if (counter.name.starts_with(prefix)) counters.emplace(counter.name, counter.value);
  }
  return counters;
}

TEST(AdmissionLedgerTest, BackplaneRejectedAdmitTouchesNoTable) {
  constexpr double kBackplane = 400.0;
  auto system = NearBackplaneSystem(kBackplane);
  Rng rng(12);
  std::vector<dataplane::TenantId> tenants;
  for (dataplane::TenantId tenant = 1; tenants.size() < 28; ++tenant) {
    ASSERT_LT(tenant, 200) << "could not admit 28 tenants";
    if (system.AdmitTenant(ChainFor(tenant, 5.0, rng)).admitted) tenants.push_back(tenant);
  }
  const double used = system.Stats().backplane_gbps;
  ASSERT_LT(used, kBackplane);

  Rng traffic_rng(5);
  workload::PacketSizeProfile profile;
  std::vector<net::Packet> packets;
  for (const auto tenant : tenants) {
    const auto flows = workload::GenerateFlows(tenant, 8, 16, profile, traffic_rng);
    packets.insert(packets.end(), flows.begin(), flows.end());
  }
  // Two single-threaded batches (no serve-path compile contention):
  // admit-time plans stay valid across later admissions (plans go
  // stale per tenant), so the recompile count is steady from here on.
  switchsim::BatchOptions serve;
  serve.num_threads = 1;
  system.ProcessBatch(packets, serve);
  system.ProcessBatch(packets, serve);
  const auto steady = CountersWithPrefix(system, "compiler.recompiles");
  ASSERT_EQ(steady.size(), 1u);

  const auto& pipeline = system.data_plane().pipeline();
  const std::uint64_t epoch = pipeline.table_mutation_epoch()->Value();
  const std::int64_t entries = system.Stats().entries_used;
  const auto passes = CountersWithPrefix(system, "pipeline.passes.");
  ASSERT_FALSE(passes.empty());

  // Plannable (the chain fits the switch memory) but one Gbps past the
  // backplane: eq. 26 rejects it.
  const auto reject =
      system.AdmitTenant(ChainFor(999, kBackplane - used + 1.0, rng));
  ASSERT_EQ(reject.code, core::AdmitCode::kBackplaneExceeded) << reject.reason;

  EXPECT_EQ(pipeline.table_mutation_epoch()->Value(), epoch)
      << "a backplane-rejected tenant mutated tables";
  EXPECT_EQ(system.Stats().entries_used, entries);
  EXPECT_EQ(CountersWithPrefix(system, "pipeline.passes."), passes);
  EXPECT_EQ(system.Stats().tenants, 28);

  system.ProcessBatch(packets, serve);
  EXPECT_EQ(CountersWithPrefix(system, "compiler.recompiles"), steady)
      << "live tenants recompiled after a rejected admit";
}

}  // namespace
}  // namespace sfp
