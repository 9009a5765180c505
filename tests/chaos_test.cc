// Chaos harness: concurrent AdmitTenant / ReprovisionTenant /
// RemoveTenant / ProcessBatch under randomized fault plans, with
// conservation invariants (the eq. 26 books exactly) asserted after
// every round, plus a sequential byte-for-byte deterministic-replay
// check.
//
// Round count defaults to 500 and is overridable via SFP_CHAOS_ROUNDS
// (the TSan CI job runs fewer iterations).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/faultinject.h"
#include "common/rng.h"
#include "controlplane/admission_ledger.h"
#include "core/sfp_system.h"
#include "nf/firewall.h"
#include "nf/router.h"

namespace sfp::core {
namespace {

using common::faultinject::FaultPlan;
using common::faultinject::FaultSpec;
using common::faultinject::PointStats;
using common::faultinject::Registry;
using common::faultinject::ScopedFaultPlan;
using dataplane::Sfc;
using net::Ipv4Address;
using net::MakeTcpPacket;
using nf::NfConfig;
using nf::NfType;
using switchsim::FieldMatch;

int ChaosRounds() {
  const char* env = std::getenv("SFP_CHAOS_ROUNDS");
  if (env != nullptr) {
    const int rounds = std::atoi(env);
    if (rounds > 0) return rounds;
  }
  return 500;
}

NfConfig Fw(std::uint16_t blocked_port, int extra_rules = 0) {
  NfConfig config;
  config.type = NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(FieldMatch::Any(), FieldMatch::Any(),
                                            FieldMatch::Any(),
                                            FieldMatch::Range(blocked_port, blocked_port),
                                            FieldMatch::Any()));
  for (int i = 0; i < extra_rules; ++i) {
    config.rules.push_back(nf::Firewall::Deny(
        FieldMatch::Any(), FieldMatch::Any(), FieldMatch::Any(),
        FieldMatch::Range(20000 + static_cast<std::uint64_t>(i),
                          20000 + static_cast<std::uint64_t>(i)),
        FieldMatch::Any()));
  }
  return config;
}

NfConfig Rt() {
  NfConfig config;
  config.type = NfType::kRouter;
  config.rules.push_back(nf::Router::Route(0, 0, 1));
  return config;
}

/// Rule entries an admitted SFC occupies: rules + 1 catch-all per
/// logical NF (the conservation invariant's per-tenant charge).
std::int64_t ExpectedEntries(const Sfc& sfc) {
  std::int64_t entries = 0;
  for (const auto& nf : sfc.chain) {
    entries += static_cast<std::int64_t>(nf.rules.size()) + 1;
  }
  return entries;
}

/// A randomly shaped tenant SFC (deterministic in `rng`).
Sfc RandomSfc(dataplane::TenantId tenant, Rng& rng) {
  Sfc sfc;
  sfc.tenant = tenant;
  sfc.bandwidth_gbps = rng.UniformDouble(1.0, 10.0);
  const auto port = static_cast<std::uint16_t>(rng.UniformInt(1, 1000));
  switch (rng.UniformInt(0, 3)) {
    case 0:
      sfc.chain = {Fw(port)};
      break;
    case 1:
      sfc.chain = {Fw(port, static_cast<int>(rng.UniformInt(1, 8)))};
      break;
    case 2:
      sfc.chain = {Fw(port), Rt()};
      break;
    default:
      sfc.chain = {Rt(), Fw(port)};  // out of order: folds
      break;
  }
  return sfc;
}

/// A random fault plan over every production fault point (deterministic
/// in `rng`); roughly one round in four runs fault-free.
FaultPlan RandomPlan(std::uint64_t seed, Rng& rng) {
  FaultPlan plan;
  plan.seed = seed;
  if (rng.Bernoulli(0.25)) return plan;  // healthy round
  const char* kPoints[] = {
      "switchsim.table.add_entry", "switchsim.pipeline.serve",
      "dataplane.install_rule",    "dataplane.apply_op",
      "controlplane.solver_deadline", "core.reprovision",
  };
  for (const char* point : kPoints) {
    if (!rng.Bernoulli(0.5)) continue;
    if (rng.Bernoulli(0.3)) {
      plan.faults.push_back(FaultSpec::EveryNth(point, rng.UniformInt(2, 10)));
    } else {
      plan.faults.push_back(FaultSpec::Probability(point, rng.UniformDouble(0.01, 0.3)));
    }
  }
  return plan;
}

switchsim::SwitchConfig ChaosSwitch() {
  switchsim::SwitchConfig config;
  config.num_stages = 4;
  config.blocks_per_stage = 4;
  config.entries_per_block = 100;
  config.backplane_gbps = 200.0;
  return config;
}

AdmitOptions FastRetry() {
  AdmitOptions options;
  options.max_attempts = 3;
  options.initial_backoff = std::chrono::microseconds{0};
  return options;
}

/// The data plane's own books: each table holds exactly the entries
/// the allocations book there. Safe beside a serving thread, which
/// never mutates a table.
void CheckAudit(const SfpSystem& system) {
  const auto issues = system.data_plane().Audit();
  ASSERT_TRUE(issues.empty()) << issues.size() << " violations, first: " << issues.front();
}

/// Asserts every conservation invariant of the quiesced system against
/// the test's own model of who is admitted.
void CheckInvariants(SfpSystem& system,
                     const std::map<dataplane::TenantId, Sfc>& admitted,
                     std::uint64_t packets_sent) {
  ASSERT_NO_FATAL_FAILURE(CheckAudit(system));
  const auto stats = system.Stats();
  ASSERT_EQ(stats.tenants, static_cast<int>(admitted.size()));

  // Rule-entry conservation: the switch holds exactly the admitted
  // tenants' entries — nothing leaked by failed admissions, swaps,
  // removals, or unwound partial installs.
  std::int64_t expected_entries = 0;
  std::int64_t expected_backplane_bps = 0;
  for (const auto& [tenant, sfc] : admitted) {
    const auto* allocation = system.data_plane().FindAllocation(tenant);
    ASSERT_NE(allocation, nullptr) << "tenant " << tenant;
    expected_entries += ExpectedEntries(sfc);
    controlplane::TenantFootprint footprint;
    footprint.bandwidth_gbps = sfc.bandwidth_gbps;
    footprint.passes = allocation->passes;
    expected_backplane_bps += controlplane::AdmissionLedger::Quantize(footprint).backplane_bps;
  }
  ASSERT_EQ(stats.entries_used, expected_entries);

  // Backplane conservation (eq. 26): the ledger books exactly the
  // installed passes x T of every admitted tenant (quantized like the
  // ledger, so the totals compare bit for bit), and that never exceeds
  // capacity, whatever faults did.
  ASSERT_EQ(stats.backplane_gbps, static_cast<double>(expected_backplane_bps) /
                                      controlplane::AdmissionLedger::kUnitsPerGbps);
  ASSERT_LE(stats.backplane_gbps,
            system.data_plane().pipeline().config().backplane_gbps + 1e-9);

  // Telemetry conservation: every served packet was recorded exactly
  // once (departed series are retained under the default policy).
  ASSERT_EQ(system.Telemetry().Total().packets, packets_sent);
}

/// The concurrent churn harness, shared between the interpreted and
/// compiled serve paths: randomized fault plans over admit / remove /
/// batch-serve, invariants checked after every quiesced round.
void RunConcurrentChurn(bool compiled) {
  const int rounds = ChaosRounds();
  SfpSystem system(ChaosSwitch());
  ASSERT_GT(system.ProvisionPhysical({{NfType::kFirewall},
                                      {NfType::kRouter},
                                      {NfType::kFirewall},
                                      {NfType::kRouter}}),
            0);
  if (compiled) {
    system.EnableCompiledPlans();
    ASSERT_TRUE(system.compiled_plans_enabled());
  }

  Rng rng(0xC4A05u);
  std::map<dataplane::TenantId, Sfc> admitted;
  std::uint64_t packets_sent = 0;
  int swapped = 0;  // re-provisions that replaced the allocation
  int kept = 0;     // rejected or rolled back: the old one serves on
  constexpr int kTenantSlots = 8;
  constexpr int kBatch = 96;

  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const FaultPlan plan = RandomPlan(static_cast<std::uint64_t>(round) + 1, rng);

    // Pre-build this round's packets (tenants may or may not be
    // admitted; both must serve without violating invariants).
    std::vector<net::Packet> packets;
    packets.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      const auto tenant =
          static_cast<std::uint16_t>(rng.UniformInt(1, kTenantSlots));
      packets.push_back(MakeTcpPacket(tenant, Ipv4Address::Of(1, 1, 1, 1),
                                      Ipv4Address::Of(2, 2, 2, 2), 9,
                                      static_cast<std::uint16_t>(rng.UniformInt(1, 1200)),
                                      64));
    }

    {
      ScopedFaultPlan armed(plan);
      // Serve traffic concurrently with control-plane churn.
      std::thread server([&system, &packets] { system.ProcessBatch(packets); });
      for (int op = 0; op < kTenantSlots; ++op) {
        const auto tenant = static_cast<dataplane::TenantId>(rng.UniformInt(1, kTenantSlots));
        if (admitted.contains(tenant)) {
          if (rng.Bernoulli(0.5)) {
            ASSERT_TRUE(system.RemoveTenant(tenant));
            admitted.erase(tenant);
          } else if (rng.Bernoulli(0.6)) {
            // Re-provision the same chain, sometimes at a raised
            // bandwidth that eq. 26 may reject.
            Sfc sfc = admitted.at(tenant);
            if (rng.Bernoulli(0.5)) sfc.bandwidth_gbps *= rng.UniformDouble(1.0, 6.0);
            const auto result = system.ReprovisionTenant(sfc, FastRetry());
            if (result.admitted) {
              ++swapped;
              admitted[tenant] = sfc;
            } else if (result.code == AdmitCode::kDiverged) {
              // The rollback kept faulting: the tenant lost its rules
              // and its admission.
              ASSERT_FALSE(system.data_plane().IsAllocated(tenant));
              admitted.erase(tenant);
            } else {
              // Rejected or rolled back: the old allocation serves on.
              ASSERT_TRUE(system.data_plane().IsAllocated(tenant)) << result.reason;
              ++kept;
            }
          }
        } else if (rng.Bernoulli(0.7)) {
          const Sfc sfc = RandomSfc(tenant, rng);
          const auto result = system.AdmitTenant(sfc, FastRetry());
          if (result.admitted) {
            admitted.emplace(tenant, sfc);
          } else {
            // A rejected tenant must leave no trace.
            ASSERT_NE(result.code, AdmitCode::kOk);
            ASSERT_FALSE(system.data_plane().IsAllocated(tenant));
          }
        }
        ASSERT_NO_FATAL_FAILURE(CheckAudit(system));
      }
      server.join();
      packets_sent += packets.size();
    }

    // Quiesced + disarmed: every invariant must hold.
    CheckInvariants(system, admitted, packets_sent);
  }

  EXPECT_GT(swapped, 0);
  EXPECT_GT(kept, 0);

  // Drain: after removing every tenant the switch must be empty.
  for (const auto& [tenant, sfc] : admitted) ASSERT_TRUE(system.RemoveTenant(tenant));
  admitted.clear();
  CheckInvariants(system, admitted, packets_sent);
  EXPECT_EQ(system.Stats().entries_used, 0);
}

TEST(ChaosTest, ConcurrentChurnUnderRandomFaultPlansHoldsInvariants) {
  RunConcurrentChurn(/*compiled=*/false);
}

TEST(ChaosTest, ConcurrentChurnWithCompiledPlansHoldsInvariants) {
  // Same rounds through the PR 6 compiled serve path: plan compilation
  // and cache invalidation under churn must preserve every invariant.
  RunConcurrentChurn(/*compiled=*/true);
}

/// One sequential chaos scenario; everything observable is folded into
/// the returned transcript for replay comparison.
struct Transcript {
  std::vector<int> admit_codes;
  std::vector<bool> packet_drops;
  std::vector<int> packet_passes;
  std::map<std::string, PointStats> fault_stats;

  bool operator==(const Transcript& other) const {
    if (admit_codes != other.admit_codes || packet_drops != other.packet_drops ||
        packet_passes != other.packet_passes ||
        fault_stats.size() != other.fault_stats.size()) {
      return false;
    }
    for (const auto& [point, stats] : fault_stats) {
      const auto it = other.fault_stats.find(point);
      if (it == other.fault_stats.end()) return false;
      if (stats.hits != it->second.hits || stats.fires != it->second.fires ||
          stats.fired_hits != it->second.fired_hits) {
        return false;
      }
    }
    return true;
  }
};

Transcript RunSequentialScenario(std::uint64_t seed) {
  Transcript transcript;
  SfpSystem system(ChaosSwitch());
  EXPECT_GT(system.ProvisionPhysical({{NfType::kFirewall},
                                      {NfType::kRouter},
                                      {NfType::kFirewall},
                                      {NfType::kRouter}}),
            0);

  Rng rng(seed);
  FaultPlan plan;
  plan.seed = seed;
  plan.faults = {FaultSpec::Probability("dataplane.install_rule", 0.1),
                 FaultSpec::Probability("switchsim.pipeline.serve", 0.05),
                 FaultSpec::Probability("switchsim.table.add_entry", 0.05),
                 FaultSpec::EveryNth("dataplane.apply_op", 7)};
  ScopedFaultPlan armed(plan);

  std::set<dataplane::TenantId> admitted;
  for (int round = 0; round < 40; ++round) {
    const auto tenant = static_cast<dataplane::TenantId>(rng.UniformInt(1, 6));
    if (admitted.contains(tenant) && rng.Bernoulli(0.4)) {
      system.RemoveTenant(tenant);
      admitted.erase(tenant);
    } else if (!admitted.contains(tenant)) {
      const auto result = system.AdmitTenant(RandomSfc(tenant, rng), FastRetry());
      transcript.admit_codes.push_back(static_cast<int>(result.code));
      if (result.admitted) admitted.insert(tenant);
    }
    for (int i = 0; i < 16; ++i) {
      auto out = system.Process(
          MakeTcpPacket(static_cast<std::uint16_t>(rng.UniformInt(1, 6)),
                        Ipv4Address::Of(1, 1, 1, 1), Ipv4Address::Of(2, 2, 2, 2), 9,
                        static_cast<std::uint16_t>(rng.UniformInt(1, 1200)), 64));
      transcript.packet_drops.push_back(out.meta.dropped);
      transcript.packet_passes.push_back(out.passes);
    }
  }
  transcript.fault_stats = Registry::Instance().AllStats();
  return transcript;
}

TEST(ChaosTest, SequentialScenarioReplaysByteForByte) {
  const auto a = RunSequentialScenario(12345);
  const auto b = RunSequentialScenario(12345);
  EXPECT_TRUE(a == b) << "same-seed chaos scenario diverged";
  // Sanity: faults actually fired in the scenario.
  std::uint64_t fires = 0;
  for (const auto& [point, stats] : a.fault_stats) fires += stats.fires;
  EXPECT_GT(fires, 0u);

  const auto c = RunSequentialScenario(54321);
  EXPECT_FALSE(a == c) << "different seeds produced identical transcripts";
}

}  // namespace
}  // namespace sfp::core
