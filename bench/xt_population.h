// Engineered 50-tenant population for the cross-tenant pass
// co-scheduling benches (DESIGN.md "Cross-tenant pass sharing"):
// fig07_recirculation's xt series and scn_flash_crowd's admit-horizon
// sweep both admit this population, so their numbers describe the same
// workload.
//
// The population reproduces the capacity-coupling failure mode the
// co-scheduler targets. The 8-stage plane hosts two firewall
// instances (s1 and s6). 35 "ordered" tenants carry a src-matching
// firewall that MUST precede their NAT (NAT rewrites the source
// address the firewall matches), so a single-pass layout needs the
// s1 instance — the s6 instance sits after the only NAT (s3).
// 15 "unordered" tenants carry a port-matching firewall with no
// ordering constraint at all; either instance works for them. Under
// per-tenant packing (PR 9), the earliest-stage greedy sends the
// unordered firewalls to s1 too, exhausting its table budget and
// folding later ordered tenants into a second pass. The co-scheduler
// steers the successor-free unordered firewalls to s6, keeping s1
// free for the chains that need it — every tenant then fits one pass.
//
// Everything is deterministic: fixed chain templates cycled by tenant
// index, fixed interleaved admission order, no RNG. Chain lengths mix
// 2..6 NFs via classifier/router/load-balancer pads chosen so no pad
// introduces an ordering edge that would change the fold analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "dataplane/data_plane.h"
#include "nf/classifier.h"
#include "nf/firewall.h"
#include "nf/load_balancer.h"
#include "nf/nat.h"
#include "nf/router.h"

namespace sfp::bench::xt {

/// Stage layout: s0 TC, s1 FW, s2 RT, s3 NAT, s4 LB, s5 TC, s6 FW,
/// s7 LB. One table block per stage so the s1 firewall budget binds.
constexpr int kNumStages = 8;
constexpr int kEntriesPerBlock = 320;
constexpr int kNumTenants = 50;

/// Builds the 8-stage plane under Planner::kPacked (the comparison
/// baseline), or Planner::kCoScheduled when `cross_tenant`.
inline dataplane::DataPlane MakeXtPlane(bool cross_tenant) {
  switchsim::SwitchConfig config;
  config.num_stages = kNumStages;
  config.blocks_per_stage = 1;
  config.entries_per_block = kEntriesPerBlock;
  config.planner =
      cross_tenant ? switchsim::Planner::kCoScheduled : switchsim::Planner::kPacked;
  dataplane::DataPlane plane(config);
  plane.InstallPhysicalNf(0, nf::NfType::kClassifier);
  plane.InstallPhysicalNf(1, nf::NfType::kFirewall);
  plane.InstallPhysicalNf(2, nf::NfType::kRouter);
  plane.InstallPhysicalNf(3, nf::NfType::kNat);
  plane.InstallPhysicalNf(4, nf::NfType::kLoadBalancer);
  plane.InstallPhysicalNf(5, nf::NfType::kClassifier);
  plane.InstallPhysicalNf(6, nf::NfType::kFirewall);
  plane.InstallPhysicalNf(7, nf::NfType::kLoadBalancer);
  return plane;
}

namespace detail {

/// Src-ternary firewall, 8 rules (9 entries with the catch-all): reads
/// the source address NAT rewrites, so it is ordered before the NAT.
inline nf::NfConfig OrderedFw(int tenant_index) {
  nf::NfConfig config;
  config.type = nf::NfType::kFirewall;
  const auto base = 0x0A000000u + (static_cast<std::uint32_t>(tenant_index) << 12);
  for (int r = 0; r < 8; ++r) {
    config.rules.push_back(nf::Firewall::Deny(
        switchsim::FieldMatch::Ternary(base + (static_cast<std::uint32_t>(r) << 8),
                                       0xFFFFFF00),
        switchsim::FieldMatch::Any(), switchsim::FieldMatch::Any(),
        switchsim::FieldMatch::Range(443, 443), switchsim::FieldMatch::Any()));
  }
  return config;
}

/// Port-range firewall, 20 rules (21 entries): no field overlap with
/// any other NF in the population, so it is successor-free.
inline nf::NfConfig UnorderedFw(int tenant_index) {
  nf::NfConfig config;
  config.type = nf::NfType::kFirewall;
  const auto lo = static_cast<std::uint16_t>(7000 + tenant_index * 32);
  for (int r = 0; r < 20; ++r) {
    const auto port = static_cast<std::uint16_t>(lo + r);
    config.rules.push_back(nf::Firewall::Deny(
        switchsim::FieldMatch::Any(), switchsim::FieldMatch::Any(),
        switchsim::FieldMatch::Any(), switchsim::FieldMatch::Range(port, port),
        switchsim::FieldMatch::Any()));
  }
  return config;
}

inline nf::NfConfig Tc(std::uint8_t cls) {
  nf::NfConfig config;
  config.type = nf::NfType::kClassifier;
  config.rules.push_back(nf::Classifier::ClassifyByPort(0, 65535, cls));
  return config;
}

inline nf::NfConfig Nat(int tenant_index) {
  nf::NfConfig config;
  config.type = nf::NfType::kNat;
  config.rules.push_back(
      nf::Nat::Translate(net::Ipv4Address::Of(10, static_cast<std::uint8_t>(tenant_index), 2, 3),
                         net::Ipv4Address::Of(203, 0, 113, 7)));
  return config;
}

inline nf::NfConfig Rt() {
  nf::NfConfig config;
  config.type = nf::NfType::kRouter;
  config.rules.push_back(nf::Router::Route(0, 0, 1));
  return config;
}

inline nf::NfConfig Lb(int tenant_index) {
  nf::NfConfig config;
  config.type = nf::NfType::kLoadBalancer;
  config.rules.push_back(nf::LoadBalancer::SetBackend(
      net::Ipv4Address::Of(10, 0, 0, static_cast<std::uint8_t>(100 + (tenant_index % 100))),
      80, net::Ipv4Address::Of(192, 168, 0, 2)));
  return config;
}

}  // namespace detail

/// The 50 SFCs in admission order: positions with i % 10 < 3 are
/// unordered tenants (15 total), the rest ordered (35). The interleave
/// fixes exactly which ordered tenants fold under per-tenant packing,
/// making the aggregate pass counts single-valued. Tenant IDs are
/// 1-based admission positions; every tenant demands `bandwidth_gbps`.
inline std::vector<dataplane::Sfc> BuildXtPopulation(double bandwidth_gbps) {
  std::vector<dataplane::Sfc> population;
  population.reserve(kNumTenants);
  int ordered = 0, unordered = 0;
  for (int i = 0; i < kNumTenants; ++i) {
    dataplane::Sfc sfc;
    sfc.tenant = static_cast<dataplane::TenantId>(i + 1);
    sfc.bandwidth_gbps = bandwidth_gbps;
    using namespace detail;
    if (i % 10 < 3) {
      // Unordered tenant, chain length cycles 2..5.
      switch (unordered++ % 4) {
        case 0: sfc.chain = {UnorderedFw(i), Tc(1)}; break;
        case 1: sfc.chain = {UnorderedFw(i), Tc(1), Rt()}; break;
        case 2: sfc.chain = {UnorderedFw(i), Tc(1), Lb(i), Tc(2)}; break;
        default: sfc.chain = {UnorderedFw(i), Tc(1), Lb(i), Tc(2), Lb(i + 1)}; break;
      }
    } else {
      // Ordered tenant (firewall-before-NAT), chain length cycles 2..6.
      switch (ordered++ % 5) {
        case 0: sfc.chain = {OrderedFw(i), Nat(i)}; break;
        case 1: sfc.chain = {Tc(1), OrderedFw(i), Nat(i)}; break;
        case 2: sfc.chain = {Tc(1), OrderedFw(i), Nat(i), Rt()}; break;
        case 3: sfc.chain = {Tc(1), OrderedFw(i), Nat(i), Rt(), Tc(2)}; break;
        default: sfc.chain = {Tc(1), OrderedFw(i), Nat(i), Lb(i), Tc(2), Lb(i + 1)}; break;
      }
    }
    population.push_back(std::move(sfc));
  }
  return population;
}

}  // namespace sfp::bench::xt
