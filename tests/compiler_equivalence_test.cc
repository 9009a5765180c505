// Compiled-plan differential tests: the per-tenant pipeline compiler
// (docs/COMPILER.md) must be bit-identical to the interpreted path —
// same packet outcomes, same drops, same pipeline/table/telemetry
// counters — across randomized rule sets, thread counts, stateful NFs,
// and rule churn (installs/removals and fig11-style atomic updates)
// interleaved with compiled serving. The churn-concurrency test runs
// under ThreadSanitizer in CI to validate the plan-cache locking.
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/worker_pool.h"
#include "core/sfp_system.h"
#include "nf/classifier.h"
#include "nf/firewall.h"
#include "nf/load_balancer.h"
#include "nf/nat.h"
#include "nf/rate_limiter.h"
#include "nf/router.h"
#include "switchsim/compiler/plan_cache.h"
#include "workload/traffic.h"

namespace sfp::core {
namespace {

switchsim::SwitchConfig Testbed() {
  switchsim::SwitchConfig config;
  config.num_stages = 12;
  config.backplane_gbps = 3200.0;
  return config;
}

/// One physical NF of every type, one per stage.
const std::vector<std::vector<nf::NfType>>& FullLayout() {
  static const std::vector<std::vector<nf::NfType>> layout = {
      {nf::NfType::kFirewall},   {nf::NfType::kLoadBalancer},
      {nf::NfType::kClassifier}, {nf::NfType::kRouter},
      {nf::NfType::kNat},        {nf::NfType::kRateLimiter}};
  return layout;
}

/// Random SFC over the *stateless* NF types (firewall, classifier,
/// router, NAT, load-balancer set_backend rules). Chain order is
/// shuffled, so some tenants fold over multiple passes. Up to 40 rules
/// per NF, so slots hold interval indexes with multi-candidate lists.
dataplane::Sfc RandomSfc(dataplane::TenantId tenant, Rng& rng) {
  std::vector<nf::NfType> types = {nf::NfType::kFirewall, nf::NfType::kClassifier,
                                   nf::NfType::kRouter, nf::NfType::kNat,
                                   nf::NfType::kLoadBalancer};
  for (std::size_t i = types.size(); i > 1; --i) {
    std::swap(types[i - 1],
              types[static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(i) - 1))]);
  }
  types.resize(static_cast<std::size_t>(rng.UniformInt(1, 4)));

  dataplane::Sfc sfc;
  sfc.tenant = tenant;
  sfc.bandwidth_gbps = 10;
  for (const auto type : types) {
    nf::NfConfig config;
    config.type = type;
    config.rules = nf::MakeNf(type)->GenerateRules(rng, rng.UniformInt(1, 40));
    sfc.chain.push_back(std::move(config));
  }
  return sfc;
}

nf::NfConfig Fw(std::uint16_t port = 23) {
  nf::NfConfig config;
  config.type = nf::NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(
      switchsim::FieldMatch::Any(), switchsim::FieldMatch::Any(),
      switchsim::FieldMatch::Any(), switchsim::FieldMatch::Range(port, port),
      switchsim::FieldMatch::Any()));
  return config;
}

nf::NfConfig Tc(std::uint8_t cls) {
  nf::NfConfig config;
  config.type = nf::NfType::kClassifier;
  config.rules.push_back(nf::Classifier::ClassifyByPort(0, 65535, cls));
  return config;
}

nf::NfConfig Rt() {
  nf::NfConfig config;
  config.type = nf::NfType::kRouter;
  config.rules.push_back(nf::Router::Route(0, 0, 7));
  return config;
}

SfpSystem MakeSystem(bool compiled) {
  SfpSystem system(Testbed());
  system.ProvisionPhysical(FullLayout());
  if (compiled) system.EnableCompiledPlans();
  return system;
}

/// Mixed multi-tenant workload, deterministically shuffled. Includes
/// packets from an unadmitted tenant (99) so the all-dead plan path is
/// exercised alongside real chains.
std::vector<net::Packet> MakeWorkload(const std::vector<dataplane::TenantId>& tenants,
                                      int per_tenant, std::uint64_t seed = 42) {
  Rng rng(seed);
  workload::PacketSizeProfile profile;
  std::vector<net::Packet> packets;
  for (const auto tenant : tenants) {
    auto flows = workload::GenerateFlows(tenant, /*num_flows=*/29, per_tenant, profile, rng);
    packets.insert(packets.end(), flows.begin(), flows.end());
  }
  for (std::size_t i = packets.size(); i > 1; --i) {
    std::swap(packets[i - 1],
              packets[static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(i) - 1))]);
  }
  return packets;
}

struct Outcome {
  std::vector<std::uint8_t> wire;
  bool dropped;
  int passes;
  std::uint8_t flow_class;
  std::int32_t egress_port;
  std::uint64_t scratch;
  double latency_ns;

  bool operator==(const Outcome&) const = default;
};

Outcome Of(const switchsim::ProcessResult& result) {
  return {result.packet.Serialize(), result.meta.dropped,     result.passes,
          result.meta.flow_class,    result.meta.egress_port, result.meta.scratch,
          result.latency_ns};
}

/// Every exported counter except the families the compiler is
/// *allowed* to change: its own compiler.* stats, and pipeline.batches
/// (these tests serve one side scalar, one batched).
std::map<std::string, std::uint64_t> ComparableCounters(const SfpSystem& system) {
  common::metrics::Registry registry;
  system.ExportMetrics(registry);
  std::map<std::string, std::uint64_t> counters;
  for (const auto& snapshot : registry.Counters()) {
    if (snapshot.name.starts_with("compiler.")) continue;
    if (snapshot.name == "pipeline.batches") continue;
    counters.emplace(snapshot.name, snapshot.value);
  }
  return counters;
}

TEST(CompiledEquivalenceTest, RandomizedBitIdenticalAcrossThreads) {
  Rng sfc_rng(7);
  std::vector<dataplane::Sfc> sfcs;
  for (dataplane::TenantId tenant = 1; tenant <= 6; ++tenant) {
    sfcs.push_back(RandomSfc(tenant, sfc_rng));
  }
  const auto workload = MakeWorkload({1, 2, 3, 4, 5, 6, 99}, 120);

  auto interpreted = MakeSystem(/*compiled=*/false);
  for (const auto& sfc : sfcs) {
    ASSERT_TRUE(interpreted.AdmitTenant(sfc).admitted) << "tenant " << sfc.tenant;
  }
  std::vector<Outcome> reference;
  reference.reserve(workload.size());
  for (const auto& packet : workload) reference.push_back(Of(interpreted.Process(packet)));

  for (const int threads : {1, 4}) {
    auto compiled = MakeSystem(/*compiled=*/true);
    for (const auto& sfc : sfcs) {
      ASSERT_TRUE(compiled.AdmitTenant(sfc).admitted) << "tenant " << sfc.tenant;
    }
    switchsim::BatchOptions options;
    options.num_threads = threads;
    options.min_parallel_batch = 1;
    const auto results = compiled.ProcessBatch(workload, options);
    ASSERT_EQ(results.size(), workload.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(Of(results[i]), reference[i]) << "packet " << i << " threads=" << threads;
    }

    // Aggregate counters (pipeline, per-table, telemetry, admission)
    // must agree exactly; only compiler.* may differ between the two
    // paths.
    EXPECT_EQ(ComparableCounters(compiled), ComparableCounters(interpreted))
        << "threads=" << threads;

    // And the compiled system must actually have served compiled: every
    // admitted tenant compiles (no fallbacks). Single-threaded, not one
    // packet may fall back to the interpreter: later admissions leave
    // earlier tenants' admit-time plans valid, since plans go stale per
    // tenant. Multi-threaded, compile-lock contention may interpret a
    // few.
    common::metrics::Registry registry;
    compiled.ExportMetrics(registry);
    EXPECT_GE(registry.GetCounter("compiler.plans_compiled").Value(), 6u);
    EXPECT_EQ(registry.GetCounter("compiler.fallback_tenants").Value(), 0u);
    if (threads == 1) {
      EXPECT_EQ(registry.GetCounter("compiler.interpreted_packets").Value(), 0u);
    }
  }
}

// Stateful NFs (rate-limiter token buckets, load-balancer pool hashing)
// execute as opaque calls inside compiled plans. On the single-threaded
// batch path packets run in input order, so shared NF state evolves
// identically to the scalar interpreter.
TEST(CompiledEquivalenceTest, StatefulNfsBitIdenticalSingleThread) {
  dataplane::Sfc sfc;
  sfc.tenant = 1;
  sfc.bandwidth_gbps = 10;
  nf::NfConfig rl;
  rl.type = nf::NfType::kRateLimiter;
  rl.rules.push_back(nf::RateLimiter::Police(0, 0, /*limiter_id=*/0));  // match-all
  nf::NfConfig lb;
  lb.type = nf::NfType::kLoadBalancer;
  lb.rules.push_back(nf::LoadBalancer::PoolSelect(net::Ipv4Address::Of(10, 0, 0, 100), 80,
                                                  /*pool_id=*/0));
  lb.rules.push_back(nf::LoadBalancer::SetBackend(net::Ipv4Address::Of(10, 0, 0, 101), 443,
                                                  net::Ipv4Address::Of(192, 168, 0, 9)));
  sfc.chain = {rl, lb, Tc(5)};

  auto setup = [&](SfpSystem& system) {
    auto* limiter = dynamic_cast<nf::RateLimiter*>(
        system.data_plane().PhysicalNf(5, nf::NfType::kRateLimiter));
    ASSERT_NE(limiter, nullptr);
    // Tight bucket: the burst admits a few packets, then drops mix in.
    EXPECT_EQ(limiter->AddBucket(/*rate_mbps=*/0.5, /*burst_kb=*/2.0), 0u);
    auto* balancer = dynamic_cast<nf::LoadBalancer*>(
        system.data_plane().PhysicalNf(1, nf::NfType::kLoadBalancer));
    ASSERT_NE(balancer, nullptr);
    EXPECT_EQ(balancer->AddPool({net::Ipv4Address::Of(192, 168, 1, 1),
                                 net::Ipv4Address::Of(192, 168, 1, 2),
                                 net::Ipv4Address::Of(192, 168, 1, 3)}),
              0u);
    ASSERT_TRUE(system.AdmitTenant(sfc).admitted);
  };

  auto interpreted = MakeSystem(/*compiled=*/false);
  setup(interpreted);
  auto compiled = MakeSystem(/*compiled=*/true);
  setup(compiled);

  const auto workload = MakeWorkload({1}, 600);
  std::vector<Outcome> reference;
  reference.reserve(workload.size());
  bool saw_drop = false;
  for (const auto& packet : workload) {
    reference.push_back(Of(interpreted.Process(packet)));
    saw_drop |= reference.back().dropped;
  }
  EXPECT_TRUE(saw_drop) << "bucket never throttled; test exercises nothing";

  switchsim::BatchOptions options;
  options.num_threads = 1;
  const auto results = compiled.ProcessBatch(workload, options);
  ASSERT_EQ(results.size(), workload.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(Of(results[i]), reference[i]) << "packet " << i;
  }
  EXPECT_EQ(ComparableCounters(compiled), ComparableCounters(interpreted));
}

// Rule churn — admissions, departures, and fig11-style atomic
// replace batches — interleaved with compiled serving. Every mutation
// is applied identically to an interpreted twin; after each round the
// served outcomes must match bit-for-bit, which proves the mutation
// hooks invalidated every affected plan (a stale plan would keep
// serving the pre-churn rules).
TEST(CompilerChurnTest, InvalidationUnderRuleChurnStaysBitIdentical) {
  Rng rng(11);
  auto interpreted = MakeSystem(/*compiled=*/false);
  auto compiled = MakeSystem(/*compiled=*/true);

  std::vector<dataplane::Sfc> base;
  base.push_back({});  // placeholder so tenants index naturally
  for (dataplane::TenantId tenant = 1; tenant <= 3; ++tenant) {
    auto sfc = RandomSfc(tenant, rng);
    ASSERT_TRUE(interpreted.AdmitTenant(sfc).admitted);
    ASSERT_TRUE(compiled.AdmitTenant(sfc).admitted);
    base.push_back(std::move(sfc));
  }

  const auto workload = MakeWorkload({1, 2, 3, 21, 22, 23, 24}, 40);
  common::WorkerPool pool(2);
  switchsim::BatchOptions options;
  options.num_threads = 2;
  options.min_parallel_batch = 1;
  options.pool = &pool;

  std::vector<dataplane::TenantId> churned;  // admitted by round (a)
  for (int round = 0; round < 12; ++round) {
    const auto results = compiled.ProcessBatch(workload, options);
    ASSERT_EQ(results.size(), workload.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(Of(results[i]), Of(interpreted.Process(workload[i])))
          << "round " << round << " packet " << i;
    }

    switch (round % 3) {
      case 0: {  // admit a fresh tenant
        const auto tenant = static_cast<dataplane::TenantId>(21 + round / 3);
        const auto sfc = RandomSfc(tenant, rng);
        const auto a = interpreted.AdmitTenant(sfc);
        const auto b = compiled.AdmitTenant(sfc);
        ASSERT_EQ(a.admitted, b.admitted) << a.reason << " vs " << b.reason;
        if (a.admitted) churned.push_back(tenant);
        break;
      }
      case 1: {  // remove the most recently churned tenant
        if (churned.empty()) break;
        const auto tenant = churned.back();
        churned.pop_back();
        ASSERT_TRUE(interpreted.RemoveTenant(tenant));
        ASSERT_TRUE(compiled.RemoveTenant(tenant));
        break;
      }
      case 2: {  // fig11: atomically swap tenant 3's rules
        auto replacement = base[3];
        replacement.chain.push_back(Fw(static_cast<std::uint16_t>(1000 + round)));
        const auto a = interpreted.ReprovisionTenant(replacement);
        const auto b = compiled.ReprovisionTenant(replacement);
        ASSERT_TRUE(a.admitted) << a.reason;
        ASSERT_TRUE(b.admitted) << b.reason;
        base[3] = std::move(replacement);
        break;
      }
    }
  }

  EXPECT_EQ(ComparableCounters(compiled), ComparableCounters(interpreted));
  const auto* cache = compiled.data_plane().pipeline().plan_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->Invalidations(), 0u);
  EXPECT_GT(cache->Recompiles(), 0u);
}

// Compiled serving while another thread churns a tenant through
// admit/remove — each departure invalidates its plan mid-traffic. Run
// under TSan to validate the plan-cache locking; the assertions check
// that resident tenants' compiled results never waver and that their
// plans are never recompiled.
TEST(CompilerChurnConcurrencyTest, ConcurrentChurnAndCompiledServe) {
  auto system = MakeSystem(/*compiled=*/true);
  dataplane::Sfc t1;
  t1.tenant = 1;
  t1.bandwidth_gbps = 50;
  t1.chain = {Fw(), Tc(1), Rt()};
  dataplane::Sfc t3;  // router before firewall -> folds into pass 1
  t3.tenant = 3;
  t3.bandwidth_gbps = 10;
  t3.chain = {Rt(), Fw()};
  ASSERT_TRUE(system.AdmitTenant(t1).admitted);
  ASSERT_TRUE(system.AdmitTenant(t3).admitted);
  auto* cache = system.data_plane().pipeline().plan_cache();
  ASSERT_NE(cache, nullptr);
  const auto plan1 = cache->Acquire(1);
  const auto plan3 = cache->Acquire(3);
  ASSERT_NE(plan1, nullptr);
  ASSERT_NE(plan3, nullptr);

  // Interpreted twin for the quiescent reference outcomes.
  auto scalar = MakeSystem(/*compiled=*/false);
  ASSERT_TRUE(scalar.AdmitTenant(t1).admitted);
  ASSERT_TRUE(scalar.AdmitTenant(t3).admitted);
  const auto workload = MakeWorkload({1, 3}, 150);
  std::vector<Outcome> reference;
  reference.reserve(workload.size());
  for (const auto& packet : workload) reference.push_back(Of(scalar.Process(packet)));

  std::atomic<bool> stop{false};
  std::atomic<int> churns{0};
  std::thread control([&] {
    dataplane::Sfc churn;
    churn.tenant = 9;
    churn.bandwidth_gbps = 5;
    churn.chain = {Fw(), Tc(3)};
    while (!stop.load(std::memory_order_acquire)) {
      const auto admitted = system.AdmitTenant(churn);
      ASSERT_TRUE(admitted.admitted) << admitted.reason;
      ASSERT_TRUE(system.RemoveTenant(9));
      churns.fetch_add(1, std::memory_order_relaxed);
    }
  });

  common::WorkerPool pool(4);
  switchsim::BatchOptions options;
  options.num_threads = 4;
  options.min_parallel_batch = 1;
  options.pool = &pool;
  // Serve at least 20 rounds, and keep serving until the control
  // thread has churned a few times so the races genuinely overlap.
  for (int round = 0;
       round < 20 || churns.load(std::memory_order_relaxed) < 3; ++round) {
    ASSERT_LT(round, 5000) << "churn thread never made progress";
    const auto results = system.ProcessBatch(workload, options);
    ASSERT_EQ(results.size(), workload.size());
    // Tenant 9's churn can never perturb tenants 1/3: their rules carry
    // the (tenant, pass) prefix and their plans stay valid throughout.
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(Of(results[i]), reference[i]) << "round " << round << " packet " << i;
    }
  }
  stop.store(true, std::memory_order_release);
  control.join();
  EXPECT_GT(churns.load(), 0);
  EXPECT_FALSE(system.data_plane().IsAllocated(9));
  EXPECT_GT(cache->Invalidations(), 0u);
  // The resident tenants' plans were never recompiled: tenant 9's
  // rule changes leave their per-tenant stamps untouched.
  EXPECT_TRUE(plan1->Validate());
  EXPECT_TRUE(plan3->Validate());
  EXPECT_EQ(cache->Acquire(1), plan1);
  EXPECT_EQ(cache->Acquire(3), plan3);
}

}  // namespace
}  // namespace sfp::core
