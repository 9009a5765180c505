// Batched-execution tests: ProcessBatch must be bit-identical to a
// scalar Process loop for every batch size and thread count, and the
// serve path must tolerate concurrent tenant admission/departure
// (run under ThreadSanitizer to check the locking discipline).
#include <array>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/worker_pool.h"
#include "core/sfp_system.h"
#include "nf/classifier.h"
#include "nf/firewall.h"
#include "nf/load_balancer.h"
#include "nf/router.h"
#include "workload/traffic.h"

namespace sfp::core {
namespace {

switchsim::SwitchConfig Testbed() {
  switchsim::SwitchConfig config;
  config.num_stages = 12;
  config.backplane_gbps = 3200.0;
  return config;
}

nf::NfConfig Fw() {
  nf::NfConfig config;
  config.type = nf::NfType::kFirewall;
  config.rules.push_back(nf::Firewall::Deny(
      switchsim::FieldMatch::Any(), switchsim::FieldMatch::Any(),
      switchsim::FieldMatch::Any(), switchsim::FieldMatch::Range(23, 23),
      switchsim::FieldMatch::Any()));
  return config;
}

nf::NfConfig Lb() {
  nf::NfConfig config;
  config.type = nf::NfType::kLoadBalancer;
  config.rules.push_back(nf::LoadBalancer::SetBackend(net::Ipv4Address::Of(10, 0, 0, 100),
                                                      80,
                                                      net::Ipv4Address::Of(192, 168, 0, 1)));
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

/// A system hosting three tenants: an in-order 4-NF chain, a short
/// chain, and a chain whose order conflicts with the layout so it folds
/// over two passes (recirculation coverage).
SfpSystem MakeSystem() {
  SfpSystem system(Testbed());
  system.ProvisionPhysical({{nf::NfType::kFirewall},
                           {nf::NfType::kLoadBalancer},
                           {nf::NfType::kClassifier},
                           {nf::NfType::kRouter}});
  dataplane::Sfc t1;
  t1.tenant = 1;
  t1.bandwidth_gbps = 50;
  t1.chain = {Fw(), Lb(), Tc(1), Rt()};
  dataplane::Sfc t2;
  t2.tenant = 2;
  t2.bandwidth_gbps = 20;
  t2.chain = {Tc(2)};
  dataplane::Sfc t3;  // Router before firewall -> folds into pass 1.
  t3.tenant = 3;
  t3.bandwidth_gbps = 10;
  t3.chain = {Rt(), Fw()};
  EXPECT_TRUE(system.AdmitTenant(t1).admitted);
  EXPECT_TRUE(system.AdmitTenant(t2).admitted);
  const auto a3 = system.AdmitTenant(t3);
  EXPECT_TRUE(a3.admitted);
  EXPECT_EQ(a3.passes, 2);
  return system;
}

/// Mixed workload across the three tenants, many flows each, shuffled.
std::vector<net::Packet> MakeWorkload(int count) {
  Rng rng(42);
  workload::PacketSizeProfile profile;
  std::vector<net::Packet> packets;
  for (const std::uint16_t tenant : {1, 2, 3}) {
    auto flows = workload::GenerateFlows(tenant, /*num_flows=*/37, count / 3, profile, rng);
    packets.insert(packets.end(), flows.begin(), flows.end());
  }
  // Deterministic shuffle so tenants/flows interleave.
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

TEST(BatchEquivalenceTest, MatchesScalarAcrossBatchSizesAndThreadCounts) {
  const auto workload = MakeWorkload(900);

  auto scalar = MakeSystem();
  std::vector<Outcome> reference;
  reference.reserve(workload.size());
  for (const auto& packet : workload) reference.push_back(Of(scalar.Process(packet)));

  for (const int threads : {1, 2, 3, 4, 8}) {
    for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7}, std::size_t{128},
                                         workload.size()}) {
      auto batched = MakeSystem();
      switchsim::BatchOptions options;
      options.num_threads = threads;
      options.min_parallel_batch = 1;  // force the parallel path
      std::size_t index = 0;
      for (std::size_t off = 0; off < workload.size(); off += batch_size) {
        const std::size_t n = std::min(batch_size, workload.size() - off);
        const auto results =
            batched.ProcessBatch(std::span(workload).subspan(off, n), options);
        ASSERT_EQ(results.size(), n);
        for (std::size_t i = 0; i < n; ++i, ++index) {
          ASSERT_EQ(Of(results[i]), reference[index])
              << "packet " << index << " threads=" << threads
              << " batch_size=" << batch_size;
        }
      }

      // Telemetry and pipeline counters must aggregate identically.
      for (const std::uint16_t tenant : scalar.Telemetry().Tenants()) {
        const auto want = scalar.Telemetry().Tenant(tenant);
        const auto got = batched.Telemetry().Tenant(tenant);
        EXPECT_EQ(got.packets, want.packets);
        EXPECT_EQ(got.bytes, want.bytes);
        EXPECT_EQ(got.drops, want.drops);
        EXPECT_EQ(got.recirculated_packets, want.recirculated_packets);
        EXPECT_EQ(got.total_passes, want.total_passes);
        EXPECT_EQ(got.total_latency_ns, want.total_latency_ns);
        EXPECT_EQ(got.max_latency_ns, want.max_latency_ns);
      }
      const auto& scalar_pipe = scalar.data_plane().pipeline();
      const auto& batched_pipe = batched.data_plane().pipeline();
      EXPECT_EQ(batched_pipe.packets_processed(), scalar_pipe.packets_processed());
      EXPECT_EQ(batched_pipe.packets_dropped(), scalar_pipe.packets_dropped());
      EXPECT_EQ(batched_pipe.recirculations(), scalar_pipe.recirculations());
    }
  }
}

TEST(BatchEquivalenceTest, EmptyBatchAndCustomPool) {
  auto system = MakeSystem();
  EXPECT_TRUE(system.ProcessBatch({}).empty());

  common::WorkerPool pool(3);
  switchsim::BatchOptions options;
  options.num_threads = 3;
  options.min_parallel_batch = 1;
  options.pool = &pool;
  const auto workload = MakeWorkload(90);
  auto scalar = MakeSystem();
  const auto results = system.ProcessBatch(workload, options);
  ASSERT_EQ(results.size(), workload.size());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(Of(results[i]), Of(scalar.Process(workload[i])));
  }
}

TEST(BatchEquivalenceTest, ExportMetricsSnapshotsCounters) {
  auto system = MakeSystem();
  const auto workload = MakeWorkload(300);
  system.ProcessBatch(workload);

  common::metrics::Registry registry;
  system.ExportMetrics(registry);
  EXPECT_EQ(registry.GetCounter("pipeline.packets").Value(),
            system.data_plane().pipeline().packets_processed());
  EXPECT_EQ(registry.GetCounter("pipeline.batches").Value(), 1u);
  EXPECT_EQ(registry.GetCounter("telemetry.total.packets").Value(),
            system.Telemetry().Total().packets);
  EXPECT_EQ(registry.GetCounter("system.tenants").Value(), 3u);
  // Per-table hit counters exist for the provisioned NFs.
  EXPECT_GT(registry.GetCounter("pipeline.stage0.fw_s0.hits").Value(), 0u);
}

// Traffic keeps flowing while another thread churns a tenant through
// admission and departure. Run under TSan to validate the locking; the
// assertions check that resident tenants' results are unperturbed.
TEST(BatchStressTest, ConcurrentProcessAndAdmitRemove) {
  auto system = MakeSystem();
  const auto workload = MakeWorkload(300);

  auto scalar = MakeSystem();
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
  // Serve at least 30 rounds, and keep serving until the control
  // thread has churned a few times: on a loaded host all 30 can
  // otherwise end before it is first scheduled.
  for (int round = 0;
       round < 30 || churns.load(std::memory_order_relaxed) < 3; ++round) {
    ASSERT_LT(round, 5000) << "churn thread never made progress";
    const auto results = system.ProcessBatch(workload, options);
    ASSERT_EQ(results.size(), workload.size());
    // Tenant 9 installs no overlapping rules for tenants 1..3 (their
    // match keys carry the tenant prefix), so every result must equal
    // the quiescent reference.
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(Of(results[i]), reference[i]) << "round " << round << " packet " << i;
    }
  }
  stop.store(true, std::memory_order_release);
  control.join();
  EXPECT_GT(churns.load(), 0);
  EXPECT_FALSE(system.data_plane().IsAllocated(9));
}

TEST(WorkerPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  common::WorkerPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);

  // Reusable for a second job, and a no-op for empty jobs.
  std::atomic<int> total{0};
  pool.ParallelFor(17, [&](int) { total.fetch_add(1); });
  pool.ParallelFor(0, [&](int) { total.fetch_add(1000); });
  EXPECT_EQ(total.load(), 17);
}

// A worker that wakes late for a finished job must neither run that
// job's task nor claim the next job's indices. Two tasks alternate, so
// a stale worker running the other task leaves an index of this job
// unrun (or runs the other job's index twice).
TEST(WorkerPoolTest, BackToBackJobsRunOnlyTheirOwnTask) {
  common::WorkerPool pool(4);
  constexpr int kIndices = 4;
  std::array<std::array<std::atomic<int>, kIndices>, 2> hits{};
  std::array<std::function<void(int)>, 2> tasks;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    tasks[t] = [&hits, t](int i) { hits[t][static_cast<std::size_t>(i)].fetch_add(1); };
  }
  for (int job = 0; job < 5000; ++job) {
    auto& mine = hits[static_cast<std::size_t>(job % 2)];
    for (auto& hit : mine) hit.store(0);
    pool.ParallelFor(kIndices, tasks[static_cast<std::size_t>(job % 2)]);
    for (int i = 0; i < kIndices; ++i) {
      ASSERT_EQ(mine[static_cast<std::size_t>(i)].load(), 1) << "job " << job << " index " << i;
    }
  }
}

TEST(WorkerPoolTest, SingleThreadPoolRunsOnCaller) {
  common::WorkerPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  pool.ParallelFor(25, [&](int) {
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  EXPECT_EQ(on_caller.load(), 25);
}

}  // namespace
}  // namespace sfp::core
