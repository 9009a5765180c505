// Per-tenant telemetry for the SFP data plane.
//
// Cloud operators bill and debug per tenant; the data plane therefore
// tracks, per tenant ID: packets/bytes in, drops, recirculations, and
// latency aggregates. The collector is fed by the owner of the
// pipeline (SfpSystem::Process records every result, and the batched
// serve path feeds whole worker slices through RecordBatch) and is
// cheap enough for per-packet use.
//
// Sharding: tenants are striped across kShardCount shards
// (tenant % kShardCount), each with its own mutex and series map, so
// concurrent batch workers recording disjoint tenants never contend.
// RecordBatch accumulates per-tenant deltas worker-locally in a
// fixed-size scratch table and merges them under each shard lock once
// per batch, instead of taking a lock per packet.
//
// Exactness: latencies are quantized once on entry to a fixed-point
// integer (1/4096 ns units, < 2^-13 ns rounding error — far below the
// 0.5 ns granularity of the timing model), so per-tenant sums are
// plain integer arithmetic. Summation order therefore cannot change
// the result: batched recording with any worker interleaving is
// bit-identical to serial per-packet Record calls.
//
// Retention: under long-running tenant churn the per-tenant maps would
// grow without bound, so departures are subject to an explicit policy
// (SetRetention): either purge the series immediately, or — the
// default — keep it marked "departed" for post-mortem reads, bounded
// by a cap beyond which the oldest departed series are evicted.
//
// Thread safety: the hot path (Record / RecordBatch shard merges)
// takes only the owning shard's mutex. Control-plane operations
// (MarkDeparted, SetRetention, Reset) and whole-collector reads
// (Total, Tenants, Snapshot, ...) take a control mutex plus every
// shard mutex in index order, giving them a consistent point-in-time
// view and preserving the seed collector's global oldest-first
// departed eviction. The lock order (control, then shards ascending;
// hot path holds exactly one shard lock and never the control lock)
// is acyclic, so the collector cannot deadlock.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "switchsim/pipeline.h"

namespace sfp::dataplane {

/// Counters for one tenant.
struct TenantCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t recirculated_packets = 0;  // packets that made >1 pass
  std::uint64_t total_passes = 0;
  double total_latency_ns = 0.0;
  double max_latency_ns = 0.0;

  double MeanLatencyNs() const { return packets ? total_latency_ns / packets : 0.0; }
  double MeanPasses() const {
    return packets ? static_cast<double>(total_passes) / packets : 0.0;
  }
  double DropRate() const {
    return packets ? static_cast<double>(drops) / packets : 0.0;
  }
};

/// What happens to a tenant's series when it departs.
enum class TelemetryRetention : std::uint8_t {
  /// Keep the series, marked departed, until the departed-series cap
  /// forces eviction of the oldest (default).
  kKeepDeparted = 0,
  /// Drop the series as soon as the tenant departs.
  kPurgeOnDeparture,
};

/// Aggregating collector keyed by tenant ID, striped over locked
/// shards so batch workers recording different tenants don't contend.
class TelemetryCollector {
 public:
  /// Tenant-stripe count. A power of two so the stripe of a tenant is
  /// a mask, sized to keep contention negligible at the pool's
  /// maximum parallelism (8) without bloating whole-collector scans.
  static constexpr std::size_t kShardCount = 16;

  /// Fixed-point latency scale: 1 ns == 4096 units. Dyadic, so any
  /// latency that is a multiple of 2^-12 ns converts exactly.
  static constexpr double kLatencyScale = 4096.0;

  /// Point-in-time copy of every retained series, taken under one
  /// all-shard locking pass (vs. one lock acquisition per tenant when
  /// calling Tenant() in a loop).
  struct Snapshot {
    TenantCounters total;
    /// Ascending by tenant ID.
    std::vector<std::pair<std::uint16_t, TenantCounters>> tenants;
    /// Series-creation epoch of tenants[i] (parallel array). A fresh
    /// series — tenant first seen, or seen again after its old series
    /// was purged, evicted, or Reset away — gets a new, strictly
    /// increasing epoch, so drift queries can tell a counter restart
    /// from ordinary forward progress.
    std::vector<std::uint64_t> epochs;
    /// How many of `tenants` are currently marked departed.
    std::size_t departed = 0;
  };

  /// Per-tenant counter movement between two snapshots (the recovery
  /// loop's drift query; see docs/SCENARIOS.md).
  struct TenantDrift {
    std::uint16_t tenant = 0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t drops = 0;
    std::uint64_t recirculated_packets = 0;
    std::uint64_t total_passes = 0;
    /// The series restarted between the snapshots (purged or evicted,
    /// then seen again): the fields above are the new series' absolute
    /// counters. The purged window tail is unobservable by design —
    /// purged history is never resurrected into a later window.
    bool restarted = false;

    double DropRate() const {
      return packets ? static_cast<double>(drops) / packets : 0.0;
    }
    double MeanPasses() const {
      return packets ? static_cast<double>(total_passes) / packets : 0.0;
    }
  };

  /// Drift between two snapshots of the same collector: one entry per
  /// tenant present in `after` that moved, ascending by ID. Tenants
  /// idle across the window are omitted; a tenant purged between the
  /// snapshots simply disappears (its history is not re-counted). A
  /// default-constructed `before` yields every tenant's absolute
  /// counters (the bootstrap window).
  static std::vector<TenantDrift> Drift(const Snapshot& before, const Snapshot& after);

  /// Windowed poll primitive: computes the drift since `window_start`
  /// and advances `window_start` to the fresh snapshot it took.
  std::vector<TenantDrift> DriftSince(Snapshot& window_start) const;

  /// Records one processed packet (its original wire size plus the
  /// pipeline's result). A departed tenant that sends again is revived
  /// (unmarked).
  void Record(std::uint32_t wire_bytes, const switchsim::ProcessResult& result);

  /// Records a batch: wire_bytes[i] pairs with results[i]. Deltas are
  /// accumulated lock-free in a scratch table and merged once per
  /// touched shard. Bit-identical to calling Record per element.
  void RecordBatch(std::span<const std::uint32_t> wire_bytes,
                   std::span<const switchsim::ProcessResult> results);

  /// Indexed RecordBatch: records wire_bytes[i] / results[i] for each
  /// i in `indices`. `wire_bytes` and `results` are full-batch arrays;
  /// `indices` selects this worker's slice (the shape handed to
  /// switchsim::BatchOptions::result_sink).
  void RecordBatch(std::span<const std::uint32_t> indices,
                   std::span<const std::uint32_t> wire_bytes,
                   std::span<const switchsim::ProcessResult> results);

  /// Indexed RecordBatch computing wire sizes on the fly from the
  /// original input packets (pure arithmetic over header presence).
  /// Fusing the size computation here keeps it on the batch workers —
  /// no serial full-batch pre-pass on the caller thread.
  void RecordBatch(std::span<const std::uint32_t> indices,
                   std::span<const net::Packet> packets,
                   std::span<const switchsim::ProcessResult> results);

  /// Counters for `tenant` (zeros if never seen or evicted).
  TenantCounters Tenant(std::uint16_t tenant) const;

  /// All tenants with a live series (active and retained-departed),
  /// ascending by ID.
  std::vector<std::uint16_t> Tenants() const;

  /// Tenants currently marked departed (subset of Tenants()).
  std::vector<std::uint16_t> DepartedTenants() const;

  /// Aggregate over every retained tenant.
  TenantCounters Total() const;

  /// Copies every retained series and the aggregate in one all-shard
  /// locking pass. Use for metrics export instead of Tenants() +
  /// Tenant() per ID.
  Snapshot TakeSnapshot() const;

  /// Configures the departure policy. `max_departed_series` bounds how
  /// many departed series kKeepDeparted retains before evicting the
  /// oldest-departed.
  void SetRetention(TelemetryRetention policy, std::size_t max_departed_series = 1024);

  /// Applies the retention policy to `tenant`'s series (call on
  /// tenant departure). Unknown tenants are a no-op.
  void MarkDeparted(std::uint16_t tenant);

  bool IsDeparted(std::uint16_t tenant) const;

  /// Drops all state (e.g. per measurement interval).
  void Reset();

  static constexpr std::size_t ShardOf(std::uint16_t tenant) {
    return tenant % kShardCount;
  }

  /// Quantizes a latency to fixed-point units (exposed so tests and
  /// reference collectors can reproduce the exact arithmetic; inline —
  /// it runs per packet inside the fused batch sinks). The +0.5
  /// truncation matches llround for the non-negative values latencies
  /// take, without the per-packet libm call.
  static std::uint64_t QuantizeLatency(double latency_ns) {
    if (latency_ns <= 0.0) return 0;
    return static_cast<std::uint64_t>(latency_ns * kLatencyScale + 0.5);
  }

 private:
  /// Exact integer accumulators for one tenant. Latency is summed in
  /// fixed-point so the total is independent of summation order.
  struct Series {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t drops = 0;
    std::uint64_t recirculated_packets = 0;
    std::uint64_t total_passes = 0;
    std::uint64_t latency_fp = 0;  // kLatencyScale units
    double max_latency_ns = 0.0;
    bool departed = false;
    /// Departure order for oldest-first eviction.
    std::uint64_t departed_seq = 0;
    /// Creation order (strictly increasing, never reused): drift
    /// queries compare epochs to detect a purged-and-recreated series.
    std::uint64_t epoch = 0;

    TenantCounters ToCounters() const;
    void Accumulate(TenantCounters& out) const;
  };

  /// Worker-local delta accumulated by RecordBatch before the shard
  /// merge. Same exact-arithmetic fields as Series.
  struct Delta {
    std::uint16_t tenant = 0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t drops = 0;
    std::uint64_t recirculated_packets = 0;
    std::uint64_t total_passes = 0;
    std::uint64_t latency_fp = 0;
    double max_latency_ns = 0.0;
  };

  /// Fixed-capacity scratch table of per-tenant deltas: no heap in
  /// the steady-state serve loop. Batches touching more distinct
  /// tenants than fit are handled by flushing and restarting.
  struct DeltaTable {
    static constexpr std::size_t kCapacity = 64;
    std::array<Delta, kCapacity> entries;
    std::size_t size = 0;

    Delta* Find(std::uint16_t tenant);
    Delta* TryAdd(std::uint16_t tenant);  // nullptr when full
  };

  struct Shard {
    mutable std::mutex mutex;
    std::map<std::uint16_t, Series> series;
  };

  /// Heap-held so the collector stays movable (SfpSystem holds it by
  /// value and is itself movable) despite the non-movable mutexes.
  struct State {
    std::array<Shard, kShardCount> shards;
    /// Guards retention settings + departure_seq and serializes
    /// control-plane operations against each other. Never taken by
    /// the record hot path.
    mutable std::mutex control_mutex;
    TelemetryRetention retention = TelemetryRetention::kKeepDeparted;
    std::size_t max_departed_series = 1024;
    std::uint64_t departure_seq = 0;
    /// Series-creation counter (atomic: series are created under the
    /// owning shard's lock, and shards create concurrently).
    std::atomic<std::uint64_t> series_epoch{0};
  };

  /// The one delta loop behind every RecordBatch: records
  /// results[i] with wire_bytes(i) bytes for each i in `indices`.
  template <typename Indices, typename WireBytes>
  void AccumulateBatch(const Indices& indices, WireBytes wire_bytes,
                       std::span<const switchsim::ProcessResult> results);
  void ApplyDelta(const Delta& delta);  // locks the owning shard
  void FlushDeltas(const DeltaTable& table);
  /// Adds `delta` to its series; requires `shard`'s mutex held.
  void MergeLocked(Shard& shard, const Delta& delta);
  /// Requires control_mutex + all shard mutexes held.
  void EvictExcessDepartedLocked();

  std::unique_ptr<State> state_ = std::make_unique<State>();
};

}  // namespace sfp::dataplane
