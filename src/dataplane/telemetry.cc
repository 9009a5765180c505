#include "dataplane/telemetry.h"

#include <algorithm>
#include <cmath>
#include <ranges>

namespace sfp::dataplane {
namespace {

/// Locks every shard mutex in index order and releases on destruction.
/// Callers must hold (or not need) the control mutex first; the fixed
/// order makes the all-shard acquisition deadlock-free against the
/// single-shard hot path.
class AllShardsLock {
 public:
  template <typename Shards>
  explicit AllShardsLock(Shards& shards) {
    locks_.reserve(shards.size());
    for (auto& shard : shards) locks_.emplace_back(shard.mutex);
  }

 private:
  std::vector<std::unique_lock<std::mutex>> locks_;
};

}  // namespace

TenantCounters TelemetryCollector::Series::ToCounters() const {
  TenantCounters out;
  Accumulate(out);
  return out;
}

void TelemetryCollector::Series::Accumulate(TenantCounters& out) const {
  out.packets += packets;
  out.bytes += bytes;
  out.drops += drops;
  out.recirculated_packets += recirculated_packets;
  out.total_passes += total_passes;
  // latency_fp is exact, so summing the converted doubles per series
  // would reintroduce order dependence; instead callers that aggregate
  // multiple series (Total/TakeSnapshot) sum fp units and convert
  // once. For the single-series case the two are identical.
  out.total_latency_ns += static_cast<double>(latency_fp) / kLatencyScale;
  out.max_latency_ns = std::max(out.max_latency_ns, max_latency_ns);
}

TelemetryCollector::Delta* TelemetryCollector::DeltaTable::Find(std::uint16_t tenant) {
  for (std::size_t i = 0; i < size; ++i) {
    if (entries[i].tenant == tenant) return &entries[i];
  }
  return nullptr;
}

TelemetryCollector::Delta* TelemetryCollector::DeltaTable::TryAdd(std::uint16_t tenant) {
  if (size == kCapacity) return nullptr;
  entries[size] = Delta{};
  entries[size].tenant = tenant;
  return &entries[size++];
}

void TelemetryCollector::Record(std::uint32_t wire_bytes,
                                const switchsim::ProcessResult& result) {
  Delta delta;
  delta.tenant = result.meta.tenant_id;
  delta.packets = 1;
  delta.bytes = wire_bytes;
  delta.drops = result.meta.dropped ? 1 : 0;
  delta.recirculated_packets = result.passes > 1 ? 1 : 0;
  delta.total_passes = static_cast<std::uint64_t>(result.passes);
  delta.latency_fp = QuantizeLatency(result.latency_ns);
  delta.max_latency_ns = result.latency_ns;
  ApplyDelta(delta);
}

template <typename Indices, typename WireBytes>
void TelemetryCollector::AccumulateBatch(const Indices& indices, WireBytes wire_bytes,
                                         std::span<const switchsim::ProcessResult> results) {
  DeltaTable table;
  for (const std::uint32_t index : indices) {
    const switchsim::ProcessResult& result = results[index];
    const std::uint16_t tenant = result.meta.tenant_id;
    Delta* delta = table.Find(tenant);
    if (delta == nullptr) {
      delta = table.TryAdd(tenant);
      if (delta == nullptr) {
        // More distinct tenants than scratch slots: merge what we
        // have and start a fresh table. Merging early is harmless —
        // all accumulators are exact and associative.
        FlushDeltas(table);
        table.size = 0;
        delta = table.TryAdd(tenant);
      }
    }
    ++delta->packets;
    delta->bytes += wire_bytes(index);
    if (result.meta.dropped) ++delta->drops;
    if (result.passes > 1) ++delta->recirculated_packets;
    delta->total_passes += static_cast<std::uint64_t>(result.passes);
    delta->latency_fp += QuantizeLatency(result.latency_ns);
    delta->max_latency_ns = std::max(delta->max_latency_ns, result.latency_ns);
  }
  FlushDeltas(table);
}

void TelemetryCollector::RecordBatch(std::span<const std::uint32_t> wire_bytes,
                                     std::span<const switchsim::ProcessResult> results) {
  const auto n = static_cast<std::uint32_t>(std::min(wire_bytes.size(), results.size()));
  AccumulateBatch(std::views::iota(std::uint32_t{0}, n),
                  [wire_bytes](std::uint32_t i) { return wire_bytes[i]; }, results);
}

void TelemetryCollector::RecordBatch(std::span<const std::uint32_t> indices,
                                     std::span<const net::Packet> packets,
                                     std::span<const switchsim::ProcessResult> results) {
  AccumulateBatch(indices, [packets](std::uint32_t i) { return packets[i].WireBytes(); },
                  results);
}

void TelemetryCollector::RecordBatch(std::span<const std::uint32_t> indices,
                                     std::span<const std::uint32_t> wire_bytes,
                                     std::span<const switchsim::ProcessResult> results) {
  AccumulateBatch(indices, [wire_bytes](std::uint32_t i) { return wire_bytes[i]; }, results);
}

void TelemetryCollector::ApplyDelta(const Delta& delta) {
  Shard& shard = state_->shards[ShardOf(delta.tenant)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  MergeLocked(shard, delta);
}

void TelemetryCollector::MergeLocked(Shard& shard, const Delta& delta) {
  const auto [it, inserted] = shard.series.try_emplace(delta.tenant);
  Series& series = it->second;
  if (inserted) {
    series.epoch = state_->series_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  series.departed = false;  // traffic revives a departed series
  series.packets += delta.packets;
  series.bytes += delta.bytes;
  series.drops += delta.drops;
  series.recirculated_packets += delta.recirculated_packets;
  series.total_passes += delta.total_passes;
  series.latency_fp += delta.latency_fp;
  series.max_latency_ns = std::max(series.max_latency_ns, delta.max_latency_ns);
}

void TelemetryCollector::FlushDeltas(const DeltaTable& table) {
  // Merge once per touched shard: group the (few) entries by shard so
  // each shard mutex is taken at most once per flush.
  for (std::size_t shard_index = 0; shard_index < kShardCount; ++shard_index) {
    Shard* shard = nullptr;
    std::unique_lock<std::mutex> lock;
    for (std::size_t i = 0; i < table.size; ++i) {
      const Delta& delta = table.entries[i];
      if (ShardOf(delta.tenant) != shard_index) continue;
      if (shard == nullptr) {
        shard = &state_->shards[shard_index];
        lock = std::unique_lock<std::mutex>(shard->mutex);
      }
      MergeLocked(*shard, delta);
    }
  }
}

TenantCounters TelemetryCollector::Tenant(std::uint16_t tenant) const {
  const Shard& shard = state_->shards[ShardOf(tenant)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.series.find(tenant);
  return it != shard.series.end() ? it->second.ToCounters() : TenantCounters{};
}

std::vector<std::uint16_t> TelemetryCollector::Tenants() const {
  std::lock_guard<std::mutex> control(state_->control_mutex);
  AllShardsLock shards(state_->shards);
  std::vector<std::uint16_t> tenants;
  for (const Shard& shard : state_->shards) {
    for (const auto& [tenant, series] : shard.series) tenants.push_back(tenant);
  }
  std::sort(tenants.begin(), tenants.end());
  return tenants;
}

std::vector<std::uint16_t> TelemetryCollector::DepartedTenants() const {
  std::lock_guard<std::mutex> control(state_->control_mutex);
  AllShardsLock shards(state_->shards);
  std::vector<std::uint16_t> tenants;
  for (const Shard& shard : state_->shards) {
    for (const auto& [tenant, series] : shard.series) {
      if (series.departed) tenants.push_back(tenant);
    }
  }
  std::sort(tenants.begin(), tenants.end());
  return tenants;
}

TenantCounters TelemetryCollector::Total() const {
  return TakeSnapshot().total;
}

TelemetryCollector::Snapshot TelemetryCollector::TakeSnapshot() const {
  std::lock_guard<std::mutex> control(state_->control_mutex);
  AllShardsLock shards(state_->shards);
  Snapshot snapshot;
  std::uint64_t total_latency_fp = 0;
  struct Row {
    std::uint16_t tenant;
    TenantCounters counters;
    std::uint64_t epoch;
  };
  std::vector<Row> rows;
  for (const Shard& shard : state_->shards) {
    for (const auto& [tenant, series] : shard.series) {
      rows.push_back({tenant, series.ToCounters(), series.epoch});
      if (series.departed) ++snapshot.departed;
      snapshot.total.packets += series.packets;
      snapshot.total.bytes += series.bytes;
      snapshot.total.drops += series.drops;
      snapshot.total.recirculated_packets += series.recirculated_packets;
      snapshot.total.total_passes += series.total_passes;
      total_latency_fp += series.latency_fp;
      snapshot.total.max_latency_ns =
          std::max(snapshot.total.max_latency_ns, series.max_latency_ns);
    }
  }
  snapshot.total.total_latency_ns = static_cast<double>(total_latency_fp) / kLatencyScale;
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.tenant < b.tenant; });
  snapshot.tenants.reserve(rows.size());
  snapshot.epochs.reserve(rows.size());
  for (const Row& row : rows) {
    snapshot.tenants.emplace_back(row.tenant, row.counters);
    snapshot.epochs.push_back(row.epoch);
  }
  return snapshot;
}

std::vector<TelemetryCollector::TenantDrift> TelemetryCollector::Drift(
    const Snapshot& before, const Snapshot& after) {
  std::vector<TenantDrift> drift;
  std::size_t b = 0;
  for (std::size_t a = 0; a < after.tenants.size(); ++a) {
    const auto& [tenant, cur] = after.tenants[a];
    while (b < before.tenants.size() && before.tenants[b].first < tenant) ++b;
    const bool known = b < before.tenants.size() && before.tenants[b].first == tenant;
    const bool same_series = known && b < before.epochs.size() &&
                             a < after.epochs.size() &&
                             before.epochs[b] == after.epochs[a];
    TenantDrift d;
    d.tenant = tenant;
    if (same_series) {
      const TenantCounters& prev = before.tenants[b].second;
      // Every record bumps packets, so an unchanged packet count means
      // the whole series is unchanged — an idle tenant this window.
      if (cur.packets == prev.packets) continue;
      d.packets = cur.packets - prev.packets;
      d.bytes = cur.bytes - prev.bytes;
      d.drops = cur.drops - prev.drops;
      d.recirculated_packets = cur.recirculated_packets - prev.recirculated_packets;
      d.total_passes = cur.total_passes - prev.total_passes;
    } else {
      // First sight of this series: its absolute counters are the
      // window delta. `restarted` only when an older series existed —
      // a brand-new tenant is not a restart.
      d.restarted = known;
      d.packets = cur.packets;
      d.bytes = cur.bytes;
      d.drops = cur.drops;
      d.recirculated_packets = cur.recirculated_packets;
      d.total_passes = cur.total_passes;
      if (cur.packets == 0) continue;  // created but never recorded into
    }
    drift.push_back(d);
  }
  return drift;
}

std::vector<TelemetryCollector::TenantDrift> TelemetryCollector::DriftSince(
    Snapshot& window_start) const {
  Snapshot now = TakeSnapshot();
  auto drift = Drift(window_start, now);
  window_start = std::move(now);
  return drift;
}

void TelemetryCollector::SetRetention(TelemetryRetention policy,
                                      std::size_t max_departed_series) {
  std::lock_guard<std::mutex> control(state_->control_mutex);
  AllShardsLock shards(state_->shards);
  state_->retention = policy;
  state_->max_departed_series = max_departed_series;
  EvictExcessDepartedLocked();
}

void TelemetryCollector::MarkDeparted(std::uint16_t tenant) {
  std::lock_guard<std::mutex> control(state_->control_mutex);
  AllShardsLock shards(state_->shards);
  Shard& shard = state_->shards[ShardOf(tenant)];
  const auto it = shard.series.find(tenant);
  if (it == shard.series.end()) return;
  if (state_->retention == TelemetryRetention::kPurgeOnDeparture) {
    shard.series.erase(it);
    return;
  }
  it->second.departed = true;
  it->second.departed_seq = ++state_->departure_seq;
  EvictExcessDepartedLocked();
}

bool TelemetryCollector::IsDeparted(std::uint16_t tenant) const {
  const Shard& shard = state_->shards[ShardOf(tenant)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.series.find(tenant);
  return it != shard.series.end() && it->second.departed;
}

void TelemetryCollector::Reset() {
  std::lock_guard<std::mutex> control(state_->control_mutex);
  AllShardsLock shards(state_->shards);
  for (Shard& shard : state_->shards) shard.series.clear();
  state_->departure_seq = 0;
}

void TelemetryCollector::EvictExcessDepartedLocked() {
  std::size_t departed = 0;
  for (const Shard& shard : state_->shards) {
    for (const auto& [tenant, series] : shard.series) {
      if (series.departed) ++departed;
    }
  }
  while (departed > state_->max_departed_series) {
    // Evict the globally oldest departure, scanning across shards —
    // identical policy to the pre-shard collector.
    Shard* oldest_shard = nullptr;
    std::map<std::uint16_t, Series>::iterator oldest;
    for (Shard& shard : state_->shards) {
      for (auto it = shard.series.begin(); it != shard.series.end(); ++it) {
        if (!it->second.departed) continue;
        if (oldest_shard == nullptr ||
            it->second.departed_seq < oldest->second.departed_seq) {
          oldest_shard = &shard;
          oldest = it;
        }
      }
    }
    oldest_shard->series.erase(oldest);
    --departed;
  }
}

}  // namespace sfp::dataplane
