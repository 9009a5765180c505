#include "switchsim/pipeline.h"

#include <algorithm>

#include "common/check.h"
#include "common/faultinject.h"
#include "common/units.h"
#include "switchsim/compiler/exec.h"
#include "switchsim/compiler/plan_cache.h"

namespace sfp::switchsim {

Stage::Stage(int index, const SwitchConfig& config)
    : index_(index),
      blocks_per_stage_(config.blocks_per_stage),
      entries_per_block_(config.entries_per_block) {}

MatchActionTable* Stage::AddTable(std::string name, std::vector<MatchFieldSpec> key) {
  // Every table reserves at least one block (§V-A: "each physical NF
  // would reserve a piece of memory").
  if (BlocksUsed() + 1 > blocks_per_stage_) return nullptr;
  tables_.push_back(std::make_unique<MatchActionTable>(std::move(name), std::move(key)));
  tables_.back()->SetSharedEpoch(shared_epoch_);
  return tables_.back().get();
}

void Stage::SetSharedEpoch(common::metrics::RelaxedCounter* shared) {
  shared_epoch_ = shared;
  for (auto& table : tables_) table->SetSharedEpoch(shared);
}

bool Stage::RemoveTable(const std::string& name) {
  const std::size_t before = tables_.size();
  std::erase_if(tables_, [&name](const auto& t) { return t->name() == name; });
  return tables_.size() != before;
}

MatchActionTable* Stage::FindTable(const std::string& name) {
  for (auto& table : tables_) {
    if (table->name() == name) return table.get();
  }
  return nullptr;
}

const MatchActionTable* Stage::FindTable(const std::string& name) const {
  for (const auto& table : tables_) {
    if (table->name() == name) return table.get();
  }
  return nullptr;
}

int Stage::BlocksUsed() const {
  int blocks = 0;
  for (const auto& table : tables_) {
    blocks += static_cast<int>(std::max<std::int64_t>(
        1, CeilDiv(static_cast<std::int64_t>(table->num_entries()), entries_per_block_)));
  }
  return blocks;
}

std::int64_t Stage::EntriesUsed() const {
  std::int64_t entries = 0;
  for (const auto& table : tables_) {
    entries += static_cast<std::int64_t>(table->num_entries());
  }
  return entries;
}

bool Stage::CanAddEntry(const MatchActionTable& table) const {
  return CanAddEntries(table, 1);
}

bool Stage::CanAddEntries(const MatchActionTable& table, std::int64_t count,
                          const EntryDeltas& pending) const {
  std::int64_t blocks = 0;
  for (const auto& t : tables_) {
    std::int64_t entries = static_cast<std::int64_t>(t->num_entries());
    if (const auto it = pending.find(t.get()); it != pending.end()) entries += it->second;
    if (t.get() == &table) entries += count;
    blocks += std::max<std::int64_t>(1, CeilDiv(entries, entries_per_block_));
  }
  return blocks <= blocks_per_stage_;
}

Pipeline::Pipeline(SwitchConfig config) : config_(config) {
  SFP_CHECK_GT(config_.num_stages, 0);
  SFP_CHECK_GT(config_.blocks_per_stage, 0);
  SFP_CHECK_GT(config_.entries_per_block, 0);
  stages_.reserve(static_cast<std::size_t>(config_.num_stages));
  for (int k = 0; k < config_.num_stages; ++k) {
    stages_.emplace_back(k, config_);
    stages_.back().SetSharedEpoch(&table_mutations_);
  }
}

Stage& Pipeline::stage(int k) {
  SFP_CHECK_GE(k, 0);
  SFP_CHECK_LT(k, num_stages());
  return stages_[static_cast<std::size_t>(k)];
}

const Stage& Pipeline::stage(int k) const {
  SFP_CHECK_GE(k, 0);
  SFP_CHECK_LT(k, num_stages());
  return stages_[static_cast<std::size_t>(k)];
}

ProcessResult Pipeline::Process(const net::Packet& packet) {
  ProcessResult result;
  ProcessOne(packet, result);
  return result;
}

void Pipeline::RecordDrop(DropReason reason) {
  drops_.Add(1);
  switch (reason) {
    case DropReason::kNone:
    case DropReason::kNfAction:
      drops_nf_.Add(1);
      break;
    case DropReason::kRecirculationOverload:
      drops_overload_.Add(1);
      break;
    case DropReason::kInjectedFault:
      drops_injected_.Add(1);
      break;
  }
}

std::uint64_t Pipeline::packets_dropped_by(DropReason reason) const {
  switch (reason) {
    case DropReason::kNone:
      return 0;
    case DropReason::kNfAction:
      return drops_nf_.Value();
    case DropReason::kRecirculationOverload:
      return drops_overload_.Value();
    case DropReason::kInjectedFault:
      return drops_injected_.Value();
  }
  return 0;
}

bool Pipeline::AdmitRecirculation(double now_ns, double service_ns) {
  if (config_.recirculation_gbps <= 0.0) return true;
  double busy = recirc_busy_until_ns_.Value();
  for (;;) {
    const double start_ns = std::max(now_ns, busy);
    if (start_ns - now_ns > config_.recirculation_queue_ns) return false;
    if (recirc_busy_until_ns_.CompareExchange(busy, start_ns + service_ns)) return true;
  }
}

void Pipeline::EnableCompiler(compiler::ActionMetadata metadata) {
  plan_cache_ = std::make_shared<compiler::PlanCache>(*this, std::move(metadata));
}

void Pipeline::DisableCompiler() { plan_cache_.reset(); }

void Pipeline::ProcessOne(const net::Packet& packet, ProcessResult& result,
                          compiler::ExecContext* exec) {
  if (exec != nullptr) {
    if (compiler::ExecContext::Entry* entry = exec->EntryFor(packet.TenantId())) {
      ExecuteCompiled(*entry->plan, packet, entry->deltas, result);
      return;
    }
    // No valid plan (fallback tenant, compile in flight, or stale
    // epoch): interpret this packet.
    exec->CountInterpreted();
  }
  result.packet = packet;
  PacketMeta meta;
  meta.tenant_id = packet.TenantId();
  meta.time_ns = packet.ingress_time_ns;
  result.meta = meta;
  result.passes = 1;
  result.active_stages = 0;
  result.idle_stages = 0;
  result.latency_ns = 0.0;
  result.parse_error = false;
  packets_.Add(1);

  if (SFP_FAULT("switchsim.pipeline.serve")) {
    result.meta.dropped = true;
    result.meta.drop_reason = DropReason::kInjectedFault;
    RecordDrop(result.meta.drop_reason);
    result.latency_ns = config_.timing.LatencyNs(0, 0, result.passes);
    return;
  }

  for (;;) {
    result.meta.recirculate = false;
    for (auto& stage : stages_) {
      bool active = false;
      for (auto& table : stage.tables()) {
        active |= table->Apply(result.packet, result.meta);
        if (result.meta.dropped) break;
      }
      if (active) {
        ++result.active_stages;
      } else {
        ++result.idle_stages;
      }
      if (result.meta.dropped) break;
    }
    if (result.meta.dropped) {
      if (result.meta.drop_reason == DropReason::kNone) {
        result.meta.drop_reason = DropReason::kNfAction;
      }
      RecordDrop(result.meta.drop_reason);
      break;
    }
    if (!result.meta.recirculate) break;
    // A packet still asking to recirculate at the pass limit exits
    // with a truncated chain.
    if (result.passes >= config_.max_passes) break;
    // Recirculated traffic competes for the finite recirculation port.
    const double service_ns =
        config_.recirculation_gbps > 0.0
            ? static_cast<double>(packet.WireBytes()) * 8.0 / config_.recirculation_gbps
            : 0.0;
    if (!AdmitRecirculation(result.meta.time_ns, service_ns)) {
      result.meta.dropped = true;
      result.meta.drop_reason = DropReason::kRecirculationOverload;
      RecordDrop(result.meta.drop_reason);
      break;
    }
    recirculations_.Add(1);
    ++result.passes;
    ++result.meta.pass;
  }

  result.latency_ns = config_.timing.LatencyNs(result.active_stages, result.idle_stages,
                                               result.passes);
}

namespace {

/// Shard choice for a packet: flow-affine (5-tuple hash) with the
/// tenant mixed in so flow-less traffic still spreads by tenant.
std::size_t FlowShard(const net::Packet& packet, std::size_t shards) {
  std::uint64_t hash = packet.Tuple().Hash();
  hash ^= (static_cast<std::uint64_t>(packet.TenantId()) + 1) * 0x9e3779b97f4a7c15ULL;
  return hash % shards;
}

}  // namespace

std::vector<ProcessResult> Pipeline::ProcessBatch(std::span<const net::Packet> packets,
                                                  const BatchOptions& options) {
  std::vector<ProcessResult> results(packets.size());
  ProcessBatchInto(packets, results, options);
  return results;
}

void Pipeline::ProcessBatchInto(std::span<const net::Packet> packets,
                                std::span<ProcessResult> results,
                                const BatchOptions& options) {
  SFP_CHECK_GE(results.size(), packets.size());
  if (packets.empty()) return;
  batches_.Add(1);

  const int shards =
      options.num_threads > 0 ? options.num_threads : common::DefaultParallelism();
  // Pin the plan cache for the whole batch so a concurrent
  // DisableCompiler cannot free it under an in-flight worker.
  const std::shared_ptr<compiler::PlanCache> plan_cache = plan_cache_;
  if (shards <= 1 || static_cast<int>(packets.size()) < options.min_parallel_batch) {
    std::optional<compiler::ExecContext> exec;
    if (plan_cache != nullptr) exec.emplace(*plan_cache);
    if (!options.result_sink) {
      for (std::size_t i = 0; i < packets.size(); ++i) {
        ProcessOne(packets[i], results[i], exec ? &*exec : nullptr);
      }
    } else {
      // Sink in cache-sized chunks: the sink re-reads each result it is
      // handed, so running it while the chunk is still resident beats
      // one full-batch pass over results that have long been evicted.
      // The sink contract (BatchOptions) explicitly permits multiple
      // invocations with disjoint index sets.
      constexpr std::size_t kSinkChunk = 512;
      std::vector<std::uint32_t> all(packets.size());
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<std::uint32_t>(i);
      for (std::size_t begin = 0; begin < packets.size(); begin += kSinkChunk) {
        const std::size_t end = std::min(begin + kSinkChunk, packets.size());
        for (std::size_t i = begin; i < end; ++i) {
          ProcessOne(packets[i], results[i], exec ? &*exec : nullptr);
        }
        options.result_sink(
            std::span<const std::uint32_t>(all.data() + begin, end - begin),
            results.first(packets.size()));
      }
    }
    if (exec) exec->Flush(*this);
    return;
  }

  // Bucket packet indices by flow shard. Each shard keeps its indices
  // in batch order, so per-flow order survives the fan-out; writing
  // results[i] re-establishes input order on the way back.
  std::vector<std::vector<std::uint32_t>> shard_indices(static_cast<std::size_t>(shards));
  for (auto& indices : shard_indices) {
    indices.reserve(packets.size() / static_cast<std::size_t>(shards) + 1);
  }
  for (std::size_t i = 0; i < packets.size(); ++i) {
    shard_indices[FlowShard(packets[i], static_cast<std::size_t>(shards))].push_back(
        static_cast<std::uint32_t>(i));
  }

  auto& pool = options.pool != nullptr ? *options.pool : common::WorkerPool::Shared();
  pool.ParallelFor(shards, [&](int shard) {
    std::optional<compiler::ExecContext> exec;
    if (plan_cache != nullptr) exec.emplace(*plan_cache);
    const auto& indices = shard_indices[static_cast<std::size_t>(shard)];
    for (const std::uint32_t index : indices) {
      ProcessOne(packets[index], results[index], exec ? &*exec : nullptr);
    }
    if (exec) exec->Flush(*this);
    // Fused accounting: the sink runs here, on the worker, while other
    // shards are still serving — no serial post-pass on the caller.
    if (options.result_sink) options.result_sink(indices, results.first(packets.size()));
  });
}

void Pipeline::ExportMetrics(common::metrics::Registry& registry) const {
  registry.GetCounter("pipeline.packets").Set(packets_.Value());
  registry.GetCounter("pipeline.drops").Set(drops_.Value());
  registry.GetCounter("pipeline.drops.nf_action").Set(drops_nf_.Value());
  registry.GetCounter("pipeline.drops.recirculation_overload").Set(drops_overload_.Value());
  registry.GetCounter("pipeline.drops.injected_fault").Set(drops_injected_.Value());
  registry.GetCounter("pipeline.recirculations").Set(recirculations_.Value());
  registry.GetCounter("pipeline.batches").Set(batches_.Value());
  if (plan_cache_ != nullptr) {
    registry.GetCounter("compiler.plans_compiled").Set(plan_cache_->PlansCompiled());
    registry.GetCounter("compiler.recompiles").Set(plan_cache_->Recompiles());
    registry.GetCounter("compiler.invalidations").Set(plan_cache_->Invalidations());
    registry.GetCounter("compiler.fallback_tenants").Set(plan_cache_->FallbackTenants());
    registry.GetCounter("compiler.fused_stages").Set(plan_cache_->FusedStages());
    registry.GetCounter("compiler.dead_tables_eliminated")
        .Set(plan_cache_->DeadTablesEliminated());
    registry.GetCounter("compiler.folded_tables").Set(plan_cache_->FoldedTables());
    registry.GetCounter("compiler.slots.linear").Set(plan_cache_->LinearSlots());
    registry.GetCounter("compiler.slots.interval").Set(plan_cache_->IntervalSlots());
    registry.GetCounter("compiler.interpreted_packets")
        .Set(plan_cache_->InterpretedPackets());
  }
  for (const auto& stage : stages_) {
    const std::string prefix = "pipeline.stage" + std::to_string(stage.index()) + ".";
    for (const auto& table : stage.tables()) {
      registry.GetCounter(prefix + table->name() + ".hits").Set(table->hit_count());
      registry.GetCounter(prefix + table->name() + ".misses").Set(table->miss_count());
      registry.GetCounter(prefix + table->name() + ".default_hits")
          .Set(table->default_hit_count());
    }
  }
}

ProcessResult Pipeline::ProcessBytes(std::span<const std::uint8_t> bytes) {
  auto parsed = net::Packet::Parse(bytes);
  if (!parsed) {
    ProcessResult result;
    result.parse_error = true;
    return result;
  }
  return Process(*parsed);
}

int Pipeline::TotalBlocksUsed() const {
  int blocks = 0;
  for (const auto& stage : stages_) blocks += stage.BlocksUsed();
  return blocks;
}

std::int64_t Pipeline::TotalEntriesUsed() const {
  std::int64_t entries = 0;
  for (const auto& stage : stages_) entries += stage.EntriesUsed();
  return entries;
}

}  // namespace sfp::switchsim
