// The programmable switch pipeline: parser -> S MAU stages -> deparser,
// with a recirculation path and Tofino-like per-stage memory accounting
// (B blocks of E rule entries per stage; a table occupies
// max(1, ceil(entries / E)) blocks — the consolidated memory model of
// eq. 24).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/worker_pool.h"
#include "switchsim/table.h"
#include "switchsim/timing.h"
#include "switchsim/types.h"

namespace sfp::switchsim {

namespace compiler {
struct ActionMetadata;
struct CompiledPlan;
class ExecContext;
class PlanCache;
struct PlanDeltas;
}  // namespace compiler

/// The allocator DataPlane::PlanSfc runs. All three are one list
/// scheduler (DataPlane::Schedule) under different precedence edges;
/// every mode's forwarding and telemetry are equivalent to kSequential's
/// (pass counts and latency excluded — reducing them is the point).
enum class Planner : std::uint8_t {
  /// The paper's §IV walk: each NF lands after its chain predecessor.
  kSequential = 0,
  /// Intra-chain NF parallelism (DESIGN.md): NFs that commute
  /// (nf_deps.h) may share a recirculation pass out of chain order. The
  /// packed plan is kept only when it needs fewer passes than the
  /// sequential one.
  kPacked,
  /// kPacked plus cross-tenant pass co-scheduling (DESIGN.md
  /// "Cross-tenant pass sharing"): NFs without chain successors are
  /// steered into late, already-open (pass, stage) windows of a
  /// fabric-wide ledger, and tenant departures trigger window
  /// compaction through SfpSystem's control-plane transaction. Per
  /// tenant the co-scheduled plan is never worse than kPacked's
  /// (fallback counted in parallelism.xt.fallback).
  kCoScheduled,
};

/// Static switch parameters (defaults follow §VI-C's simulated switch:
/// 8 stages x 20 blocks x 1000 entries, 400 Gbps backplane; the
/// testbed Tofino of §VI-B instead has 12 stages and 3.2 Tbps).
struct SwitchConfig {
  int num_stages = 8;
  int blocks_per_stage = 20;
  int entries_per_block = 1000;
  double backplane_gbps = 400.0;
  /// Safety bound on recirculation loops: a packet still asking to
  /// recirculate at the limit exits with a truncated chain.
  int max_passes = 8;
  /// Recirculation-port overload model. When > 0 the recirculation
  /// path is a finite port of this rate: each recirculating packet
  /// occupies the port for wire_bits / rate nanoseconds of virtual
  /// time (anchored at PacketMeta::time_ns, i.e. the packet's ingress
  /// timestamp), and a packet whose pass would have to queue more than
  /// `recirculation_queue_ns` behind earlier recirculations is dropped
  /// with DropReason::kRecirculationOverload instead. 0 keeps the
  /// seed's behaviour: recirculation is free and never drops.
  double recirculation_gbps = 0.0;
  /// Maximum tolerated recirculation-port backlog (virtual ns).
  double recirculation_queue_ns = 2000.0;
  /// Which planner DataPlane::PlanSfc runs (see Planner).
  Planner planner = Planner::kSequential;
  TimingModel timing;
};

/// Entries a pending change adds to each table on top of what is
/// installed; negative for entries it takes out.
using EntryDeltas = std::map<const MatchActionTable*, std::int64_t>;

/// One MAU stage: hosts tables and tracks block occupancy.
class Stage {
 public:
  Stage(int index, const SwitchConfig& config);

  /// Creates a table in this stage; returns nullptr if adding its
  /// initial block reservation would exceed the stage's B blocks.
  MatchActionTable* AddTable(std::string name, std::vector<MatchFieldSpec> key);

  /// Removes a table by name; returns false if unknown.
  bool RemoveTable(const std::string& name);

  /// Finds a table by name (nullptr if absent).
  MatchActionTable* FindTable(const std::string& name);
  const MatchActionTable* FindTable(const std::string& name) const;

  /// Blocks occupied by all tables (each table >= 1 block).
  int BlocksUsed() const;
  /// Installed entries across all tables.
  std::int64_t EntriesUsed() const;
  /// True if one more entry in `table` still fits the stage memory.
  bool CanAddEntry(const MatchActionTable& table) const;
  /// True if `count` more entries in `table` still fit the stage memory
  /// while every table of the stage also carries its `pending` delta
  /// (a plan's earlier entries, or a tenant's entries it takes out).
  bool CanAddEntries(const MatchActionTable& table, std::int64_t count,
                     const EntryDeltas& pending = {}) const;

  int index() const { return index_; }
  const std::vector<std::unique_ptr<MatchActionTable>>& tables() const { return tables_; }

  /// Attaches the owning pipeline's shared mutation counter; every
  /// table created in this stage bumps it alongside its own epoch.
  void SetSharedEpoch(common::metrics::RelaxedCounter* shared);

 private:
  int index_;
  int blocks_per_stage_;
  int entries_per_block_;
  std::vector<std::unique_ptr<MatchActionTable>> tables_;
  common::metrics::RelaxedCounter* shared_epoch_ = nullptr;
};

/// Result of pushing one packet through the pipeline.
struct ProcessResult {
  net::Packet packet;
  PacketMeta meta;
  int passes = 1;
  int active_stages = 0;
  int idle_stages = 0;
  double latency_ns = 0.0;
  /// Parse failed (ProcessBytes only); packet/meta are default.
  bool parse_error = false;
};

/// Options for the batched processing path. Results are bit-identical
/// to the scalar path for every setting.
struct BatchOptions {
  /// Worker shards to split the batch into; 0 = common::DefaultParallelism().
  int num_threads = 0;
  /// Batches smaller than this run inline on the caller (sharding
  /// overhead would dominate).
  int min_parallel_batch = 64;
  /// Pool to run on; nullptr = the process-wide shared pool.
  common::WorkerPool* pool = nullptr;
  /// Optional per-worker result sink: after a worker finishes its
  /// shard, the sink runs on that worker's thread with the shard's
  /// input indices and the full (input-ordered) result array, so
  /// downstream accounting fuses into the parallel section instead of
  /// running as a serial post-pass on the caller. On the inline path
  /// it runs once on the caller with indices 0..n-1. The sink must be
  /// safe to invoke concurrently from multiple workers; each input
  /// index is delivered to exactly one invocation.
  std::function<void(std::span<const std::uint32_t> indices,
                     std::span<const ProcessResult> results)>
      result_sink;
};

/// The switch pipeline.
class Pipeline {
 public:
  explicit Pipeline(SwitchConfig config = {});

  /// Runs a parsed packet through the pipeline, following drops and
  /// recirculation. The metadata's tenant id is seeded from the VLAN
  /// tag; pass starts at 0.
  ProcessResult Process(const net::Packet& packet);

  /// Batched counterpart of Process: shards `packets` by flow hash
  /// (5-tuple + tenant) across a worker pool and returns one result per
  /// input, in input order. A flow's packets always land in the same
  /// shard and are served in their batch order, so per-flow order is
  /// preserved and results are bit-identical to calling Process in a
  /// loop (cross-flow NF state such as shared rate-limiter buckets is
  /// the one exception — see docs/METRICS.md and DESIGN.md). Tables may
  /// be mutated concurrently (tenant admission/departure); packet
  /// results then reflect each table's state at lookup time.
  std::vector<ProcessResult> ProcessBatch(std::span<const net::Packet> packets,
                                          const BatchOptions& options = {});

  /// ProcessBatch into a caller-owned buffer: results[i] receives
  /// packet i's result (every field is written, so the buffer can be
  /// reused across batches without re-zeroing — this keeps the
  /// steady-state serve loop free of per-batch allocation). `results`
  /// must have at least packets.size() elements; elements beyond that
  /// are untouched.
  void ProcessBatchInto(std::span<const net::Packet> packets,
                        std::span<ProcessResult> results, const BatchOptions& options = {});

  /// Parses raw bytes first (exercising the wire path), then Process().
  ProcessResult ProcessBytes(std::span<const std::uint8_t> bytes);

  Stage& stage(int k);
  const Stage& stage(int k) const;
  int num_stages() const { return static_cast<int>(stages_.size()); }
  const SwitchConfig& config() const { return config_; }

  /// Aggregate counters.
  std::uint64_t packets_processed() const { return packets_.Value(); }
  std::uint64_t packets_dropped() const { return drops_.Value(); }
  /// Drops attributed to one reason (kNone returns 0).
  std::uint64_t packets_dropped_by(DropReason reason) const;
  std::uint64_t recirculations() const { return recirculations_.Value(); }
  std::uint64_t batches_processed() const { return batches_.Value(); }
  /// Turns on the per-tenant pipeline compiler (docs/COMPILER.md):
  /// batch workers serve tenants whose rules lift cleanly from a
  /// CompiledPlan and interpret the rest. Results, drops, and counters
  /// are bit-identical to the interpreted path. `metadata` carries the
  /// NF library's action traits (action_traits.h); actions without
  /// traits are treated as opaque calls. Opt-in: without this call
  /// every packet is interpreted.
  void EnableCompiler(compiler::ActionMetadata metadata);
  /// Drops the plan cache and reverts every tenant to interpretation.
  void DisableCompiler();
  bool compiler_enabled() const { return plan_cache_ != nullptr; }
  /// The shared plan cache, or nullptr when the compiler is off. The
  /// control plane uses it to warm/invalidate plans across rule churn.
  compiler::PlanCache* plan_cache() { return plan_cache_.get(); }

  /// Pipeline-wide table-mutation counter: bumped whenever any table
  /// in any stage mutates. Compiled plans capture it for a one-load
  /// per-packet staleness fast path (CompiledPlan::Validate).
  const common::metrics::RelaxedCounter* table_mutation_epoch() const {
    return &table_mutations_;
  }

  /// Applies one worker's buffered pipeline-level counter deltas
  /// (compiled serve path; called from ExecContext::Flush).
  void AddCompiledCounts(const compiler::PlanDeltas& deltas);

  /// Snapshots the pipeline's counters (packets, drops, recirculations,
  /// batches, per-stage/per-table hits and misses, and compiler.* when
  /// the compiler is enabled) into `registry` under the names
  /// documented in docs/METRICS.md. The allocator's pass-packing
  /// tallies are the data plane's to export, not the pipeline's.
  void ExportMetrics(common::metrics::Registry& registry) const;

  /// Total blocks used across stages (utilization numerator of Fig. 6).
  int TotalBlocksUsed() const;
  /// Total entries installed across stages.
  std::int64_t TotalEntriesUsed() const;

 private:
  /// Serve path shared by Process and the batch workers; only touches
  /// shared state through atomics and the tables' shared locks. `exec`
  /// is the calling batch worker's compiled-plan context (nullptr on
  /// the scalar path and while the compiler is off): when the packet's
  /// tenant has a valid plan, ExecuteCompiled serves it; otherwise the
  /// interpreter loop below does, and `exec` counts it. Writes every
  /// field of `result` (its prior contents are irrelevant), so the
  /// batch path serves straight into reusable result buffers — no
  /// per-packet ProcessResult is moved, copied, or re-zeroed.
  void ProcessOne(const net::Packet& packet, ProcessResult& result,
                  compiler::ExecContext* exec = nullptr);

  /// Compiled serve path (defined in compiler/exec.cc): runs `packet`
  /// through `plan`, buffering all counter bumps into `deltas` and
  /// writing every field of `result`. Bit-identical to the interpreter
  /// loop in ProcessOne by construction (see docs/COMPILER.md for the
  /// equivalence argument).
  void ExecuteCompiled(const compiler::CompiledPlan& plan, const net::Packet& packet,
                       compiler::PlanDeltas& deltas, ProcessResult& result);

  /// Charges one recirculation pass to the finite recirculation port;
  /// false = the port's backlog bound is exceeded (overload drop).
  /// Always true when the model is disabled (recirculation_gbps <= 0).
  bool AdmitRecirculation(double now_ns, double service_ns);

  /// Bumps the total and the per-reason drop counter.
  void RecordDrop(DropReason reason);

  SwitchConfig config_;
  std::vector<Stage> stages_;
  common::metrics::RelaxedCounter packets_;
  /// Pipeline-wide table-mutation counter (bumped by every table's
  /// BumpEpoch); compiled plans read it as a one-load staleness fast
  /// path (CompiledPlan::Validate).
  common::metrics::RelaxedCounter table_mutations_;
  common::metrics::RelaxedCounter drops_;
  common::metrics::RelaxedCounter drops_nf_;
  common::metrics::RelaxedCounter drops_overload_;
  common::metrics::RelaxedCounter drops_injected_;
  common::metrics::RelaxedCounter recirculations_;
  common::metrics::RelaxedCounter batches_;
  /// Virtual time at which the recirculation port next frees up.
  common::metrics::RelaxedDouble recirc_busy_until_ns_;
  /// Set by EnableCompiler; shared with the batch workers' per-shard
  /// ExecContexts (shared_ptr so a DisableCompiler cannot free it under
  /// an in-flight batch).
  std::shared_ptr<compiler::PlanCache> plan_cache_;
};

}  // namespace sfp::switchsim
