// Shared tenant -> CompiledPlan cache.
//
// Concurrency contract:
//  - Serve workers call Acquire(). It takes the map lock shared; on a
//    miss it TRY-locks the compile mutex — if another compile is in
//    flight the worker gets nullptr and interprets, so the serve path
//    never blocks on compilation.
//  - The control plane calls Warm() after admitting a tenant — a
//    blocking compile so the first served packet already runs compiled.
//  - DataPlane mutation hooks (and the per-packet epoch backstop in
//    ExecContext::PlanFor) call Invalidate(); the generation counter
//    bumps on every map change, which is what clears the per-worker
//    tenant -> plan memos.
//
// A tenant that fails to lift (unsupported construct) is cached as a
// nullptr entry: a permanent interpreted fallback until the next
// invalidation, not a retry per packet.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "switchsim/compiler/action_traits.h"
#include "switchsim/compiler/plan.h"

namespace sfp::switchsim {
class Pipeline;
}  // namespace sfp::switchsim

namespace sfp::switchsim::compiler {

class PlanCache {
 public:
  PlanCache(const Pipeline& pipeline, ActionMetadata metadata)
      : pipeline_(pipeline), metadata_(std::move(metadata)) {}

  /// Serve-path lookup. Returns the tenant's plan, or nullptr when the
  /// packet must interpret (fallback tenant, or a compile is needed and
  /// either in flight elsewhere or just kicked off here and failed).
  /// Never blocks on compilation.
  std::shared_ptr<const CompiledPlan> Acquire(std::uint16_t tenant);

  /// Blocking compile for the control plane (e.g. right after an admit
  /// installs the tenant's rules). Returns false if the tenant fell
  /// back to the interpreter; `error` (when non-null) says why.
  bool Warm(std::uint16_t tenant, std::string* error = nullptr);

  /// Drops the tenant's cached plan (or fallback marker) so the next
  /// Acquire/Warm recompiles against the mutated tables.
  void Invalidate(std::uint16_t tenant);

  /// Drops every cached plan (e.g. after the action metadata changes).
  void InvalidateAll();

  /// Map version; bumps on every insert/erase. Workers compare it to
  /// decide when their tenant -> plan memos are stale.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // compiler.* metric sources (monotonic except FallbackTenants).
  std::uint64_t PlansCompiled() const { return plans_compiled_.load(std::memory_order_relaxed); }
  std::uint64_t Recompiles() const { return recompiles_.load(std::memory_order_relaxed); }
  std::uint64_t Invalidations() const { return invalidations_.load(std::memory_order_relaxed); }
  std::uint64_t FusedStages() const { return fused_stages_.load(std::memory_order_relaxed); }
  std::uint64_t DeadTablesEliminated() const { return dead_tables_.load(std::memory_order_relaxed); }
  std::uint64_t FoldedTables() const { return folded_tables_.load(std::memory_order_relaxed); }
  std::uint64_t IntervalSlots() const { return interval_slots_.load(std::memory_order_relaxed); }
  std::uint64_t LinearSlots() const { return linear_slots_.load(std::memory_order_relaxed); }
  /// Batch-served packets that found no valid plan and were interpreted.
  std::uint64_t InterpretedPackets() const {
    return interpreted_packets_.load(std::memory_order_relaxed);
  }
  /// Tenants currently marked interpreted-fallback.
  std::uint64_t FallbackTenants() const;

  /// Adds one worker's interpreted-packet count (ExecContext::Flush).
  void AddInterpretedPackets(std::uint64_t packets) {
    if (packets != 0) interpreted_packets_.fetch_add(packets, std::memory_order_relaxed);
  }

 private:
  /// Compile + insert with compile_mutex_ held (rechecks the map first).
  std::shared_ptr<const CompiledPlan> CompileLocked(std::uint16_t tenant,
                                                    std::string* error);

  const Pipeline& pipeline_;
  const ActionMetadata metadata_;

  /// Guards plans_, fallback_, ever_compiled_. Held shared on the serve
  /// path, unique only for brief insert/erase sections.
  mutable std::shared_mutex map_mutex_;
  std::unordered_map<std::uint16_t, std::shared_ptr<const CompiledPlan>> plans_;
  std::unordered_set<std::uint16_t> fallback_;
  std::unordered_set<std::uint16_t> ever_compiled_;

  /// Serializes compilation; serve workers only try_lock it.
  std::mutex compile_mutex_;

  std::atomic<std::uint64_t> generation_{1};
  std::atomic<std::uint64_t> plans_compiled_{0};
  std::atomic<std::uint64_t> recompiles_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> fused_stages_{0};
  std::atomic<std::uint64_t> dead_tables_{0};
  std::atomic<std::uint64_t> folded_tables_{0};
  std::atomic<std::uint64_t> interval_slots_{0};
  std::atomic<std::uint64_t> linear_slots_{0};
  std::atomic<std::uint64_t> interpreted_packets_{0};
};

}  // namespace sfp::switchsim::compiler
