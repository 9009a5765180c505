#include "switchsim/compiler/plan_cache.h"

namespace sfp::switchsim::compiler {

std::shared_ptr<const CompiledPlan> PlanCache::Acquire(std::uint16_t tenant) {
  {
    std::shared_lock lock(map_mutex_);
    auto it = plans_.find(tenant);
    if (it != plans_.end()) return it->second;
  }
  std::unique_lock compile_lock(compile_mutex_, std::try_to_lock);
  if (!compile_lock.owns_lock()) return nullptr;  // compile in flight; interpret
  return CompileLocked(tenant, nullptr);
}

bool PlanCache::Warm(std::uint16_t tenant, std::string* error) {
  std::unique_lock compile_lock(compile_mutex_);
  return CompileLocked(tenant, error) != nullptr;
}

std::shared_ptr<const CompiledPlan> PlanCache::CompileLocked(std::uint16_t tenant,
                                                             std::string* error) {
  // Another thread may have compiled between our map miss and taking
  // the compile mutex.
  {
    std::shared_lock lock(map_mutex_);
    auto it = plans_.find(tenant);
    if (it != plans_.end()) return it->second;
  }
  std::string local_error;
  std::shared_ptr<const CompiledPlan> plan =
      CompileTenant(pipeline_, tenant, &metadata_, &local_error);
  if (plan == nullptr && error != nullptr) *error = local_error;
  {
    std::unique_lock lock(map_mutex_);
    if (plan != nullptr) {
      if (!ever_compiled_.insert(tenant).second) {
        recompiles_.fetch_add(1, std::memory_order_relaxed);
      }
      plans_compiled_.fetch_add(1, std::memory_order_relaxed);
      fused_stages_.fetch_add(plan->stats.fused_stages, std::memory_order_relaxed);
      dead_tables_.fetch_add(plan->stats.dead_tables, std::memory_order_relaxed);
      folded_tables_.fetch_add(plan->stats.folded_tables, std::memory_order_relaxed);
      interval_slots_.fetch_add(plan->stats.interval_slots, std::memory_order_relaxed);
      linear_slots_.fetch_add(plan->stats.linear_slots, std::memory_order_relaxed);
      fallback_.erase(tenant);
    } else {
      fallback_.insert(tenant);
    }
    plans_[tenant] = plan;
    generation_.fetch_add(1, std::memory_order_release);
  }
  return plan;
}

void PlanCache::Invalidate(std::uint16_t tenant) {
  std::unique_lock lock(map_mutex_);
  auto it = plans_.find(tenant);
  if (it == plans_.end()) return;
  plans_.erase(it);
  fallback_.erase(tenant);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
}

void PlanCache::InvalidateAll() {
  std::unique_lock lock(map_mutex_);
  if (plans_.empty()) return;
  invalidations_.fetch_add(plans_.size(), std::memory_order_relaxed);
  plans_.clear();
  fallback_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

std::uint64_t PlanCache::FallbackTenants() const {
  std::shared_lock lock(map_mutex_);
  return fallback_.size();
}

}  // namespace sfp::switchsim::compiler
