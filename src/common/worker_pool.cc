#include "common/worker_pool.h"

#include <algorithm>
#include <cstdlib>

namespace sfp::common {

int DefaultParallelism() {
  if (const char* env = std::getenv("SFP_WORKER_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hardware), 1, 8);
}

WorkerPool::WorkerPool(int num_threads) {
  const int pool_threads = std::max(0, num_threads - 1);
  threads_.reserve(static_cast<std::size_t>(pool_threads));
  for (int i = 0; i < pool_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void WorkerPool::WorkerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* task = nullptr;
    int count = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      // The job may already be retired by the time this worker wakes.
      if (task_ == nullptr) continue;
      task = task_;
      count = count_;
      ++active_;
    }
    for (int i = next_.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
      (*task)(i);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (--active_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::ParallelFor(int count, const std::function<void(int)>& task) {
  if (count <= 0) return;
  std::lock_guard<std::mutex> serialize(job_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_ = &task;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  work_cv_.notify_all();
  // The caller is a worker too: claim indices until none remain.
  for (int i = next_.fetch_add(1, std::memory_order_relaxed); i < count;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    task(i);
  }
  // Every index is claimed now, and each one a worker claimed runs
  // while that worker is active: once none is, all have finished. The
  // task is retired under the same lock, so a late waker skips it.
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return active_ == 0; });
  task_ = nullptr;
}

WorkerPool& WorkerPool::Shared() {
  static WorkerPool pool(DefaultParallelism());
  return pool;
}

}  // namespace sfp::common
