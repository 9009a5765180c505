// Small persistent worker pool used by the batched packet-processing
// path (switchsim::Pipeline::ProcessBatch) and the parallel
// branch & bound tree search (lp::MipSolver with deterministic off,
// which runs one long-lived worker task per index).
//
// ParallelFor(count, task) runs task(0..count-1) across the pool's
// threads *and* the calling thread, returning once every index has
// finished. Indices are claimed with an atomic cursor, so the pool
// works correctly with any thread count — including zero pool threads,
// where the caller simply runs every index itself. ParallelFor also
// waits for every worker that joined the job to leave it, so no worker
// can run a finished job's task or claim the next job's indices. One
// job runs at a time; concurrent ParallelFor callers serialize. Do not
// call ParallelFor from inside a task (it would self-deadlock).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sfp::common {

/// Default shard/thread count for batched processing: the hardware
/// concurrency clamped to [1, 8], overridable with SFP_WORKER_THREADS.
int DefaultParallelism();

class WorkerPool {
 public:
  /// Spawns `num_threads - 1` worker threads (the caller of ParallelFor
  /// is the remaining worker).
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Threads participating in a ParallelFor (pool threads + caller).
  int num_threads() const { return static_cast<int>(threads_.size()) + 1; }

  /// Runs task(i) for every i in [0, count) and waits for completion.
  void ParallelFor(int count, const std::function<void(int)>& task);

  /// Process-wide pool sized by DefaultParallelism(), created on first
  /// use.
  static WorkerPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // signals workers: a new job exists
  std::condition_variable done_cv_;  // signals the caller: last worker left
  const std::function<void(int)>* task_ = nullptr;  // guarded by mutex_
  int count_ = 0;                                   // guarded by mutex_
  std::uint64_t generation_ = 0;                    // guarded by mutex_
  bool stop_ = false;                               // guarded by mutex_
  int active_ = 0;  // guarded by mutex_: workers inside the current job
  std::atomic<int> next_{0};       // next unclaimed index
  std::mutex job_mutex_;           // serializes ParallelFor callers
  std::vector<std::thread> threads_;
};

}  // namespace sfp::common
