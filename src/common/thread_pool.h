#ifndef MRS_COMMON_THREAD_POOL_H_
#define MRS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mrs {

/// A fixed-size thread pool with a sharded task queue, used by the batch
/// scheduling engine to run many independent compile-time pipelines
/// concurrently.
///
/// Design points (deliberately minimal — this is scheduler scaffolding,
/// not a general executor):
///
///  * **Fixed workers.** `num_threads` workers are spawned in the
///    constructor and live until destruction; no dynamic resizing.
///  * **Sharded queues, no stealing.** Each worker owns one task deque;
///    `Submit` distributes tasks round-robin over the shards. Workers only
///    consume their own shard, so two pools never contend on one lock and
///    a task's execution site is a pure function of its submission index.
///    Batch-scheduler determinism does not depend on this (results are
///    keyed by item index), but it keeps contention low and behavior easy
///    to reason about. The flip side: a long task holds every task dealt
///    behind it on its shard while other workers idle. Callers with
///    unequal work items should submit one job per worker and let the
///    jobs claim items from a shared atomic index, as the join-order
///    optimizer does (src/optimizer/optimizer.cc, ClaimAll).
///  * **Exception propagation.** The mrs library itself never throws, but
///    user tasks may. The first exception thrown by any task is captured
///    and rethrown from `WaitAll`; subsequent tasks still run.
///
/// Thread-safe: `Submit` and `WaitAll` may be called from any thread
/// (including from inside a task, though `WaitAll` from inside a task
/// deadlocks if it would have to wait for the calling task itself).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. Values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);

  /// Drains all pending tasks (they run to completion), then joins the
  /// workers. Any pending captured exception is discarded.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Must not be called during/after destruction.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has completed. If any task
  /// threw since the last WaitAll, rethrows the first captured exception
  /// (the pool stays usable afterwards). A zero-task WaitAll returns
  /// immediately.
  void WaitAll();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Number of tasks that have finished executing (monotone; test aid).
  uint64_t completed_tasks() const {
    return completed_.load(std::memory_order_relaxed);
  }

  /// std::thread::hardware_concurrency with a floor of 1.
  static int DefaultThreads();

 private:
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t shard_index);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> next_shard_{0};
  std::atomic<bool> stopping_{false};

  // Completion tracking for WaitAll.
  std::atomic<int64_t> pending_{0};
  std::atomic<uint64_t> completed_{0};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::exception_ptr first_error_;  // guarded by done_mu_
};

}  // namespace mrs

#endif  // MRS_COMMON_THREAD_POOL_H_
