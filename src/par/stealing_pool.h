#ifndef PARDB_PAR_STEALING_POOL_H_
#define PARDB_PAR_STEALING_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pardb::par {

// Work-stealing worker pool. Each worker owns a deque: it pops its own
// work LIFO (the task it just produced is hot in cache), takes external
// submissions from a shared injection queue FIFO, and when both are empty
// steals FIFO from another worker's deque — the oldest task, the one its
// owner would reach last. Tasks are independent closures; a task submitted
// from inside a running task lands on the submitting worker's own deque, so a chain of self-resubmitting
// tasks (the sharded driver's per-shard quantum chain) stays on one worker
// until some idle worker steals it — which is exactly the migration the
// scheduler wants under load skew.
//
// Wait() blocks until every task submitted so far has finished (queues
// drained AND nothing still executing); the pool is reusable afterwards.
// Correctness-first synchronization: each deque has its own mutex, taken
// once per task — quantum tasks run hundreds of engine steps, so the lock
// is noise. Counters (steals, per-worker busy time and task counts) are
// relaxed atomics, safe to read live from a metrics scraper.
class StealingPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit StealingPool(std::size_t num_threads);

  StealingPool(const StealingPool&) = delete;
  StealingPool& operator=(const StealingPool&) = delete;

  // Drains outstanding tasks, then joins the workers.
  ~StealingPool();

  // From a non-worker thread: pushes onto the shared injection queue.
  // From a worker of this pool: pushes onto that worker's own deque.
  void Submit(std::function<void()> task);

  // Always pushes onto the shared injection queue, even from a worker.
  // For tasks that made no progress and expect some *other* task to
  // unblock them (a pipelined shard yielding on a drained-but-open
  // admission queue): the worker's own-deque LIFO pop would run the
  // resubmitted task again immediately, starving the sibling chains —
  // including the one the producer is blocked on — whereas the injection
  // queue is FIFO, so every runnable chain gets a turn first.
  void SubmitGlobal(std::function<void()> task);

  // Blocks until all tasks submitted so far have completed.
  void Wait();

  std::size_t num_threads() const { return threads_.size(); }

  // Index of the calling worker in [0, num_threads), or -1 when the caller
  // is not one of this pool's workers.
  int current_worker() const;

  // Tasks taken from another worker's deque (not injection-queue pops).
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  std::uint64_t tasks_executed(std::size_t worker) const {
    return slots_[worker]->executed.load(std::memory_order_relaxed);
  }
  // Wall time worker `worker` spent inside tasks, accumulated at task end.
  std::uint64_t busy_nanos(std::size_t worker) const {
    return slots_[worker]->busy_ns.load(std::memory_order_relaxed);
  }
  // Nanoseconds since the pool started — the utilization denominator.
  std::uint64_t uptime_nanos() const;

 private:
  struct Slot {
    std::mutex mu;
    std::deque<std::function<void()>> deque;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  void WorkerLoop(std::size_t self);
  // Own deque (LIFO), then injection (FIFO), then steal (FIFO). Decrements
  // queued_ on success.
  bool TryPop(std::size_t self, std::function<void()>& task);

  std::mutex mu_;                      // guards sleep/wake and stopping_
  std::condition_variable work_cv_;    // queued_ > 0 or stopping_
  std::condition_variable all_done_;   // in_flight_ == 0
  bool stopping_ = false;
  std::atomic<std::size_t> queued_{0};     // tasks sitting in some queue
  std::atomic<std::size_t> in_flight_{0};  // queued + currently executing
  std::atomic<std::uint64_t> steals_{0};

  std::mutex inject_mu_;
  std::deque<std::function<void()>> inject_;

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> threads_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pardb::par

#endif  // PARDB_PAR_STEALING_POOL_H_
