#ifndef PARDB_PAR_FORK_JOIN_H_
#define PARDB_PAR_FORK_JOIN_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace pardb::par {

// Fork-join over a fixed set of threads: Run(count, fn) calls fn(i, worker)
// once for every i in [0, count) and returns when all calls have finished.
// The calling thread is worker 0 and claims indices like everyone else, so
// an instance of `num_threads` threads owns num_threads - 1 helpers
// (workers 1..num_threads-1); a one-thread instance runs everything on the
// caller. Indices are claimed in ascending order by whichever worker is
// free, so a run load-balances when it has more indices than threads.
//
// Claims are one compare-and-swap on a word tagged with the run it belongs
// to — (run id << 32) | (count << 16) | next index — so a helper that
// wakes late can never claim an index of a run it did not see published,
// nor read another run's count. A helper parks as soon as a run has
// nothing left to claim, and the caller parks when only helpers' claims
// are still running; both park in std::atomic::wait (a futex on Linux),
// with no spin loop of their own.
//
// One caller at a time: Run is not reentrant, and fn must not call Run on
// the same instance. Busy-time counters are relaxed atomics, readable live.
class ForkJoin {
 public:
  // num_threads is clamped to at least 1 (the caller alone).
  explicit ForkJoin(std::size_t num_threads);

  ForkJoin(const ForkJoin&) = delete;
  ForkJoin& operator=(const ForkJoin&) = delete;

  // Joins the helpers (they are parked: no run is in flight between Runs).
  ~ForkJoin();

  // fn(std::size_t index, std::size_t worker), worker in [0, num_threads).
  template <typename Fn>
  void Run(std::size_t count, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    RunTasks(
        count,
        [](void* ctx, std::size_t index, std::size_t worker) {
          (*static_cast<F*>(ctx))(index, worker);
        },
        const_cast<void*>(static_cast<const void*>(&fn)));
  }

  std::size_t num_threads() const { return helpers_.size() + 1; }

  // Wall time worker `worker` spent inside fn, accumulated per call.
  std::uint64_t busy_nanos(std::size_t worker) const {
    return busy_ns_[worker].load(std::memory_order_relaxed);
  }
  // Nanoseconds since construction — the utilization denominator.
  std::uint64_t uptime_nanos() const;

 private:
  using Task = void (*)(void* ctx, std::size_t index, std::size_t worker);

  void RunTasks(std::size_t count, Task task, void* ctx);
  // Claims and runs indices of the published run until none is left.
  void Drain(std::size_t worker);
  void HelperLoop(std::size_t worker);

  // The published run. task_/ctx_/base_ are written by the caller before
  // the claim word is published (release) and read by a worker only after
  // its claim succeeded, while the run is still in flight.
  std::atomic<std::uint64_t> claim_{0};
  // Indices of the run not finished yet; 32-bit so that waiting on it is
  // a plain futex.
  std::atomic<std::uint32_t> pending_{0};
  Task task_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t base_ = 0;  // offset of this run's chunk in the caller's range
  std::uint32_t run_id_ = 0;

  // Helpers park on generation_: bumped by each run that wants helpers,
  // and once more by the destructor after setting stopping_.
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<bool> stopping_{false};

  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_ns_;
  std::vector<std::thread> helpers_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pardb::par

#endif  // PARDB_PAR_FORK_JOIN_H_
