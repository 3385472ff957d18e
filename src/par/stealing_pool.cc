#include "par/stealing_pool.h"

#include <algorithm>
#include <utility>

namespace pardb::par {

namespace {

// Identifies the worker a thread belongs to, so Submit from inside a task
// can target the worker's own deque. A thread belongs to at most one pool.
struct WorkerIdentity {
  const StealingPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity tls_worker;

std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

StealingPool::StealingPool(std::size_t num_threads)
    : start_(std::chrono::steady_clock::now()) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  slots_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

StealingPool::~StealingPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int StealingPool::current_worker() const {
  return tls_worker.pool == this ? static_cast<int>(tls_worker.index) : -1;
}

std::uint64_t StealingPool::uptime_nanos() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void StealingPool::Submit(std::function<void()> task) {
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  queued_.fetch_add(1, std::memory_order_relaxed);
  const int self = current_worker();
  if (self >= 0) {
    Slot& slot = *slots_[static_cast<std::size_t>(self)];
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.deque.push_back(std::move(task));
  } else {
    std::lock_guard<std::mutex> lock(inject_mu_);
    inject_.push_back(std::move(task));
  }
  // Notify under the sleep mutex: a worker that observed empty queues
  // cannot slip between our queued_ bump and this notification.
  {
    std::lock_guard<std::mutex> lock(mu_);
  }
  work_cv_.notify_all();
}

void StealingPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

bool StealingPool::TryPop(std::size_t self, std::function<void()>& task) {
  {  // Own deque, newest first: the task this worker just submitted.
    Slot& slot = *slots_[self];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.deque.empty()) {
      task = std::move(slot.deque.back());
      slot.deque.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  {  // External submissions, oldest first.
    std::lock_guard<std::mutex> lock(inject_mu_);
    if (!inject_.empty()) {
      task = std::move(inject_.front());
      inject_.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal, oldest first, scanning victims from our right neighbour.
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    Slot& victim = *slots_[(self + i) % slots_.size()];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.deque.empty()) {
      task = std::move(victim.deque.front());
      victim.deque.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void StealingPool::WorkerLoop(std::size_t self) {
  tls_worker = WorkerIdentity{this, self};
  Slot& slot = *slots_[self];
  for (;;) {
    std::function<void()> task;
    if (!TryPop(self, task)) {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stopping_ || queued_.load(std::memory_order_relaxed) > 0;
      });
      if (stopping_ && queued_.load(std::memory_order_relaxed) == 0) return;
      continue;
    }
    const std::uint64_t t0 = NowNanos();
    task();
    task = nullptr;  // destroy captures before accounting the task done
    slot.busy_ns.fetch_add(NowNanos() - t0, std::memory_order_relaxed);
    slot.executed.fetch_add(1, std::memory_order_relaxed);
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu_);
      all_done_.notify_all();
    }
  }
}

}  // namespace pardb::par
