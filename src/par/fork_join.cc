#include "par/fork_join.h"

#include <algorithm>

namespace pardb::par {

namespace {

// Claim word fields: (run id << 32) | (count << 16) | next index. A run
// longer than the 16-bit count field is published in chunks.
constexpr std::uint64_t kFieldMask = 0xFFFF;
constexpr std::size_t kMaxChunk = kFieldMask;

std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ForkJoin::ForkJoin(std::size_t num_threads)
    : start_(std::chrono::steady_clock::now()) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  busy_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  helpers_.reserve(n - 1);
  for (std::size_t w = 1; w < n; ++w) {
    helpers_.emplace_back([this, w] { HelperLoop(w); });
  }
}

ForkJoin::~ForkJoin() {
  stopping_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

std::uint64_t ForkJoin::uptime_nanos() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void ForkJoin::RunTasks(std::size_t count, Task task, void* ctx) {
  for (std::size_t base = 0; base < count; base += kMaxChunk) {
    const std::size_t chunk = std::min(kMaxChunk, count - base);
    task_ = task;
    ctx_ = ctx;
    base_ = base;
    pending_.store(static_cast<std::uint32_t>(chunk),
                   std::memory_order_relaxed);
    ++run_id_;
    claim_.store((std::uint64_t{run_id_} << 32) | (std::uint64_t{chunk} << 16),
                 std::memory_order_release);
    // Wake one helper per index beyond the one the caller takes itself; a
    // one-index run wakes nobody.
    const std::size_t wake = std::min(chunk - 1, helpers_.size());
    if (wake > 0) {
      generation_.fetch_add(1, std::memory_order_release);
      if (wake == helpers_.size()) {
        generation_.notify_all();
      } else {
        for (std::size_t i = 0; i < wake; ++i) generation_.notify_one();
      }
    }
    Drain(0);
    for (std::uint32_t left;
         (left = pending_.load(std::memory_order_acquire)) != 0;) {
      pending_.wait(left, std::memory_order_acquire);
    }
  }
}

void ForkJoin::Drain(std::size_t worker) {
  std::uint64_t word = claim_.load(std::memory_order_acquire);
  for (;;) {
    const std::uint64_t next = word & kFieldMask;
    if (next >= ((word >> 16) & kFieldMask)) return;
    // The whole word is compared, run id included: a claim lands only in
    // the run this worker read, and only below that run's count.
    if (!claim_.compare_exchange_weak(word, word + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      continue;
    }
    const std::uint64_t t0 = NowNanos();
    task_(ctx_, base_ + static_cast<std::size_t>(next), worker);
    busy_ns_[worker].fetch_add(NowNanos() - t0, std::memory_order_relaxed);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1 && worker != 0) {
      // The caller may be parked on the join; it finished its own claims.
      // (The destructor joins this thread first, so pending_ is alive.)
      pending_.notify_one();
    }
    word = claim_.load(std::memory_order_acquire);
  }
}

void ForkJoin::HelperLoop(std::size_t worker) {
  std::uint32_t seen = 0;
  for (;;) {
    generation_.wait(seen, std::memory_order_acquire);
    // Read the generation before stopping_: a stop bump after this read
    // changes generation_ again, so the next wait returns at once.
    seen = generation_.load(std::memory_order_acquire);
    if (stopping_.load(std::memory_order_relaxed)) return;
    Drain(worker);
  }
}

}  // namespace pardb::par
