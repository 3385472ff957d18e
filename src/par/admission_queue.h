#ifndef PARDB_PAR_ADMISSION_QUEUE_H_
#define PARDB_PAR_ADMISSION_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "txn/program.h"

namespace pardb::par {

// Bounded single-producer/single-consumer admission queue: the conduit of
// the pipelined sharded driver. The generation thread pushes routed
// programs in (blocking while the queue is full — backpressure bounds the
// number of materialized-but-unadmitted programs), and the owning shard's
// quantum pops them out as its multiprogramming level drains. Close() is
// the explicit end-of-stream token: after the producer closes, the
// consumer drains whatever remains and then observes kClosed forever.
//
// The single consumer is the one shard's quantum loop on the calling
// thread. A plain mutex + two condition variables is enough; none of this
// is on the engine's step path (pops happen only at refill points).
//
// Abandon() handles consumer death (shard failure or an exhausted step
// budget): it turns Push into a discard so the producer can finish its
// deterministic generation sweep without blocking on a queue nobody will
// ever drain again.
class AdmissionQueue {
 public:
  enum class Pop {
    kItem,    // *out holds the next program
    kEmpty,   // queue drained but still open — more may arrive
    kClosed,  // drained and closed: end of stream
  };

  explicit AdmissionQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        refill_depth_(capacity_ / 2) {}

  // Optional depth gauge (pardb_admission_queue_depth{shard=k}), updated
  // on every push/pop. Set before the producer starts; not thread-safe
  // against concurrent Push/TryPop.
  void set_depth_gauge(obs::Gauge* gauge) { depth_gauge_ = gauge; }

  // Optional materialized-but-unclaimed program counter, shared across all
  // shard queues. Decremented inside the pop (and discard) critical
  // sections — not by the consumer afterwards — so the producer can never
  // observe a freed slot before the decrement: the counter's high-water
  // mark stays bounded by num_queues * capacity + 1 (the producer's hand).
  // The producer increments it before Push. Set before the producer
  // starts.
  void set_materialized_counter(std::atomic<std::int64_t>* counter) {
    materialized_ = counter;
  }

  // Clock behind the per-item queue-wait stamps (null = monotonic wall
  // clock). Stamps are taken and differenced inside the queue's own mutex —
  // the wait a pop reports never involves a cross-thread engine read. Set
  // before the producer starts.
  void set_clock(const obs::Clock* clock) {
    clock_ = clock != nullptr ? clock : obs::MonotonicClock::Global();
  }

  // Producer side. Push blocks while the queue is at capacity (unless
  // abandoned, in which case the program is dropped on the floor — the
  // producer still runs its full generation sweep so sibling shards see
  // their exact batch-identical streams). A blocked producer resumes only
  // once the consumer has drained the queue to half its capacity, then
  // refills it in one burst: one hand-off per capacity/2 programs instead
  // of a sleep and a wake per program, whose cost would otherwise ride on
  // every pop. Close is the end-of-stream token; Push after Close is a
  // programming error.
  void Push(txn::Program program);
  void Close();

  // Consumer side. TryPop never blocks; WaitPop blocks up to `timeout`
  // for an item or the end-of-stream token (kEmpty on timeout), letting a
  // drained-but-open shard yield its quantum without hot-spinning. When
  // `wait_ns` is non-null a kItem pop writes the wall nanoseconds the item
  // spent queued (enqueue-to-pop), for the lifecycle book's queue-wait
  // component.
  Pop TryPop(txn::Program* out, std::uint64_t* wait_ns = nullptr);
  Pop WaitPop(txn::Program* out, std::chrono::microseconds timeout,
              std::uint64_t* wait_ns = nullptr);

  // Consumer gave up (failure path): unblocks and no-ops the producer.
  void Abandon();

  std::size_t depth() const;
  bool closed() const;

  // Producer-side counters (readable from any thread after the fact).
  std::uint64_t pushed() const { return pushed_.load(std::memory_order_relaxed); }
  std::uint64_t popped() const { return popped_.load(std::memory_order_relaxed); }
  // Times Push found the queue full and had to wait (backpressure events).
  std::uint64_t blocked_pushes() const {
    return blocked_pushes_.load(std::memory_order_relaxed);
  }

 private:
  void UpdateGauge(std::size_t depth) {
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Set(static_cast<std::int64_t>(depth));
    }
  }

  void DecrementMaterialized(std::int64_t n) {
    if (materialized_ != nullptr) {
      materialized_->fetch_sub(n, std::memory_order_relaxed);
    }
  }

  struct Item {
    txn::Program program;
    std::uint64_t enqueue_ns;
  };

  const std::size_t capacity_;
  const std::size_t refill_depth_;  // a blocked Push resumes at this depth
  mutable std::mutex mu_;
  std::condition_variable not_full_;   // producer waits here
  std::condition_variable not_empty_;  // consumer (WaitPop) waits here
  std::deque<Item> items_;
  const obs::Clock* clock_ = obs::MonotonicClock::Global();
  bool closed_ = false;
  bool abandoned_ = false;
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> popped_{0};
  std::atomic<std::uint64_t> blocked_pushes_{0};
  obs::Gauge* depth_gauge_ = nullptr;
  std::atomic<std::int64_t>* materialized_ = nullptr;
};

}  // namespace pardb::par

#endif  // PARDB_PAR_ADMISSION_QUEUE_H_
