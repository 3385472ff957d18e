#include "par/admission_queue.h"

#include <cassert>
#include <utility>

namespace pardb::par {

void AdmissionQueue::Push(txn::Program program) {
  std::unique_lock<std::mutex> lock(mu_);
  assert(!closed_ && "Push after Close");
  if (items_.size() >= capacity_ && !abandoned_) {
    blocked_pushes_.fetch_add(1, std::memory_order_relaxed);
    not_full_.wait(lock, [this] {
      return items_.size() <= refill_depth_ || abandoned_;
    });
  }
  if (abandoned_) {  // consumer is gone; discard
    DecrementMaterialized(1);
    return;
  }
  items_.push_back(Item{std::move(program), clock_->NowNanos()});
  pushed_.fetch_add(1, std::memory_order_relaxed);
  UpdateGauge(items_.size());
  lock.unlock();
  not_empty_.notify_one();
}

void AdmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    assert(!closed_ && "Close called twice");
    closed_ = true;
  }
  not_empty_.notify_all();
}

AdmissionQueue::Pop AdmissionQueue::TryPop(txn::Program* out,
                                           std::uint64_t* wait_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  if (items_.empty()) return closed_ ? Pop::kClosed : Pop::kEmpty;
  Item item = std::move(items_.front());
  items_.pop_front();
  *out = std::move(item.program);
  if (wait_ns != nullptr) {
    const std::uint64_t now = clock_->NowNanos();
    *wait_ns = now > item.enqueue_ns ? now - item.enqueue_ns : 0;
  }
  popped_.fetch_add(1, std::memory_order_relaxed);
  UpdateGauge(items_.size());
  DecrementMaterialized(1);
  const bool refill = items_.size() <= refill_depth_;
  lock.unlock();
  if (refill) not_full_.notify_one();
  return Pop::kItem;
}

AdmissionQueue::Pop AdmissionQueue::WaitPop(txn::Program* out,
                                            std::chrono::microseconds timeout,
                                            std::uint64_t* wait_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait_for(lock, timeout,
                      [this] { return !items_.empty() || closed_; });
  if (items_.empty()) return closed_ ? Pop::kClosed : Pop::kEmpty;
  Item item = std::move(items_.front());
  items_.pop_front();
  *out = std::move(item.program);
  if (wait_ns != nullptr) {
    const std::uint64_t now = clock_->NowNanos();
    *wait_ns = now > item.enqueue_ns ? now - item.enqueue_ns : 0;
  }
  popped_.fetch_add(1, std::memory_order_relaxed);
  UpdateGauge(items_.size());
  DecrementMaterialized(1);
  const bool refill = items_.size() <= refill_depth_;
  lock.unlock();
  if (refill) not_full_.notify_one();
  return Pop::kItem;
}

void AdmissionQueue::Abandon() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    abandoned_ = true;
    DecrementMaterialized(static_cast<std::int64_t>(items_.size()));
    items_.clear();
    UpdateGauge(0);
  }
  not_full_.notify_all();
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

}  // namespace pardb::par
