#include "obs/txnlife.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/bits.h"
#include "obs/metric_names.h"

namespace pardb::obs {

namespace {

constexpr std::uint64_t kUnset = TxnTimelineRecord::kUnset;

void AppendStepOrNull(std::ostringstream& os, const char* key,
                      std::uint64_t v) {
  os << "\"" << key << "\":";
  if (v == kUnset) {
    os << "null";
  } else {
    os << v;
  }
}

}  // namespace

std::string_view TxnLifeEventKindName(TxnLifeEvent::Kind kind) {
  switch (kind) {
    case TxnLifeEvent::Kind::kAdmit:
      return "admit";
    case TxnLifeEvent::Kind::kFirstStep:
      return "first_step";
    case TxnLifeEvent::Kind::kBlock:
      return "block";
    case TxnLifeEvent::Kind::kWake:
      return "wake";
    case TxnLifeEvent::Kind::kRollback:
      return "rollback";
    case TxnLifeEvent::Kind::kCommit:
      return "commit";
  }
  return "unknown";
}

TxnLifeBook::TxnLifeBook(Options options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : MonotonicClock::Global()) {
  if (options_.wall_sample_period == 0) options_.wall_sample_period = 1;
  options_.wall_sample_period =
      RoundUpPowerOfTwo(options_.wall_sample_period);
  ring_.reserve(std::min<std::size_t>(options_.ring_capacity, 4096));
}

void TxnLifeBook::EnsureRow(std::uint64_t id) {
  if (id < cols_.admit_step.size()) return;
  const std::size_t n = id + 1;
  cols_.admit_step.resize(n, kUnset);
  cols_.first_step.resize(n, kUnset);
  cols_.commit_step.resize(n, kUnset);
  cols_.admit_ns.resize(n, 0);
  cols_.commit_ns.resize(n, 0);
  cols_.queue_wait_ns.resize(n, 0);
  cols_.lock_wait_steps.resize(n, 0);
  cols_.block_since.resize(n, kUnset);
  cols_.exec_steps.resize(n, 0);
  cols_.redo_steps.resize(n, 0);
  cols_.blocks.resize(n, 0);
  cols_.rollbacks.resize(n, 0);
}

std::uint64_t TxnLifeBook::SampledWall(bool always) const {
  if (always || (total_events_ & (options_.wall_sample_period - 1)) == 0) {
    return clock_->NowNanos();
  }
  return 0;
}

void TxnLifeBook::PushEvent(TxnLifeEvent event, bool always_wall) {
  event.wall_ns = SampledWall(always_wall);
  ++total_events_;
  if (options_.ring_capacity == 0) {
    ++dropped_events_;
    if (dropped_counter_ != nullptr) dropped_counter_->Inc();
    return;
  }
  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(event);
    return;
  }
  ring_[ring_head_] = event;
  ring_head_ = (ring_head_ + 1) % options_.ring_capacity;
  ++dropped_events_;
  if (dropped_counter_ != nullptr) dropped_counter_->Inc();
}

void TxnLifeBook::OnEvent(const EngineEvent& e) {
  switch (e.kind) {
    case EventKind::kAdmit:
      Admit(e.txn, e.step);
      break;
    case EventKind::kGrant:
      if ((e.flags & kEventWoke) != 0) Wake(e.txn, e.step);
      OnStep(e.txn, e.step);
      break;
    case EventKind::kBlock:
      Block(e.txn, e.step, e.entity);
      break;
    case EventKind::kRollback:
      Rollback(e);
      break;
    case EventKind::kCommit:
      Commit(e.txn, e.step, e.pc);
      break;
    default:
      break;
  }
}

void TxnLifeBook::Admit(TxnId txn, std::uint64_t step) {
  if (!txn.valid()) return;
  EnsureRow(txn.value());
  cols_.admit_step[txn.value()] = step;
  cols_.admit_ns[txn.value()] = clock_->NowNanos();
  ++admitted_;
  TxnLifeEvent e;
  e.kind = TxnLifeEvent::Kind::kAdmit;
  e.txn = txn.value();
  e.step = step;
  PushEvent(e, /*always_wall=*/true);
}

void TxnLifeBook::OnStep(TxnId txn, std::uint64_t step) {
  if (!Known(txn)) return;
  const std::uint64_t id = txn.value();
  ++cols_.exec_steps[id];
  if (cols_.first_step[id] == kUnset) {
    cols_.first_step[id] = step;
    TxnLifeEvent e;
    e.kind = TxnLifeEvent::Kind::kFirstStep;
    e.txn = id;
    e.step = step;
    PushEvent(e, /*always_wall=*/false);
  }
}

void TxnLifeBook::Block(TxnId txn, std::uint64_t step, EntityId entity) {
  if (!Known(txn)) return;
  const std::uint64_t id = txn.value();
  ++cols_.blocks[id];
  cols_.block_since[id] = step;
  TxnLifeEvent e;
  e.kind = TxnLifeEvent::Kind::kBlock;
  e.txn = id;
  e.step = step;
  e.detail = entity.valid() ? entity.value() : 0;
  PushEvent(e, /*always_wall=*/false);
}

void TxnLifeBook::Wake(TxnId txn, std::uint64_t step) {
  if (!Known(txn)) return;
  const std::uint64_t id = txn.value();
  if (cols_.block_since[id] != kUnset) {
    cols_.lock_wait_steps[id] += step - cols_.block_since[id];
    cols_.block_since[id] = kUnset;
  }
  TxnLifeEvent e;
  e.kind = TxnLifeEvent::Kind::kWake;
  e.txn = id;
  e.step = step;
  PushEvent(e, /*always_wall=*/false);
}

void TxnLifeBook::Rollback(const EngineEvent& event) {
  if (!Known(event.txn)) return;
  const std::uint64_t id = event.txn.value();
  const std::uint64_t step = event.step;
  const std::uint64_t cost = event.cost;
  ++cols_.rollbacks[id];
  cols_.redo_steps[id] += cost;
  // A rollback cancels any pending wait; the time blocked still counts as
  // lock wait (it ended in a rollback instead of a grant).
  if (cols_.block_since[id] != kUnset) {
    cols_.lock_wait_steps[id] += step - cols_.block_since[id];
    cols_.block_since[id] = kUnset;
  }
  TxnLifeEvent e;
  e.kind = TxnLifeEvent::Kind::kRollback;
  e.cause = event.cause;
  e.txn = id;
  e.step = step;
  e.detail = cost;
  e.causing = event.causing.valid() ? event.causing.value() + 1 : 0;
  e.cycle = event.cycle;
  PushEvent(e, /*always_wall=*/false);
}

void TxnLifeBook::Commit(TxnId txn, std::uint64_t step, StateIndex pc) {
  if (!Known(txn)) return;
  const std::uint64_t id = txn.value();
  cols_.commit_step[id] = step;
  cols_.commit_ns[id] = clock_->NowNanos();
  cols_.block_since[id] = kUnset;
  ++committed_;
  if (e2e_steps_hist_ != nullptr) {
    e2e_steps_hist_->Record(step - cols_.admit_step[id]);
  }
  if (lock_wait_hist_ != nullptr) {
    lock_wait_hist_->Record(cols_.lock_wait_steps[id]);
  }
  if (exec_hist_ != nullptr) exec_hist_->Record(cols_.exec_steps[id]);
  if (redo_hist_ != nullptr) redo_hist_->Record(cols_.redo_steps[id]);
  TxnLifeEvent e;
  e.kind = TxnLifeEvent::Kind::kCommit;
  e.txn = id;
  e.step = step;
  e.detail = pc;
  PushEvent(e, /*always_wall=*/true);
}

void TxnLifeBook::RecordQueueWait(TxnId txn, std::uint64_t wait_ns) {
  if (!Known(txn)) return;
  cols_.queue_wait_ns[txn.value()] = wait_ns;
  if (queue_wait_hist_ != nullptr) queue_wait_hist_->Record(wait_ns);
}

void TxnLifeBook::AttachMetrics(MetricsRegistry* registry,
                                const LabelSet& labels) {
  dropped_counter_ = registry->GetCounter(kTxnlifeDroppedTotal, labels);
  if (dropped_counter_ != nullptr && dropped_events_ > 0) {
    dropped_counter_->Inc(dropped_events_);
  }
  e2e_steps_hist_ = registry->GetHistogram(kTxnE2eSteps, labels);
  lock_wait_hist_ = registry->GetHistogram(kTxnLockWaitSteps, labels);
  exec_hist_ = registry->GetHistogram(kTxnExecSteps, labels);
  redo_hist_ = registry->GetHistogram(kTxnRedoSteps, labels);
  queue_wait_hist_ = registry->GetHistogram(kTxnQueueWaitNs, labels);
}

bool TxnLifeBook::Has(TxnId txn) const { return Known(txn); }

TxnTimelineRecord TxnLifeBook::SummaryOf(std::uint64_t id,
                                         std::uint32_t shard) const {
  TxnTimelineRecord r;
  r.txn = id;
  r.shard = shard;
  r.admit_step = cols_.admit_step[id];
  r.first_step = cols_.first_step[id];
  r.commit_step = cols_.commit_step[id];
  r.admit_ns = cols_.admit_ns[id];
  r.commit_ns = cols_.commit_ns[id];
  r.queue_wait_ns = cols_.queue_wait_ns[id];
  r.lock_wait_steps = cols_.lock_wait_steps[id];
  r.exec_steps = cols_.exec_steps[id];
  r.redo_steps = cols_.redo_steps[id];
  r.blocks = cols_.blocks[id];
  r.rollbacks = cols_.rollbacks[id];
  r.committed = r.commit_step != kUnset;
  if (r.committed && r.admit_step != kUnset) {
    r.e2e_steps = r.commit_step - r.admit_step;
  }
  return r;
}

TxnTimelineRecord TxnLifeBook::RecordOf(TxnId txn,
                                        std::uint32_t shard) const {
  if (!Known(txn)) return TxnTimelineRecord{};
  TxnTimelineRecord r = SummaryOf(txn.value(), shard);
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const TxnLifeEvent& e = ring_[(ring_head_ + i) % n];
    if (e.txn == r.txn) r.events.push_back(e);
  }
  return r;
}

TxnLifeDigest TxnLifeBook::Digest(std::uint32_t shard, std::size_t top_k,
                                  std::size_t recent) const {
  TxnLifeDigest d;
  d.shard = shard;
  d.txns = admitted_;
  d.committed = committed_;
  d.dropped_events = dropped_events_;

  const std::uint64_t rows = cols_.admit_step.size();
  // Top-k committed by end-to-end steps.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> closed;  // (e2e, id)
  closed.reserve(committed_);
  for (std::uint64_t id = 0; id < rows; ++id) {
    if (cols_.admit_step[id] == kUnset) continue;
    if (cols_.commit_step[id] == kUnset) continue;
    closed.emplace_back(cols_.commit_step[id] - cols_.admit_step[id], id);
  }
  const std::size_t k = std::min(top_k, closed.size());
  std::partial_sort(closed.begin(), closed.begin() + k, closed.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;  // stable tie-break by id
                    });
  closed.resize(k);

  // Most recently admitted rows (ids are dense, so the tail of the table).
  std::vector<std::uint64_t> recent_ids;
  for (std::uint64_t id = rows; id-- > 0 && recent_ids.size() < recent;) {
    if (cols_.admit_step[id] != kUnset) recent_ids.push_back(id);
  }
  std::reverse(recent_ids.begin(), recent_ids.end());

  std::unordered_map<std::uint64_t, std::vector<TxnLifeEvent>> events;
  for (const auto& [e2e, id] : closed) {
    (void)e2e;
    events.emplace(id, std::vector<TxnLifeEvent>{});
  }
  for (std::uint64_t id : recent_ids) {
    events.emplace(id, std::vector<TxnLifeEvent>{});
  }
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const TxnLifeEvent& e = ring_[(ring_head_ + i) % n];
    auto it = events.find(e.txn);
    if (it != events.end()) it->second.push_back(e);
  }

  auto Materialize = [&](std::uint64_t id) {
    TxnTimelineRecord r = SummaryOf(id, shard);
    auto it = events.find(id);
    if (it != events.end()) r.events = it->second;
    return r;
  };
  d.slowest.reserve(closed.size());
  for (const auto& [e2e, id] : closed) {
    (void)e2e;
    d.slowest.push_back(Materialize(id));
  }
  d.recent.reserve(recent_ids.size());
  for (std::uint64_t id : recent_ids) d.recent.push_back(Materialize(id));
  return d;
}

// JSON rendering ------------------------------------------------------------

std::string TxnTimelineToJson(const TxnTimelineRecord& r) {
  std::ostringstream os;
  os << "{\"txn\":" << r.txn << ",\"shard\":" << r.shard
     << ",\"committed\":" << (r.committed ? "true" : "false") << ",";
  AppendStepOrNull(os, "admit_step", r.admit_step);
  os << ",";
  AppendStepOrNull(os, "first_step", r.first_step);
  os << ",";
  AppendStepOrNull(os, "commit_step", r.commit_step);
  os << ",\"e2e_steps\":" << r.e2e_steps
     << ",\"queue_wait_ns\":" << r.queue_wait_ns
     << ",\"lock_wait_steps\":" << r.lock_wait_steps
     << ",\"exec_steps\":" << r.exec_steps
     << ",\"redo_steps\":" << r.redo_steps << ",\"blocks\":" << r.blocks
     << ",\"rollbacks\":" << r.rollbacks << ",\"admit_ns\":" << r.admit_ns
     << ",\"commit_ns\":" << r.commit_ns << ",\"events\":[";
  bool first = true;
  for (const TxnLifeEvent& e : r.events) {
    os << (first ? "" : ",") << "{\"kind\":\""
       << TxnLifeEventKindName(e.kind) << "\",\"step\":" << e.step
       << ",\"wall_ns\":" << e.wall_ns;
    if (e.kind == TxnLifeEvent::Kind::kRollback) {
      os << ",\"cause\":\"" << RollbackCauseName(e.cause) << "\",\"cost\":"
         << e.detail << ",\"causing_txn\":";
      if (e.causing == 0) {
        os << "null";
      } else {
        os << e.causing - 1;
      }
      os << ",\"cycle\":";
      if (e.cycle == 0) {
        os << "null";
      } else {
        os << e.cycle - 1;
      }
    } else if (e.kind == TxnLifeEvent::Kind::kBlock) {
      os << ",\"entity\":" << e.detail;
    } else if (e.kind == TxnLifeEvent::Kind::kCommit) {
      os << ",\"pc\":" << e.detail;
    }
    os << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

std::string SlowestTxnsJson(const std::vector<TxnLifeDigest>& digests,
                            std::size_t k) {
  // Merge every shard's slowest list and re-rank globally.
  std::vector<const TxnTimelineRecord*> all;
  for (const TxnLifeDigest& d : digests) {
    for (const TxnTimelineRecord& r : d.slowest) all.push_back(&r);
  }
  std::sort(all.begin(), all.end(),
            [](const TxnTimelineRecord* a, const TxnTimelineRecord* b) {
              if (a->e2e_steps != b->e2e_steps) {
                return a->e2e_steps > b->e2e_steps;
              }
              if (a->shard != b->shard) return a->shard < b->shard;
              return a->txn < b->txn;
            });
  if (all.size() > k) all.resize(k);
  std::ostringstream os;
  os << "{\"k\":" << k << ",\"count\":" << all.size() << ",\"txns\":[";
  bool first = true;
  for (const TxnTimelineRecord* r : all) {
    os << (first ? "" : ",\n ") << TxnTimelineToJson(*r);
    first = false;
  }
  os << "]}\n";
  return os.str();
}

std::string TxnByIdJson(const std::vector<TxnLifeDigest>& digests,
                        std::uint64_t id) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"matches\":[";
  bool first = true;
  for (const TxnLifeDigest& d : digests) {
    const TxnTimelineRecord* found = nullptr;
    for (const TxnTimelineRecord& r : d.slowest) {
      if (r.txn == id) {
        found = &r;
        break;
      }
    }
    if (found == nullptr) {
      for (const TxnTimelineRecord& r : d.recent) {
        if (r.txn == id) {
          found = &r;
          break;
        }
      }
    }
    if (found != nullptr) {
      os << (first ? "" : ",\n ") << TxnTimelineToJson(*found);
      first = false;
    }
  }
  os << "],\"shards\":[";
  bool sf = true;
  for (const TxnLifeDigest& d : digests) {
    os << (sf ? "" : ",") << "{\"shard\":" << d.shard << ",\"txns\":"
       << d.txns << ",\"committed\":" << d.committed << ",\"wasted_steps\":"
       << d.wasted_steps << ",\"dropped_events\":" << d.dropped_events
       << "}";
    sf = false;
  }
  os << "]}\n";
  return os.str();
}

}  // namespace pardb::obs
