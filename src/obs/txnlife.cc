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

TxnLifeBook::Row* TxnLifeBook::Find(TxnId txn) {
  if (!txn.valid()) return nullptr;
  const std::uint32_t row = row_of_.Find(txn.value());
  return row == IdSlots::kNone ? nullptr : &rows_[row];
}

const TxnLifeBook::Row* TxnLifeBook::Find(TxnId txn) const {
  if (!txn.valid()) return nullptr;
  const std::uint32_t row = row_of_.Find(txn.value());
  return row == IdSlots::kNone ? nullptr : &rows_[row];
}

void TxnLifeBook::MaybeRetire(std::uint64_t txn) {
  const Row* row = Find(TxnId(txn));
  if (row == nullptr || row->commit_step == kUnset) return;
  // Kept while one of the last kRecent admissions.
  if (row->ordinal + kRecent >= admitted_) return;
  row_of_.Erase(txn);
}

bool TxnLifeBook::Slower(const Row& a, const Row& b) {
  const std::uint64_t ea = a.commit_step - a.admit_step;
  const std::uint64_t eb = b.commit_step - b.admit_step;
  if (ea != eb) return ea > eb;
  return a.txn < b.txn;
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
  if (!txn.valid() || Find(txn) != nullptr) return;
  const std::uint32_t index = row_of_.Insert(txn.value());
  if (index == rows_.size()) rows_.emplace_back();
  Row& row = rows_[index];
  row = Row{};
  row.txn = txn.value();
  row.ordinal = admitted_;
  row.admit_step = step;
  row.admit_ns = clock_->NowNanos();
  // The admission that leaves the recent window retires, if committed.
  std::uint64_t leaving = kUnset;
  if (recent_.size() < kRecent) {
    recent_.push_back(txn.value());
  } else {
    leaving = recent_[admitted_ % kRecent];
    recent_[admitted_ % kRecent] = txn.value();
  }
  ++admitted_;
  if (leaving != kUnset) MaybeRetire(leaving);
  TxnLifeEvent e;
  e.kind = TxnLifeEvent::Kind::kAdmit;
  e.txn = txn.value();
  e.step = step;
  PushEvent(e, /*always_wall=*/true);
}

void TxnLifeBook::OnStep(TxnId txn, std::uint64_t step) {
  Row* row = Find(txn);
  if (row == nullptr) return;
  ++row->exec_steps;
  if (row->first_step == kUnset) {
    row->first_step = step;
    TxnLifeEvent e;
    e.kind = TxnLifeEvent::Kind::kFirstStep;
    e.txn = row->txn;
    e.step = step;
    PushEvent(e, /*always_wall=*/false);
  }
}

void TxnLifeBook::Block(TxnId txn, std::uint64_t step, EntityId entity) {
  Row* row = Find(txn);
  if (row == nullptr) return;
  ++row->blocks;
  row->block_since = step;
  TxnLifeEvent e;
  e.kind = TxnLifeEvent::Kind::kBlock;
  e.txn = row->txn;
  e.step = step;
  e.detail = entity.valid() ? entity.value() : 0;
  PushEvent(e, /*always_wall=*/false);
}

void TxnLifeBook::Wake(TxnId txn, std::uint64_t step) {
  Row* row = Find(txn);
  if (row == nullptr) return;
  if (row->block_since != kUnset) {
    row->lock_wait_steps += step - row->block_since;
    row->block_since = kUnset;
  }
  TxnLifeEvent e;
  e.kind = TxnLifeEvent::Kind::kWake;
  e.txn = row->txn;
  e.step = step;
  PushEvent(e, /*always_wall=*/false);
}

void TxnLifeBook::Rollback(const EngineEvent& event) {
  Row* row = Find(event.txn);
  if (row == nullptr) return;
  const std::uint64_t step = event.step;
  const std::uint64_t cost = event.cost;
  ++row->rollbacks;
  row->redo_steps += cost;
  // A rollback cancels any pending wait; the time blocked still counts as
  // lock wait (it ended in a rollback instead of a grant).
  if (row->block_since != kUnset) {
    row->lock_wait_steps += step - row->block_since;
    row->block_since = kUnset;
  }
  TxnLifeEvent e;
  e.kind = TxnLifeEvent::Kind::kRollback;
  e.cause = event.cause;
  e.txn = row->txn;
  e.step = step;
  e.detail = cost;
  e.causing = event.causing.valid() ? event.causing.value() + 1 : 0;
  e.cycle = event.cycle;
  PushEvent(e, /*always_wall=*/false);
}

void TxnLifeBook::Commit(TxnId txn, std::uint64_t step, StateIndex pc) {
  Row* row = Find(txn);
  if (row == nullptr || row->commit_step != kUnset) return;
  row->commit_step = step;
  row->commit_ns = clock_->NowNanos();
  row->block_since = kUnset;
  ++committed_;
  if (e2e_steps_hist_ != nullptr) {
    e2e_steps_hist_->Record(step - row->admit_step);
  }
  if (lock_wait_hist_ != nullptr) lock_wait_hist_->Record(row->lock_wait_steps);
  if (exec_hist_ != nullptr) exec_hist_->Record(row->exec_steps);
  if (redo_hist_ != nullptr) redo_hist_->Record(row->redo_steps);
  TxnLifeEvent e;
  e.kind = TxnLifeEvent::Kind::kCommit;
  e.txn = row->txn;
  e.step = step;
  e.detail = pc;
  PushEvent(e, /*always_wall=*/true);
  // Fold into the bounded top-kSlowest heap (fastest on top).
  if (slowest_.size() < kSlowest) {
    slowest_.push_back(*row);
    std::push_heap(slowest_.begin(), slowest_.end(), Slower);
  } else if (Slower(*row, slowest_.front())) {
    std::pop_heap(slowest_.begin(), slowest_.end(), Slower);
    slowest_.back() = *row;
    std::push_heap(slowest_.begin(), slowest_.end(), Slower);
  }
  MaybeRetire(row->txn);
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
}

bool TxnLifeBook::Has(TxnId txn) const {
  if (Find(txn) != nullptr) return true;
  for (const Row& r : slowest_) {
    if (r.txn == txn.value()) return true;
  }
  return false;
}

TxnTimelineRecord TxnLifeBook::SummaryOf(const Row& row,
                                         std::uint32_t shard) {
  TxnTimelineRecord r;
  r.txn = row.txn;
  r.shard = shard;
  r.admit_step = row.admit_step;
  r.first_step = row.first_step;
  r.commit_step = row.commit_step;
  r.admit_ns = row.admit_ns;
  r.commit_ns = row.commit_ns;
  r.lock_wait_steps = row.lock_wait_steps;
  r.exec_steps = row.exec_steps;
  r.redo_steps = row.redo_steps;
  r.blocks = row.blocks;
  r.rollbacks = row.rollbacks;
  r.committed = r.commit_step != kUnset;
  if (r.committed && r.admit_step != kUnset) {
    r.e2e_steps = r.commit_step - r.admit_step;
  }
  return r;
}

TxnTimelineRecord TxnLifeBook::RecordOf(TxnId txn,
                                        std::uint32_t shard) const {
  const Row* row = Find(txn);
  for (std::size_t i = 0; row == nullptr && i < slowest_.size(); ++i) {
    if (slowest_[i].txn == txn.value()) row = &slowest_[i];
  }
  if (row == nullptr) return TxnTimelineRecord{};
  TxnTimelineRecord r = SummaryOf(*row, shard);
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

  // Top-k committed by end-to-end steps.
  std::vector<const Row*> closed;
  closed.reserve(slowest_.size());
  for (const Row& r : slowest_) closed.push_back(&r);
  std::sort(closed.begin(), closed.end(),
            [](const Row* a, const Row* b) { return Slower(*a, *b); });
  closed.resize(std::min(top_k, closed.size()));

  // The most recently admitted rows, ascending (admission order is id
  // order). The ring's oldest entry sits at admitted_ % kRecent once full.
  std::vector<const Row*> recent_rows;
  const std::size_t window = recent_.size();
  const std::size_t take = std::min(recent, window);
  for (std::size_t i = window - take; i < window; ++i) {
    const std::uint64_t id =
        recent_[window < kRecent ? i : (admitted_ + i) % kRecent];
    if (const Row* row = Find(TxnId(id))) recent_rows.push_back(row);
  }

  std::unordered_map<std::uint64_t, std::vector<TxnLifeEvent>> events;
  for (const Row* r : closed) events.try_emplace(r->txn);
  for (const Row* r : recent_rows) events.try_emplace(r->txn);
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const TxnLifeEvent& e = ring_[(ring_head_ + i) % n];
    auto it = events.find(e.txn);
    if (it != events.end()) it->second.push_back(e);
  }

  auto Materialize = [&](const Row& row) {
    TxnTimelineRecord r = SummaryOf(row, shard);
    auto it = events.find(row.txn);
    if (it != events.end()) r.events = it->second;
    return r;
  };
  d.slowest.reserve(closed.size());
  for (const Row* r : closed) d.slowest.push_back(Materialize(*r));
  d.recent.reserve(recent_rows.size());
  for (const Row* r : recent_rows) d.recent.push_back(Materialize(*r));
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
