#include "obs/lineage.h"

#include <algorithm>

#include "obs/metric_names.h"

namespace pardb::obs {

void LineageTracker::AttachMetrics(MetricsRegistry* registry,
                                   const LabelSet& labels) {
  chain_len_gauge_ = registry->GetGauge(kPreemptionChainLen, labels);
  omega_counter_ = registry->GetCounter(kOmegaInterventionsTotal, labels);
  events_counter_ = registry->GetCounter(kLineageEventsTotal, labels);
}

void LineageTracker::OnEvent(const EngineEvent& e) {
  switch (e.kind) {
    case EventKind::kVictim:
      if ((e.flags & kEventOmega) != 0) {
        ++omega_interventions_;
        if (omega_counter_ != nullptr) omega_counter_->Inc();
      }
      break;
    case EventKind::kRollback:
      switch (e.cause) {
        case RollbackCause::kDeadlockVictim:
        case RollbackCause::kOmegaPreemption:
        case RollbackCause::kSelfRollback:
        case RollbackCause::kWoundWait:
          Preempt(e);
          break;
        default:
          break;
      }
      break;
    case EventKind::kCommit:
      records_.erase(e.txn);
      break;
    default:
      break;
  }
}

void LineageTracker::Preempt(const EngineEvent& rollback) {
  // The aggressor hands its chain on: a victim preempted by a transaction
  // that was itself preempted sits deeper in the lineage.
  const std::uint64_t aggressor_chain = ChainLenOf(rollback.causing);
  Record& rec = records_[rollback.txn];
  rec.chain_len = std::max(rec.chain_len, aggressor_chain) + 1;

  PreemptionEvent ev;
  ev.step = rollback.step;
  ev.victim = rollback.txn;
  ev.aggressor = rollback.causing;
  ev.target = rollback.target;
  ev.cost = rollback.cost;
  ev.chain_len = rec.chain_len;
  if (rec.events.size() < max_events_per_txn_) {
    rec.events.push_back(ev);
  }

  ++total_events_;
  max_chain_len_ = std::max(max_chain_len_, rec.chain_len);
  if (chain_len_gauge_ != nullptr) {
    chain_len_gauge_->SetMax(static_cast<std::int64_t>(rec.chain_len));
  }
  if (events_counter_ != nullptr) events_counter_->Inc();
}

std::uint64_t LineageTracker::ChainLenOf(TxnId txn) const {
  auto it = records_.find(txn);
  return it == records_.end() ? 0 : it->second.chain_len;
}

const std::vector<PreemptionEvent>* LineageTracker::EventsOf(TxnId txn) const {
  auto it = records_.find(txn);
  return it == records_.end() ? nullptr : &it->second.events;
}

}  // namespace pardb::obs
