#include "obs/lineage.h"

#include <algorithm>

#include "obs/metric_names.h"

namespace pardb::obs {

void LineageTracker::AttachMetrics(MetricsRegistry* registry,
                                   const LabelSet& labels) {
  chain_len_gauge_ = registry->GetGauge(kPreemptionChainLen, labels);
}

void LineageTracker::OnEvent(const EngineEvent& e) {
  if (e.kind == EventKind::kCommit) {
    chain_len_.erase(e.txn);
    return;
  }
  if (e.kind != EventKind::kRollback || !ExtendsLineage(e.cause)) return;
  // The aggressor hands its chain on: a victim preempted by a transaction
  // that was itself preempted sits deeper in the lineage.
  const std::uint64_t aggressor_chain = ChainLenOf(e.causing);
  std::uint64_t& chain = chain_len_[e.txn];
  chain = std::max(chain, aggressor_chain) + 1;
  max_chain_len_ = std::max(max_chain_len_, chain);
  if (chain_len_gauge_ != nullptr) {
    chain_len_gauge_->SetMax(static_cast<std::int64_t>(chain));
  }
}

std::uint64_t LineageTracker::ChainLenOf(TxnId txn) const {
  auto it = chain_len_.find(txn);
  return it == chain_len_.end() ? 0 : it->second;
}

}  // namespace pardb::obs
