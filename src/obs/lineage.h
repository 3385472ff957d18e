#ifndef PARDB_OBS_LINEAGE_H_
#define PARDB_OBS_LINEAGE_H_

#include <cstdint>
#include <unordered_map>

#include "common/types.h"
#include "obs/event.h"
#include "obs/metrics.h"

namespace pardb::obs {

// Rollback-lineage tracker: chains preemption rollbacks into a per-live-
// transaction depth, making the paper's Figure 2 phenomenon — potentially
// infinite mutual preemption under the unconstrained min-cost policy —
// directly observable while a run is in flight.
//
// Chain semantics: when A preempts B, B's new chain depth is
// max(B's depth, A's depth) + 1 (the aggressor hands its own preemption
// history on, and the victim keeps its own). A requester rolling *itself*
// back counts too, with the holder it was waiting on as the aggressor —
// the Figure 2 alternation is exactly such self-rollbacks, T2 and T3
// knocking each other out in turn, so the chain depth grows without
// bound — the signal pardb_preemption_chain_len surfaces. Under the
// Theorem 2 ω-ordered policy the chain is bounded by the number of
// transactions ordered after the first aggressor. How many rollbacks of
// each cause happened is the engine's ledger (EngineMetrics), not the
// tracker's: it knows only the chains.
//
// Single-threaded by design, like the engine that feeds it: one tracker per
// engine/shard, written only by that shard's thread. Live visibility
// happens through the attached gauge (atomic, safe to read from the
// serving thread) and through WaitsForSnapshot, which the shard thread
// itself materializes.
class LineageTracker {
 public:
  // Registers the gauge pardb_preemption_chain_len (a high-water mark) in
  // `registry`, which must outlive the tracker. Optional: a detached
  // tracker still records lineage for snapshots/tests.
  void AttachMetrics(MetricsRegistry* registry, const LabelSet& labels = {});

  // Engine hook: a rollback whose cause extends a lineage
  // (obs::ExtendsLineage) deepens the victim's chain (the event's
  // `causing` is the aggressor); a commit retires the transaction's chain.
  // Other events are ignored.
  void OnEvent(const EngineEvent& event);

  std::uint64_t ChainLenOf(TxnId txn) const;
  // Largest chain depth ever observed (survives commits/retirements).
  std::uint64_t max_chain_len() const { return max_chain_len_; }

 private:
  // Chain depth per live transaction that was preempted at least once.
  std::unordered_map<TxnId, std::uint64_t> chain_len_;
  std::uint64_t max_chain_len_ = 0;
  Gauge* chain_len_gauge_ = nullptr;  // may be null
};

}  // namespace pardb::obs

#endif  // PARDB_OBS_LINEAGE_H_
