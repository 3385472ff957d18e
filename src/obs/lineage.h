#ifndef PARDB_OBS_LINEAGE_H_
#define PARDB_OBS_LINEAGE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "obs/event.h"
#include "obs/metrics.h"

namespace pardb::obs {

// One preemption: `aggressor`'s conflict rolled `victim` back to lock state
// `target`, destroying `cost` operations of progress.
struct PreemptionEvent {
  std::uint64_t step = 0;
  TxnId victim;
  TxnId aggressor;
  LockIndex target = 0;
  std::uint64_t cost = 0;
  // victim's chain depth after this event (see below).
  std::uint64_t chain_len = 0;
};

// Rollback-lineage tracker: chains preemption events into per-transaction
// lineage records, making the paper's Figure 2 phenomenon — potentially
// infinite mutual preemption under the unconstrained min-cost policy —
// directly observable while a run is in flight.
//
// Chain semantics: when A preempts B, B's new chain depth is
// max(B's depth, A's depth) + 1 (the aggressor hands its own preemption
// history on, and the victim keeps its own). A requester rolling *itself*
// back counts too, with the holder it was waiting on as the aggressor —
// the Figure 2 alternation is exactly such self-rollbacks, T2 and T3
// knocking each other out in turn, so the chain depth grows without
// bound — the signal pardb_preemption_chain_len surfaces. Under the Theorem 2 ω-ordered policy the chain is bounded by
// the number of transactions ordered after the first aggressor, and every
// time the ordered policy overrides the pure min-cost choice the tracker
// counts an ω-intervention (pardb_omega_interventions_total).
//
// Single-threaded by design, like the engine that feeds it: one tracker per
// engine/shard, written only by that shard's thread. Live visibility
// happens through the attached metrics (atomic counters/gauges, safe to
// read from the serving thread) and through WaitsForSnapshot, which the
// shard thread itself materializes.
class LineageTracker {
 public:
  // Keep at most this many events per victim (the chain depth keeps
  // counting past the cap; only the event log is bounded).
  explicit LineageTracker(std::size_t max_events_per_txn = 64)
      : max_events_per_txn_(max_events_per_txn) {}

  // Registers the lineage metric set in `registry` (gauge
  // pardb_preemption_chain_len as a high-water mark, counters
  // pardb_omega_interventions_total and pardb_lineage_events_total). The
  // registry must outlive the tracker. Optional: a detached tracker still
  // records lineage for snapshots/tests.
  void AttachMetrics(MetricsRegistry* registry, const LabelSet& labels = {});

  // Engine hook: a rollback caused by a deadlock victim pick, an ω
  // preemption, a self-rollback or a wound extends the victim's chain (the
  // event's `causing` is the aggressor); a victim pick the ω-ordered policy
  // moved off plain min-cost counts an ω-intervention (Theorem 2's cure
  // actively intervening); a commit retires the transaction's record (its
  // chain ends). Other events are ignored.
  void OnEvent(const EngineEvent& event);

  // Introspection ----------------------------------------------------------

  std::uint64_t ChainLenOf(TxnId txn) const;
  const std::vector<PreemptionEvent>* EventsOf(TxnId txn) const;
  // Largest chain depth ever observed (survives commits/retirements).
  std::uint64_t max_chain_len() const { return max_chain_len_; }
  std::uint64_t omega_interventions() const { return omega_interventions_; }
  std::uint64_t total_events() const { return total_events_; }

 private:
  void Preempt(const EngineEvent& rollback);

  struct Record {
    std::uint64_t chain_len = 0;
    std::vector<PreemptionEvent> events;
  };

  std::size_t max_events_per_txn_;
  std::unordered_map<TxnId, Record> records_;
  std::uint64_t max_chain_len_ = 0;
  std::uint64_t omega_interventions_ = 0;
  std::uint64_t total_events_ = 0;

  Gauge* chain_len_gauge_ = nullptr;       // may be null
  Counter* omega_counter_ = nullptr;       // may be null
  Counter* events_counter_ = nullptr;      // may be null
};

}  // namespace pardb::obs

#endif  // PARDB_OBS_LINEAGE_H_
