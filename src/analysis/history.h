#ifndef PARDB_ANALYSIS_HISTORY_H_
#define PARDB_ANALYSIS_HISTORY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

namespace pardb::analysis {

// One read or publish performed by a transaction. `state` is the
// transaction's state index (program counter) at the time, so a partial
// rollback can erase exactly the undone suffix.
struct AccessEvent {
  EntityId entity;
  std::uint64_t version;  // version read, or the new version published
  StateIndex state;
  bool is_write;
};

// Records the interleaved execution produced by an Engine and certifies the
// committed projection for conflict-serializability. The paper (§2) claims
// rollbacks never interfere with the serializability guarantee of two-phase
// locking; every run checks it.
//
// Certification is online (DESIGN D17). Publishes are final when they
// happen; reads become final at commit. OnCommit folds the committed
// transaction's accesses into per-entity version->writer state and inserts
// the w->w, w->r and r->w edges among committed transactions into a graph
// that keeps an incremental topological order (Pearce–Kelly). Under 2PL
// nearly every edge arrives in order, so IsConflictSerializable() reads a
// sticky verdict. The online edge set has the same transitive closure as
// precedence::BuildPrecedenceFlat's over the committed projection whenever
// the history meets the online preconditions (certifier_exact()); outside
// them the verdict falls back to that batch builder, which also stays the
// oracle behind WitnessCycle(), SerialOrder() and CommittedLog().
class HistoryRecorder {
 public:
  HistoryRecorder() = default;

  HistoryRecorder(const HistoryRecorder&) = delete;
  HistoryRecorder& operator=(const HistoryRecorder&) = delete;

  void OnBegin(TxnId txn, Timestamp entry);
  // Read of `version` of `entity` (the current global version; local
  // copies always mirror some global version plus own writes).
  void OnRead(TxnId txn, EntityId entity, std::uint64_t version,
              StateIndex state);
  // Publish of a new global version at unlock/commit time.
  void OnPublish(TxnId txn, EntityId entity, std::uint64_t version,
                 StateIndex state);
  // Partial (or total) rollback: erase the transaction's events with state
  // index >= `target_state`. A two-phase transaction cannot be rolled back
  // past its first unlock, so erasing a publish is an invariant violation:
  // it is counted and forces the verdict to false.
  void OnRollback(TxnId txn, StateIndex target_state);
  void OnCommit(TxnId txn);

  std::size_t committed_count() const { return committed_.size(); }

  // Rollbacks that erased a publish (see OnRollback).
  std::uint64_t invariant_violations() const { return violations_; }

  // One committed transaction's access log, exported for cross-engine
  // merging (GlobalHistory fuses several recorders' logs under renamed
  // keys to check *global* conflict-serializability).
  struct CommittedTxn {
    TxnId txn;
    Timestamp entry = 0;
    std::vector<AccessEvent> events;
  };
  // The committed projection in txn-id order.
  std::vector<CommittedTxn> CommittedLog() const;

  // True iff the committed projection is conflict-serializable (its
  // precedence graph is acyclic) and no rollback erased a publish.
  bool IsConflictSerializable() const;

  // A witness cycle of transaction ids when not serializable; empty
  // otherwise.
  std::vector<TxnId> WitnessCycle() const;

  // A serial order consistent with the precedence graph (topological
  // order), when one exists.
  Result<std::vector<TxnId>> SerialOrder() const;

  // --- Online certifier graph (merged across engines by CertifyUnion) ---

  // True when the online graph has the batch oracle's transitive closure
  // over the committed projection: every publish was strictly ascending
  // per entity, no committed read names a version newer than the entity's
  // latest publish, no committed transaction began again, and every
  // publisher committed.
  bool certifier_exact() const { return exact_ && live_publishers_ == 0; }

  // The graph's vertices are the recorder's transactions, numbered
  // 0..certifier_nodes()-1 in the order they first began; only committed
  // ones carry edges.
  std::size_t certifier_nodes() const { return nodes_.size(); }
  TxnId certifier_txn(std::uint32_t node) const { return nodes_[node].txn; }

  // Calls fn(from_node, to_node) for every inserted precedence edge (both
  // endpoints committed; duplicates possible).
  template <typename Fn>
  void ForEachCertifierEdge(Fn&& fn) const {
    for (const Arc& a : arcs_) fn(a.from, a.to);
  }

  // Calls fn(entity, published) for every entity that a committed read or
  // any publish touched.
  template <typename Fn>
  void ForEachTouchedEntity(Fn&& fn) const {
    for (const EntityLog& e : entities_) fn(e.id, !e.writers.empty());
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Node {
    TxnId txn;
    Timestamp entry = 0;
    std::uint32_t slot = kNone;  // pending state while active
    std::uint32_t ord = 0;       // topological position once committed
    std::uint32_t out = kNone;   // arc list heads
    std::uint32_t in = kNone;
    std::uint32_t mark = 0;  // search epoch stamp
    bool committed = false;
    bool published = false;
  };
  // One precedence edge, threaded onto its endpoints' out/in lists.
  struct Arc {
    std::uint32_t from, to;
    std::uint32_t next_out, next_in;
  };
  // An active transaction's pending reads and publishes (in state order)
  // and the edges parked on it until it commits. Slots are recycled, so
  // their vectors keep their capacity across transactions.
  struct Slot {
    std::vector<AccessEvent> events;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> parked;
  };
  struct EntityLog {
    EntityId id;
    // (version, writer node), versions strictly ascending.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> writers;
    // Committed readers of the latest version (no writer past it yet).
    std::vector<std::uint32_t> awaiting;
  };
  // Id value -> dense index: a flat table for the small dense ids engines
  // hand out, a hash map beyond it.
  class IdIndex {
   public:
    std::uint32_t Find(std::uint64_t id) const;
    std::uint32_t& Ref(std::uint64_t id);  // kNone when new

   private:
    static constexpr std::uint64_t kDenseLimit = 1u << 22;
    std::vector<std::uint32_t> dense_;
    std::unordered_map<std::uint64_t, std::uint32_t> sparse_;
  };
  struct CommittedRange {
    TxnId txn;
    Timestamp entry;
    std::size_t begin, end;  // into committed_events_
  };

  // Pending slot of an active transaction (node index in *node), or
  // nullptr.
  Slot* ActiveSlot(TxnId txn, std::uint32_t* node);
  EntityLog& Entity(EntityId entity);
  // Adds edge a->b now if both endpoints committed, else parks it on an
  // uncommitted endpoint until that one commits.
  void AddEdge(std::uint32_t a, std::uint32_t b);
  // Pearce–Kelly insertion of a->b between committed nodes.
  void Insert(std::uint32_t a, std::uint32_t b);
  void FoldCommittedRead(std::uint32_t node, const AccessEvent& e);

  // The batch oracle: precedence edges of the committed projection (w->w,
  // w->r and r->w conflicts ordered by version), keyed by txn id value.
  std::map<std::uint64_t, std::vector<std::uint64_t>> BuildPrecedence() const;

  std::vector<Node> nodes_;  // in first-begin order
  IdIndex node_of_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<EntityLog> entities_;  // in first-touch order
  IdIndex entity_of_;
  std::vector<Arc> arcs_;
  std::uint32_t next_ord_ = 0;
  std::uint32_t epoch_ = 0;
  // Pearce–Kelly scratch, reused across reorders.
  std::vector<std::uint32_t> stack_, delta_f_, delta_b_, pool_;

  bool exact_ = true;
  bool cyclic_ = false;
  std::uint64_t live_publishers_ = 0;
  std::uint64_t violations_ = 0;

  // The committed projection in commit order: one event array, and each
  // transaction's slice of it. Chunked, so growing it never copies the
  // run's whole history (a vector's doubling showed up in peak RSS).
  std::vector<CommittedRange> committed_;
  std::deque<AccessEvent> committed_events_;
};

}  // namespace pardb::analysis

#endif  // PARDB_ANALYSIS_HISTORY_H_
