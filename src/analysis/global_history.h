#ifndef PARDB_ANALYSIS_GLOBAL_HISTORY_H_
#define PARDB_ANALYSIS_GLOBAL_HISTORY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "analysis/history.h"
#include "common/types.h"

namespace pardb::analysis {

// Conflict-serializability of the *merged* committed projection of several
// engines (the sharded driver's global invariant). Each shard's
// HistoryRecorder exports its committed log; the caller renames every
// transaction into one global key space — the per-shard slices of a
// cross-shard transaction all map to GlobalKey(seq), so their accesses
// fuse into a single node of the precedence graph — and this class checks
// the union.
//
// The check is strictly stronger than the conjunction of the per-shard
// checks in two ways:
//  * a precedence cycle may close only across shards (shard A orders
//    global G before local L, shard B orders a transaction after G, ...);
//  * two engines publishing the *same* (entity, version) pair is replica
//    divergence — two stores evolved the same entity independently, so no
//    single serial history over one database can explain the merged log.
//    The legacy coordinator-replica execution mode fails exactly this way
//    (its coordinator writes entities that home shards also write), which
//    is the regression witness for the global-serializability hole.
class GlobalHistory {
 public:
  // Key for a transaction local to one shard.
  static std::uint64_t LocalKey(std::uint32_t shard, TxnId txn) {
    return (1ull << 63) | (static_cast<std::uint64_t>(shard) << 48) |
           txn.value();
  }
  // Key shared by every slice of cross-shard transaction `seq`.
  static std::uint64_t GlobalKey(std::uint64_t seq) { return seq; }

  // Appends `events` to the transaction `key`'s merged log. Slices of one
  // global transaction Add under the same key (their entity sets are
  // disjoint, so order between shards does not matter).
  void Add(std::uint64_t key, const std::vector<AccessEvent>& events);

  // True iff no two keys published the same (entity, version) and the
  // merged precedence graph is acyclic.
  bool IsConflictSerializable() const;

  // True when two keys published the same (entity, version) — divergent
  // per-shard replicas of one entity.
  bool HasReplicaDivergence() const;

  // A witness cycle of merged keys when the precedence graph is cyclic;
  // empty otherwise (divergence does not produce a cycle witness).
  std::vector<std::uint64_t> WitnessCycle() const;

  std::size_t size() const { return logs_.size(); }

 private:
  std::map<std::uint64_t, std::vector<std::uint64_t>> BuildPrecedence(
      bool* divergence) const;

  std::map<std::uint64_t, std::vector<AccessEvent>> logs_;
};

// GlobalHistory's verdict over several recorders' committed logs, computed
// from their online certifier graphs instead of their events: the union of
// every recorder's precedence edges, renamed by `key_of(i, txn)` (the key
// recorder i's transaction `txn` would be Added under), checked by one
// topological pass. Exact when every recorder is certifier_exact() and no
// entity touched by two recorders was published by either — then each
// entity's conflicts live in one recorder, whose edges have the oracle's
// transitive closure, and renaming maps paths to paths. Returns nullopt
// otherwise (replica divergence among them); the caller falls back to
// GlobalHistory.
std::optional<bool> CertifyUnion(
    const std::vector<const HistoryRecorder*>& recorders,
    const std::function<std::uint64_t(std::size_t, TxnId)>& key_of);

}  // namespace pardb::analysis

#endif  // PARDB_ANALYSIS_GLOBAL_HISTORY_H_
