#ifndef PARDB_PAR_XSHARD_COORDINATOR_H_
#define PARDB_PAR_XSHARD_COORDINATOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/history.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "core/engine.h"
#include "graph/cycles_through.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "par/xshard/split.h"
#include "txn/program.h"

namespace pardb::par::xshard {

// Vertex ids of the cross-shard union waits-for graph (DESIGN D12, D30):
// a global transaction is its global sequence number; a shard-local
// transaction is tagged with the shard so ids never collide across shards
// (engine txn ids stay below 2^48 by construction — they are dense spawn
// counters). Global ids have bit 63 clear, so they sort before every local.
constexpr graph::VertexId kLocalNodeBit = 1ull << 63;
constexpr int kShardShift = 48;
constexpr std::uint64_t kLowMask = (1ull << kShardShift) - 1;

inline graph::VertexId LocalNode(std::uint32_t shard, TxnId txn) {
  return kLocalNodeBit | (static_cast<graph::VertexId>(shard) << kShardShift) |
         txn.value();
}

inline graph::VertexId GlobalNode(std::uint64_t global_seq) {
  return global_seq;
}

inline bool IsGlobalNode(graph::VertexId v) {
  return (v & kLocalNodeBit) == 0;
}

// A union arc's label: the shard the wait is on and the entity waited
// for. The shard keeps parallel waits on the same entity id apart.
inline graph::EdgeLabel UnionLabel(std::uint32_t shard, EntityId entity) {
  return (static_cast<graph::EdgeLabel>(shard) << kShardShift) |
         entity.value();
}

inline std::uint32_t ShardOfLabel(graph::EdgeLabel label) {
  return static_cast<std::uint32_t>(label >> kShardShift);
}

inline EntityId EntityOfLabel(graph::EdgeLabel label) {
  return EntityId(label & kLowMask);
}

// Deterministic counters for the cross-shard layer. These feed the
// xshard section of the sharded report, so every field must be a pure
// function of (options, workload seed) — wall-clock time lives in the
// optional histograms on Coordinator::Options instead.
struct XShardStats {
  std::uint64_t epochs = 0;           // driver epochs run (set by the driver)
  std::uint64_t global_txns = 0;      // cross-shard transactions admitted
  std::uint64_t sub_txns = 0;         // per-shard slices spawned
  std::uint64_t sub_commits = 0;      // slice commits observed
  std::uint64_t global_commits = 0;   // globals with every slice committed
  std::uint64_t merges = 0;           // union-of-forests merges run
  std::uint64_t global_cycles = 0;    // cycles found only in the union
  std::uint64_t distributed_rollbacks = 0;  // global victims rolled back
  std::uint64_t omega_exclusions = 0;  // Theorem 2 overrode the min-cost pick
  std::uint64_t prepares = 0;         // 2PC prepare exchanges (per shard)
  std::uint64_t resolves = 0;         // 2PC resolve exchanges (per shard)
  std::uint64_t messages = 0;         // simulated coordinator<->shard messages
};

// Lifecycle coordinator for shard-spanning transactions (DESIGN D12).
//
// A global transaction is split into per-shard slices that share one
// global sequence number — the transaction's ω-order position (Theorem 2).
// Each slice acquires its locks on its home engine and parks at its hold
// point; when every slice holds (the global lock point), a 2PC-style
// prepare/resolve exchange releases them together and they commit
// independently. Until that point the global transaction is distributed
// and rollbackable, and a cycle through two or more globals in the merged
// waits-for union is removed by *distributed partial rollback*: the
// min-cost non-ω-senior victim is rolled back, on exactly the shards where
// it blocks a cycle member, to the latest lock state that releases those
// conflicts.
//
// Every method but SpawnQueued runs on the driver's coordinate phase
// (single-threaded, the shard engines quiescent). SpawnQueued(s) runs on
// shard s's own task and touches only that shard's engine, recorder and
// slice queue (DESIGN D29). So the coordinator needs no locking and its
// decisions are deterministic.
class Coordinator {
 public:
  struct Options {
    std::uint32_t num_shards = 1;
    // Wall-clock 2PC phase timers (registry histograms, nanoseconds); both
    // optional and excluded from deterministic reports.
    obs::Histogram* prepare_ns = nullptr;
    obs::Histogram* resolve_ns = nullptr;
    // Borrowed decision journal for coordinator-level decisions (global
    // admit, lock-point release, retire, global cycle + victim). The
    // journal's "step" is the coordinator's own decision ordinal, so the
    // record stream is deterministic regardless of epoch timing.
    obs::DecisionJournal* journal = nullptr;
    // The shards' history recorders, by shard (empty when the run is not
    // checked). Each slice is pinned in its recorder at admission, and a
    // retired global stays known (GlobalOf) until PruneRetired prunes it
    // from every recorder at once (DESIGN D23); without recorders a
    // global is forgotten when it retires.
    std::vector<analysis::HistoryRecorder*> recorders;
  };

  Coordinator(std::vector<core::Engine*> engines, Options options);

  // Globals concurrently in flight; bounds coordinator admission the way
  // the per-shard multiprogramming level bounds local admission.
  static constexpr std::size_t kMaxActiveGlobals = 8;

  // True when another global transaction may be admitted now.
  bool CanAdmit() const { return active_.size() < kMaxActiveGlobals; }

  // Splits `program`, takes its global sequence number (returned) and
  // queues each slice on its home shard. SpawnQueued spawns the slices and
  // IndexSpawned records them; both must run before the next Poll.
  Result<std::uint64_t> Admit(txn::Program program);

  // True when shard `shard` has slices queued by Admit.
  bool HasQueued(std::uint32_t shard) const {
    return !queued_[shard].empty();
  }

  // Spawns shard `shard`'s queued slices (held at their lock points) in
  // admission order and pins each in the shard's recorder. Safe to call
  // for distinct shards concurrently.
  Status SpawnQueued(std::uint32_t shard);

  // Records every slice SpawnQueued spawned under its global, and empties
  // the queues. Call on the coordinate phase after the spawning tasks.
  void IndexSpawned();

  // One coordination round: advances every active global's 2PC state
  // machine (prepare when all slices hold, resolve by releasing the holds,
  // retire when all slices committed).
  Status Poll();

  // Union-of-forests merge + distributed partial rollback, repeated until
  // no cycle of the union passes through a global transaction. Each round
  // loads the union component of each global in flight, in ascending
  // order, from the shards' lock tables (DESIGN D30), until one has a
  // cycle, and resolves it. Loads nothing while no slice of a global in
  // flight waits: only a waiting slice gives a global node an in-arc, so
  // every union cycle would be shard-local (DESIGN D29).
  Status MergeAndResolve();

  // True when a slice of some global in flight waits on its shard; while
  // false, MergeAndResolve loads nothing.
  bool AnySliceWaiting() const;

  // The union's cyclic components through a global in flight: members
  // ascending, listed by smallest member (the component of each global not
  // yet covered, in ascending order). MergeAndResolve's first round
  // resolves the first.
  std::vector<std::vector<graph::VertexId>> GlobalComponents();

  // Appends every union arc — each shard's AppendWaitsFor arcs with both
  // ends renamed to union vertices and labeled UnionLabel(shard, entity) —
  // shard by shard, for the global waits-for view.
  void AppendUnionArcs(std::vector<graph::Edge>* out) const;

  bool AllDone() const { return active_.empty(); }
  // Sequence numbers of the globals in flight, ascending.
  const std::vector<std::uint64_t>& active() const { return active_; }
  const XShardStats& stats() const { return stats_; }
  XShardStats& mutable_stats() { return stats_; }
  // Slice commits observed on `shard` so far — what the driver subtracts
  // from the engine's commit counter to recover its *local* commit count
  // for admission-level accounting.
  std::uint64_t sub_commits_on(std::uint32_t shard) const {
    return sub_commits_by_shard_[shard];
  }

  // Prunes every retired global that is prunable in each recorder holding
  // one of its slices, from all of them, oldest first (DESIGN D23); its
  // slices then leave GlobalOf. Call at an epoch boundary. Returns how
  // many globals it pruned.
  std::size_t PruneRetired();

  // (shard, local txn) of every slice of the global admitted as `seq`,
  // while it is in flight (empty otherwise).
  std::vector<std::pair<std::uint32_t, TxnId>> SlicesOf(
      std::uint64_t seq) const;

  // The global sequence number of (shard, txn) when it is a slice of a
  // global in flight, or of a retired one not yet pruned (the
  // merged-history checker fuses their nodes under global keys); nullopt
  // for purely local transactions.
  std::optional<std::uint64_t> GlobalOf(std::uint32_t shard,
                                        TxnId txn) const;

 private:
  enum class Phase { kAcquiring, kReleased };

  struct Participant {
    std::uint32_t shard = 0;
    TxnId txn;
    bool committed = false;
  };

  struct GlobalTxn {
    std::uint64_t seq = 0;
    Phase phase = Phase::kAcquiring;
    std::vector<Participant> participants;
  };

  // A slice Admit queued and SpawnQueued spawns as `txn`.
  struct QueuedSlice {
    std::uint64_t seq = 0;
    std::size_t participant = 0;  // index in the global's participants
    txn::Program program;
    std::size_t hold_pc = 0;
    TxnId txn;
  };

  // (shard, txn)'s union vertex: its global's node, else its local node.
  graph::VertexId NodeOf(std::uint32_t shard, TxnId txn) const;
  // Loads cycles_ with v's union component from the shards' lock tables;
  // false when v is on no cycle.
  bool LoadComponent(graph::VertexId v);
  // Appends waiter's in-arcs on `shard`, renamed, to in_arcs_.
  void AppendInArcs(std::uint32_t shard, TxnId waiter);
  // Rolls back the cheapest eligible global of the component in cycles_,
  // which holds a global.
  Status ResolveComponent();

  std::vector<core::Engine*> engines_;
  Options options_;
  XShardStats stats_;
  std::uint64_t decision_seq_ = 0;  // journal "step" for coordinator records
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, GlobalTxn> txns_;  // in flight, by seq
  std::vector<std::uint64_t> active_;  // seqs still in flight, ascending
  // Retired globals awaiting PruneRetired, in retire order.
  std::vector<GlobalTxn> retired_;
  std::vector<std::uint64_t> sub_commits_by_shard_;
  // Slices admitted but not yet indexed, by home shard.
  std::vector<std::vector<QueuedSlice>> queued_;
  // Per-call scratch, kept so that a round allocates nothing in the
  // steady state: Poll's next active list and the merge's component and
  // its in-arc reads.
  std::vector<std::uint64_t> still_active_;
  graph::CyclesThrough cycles_;
  std::vector<graph::Arc> in_arcs_;
  std::vector<TxnId> blockers_;
  // (shard, local txn id) -> global sequence number, for every slice of a
  // global in flight or retired-but-unpruned.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> sub_index_;
  // Drops g's slices from sub_index_.
  void Forget(const GlobalTxn& g);
  // Slices of distributed-rollback victims backed off until the next merge
  // (one epoch): re-running them immediately lets the coordinator and a
  // shard's local detection re-create the identical cycle forever.
  std::vector<std::pair<std::uint32_t, TxnId>> backed_off_;
};

}  // namespace pardb::par::xshard

#endif  // PARDB_PAR_XSHARD_COORDINATOR_H_
