#ifndef PARDB_OBS_SNAPSHOT_H_
#define PARDB_OBS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/forensics.h"

namespace pardb::obs {

// Point-in-time waits-for snapshots — the live analogue of the post-mortem
// DeadlockDump. The engine materializes one under its own step boundary
// (single-threaded, so the graph, lock table and transaction states are
// mutually consistent without a global stop); the sharded driver publishes
// one per shard into the live hub, where the HTTP server reads them.
//
// The obs library sits below lock/, so lock modes appear here as their
// exposition letters ('S'/'X').

// One lock a transaction holds (or requests).
struct LockGrantRef {
  EntityId entity;
  char mode = 'X';  // 'S' or 'X'
};

// One live transaction's visible state at the snapshot instant.
struct TxnSnapshot {
  TxnId txn;
  Timestamp entry = 0;  // ω-order position (Theorem 2)
  // "ready" | "waiting" | "committed" (committed txns are normally retired
  // from snapshots; the string keeps the JSON self-describing).
  std::string status;
  StateIndex state_index = 0;  // program counter, the paper's state number
  LockIndex lock_count = 0;    // granted lock requests (current lock state)
  std::uint64_t preemptions = 0;  // times rolled back as someone's victim
  std::uint64_t chain_len = 0;    // preemption-lineage depth (see lineage.h)
  std::vector<LockGrantRef> held;       // entity-id order
  bool has_request = false;
  LockGrantRef requested;  // valid when has_request
};

// The full waits-for state of one engine (one shard) at one instant.
struct WaitsForSnapshot {
  std::uint32_t shard = 0;
  std::uint64_t step = 0;     // engine step counter at the snapshot
  std::uint64_t commits = 0;  // commits so far
  std::vector<TxnSnapshot> txns;   // live transactions, id order
  std::vector<WaitsForArc> arcs;   // every waits-for arc, sorted
  // Theorem 1 structure flags, computed from the graph at snapshot time.
  // Under continuous detection a published snapshot is always acyclic
  // (cycles are resolved within the step that creates them), and with
  // exclusive locks only it is a forest.
  bool acyclic = true;
  bool forest = true;

  // Graphviz DOT of this shard's graph: nodes annotated with ω-order,
  // state/lock indices and lineage; arcs labeled with the contended entity.
  std::string ToDot() const;

  // Object fragment used by WaitsForSnapshotsToJson; also valid standalone.
  std::string ToJson(int indent = 0) const;
};

// Multi-shard aggregation: the /debug/waits-for document.
// {"phase":...,"shards":[{...}, ...]} — `phase` is the run phase string the
// hub reports (also on /healthz).
std::string WaitsForSnapshotsToJson(const std::vector<WaitsForSnapshot>& snaps,
                                    const std::string& phase);
// One DOT document with a cluster subgraph per shard.
std::string WaitsForSnapshotsToDot(const std::vector<WaitsForSnapshot>& snaps);

// /debug/deadlocks document: ring of recent dumps, newest last, each with
// cycle arcs, per-participant costs and the chosen victims.
struct ShardDeadlockDump {
  std::uint32_t shard = 0;
  DeadlockDump dump;
};
std::string DeadlockDumpsToJson(const std::vector<ShardDeadlockDump>& dumps);

}  // namespace pardb::obs

#endif  // PARDB_OBS_SNAPSHOT_H_
