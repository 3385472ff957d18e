#ifndef PARDB_PAR_XSHARD_GLOBAL_GRAPH_H_
#define PARDB_PAR_XSHARD_GLOBAL_GRAPH_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "graph/digraph.h"

namespace pardb::par::xshard {

// Union-of-forests merge (DESIGN D12). Each shard's exclusive waits-for
// graph is a forest while the shard resolves its own cycles (Theorem 1 +
// continuous local detection), so a global deadlock can only close through
// vertices that appear on more than one shard — the cross-shard
// transactions. The merge renames each shard's vertices into one id space,
// fusing the per-shard sub-transactions of a global transaction into a
// single vertex, and looks for cycles in the union.

// Vertex ids in the merged graph: a global transaction is its global
// sequence number; a shard-local transaction is tagged with the shard so
// ids never collide across shards (engine txn ids stay below 2^48 by
// construction — they are dense spawn counters).
constexpr graph::VertexId kLocalNodeBit = 1ull << 63;

inline graph::VertexId LocalNode(std::uint32_t shard, TxnId txn) {
  return kLocalNodeBit | (static_cast<graph::VertexId>(shard) << 48) |
         txn.value();
}

inline graph::VertexId GlobalNode(std::uint64_t global_seq) {
  return global_seq;
}

inline bool IsGlobalNode(graph::VertexId v) {
  return (v & kLocalNodeBit) == 0;
}

// One merged edge with its per-shard provenance, kept alongside the
// Digraph (whose labels cannot carry both shard and entity for the
// conflict lookup). Orientation follows the engine graph: from = blocker,
// to = waiter ("to waits for from").
struct MergedEdge {
  graph::VertexId from = 0;
  graph::VertexId to = 0;
  std::uint32_t shard = 0;
  EntityId entity;
  TxnId waiter;  // shard-local id of the waiting transaction
};

struct MergedGraph {
  graph::Digraph graph;
  std::vector<MergedEdge> edges;
};

// Interface the merge uses to rename a shard-local txn id: returns the
// global sequence number when (shard, txn) is a sub-transaction of an
// active global transaction, or nullopt for purely local transactions.
class SubResolver {
 public:
  virtual ~SubResolver() = default;
  virtual std::optional<std::uint64_t> GlobalOf(std::uint32_t shard,
                                               TxnId txn) const = 0;
};

// Builds the union of the given per-shard waits-for arcs under the
// resolver's renaming. `shard_arcs[s]` is engine s's AppendWaitsFor().
MergedGraph MergeWaitsFor(
    const std::vector<std::vector<graph::Edge>>& shard_arcs,
    const SubResolver& resolver);

}  // namespace pardb::par::xshard

#endif  // PARDB_PAR_XSHARD_GLOBAL_GRAPH_H_
