#ifndef PARDB_TESTS_UNION_ORACLE_H_
#define PARDB_TESTS_UNION_ORACLE_H_

// Test oracle: the cross-shard union merge as a whole-graph build. The
// coordinator loads one global's union component at a time straight from
// the shards' lock tables (DESIGN D30); this is the merge it replaced —
// every shard's waits-for arcs renamed into one id space, a global's
// slices fused into one vertex, and the cyclic components of the whole
// union listed. xshard_test checks that both find the same components.

#include <cstdint>
#include <vector>

#include "component_oracle.h"
#include "core/engine.h"
#include "par/xshard/coordinator.h"

namespace pardb::par::xshard {

// The union of the shards' AppendWaitsFor arcs: a slice of a global known
// to `coord` becomes GlobalNode(seq), any other transaction
// LocalNode(shard, txn), and each label carries its shard.
inline std::vector<graph::Edge> UnionArcsOracle(
    const std::vector<core::Engine*>& engines, const Coordinator& coord) {
  std::vector<graph::Edge> merged;
  for (std::uint32_t s = 0; s < engines.size(); ++s) {
    std::vector<graph::Edge> arcs;
    engines[s]->AppendWaitsFor(&arcs);
    auto rename = [&](graph::VertexId txn) {
      const auto global = coord.GlobalOf(s, TxnId(txn));
      return global.has_value() ? GlobalNode(*global)
                                : LocalNode(s, TxnId(txn));
    };
    for (const graph::Edge& e : arcs) {
      merged.push_back(graph::Edge{
          rename(e.from), rename(e.to),
          (static_cast<graph::EdgeLabel>(s) << 48) | e.label});
    }
  }
  return merged;
}

// The union's cyclic components that hold a global, in the order the
// whole-union search lists them (ascending smallest member).
inline std::vector<std::vector<graph::VertexId>> GlobalComponentsOracle(
    const std::vector<core::Engine*>& engines, const Coordinator& coord) {
  std::vector<std::vector<graph::VertexId>> out;
  for (auto& component :
       graph::CyclicComponentsOracle(UnionArcsOracle(engines, coord))) {
    for (graph::VertexId v : component) {
      if (IsGlobalNode(v)) {
        out.push_back(std::move(component));
        break;
      }
    }
  }
  return out;
}

}  // namespace pardb::par::xshard

#endif  // PARDB_TESTS_UNION_ORACLE_H_
