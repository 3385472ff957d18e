#include "par/xshard/global_graph.h"

namespace pardb::par::xshard {

MergedGraph MergeWaitsFor(
    const std::vector<std::vector<graph::Edge>>& shard_arcs,
    const SubResolver& resolver) {
  MergedGraph merged;
  for (std::uint32_t s = 0; s < shard_arcs.size(); ++s) {
    for (const graph::Edge& e : shard_arcs[s]) {
      const TxnId blocker(e.from);
      const TxnId waiter(e.to);
      const auto gb = resolver.GlobalOf(s, blocker);
      const auto gw = resolver.GlobalOf(s, waiter);
      MergedEdge edge;
      edge.from = gb.has_value() ? GlobalNode(*gb) : LocalNode(s, blocker);
      edge.to = gw.has_value() ? GlobalNode(*gw) : LocalNode(s, waiter);
      edge.shard = s;
      edge.entity = EntityId(e.label);
      edge.waiter = waiter;
      // The shard tag in the label keeps parallel waits on the same entity
      // id distinct in the Digraph's edge set.
      merged.graph.AddEdge(edge.from, edge.to,
                           (static_cast<graph::EdgeLabel>(s) << 48) | e.label);
      merged.edges.push_back(edge);
    }
  }
  return merged;
}

}  // namespace pardb::par::xshard
