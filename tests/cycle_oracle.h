#ifndef PARDB_TESTS_CYCLE_ORACLE_H_
#define PARDB_TESTS_CYCLE_ORACLE_H_

// Test oracle: explicit enumeration of the simple cycles through one
// vertex. The engine no longer enumerates (graph::CyclesThrough answers
// every cycle question from the vertex's strongly connected component);
// this is the exponential reference it is checked against.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "graph/digraph.h"

namespace pardb::graph {

// Enumerates the simple directed cycles through v by depth-first search
// over simple paths in sorted arc order, invoking cb for each; stops early
// when cb returns false or `limit` cycles were produced. Parallel arcs
// yield distinct cycles. Returns the number of cycles reported.
inline std::size_t EnumerateCyclesThrough(
    const Digraph& g, VertexId v, std::size_t limit,
    const std::function<bool(const Cycle&)>& cb) {
  if (!g.HasVertex(v) || limit == 0) return 0;
  std::size_t produced = 0;
  Cycle path;
  path.vertices.push_back(v);
  bool stop = false;
  std::function<void(VertexId)> Dfs = [&](VertexId u) {
    for (const Arc& a : g.OutArcs(u)) {
      if (stop) return;
      if (a.first == v) {
        Cycle c = path;
        c.edges.push_back(Edge{u, v, a.second});
        ++produced;
        if (!cb(c) || produced >= limit) stop = true;
        continue;
      }
      if (std::find(path.vertices.begin(), path.vertices.end(), a.first) !=
          path.vertices.end()) {
        continue;
      }
      path.vertices.push_back(a.first);
      path.edges.push_back(Edge{u, a.first, a.second});
      Dfs(a.first);
      path.vertices.pop_back();
      path.edges.pop_back();
    }
  };
  Dfs(v);
  return produced;
}

// Every simple cycle through v (no limit).
inline std::vector<Cycle> AllCyclesThrough(const Digraph& g, VertexId v) {
  std::vector<Cycle> cycles;
  EnumerateCyclesThrough(g, v, static_cast<std::size_t>(-1),
                         [&cycles](const Cycle& c) {
                           cycles.push_back(c);
                           return true;
                         });
  return cycles;
}

}  // namespace pardb::graph

#endif  // PARDB_TESTS_CYCLE_ORACLE_H_
