#ifndef PARDB_TESTS_COMPONENT_ORACLE_H_
#define PARDB_TESTS_COMPONENT_ORACLE_H_

// Test oracles over components. LoadComponentOracle is the sorted-search
// component loader: graph::CyclesThrough gives each vertex a local index
// and buckets the collected arcs by tail (DESIGN D28); this is the plain
// version it replaced — the backward reach kept as a sorted vector with a
// binary-search insert per new vertex, the collected arcs sorted by (tail,
// head, label), and every forward step and arc head found by binary
// search. graph_test checks that both give the same component.
//
// CyclicComponentsOracle, IsAcyclicOracle and IsForestOracle are the
// whole-graph queries Digraph answered before every production caller
// loaded components from its lock tables (DESIGN D30): graph::ShapeOf,
// Engine::CyclicGroups and the coordinator's union components are checked
// against them.

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "graph/digraph.h"

namespace pardb::graph {

// Root's strongly connected component: members ascending, each member's
// out-arcs inside the component as (head, label) in sorted order.
struct OracleComponent {
  std::vector<VertexId> members;
  std::size_t root = 0;  // root's index in members
  std::vector<std::vector<Arc>> out_arcs;
};

// Loads root's component from an in-arc source, as CyclesThrough::Load
// does; false (and an empty component) when root is on no cycle.
template <typename InArcs>
bool LoadComponentOracle(VertexId root, InArcs&& in_arcs,
                         OracleComponent* out) {
  *out = OracleComponent{};
  // Backward reach, kept sorted, and every arc into it.
  std::vector<VertexId> reach(1, root);
  std::vector<VertexId> queue(1, root);
  std::vector<Edge> arcs;
  bool closed = false;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    for (const Arc& a : in_arcs(v)) {
      arcs.push_back(Edge{a.first, v, a.second});
      if (a.first == root) {
        closed = true;
        continue;
      }
      auto it = std::lower_bound(reach.begin(), reach.end(), a.first);
      if (it == reach.end() || *it != a.first) {
        reach.insert(it, a.first);
        queue.push_back(a.first);
      }
    }
  }
  if (!closed) return false;

  // Forward closure from root inside the reach over the collected arcs.
  std::sort(arcs.begin(), arcs.end());
  auto out_of = [&arcs](VertexId u) {
    auto lo = std::lower_bound(arcs.begin(), arcs.end(), Edge{u, 0, 0});
    auto hi = lo;
    while (hi != arcs.end() && hi->from == u) ++hi;
    return std::span<const Edge>(lo, hi);
  };
  auto position = [](const std::vector<VertexId>& sorted, VertexId v) {
    auto it = std::lower_bound(sorted.begin(), sorted.end(), v);
    return it != sorted.end() && *it == v
               ? static_cast<std::size_t>(it - sorted.begin())
               : sorted.size();
  };
  std::vector<char> mark(reach.size(), 0);
  mark[position(reach, root)] = 1;
  queue.assign(1, root);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const Edge& e : out_of(queue[head])) {
      const std::size_t i = position(reach, e.to);
      if (mark[i]) continue;
      mark[i] = 1;
      queue.push_back(e.to);
    }
  }
  for (std::size_t i = 0; i < reach.size(); ++i) {
    if (mark[i]) out->members.push_back(reach[i]);
  }
  out->root = position(out->members, root);
  for (VertexId v : out->members) {
    std::vector<Arc>& arcs_of_v = out->out_arcs.emplace_back();
    for (const Edge& e : out_of(v)) {
      if (position(out->members, e.to) < out->members.size()) {
        arcs_of_v.push_back(Arc{e.to, e.label});
      }
    }
  }
  return true;
}

// The vertex sets of the directed cycles of the digraph with these arcs
// (duplicates count once): strongly connected components of size >= 2 or
// with a self-loop, each ascending, the list ordered by smallest member.
// Loads each vertex's component in ascending order, skipping members
// already found.
inline std::vector<std::vector<VertexId>> CyclicComponentsOracle(
    const std::vector<Edge>& arcs) {
  std::map<VertexId, std::vector<Arc>> in;  // every vertex, its in-arcs
  for (const Edge& e : std::set<Edge>(arcs.begin(), arcs.end())) {
    in[e.from];
    in[e.to].push_back(Arc{e.from, e.label});
  }
  auto in_arcs = [&in](VertexId v) {
    auto it = in.find(v);
    return it == in.end() ? std::span<const Arc>()
                          : std::span<const Arc>(it->second);
  };
  std::vector<std::vector<VertexId>> out;
  std::set<VertexId> covered;
  for (const auto& [v, unused] : in) {
    OracleComponent component;
    if (covered.count(v) || !LoadComponentOracle(v, in_arcs, &component)) {
      continue;
    }
    covered.insert(component.members.begin(), component.members.end());
    out.push_back(component.members);
  }
  return out;
}

inline bool IsAcyclicOracle(const std::vector<Edge>& arcs) {
  return CyclicComponentsOracle(arcs).empty();
}

// Theorem 1 structure: a forest of out-trees — every vertex has at most
// one distinct predecessor and there is no cycle.
inline bool IsForestOracle(const std::vector<Edge>& arcs) {
  std::map<VertexId, std::set<VertexId>> preds;
  for (const Edge& e : arcs) preds[e.to].insert(e.from);
  for (const auto& [v, p] : preds) {
    if (p.size() > 1) return false;
  }
  return IsAcyclicOracle(arcs);
}

}  // namespace pardb::graph

#endif  // PARDB_TESTS_COMPONENT_ORACLE_H_
