#ifndef PARDB_GRAPH_DIGRAPH_H_
#define PARDB_GRAPH_DIGRAPH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"

namespace pardb::graph {

// Vertex and edge-label key types. The concurrency graph instantiates
// vertices with transaction ids and labels with entity ids; the graph layer
// itself is domain-agnostic.
using VertexId = std::uint64_t;
using EdgeLabel = std::uint64_t;

// One arc of a labeled digraph. The paper's labeled concurrency graph
// G_L(T) labels arc <T_j, T_i> with the entity A for which T_i waits on
// T_j (paper §3.0).
struct Edge {
  VertexId from;
  VertexId to;
  EdgeLabel label;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.from == b.from && a.to == b.to && a.label == b.label;
  }
  friend bool operator<(const Edge& a, const Edge& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.to != b.to) return a.to < b.to;
    return a.label < b.label;
  }
};

// One sorted adjacency entry: (neighbour, label). A plain struct rather
// than std::pair because pair's user-provided assignment operators make it
// non-trivially-copyable, which would bar it from SmallVec storage.
struct Arc {
  VertexId first;   // neighbour vertex
  EdgeLabel second;  // edge label

  friend bool operator==(const Arc& a, const Arc& b) {
    return a.first == b.first && a.second == b.second;
  }
  friend bool operator<(const Arc& a, const Arc& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  }
};

// A cycle through the graph: vertices[0] -> vertices[1] -> ... ->
// vertices[k-1] -> vertices[0], with edges[i] the arc from vertices[i] to
// vertices[(i+1) % k].
struct Cycle {
  std::vector<VertexId> vertices;
  std::vector<Edge> edges;

  bool Contains(VertexId v) const;
};

// Labeled multidigraph with explicit vertex membership: a container that
// tests, benches and examples build by hand. No production path builds
// one — the engine and the cross-shard coordinator read in-arcs straight
// from their lock tables into graph::CyclesThrough (DESIGN D27, D30).
// Deterministic: iteration orders are sorted.
class Digraph {
 public:
  Digraph() = default;

  // Adds v if absent; idempotent.
  void AddVertex(VertexId v);
  // Adds the arc (from, to, label); creates missing endpoints. Duplicate
  // (from, to, label) triples are ignored (set semantics).
  void AddEdge(VertexId from, VertexId to, EdgeLabel label);
  bool HasEdge(VertexId from, VertexId to) const;
  bool HasEdge(VertexId from, VertexId to, EdgeLabel label) const;
  std::vector<Edge> Edges() const;
  // The sorted (neighbour, label) arcs leaving / entering v, without
  // copying; empty when v is absent. Valid until the next AddEdge. InArcs
  // is the in-arc source CyclesThrough::Load reads.
  std::span<const Arc> OutArcs(VertexId v) const;
  std::span<const Arc> InArcs(VertexId v) const;

  // Graphviz rendering; `vertex_name` / `label_name` may be null for
  // numeric output.
  std::string ToDot(
      const std::function<std::string(VertexId)>& vertex_name = nullptr,
      const std::function<std::string(EdgeLabel)>& label_name = nullptr) const;

 private:
  // Adjacency storage: sorted (neighbour, label) pairs with two inline
  // slots — waits-for vertices typically carry one or two arcs, so most
  // vertices never touch the heap for their lists.
  using AdjList = SmallVec<Arc, 2>;

  // Per-vertex adjacency as (neighbour, label) pairs kept sorted — the
  // same iteration order a map-of-sets produces, at a fraction of the
  // allocation cost: an edge insert is a binary-searched inline-array
  // insert instead of two tree-node allocations per direction.
  struct VertexRec {
    AdjList out;
    AdjList in;
  };
  // Outer std::map keeps vertex iteration deterministic (sorted).
  std::map<VertexId, VertexRec> verts_;
};

}  // namespace pardb::graph

#endif  // PARDB_GRAPH_DIGRAPH_H_
