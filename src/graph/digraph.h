#ifndef PARDB_GRAPH_DIGRAPH_H_
#define PARDB_GRAPH_DIGRAPH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/status.h"

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
  std::string ToString() const;
};

// Labeled multidigraph with explicit vertex membership, built once and then
// queried (the engine derives its waits-for graph from the lock table on
// demand, DESIGN D27, so nothing edits a graph in place). Deterministic:
// all iteration orders are sorted, so algorithms return the same cycle for
// the same graph regardless of insertion order.
class Digraph {
 public:
  Digraph() = default;

  // Vertices ---------------------------------------------------------------

  // Adds v if absent; idempotent.
  void AddVertex(VertexId v);
  bool HasVertex(VertexId v) const;
  std::size_t VertexCount() const { return verts_.size(); }
  std::vector<VertexId> Vertices() const;

  // Edges ------------------------------------------------------------------

  // Adds the arc (from, to, label); creates missing endpoints. Duplicate
  // (from, to, label) triples are ignored (set semantics).
  void AddEdge(VertexId from, VertexId to, EdgeLabel label);
  bool HasEdge(VertexId from, VertexId to) const;
  bool HasEdge(VertexId from, VertexId to, EdgeLabel label) const;
  std::size_t EdgeCount() const { return edge_count_; }
  std::vector<Edge> Edges() const;
  // The sorted (neighbour, label) arcs leaving / entering v, without
  // copying; empty when v is absent. Valid until the next AddEdge. InArcs
  // is the in-arc source CyclesThrough::Load reads.
  std::span<const Arc> OutArcs(VertexId v) const;
  std::span<const Arc> InArcs(VertexId v) const;
  std::size_t InDegree(VertexId v) const;
  std::size_t OutDegree(VertexId v) const;

  // Queries ----------------------------------------------------------------

  // True iff a directed path from `from` to `to` exists (including length
  // 0 when from == to and both exist).
  bool HasPath(VertexId from, VertexId to) const;

  // True iff adding arc (from, to) would close a directed cycle, i.e. a
  // path to -> ... -> from already exists. This is the paper's wait-time
  // deadlock test: a wait response creates a deadlock iff the requested
  // entity "is already locked by a descendant" in the concurrency graph.
  bool WouldCreateCycle(VertexId from, VertexId to) const;

  // Finds one directed cycle through v, if any: the depth-first first
  // cycle in sorted arc order, from one sweep of v's strongly connected
  // component (graph::CyclesThrough) rather than cycle enumeration. With
  // exclusive locks only the deadlock-free graph is a forest (Theorem 1)
  // and a single wait can close at most one cycle, which this returns.
  std::optional<Cycle> FindCycleThrough(VertexId v) const;

  // True iff the digraph is acyclic.
  bool IsAcyclic() const;

  // The vertex sets of the directed cycles: strongly connected components
  // of size >= 2 (or with a self-loop), each sorted ascending, the list
  // ordered by smallest member. The periodic deadlock scan and the
  // cross-shard merge find every deadlock in one sweep with it.
  std::vector<std::vector<VertexId>> CyclicComponents() const;

  // Theorem 1 structure check: with exclusive locks only, a deadlock-free
  // concurrency graph is a forest of out-trees — every vertex has in-degree
  // <= 1 and there is no cycle.
  bool IsForest() const;

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
  std::size_t edge_count_ = 0;

  // Scratch buffers for the path test. Cleared, never shrunk. `mutable`
  // because the query is logically const; a digraph is single-threaded.
  mutable std::vector<VertexId> scratch_frontier_;
  mutable std::vector<VertexId> scratch_seen_;
};

}  // namespace pardb::graph

#endif  // PARDB_GRAPH_DIGRAPH_H_
