#ifndef PARDB_GRAPH_UNDIRECTED_H_
#define PARDB_GRAPH_UNDIRECTED_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace pardb::graph {

// Simple undirected graph used for the paper's state-dependency graphs
// (§4.0): vertices are lock states, edges connect consecutive lock states
// and join each write's "index of restorability" to the lock state after
// which the write occurred. Corollary 1 characterises well-defined
// (recreatable) lock states as articulation points, which this class
// computes with Hopcroft–Tarjan. rollback::StateDependencyGraph uses an
// equivalent interval-coverage method; this class cross-validates it in
// tests and renders figures.
class UndirectedGraph {
 public:
  using VertexId = std::uint64_t;

  void AddVertex(VertexId v);
  // Adds {a, b}; creates missing endpoints; self-loops are ignored (they
  // never affect connectivity or articulation points).
  void AddEdge(VertexId a, VertexId b);
  bool HasVertex(VertexId v) const;
  bool HasEdge(VertexId a, VertexId b) const;
  std::size_t VertexCount() const { return adj_.size(); }
  std::size_t EdgeCount() const { return edge_count_; }
  std::vector<VertexId> Vertices() const;
  std::vector<VertexId> Neighbors(VertexId v) const;

  // All articulation points (cut vertices), sorted ascending.
  std::vector<VertexId> ArticulationPoints() const;

  bool IsConnected() const;

  std::string ToDot() const;

 private:
  std::map<VertexId, std::set<VertexId>> adj_;
  std::size_t edge_count_ = 0;
};

}  // namespace pardb::graph

#endif  // PARDB_GRAPH_UNDIRECTED_H_
