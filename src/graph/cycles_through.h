#ifndef PARDB_GRAPH_CYCLES_THROUGH_H_
#define PARDB_GRAPH_CYCLES_THROUGH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"

namespace pardb::graph {

// Every simple cycle through one vertex r, held as r's strongly connected
// component (SCC) instead of as a list. When G − r is acyclic — as under
// continuous detection, where every cycle a wait closes passes through the
// requester (paper §3.2) — the SCC's arcs are exactly the arcs on those
// cycles, their number is a path count over the DAG SCC − r, and the
// cheapest member set meeting them all is a minimum s–t vertex cut, found
// exactly by max-flow. When G − r is cyclic the cut still breaks every
// cycle through r and the count is a lower bound. DESIGN D19 has the
// proofs. Members are local indices 0..size()-1 in ascending vertex order;
// buffers are reused, so a warm instance does not allocate.
class CyclesThrough {
 public:
  // Capacity of a member that may not be cut; MinVertexCut's answer when
  // no finite cut exists.
  static constexpr std::uint64_t kInfinite = ~std::uint64_t{0};

  // One arc between members: the head's local index and the arc's label.
  struct LocalArc {
    std::uint32_t head;
    EdgeLabel label;
  };

  // Loads the SCC of `root` from an in-arc source: `in_arcs(v)` returns
  // v's in-arcs as (tail, label) pairs, each once, in any order, as a
  // range valid until the next call (Digraph::InArcs; the engine derives
  // them from its lock table). Backward-first: the backward reach of root,
  // collecting the arcs into it, then the forward closure from root inside
  // that set over the collected arcs. Returns false, leaving the component
  // empty, when root is on no cycle. No search: each vertex gets a local
  // index when the backward sweep first meets it (DESIGN D28).
  template <typename InArcs>
  bool Load(VertexId root, InArcs&& in_arcs);

  std::size_t size() const { return members_.size(); }
  VertexId member(std::size_t i) const { return members_[i]; }
  std::size_t root_index() const { return root_; }
  // Local index of vertex v, or size() when v is not a member.
  std::size_t IndexOf(VertexId v) const;
  // Arcs between members, parallel labels counted apart. A component with
  // as many arcs as members is a single simple cycle.
  std::size_t arc_count() const { return arcs_.size(); }
  // Member i's out-arcs inside the component, in the digraph's sorted
  // (neighbour, label) order.
  std::span<const LocalArc> OutArcs(std::size_t i) const {
    return {arcs_.data() + offsets_[i], arcs_.data() + offsets_[i + 1]};
  }

  // The number of simple cycles through root (parallel arcs count apart,
  // as enumeration counts them), saturating at 2^64 − 1.
  std::uint64_t CountCycles();

  // Writes the first simple cycle through root in depth-first sorted-arc
  // order whose members avoid every i with (*excluded)[i] != 0, starting
  // at root; false when every cycle meets an excluded member. This is the
  // cycle enumeration would report first. Linear in the component size.
  bool FirstCycle(Cycle* out, const std::vector<char>* excluded = nullptr);

  // Minimum-capacity set of non-root members meeting every cycle through
  // root, written to `cut` in ascending order. capacity[i] is member i's
  // price (kInfinite: never cut; root's entry is ignored). Returns the cut
  // capacity, or kInfinite (and an empty cut) when no finite cut exists.
  // Among minimum cuts it returns the one nearest root's predecessors —
  // the holders root waits on.
  std::uint64_t MinVertexCut(const std::vector<std::uint64_t>& capacity,
                             std::vector<std::size_t>* cut);

 private:
  // Load's second half: the forward closure from root (local index 0)
  // inside reach_ over the collected arcs, then the component's CSR.
  bool CloseForward();
  // Local index of v in the current sweep, assigning the next one (and
  // appending v to reach_) when v is new.
  std::uint32_t Intern(VertexId v);
  // Starts a sweep: empties reach_ and forgets every interned vertex.
  void BeginSweep();
  // Doubles the index table and re-enters the current sweep's vertices.
  void GrowIndex();
  // v's home slot in an index table of mask + 1 slots (Fibonacci hashing).
  static std::size_t HomeSlot(VertexId v, std::size_t mask) {
    return ((v * 0x9E3779B97F4A7C15ull) >> 32) & mask;
  }
  void AddFlowArc(std::uint32_t from, std::uint32_t to, std::uint64_t cap);

  // The component as a compact local graph (CSR over members).
  std::vector<VertexId> members_;
  std::size_t root_ = 0;
  std::vector<std::size_t> offsets_;
  std::vector<LocalArc> arcs_;

  // Scratch for the sweeps and the flow network.
  struct Frame {
    std::uint32_t v;
    std::size_t next;
  };
  struct FlowArc {
    std::uint32_t to;
    std::uint64_t cap;  // residual; arc e's reverse is e ^ 1
  };
  // A collected arc between local indices of the backward reach.
  struct ReachArc {
    std::uint32_t tail;
    std::uint32_t head;
    EdgeLabel label;
  };
  // Open-addressing vertex -> local index table. A slot belongs to the
  // current sweep iff its stamp is stamp_, so a sweep never clears it.
  struct IndexSlot {
    VertexId vertex = 0;
    std::uint32_t stamp = 0;
    std::uint32_t index = 0;
  };
  static constexpr std::size_t kFirstIndexSlots = 64;
  static constexpr std::uint32_t kNoMember = ~std::uint32_t{0};
  std::vector<IndexSlot> index_;     // power-of-two size, at most half full
  std::uint32_t stamp_ = 0;
  std::vector<VertexId> reach_;      // backward reach, by local index
  std::vector<ReachArc> reach_arcs_;  // arcs into the backward reach
  std::vector<std::uint32_t> first_;  // per local index: its first out-arc
  std::vector<LocalArc> out_;         // reach arcs bucketed by tail
  std::vector<std::uint32_t> member_of_;  // per local index, or kNoMember
  std::vector<VertexId> queue_;     // BFS frontier
  std::vector<char> mark_;          // per member / flow node
  std::vector<std::uint32_t> indeg_;
  std::vector<std::uint64_t> paths_;
  std::vector<Frame> stack_;
  std::vector<FlowArc> flow_;
  std::vector<std::int64_t> flow_next_;  // per flow arc: next arc of its tail
  std::vector<std::int64_t> flow_head_;  // per node: first arc, -1 if none
  std::vector<std::int64_t> via_;        // per node: BFS parent arc
};

// Theorem 1 structure flags of the digraph with the given arcs (duplicates
// count once): acyclic, and a forest of out-trees — acyclic with at most
// one distinct predecessor per vertex. Acyclicity asks CyclesThrough::Load
// of each vertex with an in-arc. Waits-for snapshots, one shard's or the
// cross-shard union's, take their flags from here.
struct Shape {
  bool acyclic = true;
  bool forest = true;
};
Shape ShapeOf(std::vector<Edge> arcs);

inline std::uint32_t CyclesThrough::Intern(VertexId v) {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t s = HomeSlot(v, mask);; s = (s + 1) & mask) {
    IndexSlot& slot = index_[s];
    if (slot.stamp != stamp_) {
      const auto local = static_cast<std::uint32_t>(reach_.size());
      slot = IndexSlot{v, stamp_, local};
      reach_.push_back(v);
      if (2 * reach_.size() > index_.size()) GrowIndex();
      return local;
    }
    if (slot.vertex == v) return slot.index;
  }
}

template <typename InArcs>
bool CyclesThrough::Load(VertexId root, InArcs&& in_arcs) {
  members_.clear();
  offsets_.clear();
  arcs_.clear();
  reach_arcs_.clear();
  // Backward reach: every vertex that reaches root, in discovery order,
  // its position its local index (root is 0). Root is on a cycle iff it is
  // the tail of an arc into that set; when it is not — the common,
  // deadlock-free wait — the load stops here.
  BeginSweep();
  Intern(root);
  bool closed = false;
  for (std::uint32_t head = 0; head < reach_.size(); ++head) {
    const VertexId v = reach_[head];  // Intern may grow reach_
    for (const Arc& a : in_arcs(v)) {
      closed |= a.first == root;
      reach_arcs_.push_back(ReachArc{Intern(a.first), head, a.second});
    }
  }
  return closed && CloseForward();
}

}  // namespace pardb::graph

#endif  // PARDB_GRAPH_CYCLES_THROUGH_H_
