#include "graph/cycles_through.h"

#include <algorithm>

namespace pardb::graph {

namespace {

std::uint64_t SaturatingAdd(std::uint64_t a, std::uint64_t b) {
  return a > CyclesThrough::kInfinite - b ? CyclesThrough::kInfinite : a + b;
}

// Position of v in the ascending `sorted`, or sorted.size() when absent.
std::size_t Find(const std::vector<VertexId>& sorted, VertexId v) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), v);
  return it != sorted.end() && *it == v
             ? static_cast<std::size_t>(it - sorted.begin())
             : sorted.size();
}

}  // namespace

std::size_t CyclesThrough::IndexOf(VertexId v) const {
  return Find(members_, v);
}

bool CyclesThrough::CloseForward(VertexId root) {
  // Every collected arc runs inside the backward reach B, and every arc
  // with both ends in B was collected (its head was visited). A vertex
  // forward-reachable from root inside B is in root's SCC; conversely
  // every path root ⇝ v with v ∈ B stays in B, since each vertex on it
  // reaches v and so root. Sorting the arcs by (tail, head, label) gives
  // each vertex's out-arcs in the digraph's sorted order.
  std::sort(in_arcs_.begin(), in_arcs_.end());
  auto out_arcs = [this](VertexId u) {
    auto lo = std::lower_bound(in_arcs_.begin(), in_arcs_.end(),
                               Edge{u, 0, 0});
    auto hi = lo;
    while (hi != in_arcs_.end() && hi->from == u) ++hi;
    return std::span<const Edge>(lo, hi);
  };
  mark_.assign(reach_.size(), 0);
  mark_[Find(reach_, root)] = 1;
  queue_.assign(1, root);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    for (const Edge& e : out_arcs(queue_[head])) {
      const std::size_t i = Find(reach_, e.to);
      if (mark_[i]) continue;
      mark_[i] = 1;
      queue_.push_back(e.to);
    }
  }
  for (std::size_t i = 0; i < reach_.size(); ++i) {
    if (mark_[i]) members_.push_back(reach_[i]);
  }
  root_ = IndexOf(root);

  offsets_.push_back(0);
  for (VertexId v : members_) {
    for (const Edge& e : out_arcs(v)) {
      const std::size_t j = IndexOf(e.to);
      if (j < members_.size()) {
        arcs_.push_back(LocalArc{static_cast<std::uint32_t>(j), e.label});
      }
    }
    offsets_.push_back(arcs_.size());
  }
  return true;
}

std::uint64_t CyclesThrough::CountCycles() {
  // Paths from root back to root, counted over SCC − root in topological
  // (Kahn) order: paths_[v] is the number of simple paths root → v.
  const std::size_t k = size();
  indeg_.assign(k, 0);
  paths_.assign(k, 0);
  for (const LocalArc& a : arcs_) {
    if (a.head != root_) ++indeg_[a.head];
  }
  paths_[root_] = 1;
  queue_.assign(1, root_);
  std::uint64_t cycles = 0;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::size_t u = queue_[head];
    for (const LocalArc& a : OutArcs(u)) {
      if (a.head == root_) {
        cycles = SaturatingAdd(cycles, paths_[u]);
        continue;
      }
      paths_[a.head] = SaturatingAdd(paths_[a.head], paths_[u]);
      if (--indeg_[a.head] == 0) queue_.push_back(a.head);
    }
  }
  return cycles;
}

bool CyclesThrough::FirstCycle(Cycle* out, const std::vector<char>* excluded) {
  out->vertices.clear();
  out->edges.clear();
  if (members_.empty()) return false;
  // Depth-first from root, each member entered at most once: a member
  // left without closing a cycle cannot reach root around the current
  // path, so revisiting it is useless. When G − root is acyclic nothing
  // ever backtracks and this is a plain first-arc walk.
  mark_.assign(size(), 0);
  mark_[root_] = 1;
  stack_.assign(1, Frame{static_cast<std::uint32_t>(root_), offsets_[root_]});
  while (!stack_.empty()) {
    Frame& top = stack_.back();
    if (top.next == offsets_[top.v + 1]) {
      stack_.pop_back();
      continue;
    }
    const LocalArc arc = arcs_[top.next++];
    if (arc.head == root_) {
      for (std::size_t i = 0; i < stack_.size(); ++i) {
        const VertexId from = members_[stack_[i].v];
        out->vertices.push_back(from);
        const bool last = i + 1 == stack_.size();
        const LocalArc& taken = last ? arc : arcs_[stack_[i].next - 1];
        out->edges.push_back(Edge{from, members_[taken.head], taken.label});
      }
      return true;
    }
    if (mark_[arc.head] || (excluded != nullptr && (*excluded)[arc.head])) {
      continue;
    }
    mark_[arc.head] = 1;
    stack_.push_back(Frame{arc.head, offsets_[arc.head]});
  }
  return false;
}

void CyclesThrough::AddFlowArc(std::uint32_t from, std::uint32_t to,
                               std::uint64_t cap) {
  flow_next_.push_back(flow_head_[from]);
  flow_head_[from] = static_cast<std::int64_t>(flow_.size());
  flow_.push_back(FlowArc{to, cap});
  flow_next_.push_back(flow_head_[to]);
  flow_head_[to] = static_cast<std::int64_t>(flow_.size());
  flow_.push_back(FlowArc{from, 0});
}

std::uint64_t CyclesThrough::MinVertexCut(
    const std::vector<std::uint64_t>& capacity,
    std::vector<std::size_t>* cut) {
  cut->clear();
  // Member i splits into in-node 2i and out-node 2i+1, joined by an arc of
  // its capacity; component arcs join out-nodes to in-nodes uncapacitated.
  // Root's out-node is the source and its in-node the sink, so every s–t
  // path is a cycle through root and every s–t vertex cut breaks them all.
  const std::size_t nodes = 2 * size();
  flow_.clear();
  flow_next_.clear();
  flow_head_.assign(nodes, -1);
  for (std::uint32_t i = 0; i < size(); ++i) {
    if (i != root_) AddFlowArc(2 * i, 2 * i + 1, capacity[i]);
    for (const LocalArc& a : OutArcs(i)) {
      AddFlowArc(2 * i + 1, 2 * a.head, kInfinite);
    }
  }
  const std::size_t source = 2 * root_ + 1;
  const std::size_t sink = 2 * root_;

  // Edmonds–Karp: augment along shortest residual paths until none is
  // left. A path whose every arc is uncapacitated means no finite cut.
  std::uint64_t flow = 0;
  for (;;) {
    via_.assign(nodes, -1);
    via_[source] = -2;
    queue_.assign(1, source);
    for (std::size_t head = 0; head < queue_.size() && via_[sink] == -1;
         ++head) {
      for (std::int64_t e = flow_head_[queue_[head]]; e != -1;
           e = flow_next_[e]) {
        const FlowArc& arc = flow_[e];
        if (arc.cap == 0 || via_[arc.to] != -1) continue;
        via_[arc.to] = e;
        queue_.push_back(arc.to);
      }
    }
    if (via_[sink] == -1) break;
    std::uint64_t bottleneck = kInfinite;
    for (std::size_t n = sink; n != source; n = flow_[via_[n] ^ 1].to) {
      bottleneck = std::min(bottleneck, flow_[via_[n]].cap);
    }
    if (bottleneck == kInfinite) return kInfinite;
    for (std::size_t n = sink; n != source; n = flow_[via_[n] ^ 1].to) {
      FlowArc& arc = flow_[via_[n]];
      if (arc.cap != kInfinite) arc.cap -= bottleneck;
      flow_[via_[n] ^ 1].cap += bottleneck;
    }
    flow += bottleneck;
  }

  // The sink side: nodes that still reach the sink in the residual graph.
  // Members whose in-node is outside it and out-node inside form the
  // minimum cut nearest the sink.
  mark_.assign(nodes, 0);
  mark_[sink] = 1;
  queue_.assign(1, sink);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    for (std::int64_t e = flow_head_[queue_[head]]; e != -1;
         e = flow_next_[e]) {
      const std::uint32_t tail = flow_[e].to;  // e ^ 1 runs tail -> head
      if (mark_[tail] || flow_[e ^ 1].cap == 0) continue;
      mark_[tail] = 1;
      queue_.push_back(tail);
    }
  }
  for (std::size_t i = 0; i < size(); ++i) {
    if (i != root_ && !mark_[2 * i] && mark_[2 * i + 1]) cut->push_back(i);
  }
  return flow;
}

}  // namespace pardb::graph
