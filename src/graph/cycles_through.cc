#include "graph/cycles_through.h"

#include <algorithm>

namespace pardb::graph {

namespace {

std::uint64_t SaturatingAdd(std::uint64_t a, std::uint64_t b) {
  return a > CyclesThrough::kInfinite - b ? CyclesThrough::kInfinite : a + b;
}

}  // namespace

std::size_t CyclesThrough::IndexOf(VertexId v) const {
  auto it = std::lower_bound(members_.begin(), members_.end(), v);
  return it != members_.end() && *it == v
             ? static_cast<std::size_t>(it - members_.begin())
             : members_.size();
}

void CyclesThrough::BeginSweep() {
  reach_.clear();
  if (index_.empty()) index_.resize(kFirstIndexSlots);
  if (++stamp_ == 0) {  // wrapped: old stamps could match again
    for (IndexSlot& slot : index_) slot.stamp = 0;
    stamp_ = 1;
  }
}

void CyclesThrough::GrowIndex() {
  index_.assign(2 * index_.size(), IndexSlot{});
  const std::size_t mask = index_.size() - 1;
  for (std::uint32_t i = 0; i < reach_.size(); ++i) {
    std::size_t s = HomeSlot(reach_[i], mask);
    while (index_[s].stamp == stamp_) s = (s + 1) & mask;
    index_[s] = IndexSlot{reach_[i], stamp_, i};
  }
}

bool CyclesThrough::CloseForward() {
  // Every collected arc runs inside the backward reach B, and every arc
  // with both ends in B was collected (its head was visited). A vertex
  // forward-reachable from root inside B is in root's SCC; conversely
  // every path root ⇝ v with v ∈ B stays in B, since each vertex on it
  // reaches v and so root.
  //
  // Bucket the arcs by tail (counting sort): after the placement loop
  // first_[u] .. first_[u + 1] are local u's out-arcs.
  const std::size_t n = reach_.size();
  first_.assign(n + 1, 0);
  for (const ReachArc& e : reach_arcs_) ++first_[e.tail];
  for (std::size_t u = 1; u <= n; ++u) first_[u] += first_[u - 1];
  out_.resize(reach_arcs_.size());
  for (const ReachArc& e : reach_arcs_) {
    out_[--first_[e.tail]] = LocalArc{e.head, e.label};
  }
  // Forward closure from root, marking reached locals in member_of_.
  member_of_.assign(n, kNoMember);
  member_of_[0] = 0;
  queue_.assign(1, 0);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::size_t u = queue_[head];
    for (std::uint32_t e = first_[u]; e < first_[u + 1]; ++e) {
      const std::uint32_t w = out_[e].head;
      if (member_of_[w] != kNoMember) continue;
      member_of_[w] = 0;
      queue_.push_back(w);
    }
  }
  // The reached locals, sorted by vertex id, are the members; only they
  // are sorted.
  std::sort(queue_.begin(), queue_.end(),
            [this](VertexId a, VertexId b) { return reach_[a] < reach_[b]; });
  for (std::uint32_t i = 0; i < queue_.size(); ++i) {
    members_.push_back(reach_[queue_[i]]);
    member_of_[queue_[i]] = i;
  }
  root_ = member_of_[0];

  // The CSR, each member's out-arcs in the digraph's sorted (head, label)
  // order: heads are member indices, which ascend with vertex ids.
  offsets_.push_back(0);
  for (const VertexId u : queue_) {
    for (std::uint32_t e = first_[u]; e < first_[u + 1]; ++e) {
      const std::uint32_t j = member_of_[out_[e].head];
      if (j != kNoMember) arcs_.push_back(LocalArc{j, out_[e].label});
    }
    std::sort(arcs_.begin() + static_cast<std::ptrdiff_t>(offsets_.back()),
              arcs_.end(), [](const LocalArc& a, const LocalArc& b) {
                return a.head != b.head ? a.head < b.head : a.label < b.label;
              });
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
