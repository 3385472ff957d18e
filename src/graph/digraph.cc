#include "graph/digraph.h"

#include <algorithm>
#include <sstream>

#include "graph/cycles_through.h"

namespace pardb::graph {

bool Cycle::Contains(VertexId v) const {
  return std::find(vertices.begin(), vertices.end(), v) != vertices.end();
}

std::string Cycle::ToString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    if (i) os << " -> ";
    os << vertices[i];
  }
  if (!vertices.empty()) os << " -> " << vertices[0];
  return os.str();
}

void Digraph::AddVertex(VertexId v) { verts_.try_emplace(v); }

bool Digraph::HasVertex(VertexId v) const { return verts_.count(v) > 0; }

std::vector<VertexId> Digraph::Vertices() const {
  std::vector<VertexId> out;
  out.reserve(verts_.size());
  for (const auto& [v, _] : verts_) out.push_back(v);
  return out;
}

void Digraph::AddEdge(VertexId from, VertexId to, EdgeLabel label) {
  VertexRec& fr = verts_[from];
  VertexRec& tr = verts_[to];
  auto* it = std::lower_bound(fr.out.begin(), fr.out.end(),
                              Arc{to, label});
  if (it != fr.out.end() && it->first == to && it->second == label) return;
  fr.out.insert_at(static_cast<std::size_t>(it - fr.out.begin()),
                   Arc{to, label});
  auto* in_it = std::lower_bound(tr.in.begin(), tr.in.end(),
                                 Arc{from, label});
  tr.in.insert_at(static_cast<std::size_t>(in_it - tr.in.begin()),
                  Arc{from, label});
  ++edge_count_;
}

bool Digraph::HasEdge(VertexId from, VertexId to) const {
  auto fit = verts_.find(from);
  if (fit == verts_.end()) return false;
  const auto& out = fit->second.out;
  auto it = std::lower_bound(out.begin(), out.end(),
                             Arc{to, EdgeLabel{0}});
  return it != out.end() && it->first == to;
}

bool Digraph::HasEdge(VertexId from, VertexId to, EdgeLabel label) const {
  auto fit = verts_.find(from);
  if (fit == verts_.end()) return false;
  const auto& out = fit->second.out;
  auto it = std::lower_bound(out.begin(), out.end(),
                             Arc{to, label});
  return it != out.end() && it->first == to && it->second == label;
}

std::vector<Edge> Digraph::Edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count_);
  for (const auto& [from, rec] : verts_) {
    for (const auto& [to, l] : rec.out) out.push_back(Edge{from, to, l});
  }
  return out;
}

std::span<const Arc> Digraph::OutArcs(VertexId v) const {
  auto it = verts_.find(v);
  if (it == verts_.end()) return {};
  return {it->second.out.begin(), it->second.out.end()};
}

std::span<const Arc> Digraph::InArcs(VertexId v) const {
  auto it = verts_.find(v);
  if (it == verts_.end()) return {};
  return {it->second.in.begin(), it->second.in.end()};
}

std::size_t Digraph::InDegree(VertexId v) const {
  auto it = verts_.find(v);
  return it == verts_.end() ? 0 : it->second.in.size();
}

std::size_t Digraph::OutDegree(VertexId v) const {
  auto it = verts_.find(v);
  return it == verts_.end() ? 0 : it->second.out.size();
}

bool Digraph::HasPath(VertexId from, VertexId to) const {
  if (!HasVertex(from) || !HasVertex(to)) return false;
  if (from == to) return true;
  // BFS over reusable scratch; `seen` is a linear-scanned vector — the
  // waits-for graphs this guards are at most a few dozen vertices deep.
  scratch_frontier_.clear();
  scratch_seen_.clear();
  scratch_frontier_.push_back(from);
  scratch_seen_.push_back(from);
  for (std::size_t head = 0; head < scratch_frontier_.size(); ++head) {
    auto it = verts_.find(scratch_frontier_[head]);
    if (it == verts_.end()) continue;
    for (const auto& [next, _] : it->second.out) {
      if (next == to) return true;
      if (std::find(scratch_seen_.begin(), scratch_seen_.end(), next) ==
          scratch_seen_.end()) {
        scratch_seen_.push_back(next);
        scratch_frontier_.push_back(next);
      }
    }
  }
  return false;
}

bool Digraph::WouldCreateCycle(VertexId from, VertexId to) const {
  if (!HasVertex(from) || !HasVertex(to)) return false;
  return HasPath(to, from);
}

std::optional<Cycle> Digraph::FindCycleThrough(VertexId v) const {
  CyclesThrough cycles;
  Cycle found;
  if (!cycles.Load(v, [this](VertexId u) { return InArcs(u); }) ||
      !cycles.FirstCycle(&found)) {
    return std::nullopt;
  }
  return found;
}

bool Digraph::IsAcyclic() const {
  CyclesThrough cycles;
  for (const auto& [v, _] : verts_) {
    if (cycles.Load(v, [this](VertexId u) { return InArcs(u); })) {
      return false;
    }
  }
  return true;
}

std::vector<std::vector<VertexId>> Digraph::CyclicComponents() const {
  // Every cyclic component is the component of each of its members; in
  // ascending vertex order it is first met at its smallest member, which
  // keeps the list ordered by smallest member.
  std::vector<std::vector<VertexId>> out;
  std::vector<VertexId> covered;  // members found so far, ascending
  CyclesThrough cycles;
  for (const auto& [v, _] : verts_) {
    if (std::binary_search(covered.begin(), covered.end(), v) ||
        !cycles.Load(v, [this](VertexId u) { return InArcs(u); })) {
      continue;
    }
    std::vector<VertexId>& component = out.emplace_back();
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      component.push_back(cycles.member(i));
    }
    covered.insert(covered.end(), component.begin(), component.end());
    std::sort(covered.begin(), covered.end());
  }
  return out;
}

bool Digraph::IsForest() const {
  for (const auto& [v, rec] : verts_) {
    (void)v;
    // Forest of out-trees: at most one distinct predecessor per vertex.
    const auto& in = rec.in;
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (i > 0 && in[i].first == in[i - 1].first) continue;
      if (++distinct > 1) return false;
    }
  }
  return IsAcyclic();
}

std::string Digraph::ToDot(
    const std::function<std::string(VertexId)>& vertex_name,
    const std::function<std::string(EdgeLabel)>& label_name) const {
  auto vname = [&](VertexId v) {
    if (vertex_name) return vertex_name(v);
    return "v" + std::to_string(v);
  };
  auto lname = [&](EdgeLabel l) {
    if (label_name) return label_name(l);
    return std::to_string(l);
  };
  std::ostringstream os;
  os << "digraph G {\n";
  for (const auto& [v, _] : verts_) {
    os << "  \"" << vname(v) << "\";\n";
  }
  for (const Edge& e : Edges()) {
    os << "  \"" << vname(e.from) << "\" -> \"" << vname(e.to)
       << "\" [label=\"" << lname(e.label) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace pardb::graph
