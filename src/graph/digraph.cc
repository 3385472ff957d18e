#include "graph/digraph.h"

#include <algorithm>
#include <sstream>

namespace pardb::graph {

bool Cycle::Contains(VertexId v) const {
  return std::find(vertices.begin(), vertices.end(), v) != vertices.end();
}

void Digraph::AddVertex(VertexId v) { verts_.try_emplace(v); }

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
