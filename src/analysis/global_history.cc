#include "analysis/global_history.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "analysis/precedence.h"

namespace pardb::analysis {

void GlobalHistory::Add(std::uint64_t key,
                        const std::vector<AccessEvent>& events) {
  auto& log = logs_[key];
  log.insert(log.end(), events.begin(), events.end());
}

std::map<std::uint64_t, std::vector<std::uint64_t>>
GlobalHistory::BuildPrecedence(bool* divergence) const {
  // Flatten the merged logs and defer to the shared single-sort builder.
  // kMinKey reproduces the historical first-emplace-wins on duplicate
  // publishes (logs_ iterates keys ascending, so the smallest key won);
  // the duplicate itself is what `divergence` reports.
  std::size_t total = 0;
  for (const auto& [key, events] : logs_) {
    (void)key;
    total += events.size();
  }
  std::vector<precedence::FlatAccess> acc;
  acc.reserve(total);
  std::vector<std::uint64_t> keys;
  keys.reserve(logs_.size());
  for (const auto& [key, events] : logs_) {
    keys.push_back(key);
    for (const AccessEvent& e : events) {
      acc.push_back(
          precedence::FlatAccess{key, e.entity.value(), e.version, e.is_write});
    }
  }
  return precedence::BuildPrecedenceFlat(
      std::move(acc), keys, precedence::WriterTieBreak::kMinKey, divergence);
}

bool GlobalHistory::IsConflictSerializable() const {
  bool divergence = false;
  auto g = BuildPrecedence(&divergence);
  return !divergence && precedence::FindCycleFlat(g).empty();
}

bool GlobalHistory::HasReplicaDivergence() const {
  bool divergence = false;
  BuildPrecedence(&divergence);
  return divergence;
}

std::vector<std::uint64_t> GlobalHistory::WitnessCycle() const {
  bool divergence = false;
  return precedence::FindCycleFlat(BuildPrecedence(&divergence));
}

std::optional<bool> CertifyUnion(
    const std::vector<const HistoryRecorder*>& recorders,
    const std::function<std::uint64_t(std::size_t, TxnId)>& key_of) {
  // Preconditions: exact recorders, and no published entity shared (each
  // recorder reports an entity once, so a repeat is another recorder).
  std::unordered_map<std::uint64_t, bool> published_of;
  for (std::size_t i = 0; i < recorders.size(); ++i) {
    if (!recorders[i]->certifier_exact()) return std::nullopt;
    bool shared = false;
    recorders[i]->ForEachTouchedEntity([&](EntityId e, bool published) {
      auto [it, fresh] = published_of.try_emplace(e.value(), published);
      if (!fresh && (published || it->second)) shared = true;
      it->second = it->second || published;
    });
    if (shared) return std::nullopt;
  }

  // Renamed edge union over dense vertex ids.
  constexpr std::uint32_t kUnset = 0xffffffffu;
  std::unordered_map<std::uint64_t, std::uint32_t> vertex_of;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::uint32_t> local;
  for (std::size_t i = 0; i < recorders.size(); ++i) {
    const HistoryRecorder& rec = *recorders[i];
    local.assign(rec.certifier_nodes(), kUnset);
    auto Vertex = [&](std::uint32_t node) {
      if (local[node] == kUnset) {
        const auto next = static_cast<std::uint32_t>(vertex_of.size());
        local[node] =
            vertex_of.try_emplace(key_of(i, rec.certifier_txn(node)), next)
                .first->second;
      }
      return local[node];
    };
    rec.ForEachCertifierEdge([&](std::uint32_t from, std::uint32_t to) {
      const std::uint32_t a = Vertex(from);
      const std::uint32_t b = Vertex(to);
      if (a != b) edges.emplace_back(a, b);
    });
  }

  // Kahn over a CSR adjacency: acyclic iff every vertex drains.
  const std::size_t n = vertex_of.size();
  std::vector<std::uint32_t> start(n + 1, 0);
  std::vector<std::uint32_t> indeg(n, 0);
  for (const auto& [a, b] : edges) {
    ++start[a + 1];
    ++indeg[b];
  }
  for (std::size_t v = 0; v < n; ++v) start[v + 1] += start[v];
  std::vector<std::uint32_t> adj(edges.size());
  std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
  for (const auto& [a, b] : edges) adj[fill[a]++] = b;
  std::vector<std::uint32_t> ready;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push_back(v);
  }
  std::size_t drained = 0;
  while (!ready.empty()) {
    const std::uint32_t v = ready.back();
    ready.pop_back();
    ++drained;
    for (std::uint32_t i = start[v]; i < start[v + 1]; ++i) {
      if (--indeg[adj[i]] == 0) ready.push_back(adj[i]);
    }
  }
  return drained == n;
}

}  // namespace pardb::analysis
