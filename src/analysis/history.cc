#include "analysis/history.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "analysis/precedence.h"

namespace pardb::analysis {

std::uint32_t HistoryRecorder::IdIndex::Find(std::uint64_t id) const {
  if (id < dense_.size()) return dense_[id];
  if (id < kDenseLimit) return kNone;
  auto it = sparse_.find(id);
  return it == sparse_.end() ? kNone : it->second;
}

std::uint32_t& HistoryRecorder::IdIndex::Ref(std::uint64_t id) {
  if (id >= kDenseLimit) return sparse_.try_emplace(id, kNone).first->second;
  if (id >= dense_.size()) {
    dense_.resize(std::min<std::uint64_t>(
                      kDenseLimit, std::max<std::uint64_t>(
                                       id + 1, 2 * dense_.size())),
                  kNone);
  }
  return dense_[id];
}

HistoryRecorder::Slot* HistoryRecorder::ActiveSlot(TxnId txn,
                                                   std::uint32_t* node) {
  *node = node_of_.Find(txn.value());
  if (*node == IdSlots::kNone || nodes_[*node].slot == kNone) return nullptr;
  return &slots_[nodes_[*node].slot];
}

HistoryRecorder::EntityLog& HistoryRecorder::Entity(EntityId entity) {
  std::uint32_t& index = entity_of_.Ref(entity.value());
  if (index == kNone) {
    index = static_cast<std::uint32_t>(entities_.size());
    entities_.push_back(EntityLog{});
    entities_.back().id = entity;
  }
  return entities_[index];
}

void HistoryRecorder::OnBegin(TxnId txn, Timestamp entry) {
  std::uint32_t index = node_of_.Find(txn.value());
  if (index == IdSlots::kNone) {
    index = node_of_.Insert(txn.value());
    if (index == nodes_.size()) nodes_.emplace_back();
    // A reused number keeps only its generation, bumped.
    const std::uint32_t gen = nodes_[index].gen + 1;
    nodes_[index] = Node{};
    nodes_[index].gen = gen;
    nodes_[index].txn = txn;
  }
  Node& n = nodes_[index];
  n.entry = entry;
  n.begin_tick = ++tick_;
  if (!n.committed) live_order_.emplace_back(index, n.gen);
  // Beginning again drops the earlier log; a committed or published one
  // cannot be taken back from the online graph.
  if (n.committed || n.published) exact_ = false;
  if (n.slot != kNone) {
    slots_[n.slot].events.clear();
    return;
  }
  if (free_slots_.empty()) {
    n.slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    n.slot = free_slots_.back();
    free_slots_.pop_back();
  }
}

void HistoryRecorder::OnRead(TxnId txn, EntityId entity, std::uint64_t version,
                             StateIndex state) {
  std::uint32_t node;
  Slot* slot = ActiveSlot(txn, &node);
  if (slot == nullptr) return;
  slot->events.push_back(AccessEvent{entity, version, state, false});
}

void HistoryRecorder::OnPublish(TxnId txn, EntityId entity,
                                std::uint64_t version, StateIndex state) {
  std::uint32_t node;
  Slot* slot = ActiveSlot(txn, &node);
  if (slot == nullptr) return;
  slot->events.push_back(AccessEvent{entity, version, state, true});
  if (!exact_) return;
  if (!nodes_[node].published) {
    nodes_[node].published = true;
    ++live_publishers_;
  }
  EntityLog& log = Entity(entity);
  if (log.published) {
    if (log.latest >= version) {
      exact_ = false;  // not strictly ascending: the batch builder decides
      return;
    }
    // w -> w, unless the latest writer was pruned (then no arc is needed).
    if (!log.writers.empty() && log.writers.back().first == log.latest) {
      AddEdge(log.writers.back().second, node);
    }
  }
  for (std::uint32_t reader : log.awaiting) AddEdge(reader, node);  // r -> w
  log.awaiting.clear();
  log.writers.emplace_back(version, node);
  log.latest = version;
  log.published = true;
}

void HistoryRecorder::OnRollback(TxnId txn, StateIndex target_state) {
  std::uint32_t node;
  Slot* slot = ActiveSlot(txn, &node);
  if (slot == nullptr) return;
  std::vector<AccessEvent>& events = slot->events;
  std::size_t kept = 0;
  for (const AccessEvent& e : events) {
    if (e.state < target_state) {
      events[kept++] = e;
    } else if (e.is_write) {
      ++violations_;  // rolled back past an unlock: not two-phase
    }
  }
  events.resize(kept);
}

void HistoryRecorder::OnCommit(TxnId txn) {
  std::uint32_t node;
  Slot* slot = ActiveSlot(txn, &node);
  if (slot == nullptr) return;
  Node& n = nodes_[node];
  const std::size_t end = log_base_ + committed_events_.size();
  committed_.push_back(
      CommittedRange{txn, n.entry, end, end + slot->events.size()});
  committed_events_.insert(committed_events_.end(), slot->events.begin(),
                           slot->events.end());
  ++commits_;
  n.committed = true;
  n.commit_tick = ++tick_;
  n.range = ranges_base_ + committed_.size() - 1;
  retained_.emplace_back(node, n.gen);
  if (exact_) {
    n.ord = next_ord_++;
    if (n.published) --live_publishers_;
    for (const Parked& p : slot->parked) {
      // An endpoint pruned meanwhile is on no cycle: drop the edge.
      if (nodes_[p.from].gen == p.from_gen && nodes_[p.to].gen == p.to_gen) {
        AddEdge(p.from, p.to);
      }
    }
    for (const AccessEvent& e : slot->events) {
      if (!e.is_write) FoldCommittedRead(node, e);
    }
  }
  slot->events.clear();
  slot->parked.clear();
  free_slots_.push_back(n.slot);
  n.slot = kNone;
  while (!live_order_.empty()) {
    const auto [front, gen] = live_order_.front();
    if (nodes_[front].gen == gen && !nodes_[front].committed) break;
    live_order_.pop_front();
  }
}

void HistoryRecorder::FoldCommittedRead(std::uint32_t node,
                                        const AccessEvent& e) {
  EntityLog& log = Entity(e.entity);
  const auto& writers = log.writers;
  const std::uint64_t latest = log.latest;
  if (e.version > latest) {
    exact_ = false;  // read of a version nobody has published yet
    return;
  }
  // First writer past the version read; reads are almost always of the
  // latest version, so check the back before searching.
  auto next = writers.end();
  if (e.version < latest) {
    next = std::upper_bound(
        writers.begin(), writers.end(), e.version,
        [](std::uint64_t v, const auto& w) { return v < w.first; });
  }
  if (next != writers.begin() && std::prev(next)->first == e.version) {
    AddEdge(std::prev(next)->second, node);  // w -> r
  }
  if (next != writers.end()) {
    AddEdge(node, next->second);  // r -> w
  } else if (log.awaiting.empty() || log.awaiting.back() != node) {
    log.awaiting.push_back(node);
  }
}

void HistoryRecorder::AddEdge(std::uint32_t a, std::uint32_t b) {
  if (a == b) return;
  const Parked p{a, b, nodes_[a].gen, nodes_[b].gen};
  if (!nodes_[a].committed) {
    slots_[nodes_[a].slot].parked.push_back(p);
  } else if (!nodes_[b].committed) {
    slots_[nodes_[b].slot].parked.push_back(p);
  } else {
    Insert(a, b);
  }
}

void HistoryRecorder::Insert(std::uint32_t a, std::uint32_t b) {
  // A commit tends to repeat its edges (a writer it read twice and also
  // overwrote); the latest arc at either end catches those repeats.
  if ((nodes_[a].out != kNone && arcs_[nodes_[a].out].to == b) ||
      (nodes_[b].in != kNone && arcs_[nodes_[b].in].from == a)) {
    return;
  }
  std::uint32_t arc;
  if (free_arcs_.empty()) {
    arc = static_cast<std::uint32_t>(arcs_.size());
    arcs_.emplace_back();
  } else {
    arc = free_arcs_.back();
    free_arcs_.pop_back();
  }
  arcs_[arc] = Arc{a, b, nodes_[a].out, nodes_[b].in};
  nodes_[a].out = arc;
  nodes_[b].in = arc;
  ++nodes_[b].preds;
  const std::uint32_t lb = nodes_[b].ord;
  const std::uint32_t ub = nodes_[a].ord;
  if (cyclic_ || ub < lb) return;  // verdict final, or already in order

  // Pearce–Kelly: the nodes reachable from b that sit at or before a, and
  // the nodes reaching a that sit at or after b, swap into one order.
  ++epoch_;
  delta_f_.clear();
  stack_.assign(1, b);
  nodes_[b].mark = epoch_;
  while (!stack_.empty()) {
    const std::uint32_t v = stack_.back();
    stack_.pop_back();
    delta_f_.push_back(v);
    for (std::uint32_t i = nodes_[v].out; i != kNone; i = arcs_[i].next_out) {
      const std::uint32_t w = arcs_[i].to;
      if (w == a) {
        cyclic_ = true;
        return;
      }
      if (nodes_[w].mark != epoch_ && nodes_[w].ord < ub) {
        nodes_[w].mark = epoch_;
        stack_.push_back(w);
      }
    }
  }
  delta_b_.clear();
  stack_.assign(1, a);
  nodes_[a].mark = epoch_;
  while (!stack_.empty()) {
    const std::uint32_t v = stack_.back();
    stack_.pop_back();
    delta_b_.push_back(v);
    for (std::uint32_t i = nodes_[v].in; i != kNone; i = arcs_[i].next_in) {
      const std::uint32_t w = arcs_[i].from;
      if (w == kNone) continue;  // from a pruned node
      if (nodes_[w].mark != epoch_ && nodes_[w].ord > lb) {
        nodes_[w].mark = epoch_;
        stack_.push_back(w);
      }
    }
  }
  auto by_ord = [this](std::uint32_t x, std::uint32_t y) {
    return nodes_[x].ord < nodes_[y].ord;
  };
  std::sort(delta_b_.begin(), delta_b_.end(), by_ord);
  std::sort(delta_f_.begin(), delta_f_.end(), by_ord);
  pool_.clear();
  for (std::uint32_t v : delta_b_) pool_.push_back(nodes_[v].ord);
  for (std::uint32_t v : delta_f_) pool_.push_back(nodes_[v].ord);
  std::sort(pool_.begin(), pool_.end());
  std::size_t i = 0;
  for (std::uint32_t v : delta_b_) nodes_[v].ord = pool_[i++];
  for (std::uint32_t v : delta_f_) nodes_[v].ord = pool_[i++];
}

std::uint64_t HistoryRecorder::OldestLiveBegin() const {
  return live_order_.empty() ? ~std::uint64_t{0}
                             : nodes_[live_order_.front().first].begin_tick;
}

bool HistoryRecorder::NodePrunable(std::uint32_t node) const {
  const Node& n = nodes_[node];
  return n.committed && n.preds == 0 && n.commit_tick < OldestLiveBegin();
}

bool HistoryRecorder::Prunable(TxnId txn) const {
  const std::uint32_t node = node_of_.Find(txn.value());
  return exact_ && node != IdSlots::kNone && NodePrunable(node);
}

void HistoryRecorder::Pin(TxnId txn) {
  const std::uint32_t node = node_of_.Find(txn.value());
  if (node != IdSlots::kNone) nodes_[node].pinned = true;
}

bool HistoryRecorder::PruneTxn(TxnId txn) {
  if (!Prunable(txn)) return false;
  PruneCascading(node_of_.Find(txn.value()));
  return true;
}

void HistoryRecorder::PruneCascading(std::uint32_t node) {
  cascade_.assign(1, node);
  while (!cascade_.empty()) {
    const std::uint32_t next = cascade_.back();
    cascade_.pop_back();
    PruneNode(next);
  }
}

std::size_t HistoryRecorder::Prune() {
  if (!exact_) return 0;
  const std::uint64_t before = pruned_;
  const std::uint64_t oldest = OldestLiveBegin();
  // Commit order: once one fails (a), every later one does too.
  std::size_t kept = 0, i = 0;
  for (; i < retained_.size(); ++i) {
    const auto [node, gen] = retained_[i];
    if (nodes_[node].gen != gen) continue;  // pruned by a cascade
    if (nodes_[node].commit_tick >= oldest) break;
    if (!nodes_[node].pinned && nodes_[node].preds == 0) {
      PruneCascading(node);
      continue;
    }
    retained_[kept++] = retained_[i];
  }
  retained_.erase(retained_.begin() + static_cast<std::ptrdiff_t>(kept),
                  retained_.begin() + static_cast<std::ptrdiff_t>(i));
  return static_cast<std::size_t>(pruned_ - before);
}

void HistoryRecorder::PruneNode(std::uint32_t node) {
  Node& n = nodes_[node];
  // Every arc in comes from a pruned node (preds == 0): free them.
  for (std::uint32_t i = n.in; i != kNone;) {
    const std::uint32_t next = arcs_[i].next_in;
    arcs_[i].from = arcs_[i].to = kNone;
    free_arcs_.push_back(i);
    i = next;
  }
  // Arcs out die; each successor loses a predecessor.
  const std::uint64_t oldest = OldestLiveBegin();
  for (std::uint32_t i = n.out; i != kNone; i = arcs_[i].next_out) {
    const std::uint32_t w = arcs_[i].to;
    arcs_[i].from = kNone;
    Node& succ = nodes_[w];
    if (--succ.preds == 0 && succ.committed && !succ.pinned &&
        succ.commit_tick < oldest) {
      cascade_.push_back(w);
    }
  }
  // Its entity versions and its place among awaiting readers. A pruned
  // writer's version can still be read by a live transaction; the read
  // then simply gets no arc from it.
  const CommittedRange& range = committed_[n.range - ranges_base_];
  for (std::size_t k = range.begin; k < range.end; ++k) {
    const AccessEvent& e = committed_events_[k - log_base_];
    EntityLog& log = Entity(e.entity);
    if (e.is_write) {
      auto it = std::lower_bound(
          log.writers.begin(), log.writers.end(), e.version,
          [](const auto& w, std::uint64_t v) { return w.first < v; });
      if (it != log.writers.end() && it->second == node) log.writers.erase(it);
    } else {
      auto it = std::find(log.awaiting.begin(), log.awaiting.end(), node);
      if (it != log.awaiting.end()) log.awaiting.erase(it);
    }
  }
  node_of_.Erase(n.txn.value());
  n.committed = false;
  n.in = n.out = kNone;
  ++n.gen;
  ++pruned_;
  // Drop the log's pruned prefix.
  while (!committed_.empty() &&
         node_of_.Find(committed_.front().txn.value()) == IdSlots::kNone) {
    const std::size_t events =
        committed_.front().end - committed_.front().begin;
    committed_events_.erase(committed_events_.begin(),
                            committed_events_.begin() +
                                static_cast<std::ptrdiff_t>(events));
    log_base_ += events;
    committed_.pop_front();
    ++ranges_base_;
  }
}

std::vector<HistoryRecorder::CommittedTxn> HistoryRecorder::CommittedLog()
    const {
  std::vector<CommittedTxn> out;
  out.reserve(committed_.size());
  for (const CommittedRange& r : committed_) {
    if (pruned_ > 0 && node_of_.Find(r.txn.value()) == IdSlots::kNone) {
      continue;
    }
    out.push_back(CommittedTxn{
        r.txn, r.entry,
        std::vector<AccessEvent>(
            committed_events_.begin() + (r.begin - log_base_),
            committed_events_.begin() + (r.end - log_base_))});
  }
  std::sort(out.begin(), out.end(),
            [](const CommittedTxn& a, const CommittedTxn& b) {
              return a.txn < b.txn;
            });
  return out;
}

std::map<std::uint64_t, std::vector<std::uint64_t>>
HistoryRecorder::BuildPrecedence() const {
  // Flatten the committed projection and let the shared single-sort
  // builder do the rest. kMaxKey reproduces the historical
  // last-assignment-wins on duplicate publishes (the committed log used to
  // be a txn-ordered map, so the largest txn id won).
  std::vector<precedence::FlatAccess> acc;
  acc.reserve(committed_events_.size());
  std::vector<std::uint64_t> keys;
  keys.reserve(committed_.size());
  for (const CommittedRange& r : committed_) {
    if (pruned_ > 0 && node_of_.Find(r.txn.value()) == IdSlots::kNone) {
      continue;
    }
    keys.push_back(r.txn.value());
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const AccessEvent& e = committed_events_[i - log_base_];
      acc.push_back(precedence::FlatAccess{r.txn.value(), e.entity.value(),
                                           e.version, e.is_write});
    }
  }
  return precedence::BuildPrecedenceFlat(std::move(acc), keys,
                                         precedence::WriterTieBreak::kMaxKey,
                                         nullptr);
}

bool HistoryRecorder::IsConflictSerializable() const {
  if (violations_ > 0) return false;
  if (certifier_exact()) return !cyclic_;
  if (pruned_ > 0 && !exact_) return false;
  return precedence::FindCycleFlat(BuildPrecedence()).empty();
}

std::vector<TxnId> HistoryRecorder::WitnessCycle() const {
  std::vector<TxnId> out;
  for (std::uint64_t v : precedence::FindCycleFlat(BuildPrecedence())) {
    out.push_back(TxnId(v));
  }
  return out;
}

Result<std::vector<TxnId>> HistoryRecorder::SerialOrder() const {
  auto g = BuildPrecedence();
  // Kahn topological sort, smallest id first for determinism.
  std::map<std::uint64_t, std::size_t> indeg;
  for (const auto& [v, _] : g) indeg[v] = 0;
  for (const auto& [v, nbrs] : g) {
    (void)v;
    for (std::uint64_t u : nbrs) ++indeg[u];
  }
  std::set<std::uint64_t> ready;
  for (const auto& [v, d] : indeg) {
    if (d == 0) ready.insert(v);
  }
  std::vector<TxnId> order;
  while (!ready.empty()) {
    std::uint64_t v = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(TxnId(v));
    for (std::uint64_t u : g.at(v)) {
      if (--indeg[u] == 0) ready.insert(u);
    }
  }
  if (order.size() != g.size()) {
    return Status::FailedPrecondition(
        "history is not conflict-serializable; no serial order exists");
  }
  return order;
}

}  // namespace pardb::analysis
