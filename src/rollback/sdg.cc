#include "rollback/sdg.h"

#include <algorithm>
#include <cassert>

#include "rollback/plan.h"

namespace pardb::rollback {

void StateDependencyGraph::AddLockState(LockIndex q) {
  if (q + 1 > num_states_) num_states_ = q + 1;
  if (covered_.size() < num_states_) covered_.resize(num_states_, 0);
}

void StateDependencyGraph::RecordWrite(LockIndex u, LockIndex m) {
  assert(u <= m);
  assert(write_log_.empty() || write_log_.back().m <= m);
  write_log_.push_back(WriteRecord{u, m});
  if (m > 0 && covered_.size() < m) covered_.resize(m, 0);
  for (LockIndex q = u + 1; q < m; ++q) ++covered_[q];
}

void StateDependencyGraph::RewindTo(LockIndex q) {
  while (!write_log_.empty() && write_log_.back().m > q) {
    const WriteRecord& w = write_log_.back();
    for (LockIndex i = w.u + 1; i < w.m; ++i) --covered_[i];
    write_log_.pop_back();
  }
  if (num_states_ > q + 1) num_states_ = q + 1;
}

bool StateDependencyGraph::IsWellDefined(LockIndex q) const {
  // q == num_states_ is the transaction's current point — trivially
  // recreatable (nothing to undo). Larger indices do not exist.
  if (q > num_states_) return false;
  if (q == num_states_) return true;
  if (q >= covered_.size()) return true;
  return covered_[q] == 0;
}

LockIndex StateDependencyGraph::LatestWellDefinedAtOrBefore(
    LockIndex target) const {
  LockIndex q = std::min<LockIndex>(target, num_states_);
  for (;; --q) {
    if (IsWellDefined(q) || q == 0) return q;
  }
}

std::vector<LockIndex> StateDependencyGraph::WellDefinedStates() const {
  std::vector<LockIndex> out;
  for (LockIndex q = 0; q < num_states_; ++q) {
    if (IsWellDefined(q)) out.push_back(q);
  }
  return out;
}

graph::UndirectedGraph StateDependencyGraph::ToUndirectedGraph() const {
  graph::UndirectedGraph g;
  for (LockIndex q = 0; q < num_states_; ++q) {
    g.AddVertex(q);
    if (q > 0) g.AddEdge(q - 1, q);
  }
  for (const WriteRecord& w : write_log_) {
    // Chords may reference lock index m == num_states_ (writes after the
    // most recent lock state); clamp to the existing vertex range so the
    // exported figure matches the paper's drawings, while the coverage
    // structure retains the full interval.
    LockIndex m = std::min<LockIndex>(w.m, num_states_ ? num_states_ - 1 : 0);
    if (w.u != m) g.AddEdge(w.u, m);
  }
  return g;
}

StateDependencyGraph BuildSdgForProgram(const txn::Program& program) {
  StateDependencyGraph sdg;
  // Lock states 0..p-1 for p lock requests; state 0 exists regardless.
  const LockIndex p = program.NumLockRequests();
  sdg.AddLockState(p == 0 ? 0 : p - 1);
  for (const WriteChord& c : WriteChords(program)) sdg.RecordWrite(c.u, c.m);
  return sdg;
}

}  // namespace pardb::rollback
