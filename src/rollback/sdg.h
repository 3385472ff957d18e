#ifndef PARDB_ROLLBACK_SDG_H_
#define PARDB_ROLLBACK_SDG_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "graph/undirected.h"
#include "txn/program.h"

namespace pardb::rollback {

// The paper's state-dependency graph (§4): vertices are the lock states
// 0..p of one transaction, connected in a path (consecutive lock states),
// plus one chord {u, m} per write operation, where m is the write's lock
// index and u is the written object's *index of restorability* — the last
// lock state at which the object's pre-first-write value was still intact
// (u = first write's lock index - 1; see DESIGN.md for the convention).
//
// Theorem 4 / Corollary 1: a lock state q is *well-defined* (recreatable
// from the single local copy kept per object) iff no chord straddles it,
// i.e. there is no recorded write with u < q < m — equivalently, q is an
// articulation point of the graph (or one of the trivial endpoints).
//
// This class implements the query with interval coverage counts, which is
// exactly equivalent to the articulation-point formulation (cross-checked
// in tests via ToUndirectedGraph()). The engine never builds one: it reads
// the same answer from the transaction's RollbackPlan (rollback/plan.h).
// The graph renders Figures 4 and 5 and is the plan's test oracle.
class StateDependencyGraph {
 public:
  StateDependencyGraph() = default;

  // Notes that lock state `q` now exists (monotone; called at each granted
  // lock request with q = its lock state index).
  void AddLockState(LockIndex q);

  // Records a write at lock index `m` to an object whose index of
  // restorability is `u` (u <= m). Writes must be recorded in execution
  // order, so m is non-decreasing across calls.
  void RecordWrite(LockIndex u, LockIndex m);

  // Undoes every write recorded at a lock index > q and forgets lock
  // states > q (rollback support).
  void RewindTo(LockIndex q);

  // True iff lock state q can be recreated. States that do not exist yet
  // are reported as not well-defined.
  bool IsWellDefined(LockIndex q) const;

  // Greatest well-defined lock state <= target. Lock state 0 is always
  // well-defined (no writes precede the first lock request), so the result
  // is always valid.
  LockIndex LatestWellDefinedAtOrBefore(LockIndex target) const;

  // All well-defined lock states, ascending.
  std::vector<LockIndex> WellDefinedStates() const;

  // Number of existing lock states (vertices 0..NumLockStates()-1).
  std::size_t NumLockStates() const { return num_states_; }
  std::size_t NumRecordedWrites() const { return write_log_.size(); }

  // Exports the literal paper graph: path edges between consecutive lock
  // states plus one chord per recorded write. Used for cross-validation
  // against ArticulationPoints() and for rendering Figures 4 and 5.
  graph::UndirectedGraph ToUndirectedGraph() const;

 private:
  struct WriteRecord {
    LockIndex u;
    LockIndex m;
  };

  std::size_t num_states_ = 0;  // lock states 0..num_states_-1 exist
  std::vector<WriteRecord> write_log_;  // m non-decreasing
  // covered_[q] = number of chords with u < q < m.
  std::vector<std::uint32_t> covered_;
};

// Builds the state-dependency graph a transaction running `program` alone
// to completion would have at its final lock state: one lock state per
// lock request and one chord per write, from rollback::WriteChords — the
// chords a kSdg RollbackPlan compiles into its restorable rule. This is
// how the paper analyses transaction *structure* (Figures 4 and 5)
// independently of any interleaving.
StateDependencyGraph BuildSdgForProgram(const txn::Program& program);

}  // namespace pardb::rollback

#endif  // PARDB_ROLLBACK_SDG_H_
