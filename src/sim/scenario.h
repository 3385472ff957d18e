#ifndef PARDB_SIM_SCENARIO_H_
#define PARDB_SIM_SCENARIO_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"

namespace pardb::sim {

// Drives an Engine along a scripted interleaving, entity by entity and
// transaction by transaction — how the paper's worked figures are
// reproduced exactly (state indices and all).
class ScenarioRunner {
 public:
  explicit ScenarioRunner(core::EngineOptions options);

  // The engine holds the addresses of the store, recorder and sink below.
  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  // Registers a named entity (created on first use).
  EntityId AddEntity(const std::string& name, Value initial = 0);
  EntityId entity(const std::string& name) const;

  Result<TxnId> Spawn(txn::Program program);

  // Executes exactly one op of txn.
  Result<core::StepOutcome> StepOne(TxnId txn);
  // Steps txn until its program counter reaches `pc` (all ops must
  // complete without blocking).
  Status StepUntilPc(TxnId txn, StateIndex pc);
  // Steps txn until it blocks, rolls back, or commits; returns the final
  // outcome.
  Result<core::StepOutcome> StepUntilBlocked(TxnId txn, int limit = 100000);
  // Runs every transaction to completion with the engine scheduler.
  Status FinishAll(std::uint64_t max_steps = 1'000'000);

  core::Engine& engine() { return *engine_; }
  storage::EntityStore& store() { return store_; }
  analysis::HistoryRecorder& recorder() { return recorder_; }
  // The forensic dump of every deadlock the engine resolved (up to 4096),
  // in resolution order: participants with their §3.1 prices, the first
  // cycle's arcs and the victims.
  const obs::CollectingDeadlockSink& deadlocks() const { return deadlocks_; }

 private:
  storage::EntityStore store_;
  analysis::HistoryRecorder recorder_;
  obs::CollectingDeadlockSink deadlocks_{4096};
  std::unique_ptr<core::Engine> engine_;
  std::map<std::string, EntityId> names_;
  std::uint64_t next_entity_ = 0;
};

// ---------------------------------------------------------------------------
// Paper Figure 1(a) — the exclusive-lock deadlock with rollback costs
// 4 (T2), 6 (T3) and 5 (T4).
//
//   T2 locked b on the transition from its 8th state and requests e from
//   state 12; T3 locked c from state 5 and requests b from state 11; T4
//   locked e from state 10 and requests c from state 15; T1 waits for b
//   (requested from its state 3). Stepping T2 once (TriggerDeadlock) makes
//   it request e, closing the cycle T2 -> T3 -> T4 -> T2.
// ---------------------------------------------------------------------------
struct Figure1Scenario {
  std::unique_ptr<ScenarioRunner> runner;
  TxnId t1, t2, t3, t4;
  EntityId b, c, e, f;

  // Steps T2 so it requests e and the deadlock is detected and resolved.
  Result<core::StepOutcome> TriggerDeadlock();
};

// `options` should use exclusive-lock-only semantics; the victim policy
// under test decides the outcome (the paper uses min-cost). `txnlife`
// (optional, borrowed) is attached before the transactions spawn, so the
// book sees the full admit-to-resolution lifecycle.
Result<Figure1Scenario> BuildFigure1(core::EngineOptions options,
                                     obs::TxnLifeBook* txnlife = nullptr);

// ---------------------------------------------------------------------------
// Paper Figure 2 — potentially infinite mutual preemption.
//
// Continues the Figure 1 scenario after T2's rollback exactly as the paper
// describes: T1 runs to completion, T3 acquires b and requests f (held by
// T2 since its state 4), producing a second deadlock whose resolution
// recreates the Figure 1(a) configuration of T2, T3 and T4 — and so on,
// indefinitely, under the unconstrained min-cost policy. Under the
// Theorem 2 ordered policy the very first resolution preempts a younger
// transaction instead and every transaction commits.
// ---------------------------------------------------------------------------
struct Figure2Outcome {
  std::unique_ptr<ScenarioRunner> runner;
  TxnId t1, t2, t3, t4;
  // Victim of each deadlock resolution, in order.
  std::vector<TxnId> victims;
  // Number of times the exact Figure 1(a) configuration recurred after the
  // initial occurrence.
  int recurrences = 0;
  // True when the adversarial schedule kept the T2/T3 alternation going
  // for every requested round (min-cost); false when a resolution broke
  // the pattern (ordered policy), in which case the scenario was simply
  // run to completion.
  bool pattern_sustained = false;
  bool all_committed = false;
};

// Runs the alternation for `rounds` rounds (each round = two deadlocks)
// under `options`' victim policy. `lineage` and `txnlife` (optional,
// borrowed) are attached to the engine before the first deadlock, so the
// preemption chains behind pardb_preemption_chain_len and the D13
// per-transaction timelines can be asserted against the paper's exact
// Figure 2 schedule.
Result<Figure2Outcome> RunFigure2MutualPreemption(
    core::EngineOptions options, int rounds,
    obs::LineageTracker* lineage = nullptr,
    obs::TxnLifeBook* txnlife = nullptr);

// ---------------------------------------------------------------------------
// Paper Figure 3 — concurrency graphs with shared and exclusive locks.
// ---------------------------------------------------------------------------

// 3(a): acyclic but not a forest. T1 X-holds a and S-holds c; T2 S-holds c
// and waits for a; T3 X-requests c and waits for both T1 and T2. No
// deadlock.
struct Figure3aScenario {
  std::unique_ptr<ScenarioRunner> runner;
  TxnId t1, t2, t3;
  EntityId a, c;
};
Result<Figure3aScenario> BuildFigure3a(core::EngineOptions options);

// 3(b): one request closes two cycles; {T1} and {T2} are both cuts.
// T2 S-holds e then waits for a (X-held by T1); T3 S-holds e then waits
// for b (X-held by T2); T1's X request on e closes
// T1->T2->T1 and T1->T2->T3->T1.
struct Figure3bScenario {
  std::unique_ptr<ScenarioRunner> runner;
  TxnId t1, t2, t3;
  EntityId a, b, e;
  Result<core::StepOutcome> TriggerDeadlock();  // T1 requests e
};
Result<Figure3bScenario> BuildFigure3b(core::EngineOptions options);

// 3(c): T1's X request on f (S-held by T2 and T3) closes two cycles whose
// only single-vertex cut is {T1}; otherwise both T2 and T3 must roll back.
// T2 waits for x (X-held by T1); T3 waits for y (X-held by T1).
struct Figure3cScenario {
  std::unique_ptr<ScenarioRunner> runner;
  TxnId t1, t2, t3;
  EntityId x, y, f;
  Result<core::StepOutcome> TriggerDeadlock();  // T1 requests f
};
Result<Figure3cScenario> BuildFigure3c(core::EngineOptions options);

// ---------------------------------------------------------------------------
// Paper Figures 4 and 5 — transaction structure and well-defined states.
// ---------------------------------------------------------------------------

// A 6-lock transaction with scattered writes whose interior lock states are
// all undefined (Figure 4's T_1). When `omit_second_var_write` is true the
// C <- K-style op is deleted, making lock states 4 and 5 well-defined —
// the paper's point that one write can destroy many states.
txn::Program MakeFigure4Program(const std::vector<EntityId>& entities,
                                bool omit_second_var_write);

// The same operations clustered per entity (Figure 5's T_2): every lock
// state is well-defined.
txn::Program MakeFigure5Program(const std::vector<EntityId>& entities);

}  // namespace pardb::sim

#endif  // PARDB_SIM_SCENARIO_H_
