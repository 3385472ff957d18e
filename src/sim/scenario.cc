#include "sim/scenario.h"

#include <cassert>

namespace pardb::sim {

namespace {

using core::EngineOptions;
using core::StepOutcome;
using txn::ArithOp;
using txn::Operand;
using txn::ProgramBuilder;

// Filler op advancing the state index by one without touching entities.
void AddFiller(ProgramBuilder& b, int count) {
  for (int i = 0; i < count; ++i) {
    b.Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(1));
  }
}

// The figure scenarios reproduce the paper's exact concurrency graphs,
// which assume its §2 grant rule: compatibility with current holders only,
// so waits-for arcs come from holders alone.
EngineOptions PaperModel(EngineOptions options) {
  options.lock_options.fifo_fairness = false;
  return options;
}

}  // namespace

ScenarioRunner::ScenarioRunner(core::EngineOptions options)
    : engine_(std::make_unique<core::Engine>(&store_, options, &recorder_)) {
  engine_->set_forensics(&deadlocks_);
}

EntityId ScenarioRunner::AddEntity(const std::string& name, Value initial) {
  auto it = names_.find(name);
  if (it != names_.end()) return it->second;
  EntityId id(next_entity_++);
  Status s = store_.Create(id, initial);
  assert(s.ok());
  (void)s;
  names_[name] = id;
  return id;
}

EntityId ScenarioRunner::entity(const std::string& name) const {
  auto it = names_.find(name);
  return it == names_.end() ? EntityId() : it->second;
}

Result<TxnId> ScenarioRunner::Spawn(txn::Program program) {
  return engine_->Spawn(std::move(program));
}

Result<core::StepOutcome> ScenarioRunner::StepOne(TxnId txn) {
  return engine_->StepTxn(txn);
}

Status ScenarioRunner::StepUntilPc(TxnId txn, StateIndex pc) {
  int guard = 1000000;
  while (engine_->StateIndexOf(txn) < pc) {
    if (--guard < 0) return Status::Internal("StepUntilPc did not converge");
    auto r = engine_->StepTxn(txn);
    if (!r.ok()) return r.status();
    if (r.value() != StepOutcome::kExecuted) {
      return Status::FailedPrecondition(
          "transaction blocked/finished before reaching target pc");
    }
  }
  return Status::OK();
}

Result<core::StepOutcome> ScenarioRunner::StepUntilBlocked(TxnId txn,
                                                           int limit) {
  for (int i = 0; i < limit; ++i) {
    auto r = engine_->StepTxn(txn);
    if (!r.ok()) return r;
    if (r.value() != StepOutcome::kExecuted) return r;
  }
  return Status::Internal("StepUntilBlocked did not converge");
}

Status ScenarioRunner::FinishAll(std::uint64_t max_steps) {
  return engine_->RunToCompletion(max_steps);
}

// --------------------------------------------------------------------------
// Figure 1
// --------------------------------------------------------------------------

Result<core::StepOutcome> Figure1Scenario::TriggerDeadlock() {
  return runner->StepOne(t2);
}

Result<Figure1Scenario> BuildFigure1(core::EngineOptions options,
                                     obs::TxnLifeBook* txnlife) {
  options = PaperModel(options);
  Figure1Scenario fig;
  fig.runner = std::make_unique<ScenarioRunner>(options);
  ScenarioRunner& r = *fig.runner;
  if (txnlife != nullptr) r.engine().set_txnlife(txnlife);

  const EntityId h1 = r.AddEntity("h1");
  const EntityId h2 = r.AddEntity("h2");
  const EntityId h3 = r.AddEntity("h3");
  const EntityId h4 = r.AddEntity("h4");
  fig.b = r.AddEntity("b");
  fig.c = r.AddEntity("c");
  fig.e = r.AddEntity("e");
  fig.f = r.AddEntity("f");

  // T2: locks f from state 4 (used by the Figure 2 continuation), b on the
  // transition from state 8, and requests e from state 12.
  ProgramBuilder b2("T2", 1);
  b2.LockExclusive(h2);       // op 0
  AddFiller(b2, 3);           // ops 1..3
  b2.LockExclusive(fig.f);    // op 4 — "T2 holds a lock on f requested
                              // from its state 4" (Figure 2)
  AddFiller(b2, 3);           // ops 5..7
  b2.LockExclusive(fig.b);    // op 8
  AddFiller(b2, 3);           // ops 9..11
  b2.LockExclusive(fig.e);    // op 12 — the request that closes the cycle
  b2.WriteImm(fig.b, 20);
  b2.WriteImm(fig.e, 21);
  b2.Commit();

  // T3: locks c from state 5, requests b from state 11, and (Figure 2)
  // requests f from state 14.
  ProgramBuilder b3("T3", 1);
  b3.LockExclusive(h3);       // op 0
  AddFiller(b3, 4);           // 1..4
  b3.LockExclusive(fig.c);    // op 5
  AddFiller(b3, 5);           // 6..10
  b3.LockExclusive(fig.b);    // op 11
  AddFiller(b3, 2);           // 12..13
  b3.LockExclusive(fig.f);    // op 14 — "T3 requests entity f from its
                              // 14th state" (Figure 2)
  b3.WriteImm(fig.c, 30);
  b3.Commit();

  // T4: locks e from state 10, requests c from state 15.
  ProgramBuilder b4("T4", 1);
  b4.LockExclusive(h4);       // op 0
  AddFiller(b4, 9);           // 1..9
  b4.LockExclusive(fig.e);    // op 10
  AddFiller(b4, 4);           // 11..14
  b4.LockExclusive(fig.c);    // op 15
  b4.WriteImm(fig.e, 40);
  b4.Commit();

  // T1: requests b from state 3.
  ProgramBuilder b1("T1", 1);
  b1.LockExclusive(h1);       // op 0
  AddFiller(b1, 2);           // 1..2
  b1.LockExclusive(fig.b);    // op 3
  b1.WriteImm(fig.b, 10);
  b1.Commit();

  auto p1 = std::move(b1).Build();
  auto p2 = std::move(b2).Build();
  auto p3 = std::move(b3).Build();
  auto p4 = std::move(b4).Build();
  if (!p1.ok()) return p1.status();
  if (!p2.ok()) return p2.status();
  if (!p3.ok()) return p3.status();
  if (!p4.ok()) return p4.status();

  // Spawn in name order so entry timestamps follow transaction numbers.
  PARDB_ASSIGN_OR_RETURN(fig.t1, r.Spawn(std::move(p1).value()));
  PARDB_ASSIGN_OR_RETURN(fig.t2, r.Spawn(std::move(p2).value()));
  PARDB_ASSIGN_OR_RETURN(fig.t3, r.Spawn(std::move(p3).value()));
  PARDB_ASSIGN_OR_RETURN(fig.t4, r.Spawn(std::move(p4).value()));

  // Interleaving: T2 acquires b and stops just before requesting e; T1
  // queues on b first (so it is granted b after T2's rollback, as in
  // Figure 1(b)); then T3 queues on b; T4 queues on c.
  PARDB_RETURN_IF_ERROR(r.StepUntilPc(fig.t2, 12));
  PARDB_RETURN_IF_ERROR(r.StepUntilPc(fig.t1, 3));
  auto blocked1 = r.StepOne(fig.t1);
  if (!blocked1.ok()) return blocked1.status();
  if (blocked1.value() != StepOutcome::kBlocked) {
    return Status::Internal("T1 should block on b");
  }
  PARDB_RETURN_IF_ERROR(r.StepUntilPc(fig.t3, 11));
  auto blocked3 = r.StepOne(fig.t3);
  if (!blocked3.ok()) return blocked3.status();
  if (blocked3.value() != StepOutcome::kBlocked) {
    return Status::Internal("T3 should block on b");
  }
  PARDB_RETURN_IF_ERROR(r.StepUntilPc(fig.t4, 15));
  auto blocked4 = r.StepOne(fig.t4);
  if (!blocked4.ok()) return blocked4.status();
  if (blocked4.value() != StepOutcome::kBlocked) {
    return Status::Internal("T4 should block on c");
  }
  return fig;
}

// --------------------------------------------------------------------------
// Figure 2
// --------------------------------------------------------------------------

Result<Figure2Outcome> RunFigure2MutualPreemption(core::EngineOptions options,
                                                  int rounds,
                                                  obs::LineageTracker* lineage,
                                                  obs::TxnLifeBook* txnlife) {
  Figure2Outcome out;
  auto fig = BuildFigure1(options, txnlife);
  if (!fig.ok()) return fig.status();
  out.t1 = fig->t1;
  out.t2 = fig->t2;
  out.t3 = fig->t3;
  out.t4 = fig->t4;
  ScenarioRunner& r = *fig->runner;
  core::Engine& eng = r.engine();
  if (lineage != nullptr) eng.set_lineage(lineage);

  auto LastVictims = [&]() -> std::vector<TxnId> {
    if (r.deadlocks().dumps().empty()) return {};
    return r.deadlocks().dumps().back().victims;
  };
  auto FinishBroken = [&](Status* status) {
    out.pattern_sustained = false;
    *status = r.FinishAll();
    out.all_committed = status->ok() && eng.AllCommitted();
  };

  // Deadlock 1: the Figure 1(a) cycle.
  auto trig = fig->TriggerDeadlock();
  if (!trig.ok()) return trig.status();
  out.victims = LastVictims();
  if (out.victims != std::vector<TxnId>{fig->t2}) {
    // A different victim (e.g. the ordered policy preempting T4): the
    // alternation never starts; everything simply commits.
    Status s;
    FinishBroken(&s);
    if (!s.ok()) return s;
    out.runner = std::move(fig->runner);
    return out;
  }

  // T2 re-requests b (now held by T1, with T3 queued ahead of T2).
  auto w2 = r.StepOne(fig->t2);
  if (!w2.ok()) return w2.status();
  // T1 executes to completion, handing b to T3 ("T1, T5 and T6
  // subsequently execute to completion").
  auto done1 = r.StepUntilBlocked(fig->t1);
  if (!done1.ok()) return done1.status();
  if (done1.value() != core::StepOutcome::kCommitted) {
    return Status::Internal("T1 failed to commit in the Figure 2 prologue");
  }
  // Deadlock 2: T3 runs up to its 14th state and requests f, which T2 has
  // held since its state 4.
  auto o3 = r.StepUntilBlocked(fig->t3);
  if (!o3.ok()) return o3.status();
  auto v2 = LastVictims();
  out.victims.insert(out.victims.end(), v2.begin(), v2.end());
  if (v2 != std::vector<TxnId>{fig->t3}) {
    Status s;
    FinishBroken(&s);
    if (!s.ok()) return s;
    out.runner = std::move(fig->runner);
    return out;
  }

  // The alternation: each iteration recreates the exact Figure 1(a)
  // configuration (T2 holds b waiting for e; T3 holds c waiting for b; T4
  // holds e waiting for c) and resolves it the same way, forever.
  out.pattern_sustained = true;
  for (int round = 0; round < rounds; ++round) {
    auto w3 = r.StepOne(fig->t3);  // T3 re-requests b (held by T2)
    if (!w3.ok()) return w3.status();
    auto o2 = r.StepUntilBlocked(fig->t2);  // T2 reaches e: deadlock 1 again
    if (!o2.ok()) return o2.status();
    if (LastVictims() != std::vector<TxnId>{fig->t2}) {
      out.pattern_sustained = false;
      break;
    }
    out.victims.push_back(fig->t2);
    ++out.recurrences;
    auto w2b = r.StepOne(fig->t2);  // T2 re-requests b (held by T3)
    if (!w2b.ok()) return w2b.status();
    auto o3b = r.StepUntilBlocked(fig->t3);  // T3 reaches f: deadlock 2 again
    if (!o3b.ok()) return o3b.status();
    if (LastVictims() != std::vector<TxnId>{fig->t3}) {
      out.pattern_sustained = false;
      break;
    }
    out.victims.push_back(fig->t3);
  }
  out.all_committed = eng.AllCommitted();
  out.runner = std::move(fig->runner);
  return out;
}

// --------------------------------------------------------------------------
// Figure 3
// --------------------------------------------------------------------------

Result<Figure3aScenario> BuildFigure3a(core::EngineOptions options) {
  options = PaperModel(options);
  Figure3aScenario fig;
  fig.runner = std::make_unique<ScenarioRunner>(options);
  ScenarioRunner& r = *fig.runner;
  fig.a = r.AddEntity("a");
  fig.c = r.AddEntity("c");

  ProgramBuilder b1("T1", 1);
  b1.LockExclusive(fig.a).LockShared(fig.c);
  b1.WriteImm(fig.a, 1).Commit();
  ProgramBuilder b2("T2", 1);
  b2.LockShared(fig.c).LockShared(fig.a);
  b2.Read(fig.a, 0).Commit();
  ProgramBuilder b3("T3", 1);
  b3.LockExclusive(fig.c);
  b3.WriteImm(fig.c, 3).Commit();

  auto p1 = std::move(b1).Build();
  auto p2 = std::move(b2).Build();
  auto p3 = std::move(b3).Build();
  if (!p1.ok()) return p1.status();
  if (!p2.ok()) return p2.status();
  if (!p3.ok()) return p3.status();
  PARDB_ASSIGN_OR_RETURN(fig.t1, r.Spawn(std::move(p1).value()));
  PARDB_ASSIGN_OR_RETURN(fig.t2, r.Spawn(std::move(p2).value()));
  PARDB_ASSIGN_OR_RETURN(fig.t3, r.Spawn(std::move(p3).value()));

  PARDB_RETURN_IF_ERROR(r.StepUntilPc(fig.t1, 2));  // holds a(X), c(S)
  PARDB_RETURN_IF_ERROR(r.StepUntilPc(fig.t2, 1));  // holds c(S)
  auto w2 = r.StepOne(fig.t2);                      // waits for a
  if (!w2.ok()) return w2.status();
  if (w2.value() != StepOutcome::kBlocked) {
    return Status::Internal("T2 should block on a");
  }
  auto w3 = r.StepOne(fig.t3);  // X request on c: waits for T1 and T2
  if (!w3.ok()) return w3.status();
  if (w3.value() != StepOutcome::kBlocked) {
    return Status::Internal("T3 should block on c");
  }
  return fig;
}

Result<core::StepOutcome> Figure3bScenario::TriggerDeadlock() {
  return runner->StepOne(t1);
}

Result<Figure3bScenario> BuildFigure3b(core::EngineOptions options) {
  options = PaperModel(options);
  Figure3bScenario fig;
  fig.runner = std::make_unique<ScenarioRunner>(options);
  ScenarioRunner& r = *fig.runner;
  fig.a = r.AddEntity("a");
  fig.b = r.AddEntity("b");
  fig.e = r.AddEntity("e");

  ProgramBuilder b1("T1", 1);
  b1.LockExclusive(fig.a);  // op 0
  AddFiller(b1, 3);         // costs: T1 rollback over a is 4+ states
  b1.LockExclusive(fig.e);  // trigger op (pc 4)
  b1.WriteImm(fig.a, 1).Commit();

  ProgramBuilder b2("T2", 1);
  b2.LockShared(fig.e);      // op 0
  b2.LockExclusive(fig.b);   // op 1
  AddFiller(b2, 1);
  b2.LockShared(fig.a);      // op 3 — waits for T1
  b2.Read(fig.a, 0).Commit();

  ProgramBuilder b3("T3", 1);
  b3.LockShared(fig.e);   // op 0
  b3.LockShared(fig.b);   // op 1 — waits for T2
  b3.Read(fig.b, 0).Commit();

  auto p1 = std::move(b1).Build();
  auto p2 = std::move(b2).Build();
  auto p3 = std::move(b3).Build();
  if (!p1.ok()) return p1.status();
  if (!p2.ok()) return p2.status();
  if (!p3.ok()) return p3.status();
  PARDB_ASSIGN_OR_RETURN(fig.t1, r.Spawn(std::move(p1).value()));
  PARDB_ASSIGN_OR_RETURN(fig.t2, r.Spawn(std::move(p2).value()));
  PARDB_ASSIGN_OR_RETURN(fig.t3, r.Spawn(std::move(p3).value()));

  PARDB_RETURN_IF_ERROR(r.StepUntilPc(fig.t1, 4));  // holds a
  PARDB_RETURN_IF_ERROR(r.StepUntilPc(fig.t2, 3));  // holds e(S), b(X)
  auto w2 = r.StepOne(fig.t2);
  if (!w2.ok()) return w2.status();
  if (w2.value() != StepOutcome::kBlocked) {
    return Status::Internal("T2 should block on a");
  }
  PARDB_RETURN_IF_ERROR(r.StepUntilPc(fig.t3, 1));  // holds e(S)
  auto w3 = r.StepOne(fig.t3);
  if (!w3.ok()) return w3.status();
  if (w3.value() != StepOutcome::kBlocked) {
    return Status::Internal("T3 should block on b");
  }
  return fig;
}

Result<core::StepOutcome> Figure3cScenario::TriggerDeadlock() {
  return runner->StepOne(t1);
}

Result<Figure3cScenario> BuildFigure3c(core::EngineOptions options) {
  options = PaperModel(options);
  Figure3cScenario fig;
  fig.runner = std::make_unique<ScenarioRunner>(options);
  ScenarioRunner& r = *fig.runner;
  fig.x = r.AddEntity("x");
  fig.y = r.AddEntity("y");
  fig.f = r.AddEntity("f");

  ProgramBuilder b1("T1", 1);
  b1.LockExclusive(fig.x);  // op 0
  b1.LockExclusive(fig.y);  // op 1
  AddFiller(b1, 6);         // make T1's rollback expensive
  b1.LockExclusive(fig.f);  // trigger op (pc 8)
  b1.WriteImm(fig.x, 1).Commit();

  ProgramBuilder b2("T2", 1);
  b2.LockShared(fig.f);      // op 0
  b2.LockExclusive(fig.x);   // op 1 — waits for T1
  b2.Read(fig.f, 0).Commit();

  ProgramBuilder b3("T3", 1);
  b3.LockShared(fig.f);      // op 0
  b3.LockExclusive(fig.y);   // op 1 — waits for T1
  b3.Read(fig.f, 0).Commit();

  auto p1 = std::move(b1).Build();
  auto p2 = std::move(b2).Build();
  auto p3 = std::move(b3).Build();
  if (!p1.ok()) return p1.status();
  if (!p2.ok()) return p2.status();
  if (!p3.ok()) return p3.status();
  PARDB_ASSIGN_OR_RETURN(fig.t1, r.Spawn(std::move(p1).value()));
  PARDB_ASSIGN_OR_RETURN(fig.t2, r.Spawn(std::move(p2).value()));
  PARDB_ASSIGN_OR_RETURN(fig.t3, r.Spawn(std::move(p3).value()));

  PARDB_RETURN_IF_ERROR(r.StepUntilPc(fig.t1, 8));  // holds x, y
  PARDB_RETURN_IF_ERROR(r.StepUntilPc(fig.t2, 1));  // holds f(S)
  auto w2 = r.StepOne(fig.t2);
  if (!w2.ok()) return w2.status();
  if (w2.value() != StepOutcome::kBlocked) {
    return Status::Internal("T2 should block on x");
  }
  PARDB_RETURN_IF_ERROR(r.StepUntilPc(fig.t3, 1));  // holds f(S)
  auto w3 = r.StepOne(fig.t3);
  if (!w3.ok()) return w3.status();
  if (w3.value() != StepOutcome::kBlocked) {
    return Status::Internal("T3 should block on y");
  }
  return fig;
}

// --------------------------------------------------------------------------
// Figures 4 and 5
// --------------------------------------------------------------------------

txn::Program MakeFigure4Program(const std::vector<EntityId>& entities,
                                bool omit_second_var_write) {
  assert(entities.size() >= 6);
  const txn::VarId v0 = 0, v1 = 1, k = 2;
  ProgramBuilder b(omit_second_var_write ? "fig4-without-CK" : "fig4-T1", 3);
  b.LockExclusive(entities[0]);             // lock state 0; lock index -> 1
  b.Read(entities[0], v0);
  b.WriteVar(entities[0], v0);              // E0 first write @1 (u=0)
  b.LockExclusive(entities[1]);             // lock state 1; -> 2
  b.Read(entities[1], v1);
  b.WriteVar(entities[1], v1);              // E1 first write @2 (u=1)
  b.LockExclusive(entities[2]);             // lock state 2; -> 3
  b.WriteVar(entities[0], v0);              // E0 again @3: destroys 1..2
  b.Compute(k, txn::Operand::Var(k), ArithOp::kAdd,
            txn::Operand::Imm(1));          // K first write @3 (u=2)
  b.LockExclusive(entities[3]);             // lock state 3; -> 4
  b.WriteVar(entities[1], v1);              // E1 again @4: destroys 2..3
  b.LockExclusive(entities[4]);             // lock state 4; -> 5
  b.LockExclusive(entities[5]);             // lock state 5; -> 6
  if (!omit_second_var_write) {
    b.Compute(k, txn::Operand::Var(k), ArithOp::kAdd,
              txn::Operand::Imm(1));        // "C <- K" @6: destroys 3..5
  }
  b.WriteImm(entities[5], 1);               // E5 first write @6 (u=5)
  b.Commit();
  auto p = std::move(b).Build();
  assert(p.ok());
  return std::move(p).value();
}

txn::Program MakeFigure5Program(const std::vector<EntityId>& entities) {
  assert(entities.size() >= 6);
  const txn::VarId v0 = 0, v1 = 1, k = 2;
  ProgramBuilder b("fig5-T2", 3);
  // Identical operation multiset, clustered per object: consecutive writes
  // to the same object share a lock index, so no chord spans any state.
  b.LockExclusive(entities[0]);
  b.Read(entities[0], v0);
  b.WriteVar(entities[0], v0);
  b.WriteVar(entities[0], v0);
  b.LockExclusive(entities[1]);
  b.Read(entities[1], v1);
  b.WriteVar(entities[1], v1);
  b.WriteVar(entities[1], v1);
  b.LockExclusive(entities[2]);
  b.Compute(k, txn::Operand::Var(k), ArithOp::kAdd, txn::Operand::Imm(1));
  b.Compute(k, txn::Operand::Var(k), ArithOp::kAdd, txn::Operand::Imm(1));
  b.LockExclusive(entities[3]);
  b.LockExclusive(entities[4]);
  b.LockExclusive(entities[5]);
  b.WriteImm(entities[5], 1);
  b.Commit();
  auto p = std::move(b).Build();
  assert(p.ok());
  return std::move(p).value();
}

}  // namespace pardb::sim
