#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/history.h"
#include "core/engine.h"
#include "core/victim_policy.h"
#include "obs/trace_export.h"
#include "storage/entity_store.h"
#include "txn/program.h"

namespace pardb::core {
namespace {

using rollback::StrategyKind;
using txn::ArithOp;
using txn::Operand;
using txn::ProgramBuilder;

txn::Program Build(ProgramBuilder& b) {
  auto p = b.Build();
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

// Increment entity `e` by `delta` via a read-modify-write.
txn::Program IncrementProgram(EntityId e, Value delta,
                              const std::string& name = "inc") {
  ProgramBuilder b(name, 1);
  b.LockExclusive(e)
      .Read(e, 0)
      .Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(delta))
      .WriteVar(e, 0)
      .Commit();
  return Build(b);
}

// Locks e1 then e2 and increments both.
txn::Program TwoLockProgram(EntityId e1, EntityId e2, Value delta,
                            const std::string& name) {
  ProgramBuilder b(name, 1);
  b.LockExclusive(e1)
      .Read(e1, 0)
      .Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(delta))
      .WriteVar(e1, 0)
      .LockExclusive(e2)
      .Read(e2, 0)
      .Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(delta))
      .WriteVar(e2, 0)
      .Commit();
  return Build(b);
}

class EngineTest : public ::testing::Test {
 protected:
  void Init(EngineOptions options = {}) {
    ids_ = store_.CreateMany(8, 100);
    engine_ = std::make_unique<Engine>(&store_, options, &recorder_);
    engine_->set_forensics(&deadlocks_);
  }

  const std::vector<obs::DeadlockDump>& dumps() const {
    return deadlocks_.dumps();
  }

  storage::EntityStore store_;
  analysis::HistoryRecorder recorder_;
  obs::CollectingDeadlockSink deadlocks_;
  std::unique_ptr<Engine> engine_;
  std::vector<EntityId> ids_;
};

TEST_F(EngineTest, SingleTransactionCommits) {
  Init();
  auto t = engine_->Spawn(IncrementProgram(EntityId(0), 5));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(engine_->StatusOf(t.value()), TxnStatus::kCommitted);
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 105);
  EXPECT_EQ(engine_->metrics().commits, 1u);
  EXPECT_EQ(engine_->metrics().deadlocks, 0u);
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, SpawnRejectsUnknownEntity) {
  Init();
  auto t = engine_->Spawn(IncrementProgram(EntityId(999), 1));
  EXPECT_TRUE(t.status().IsNotFound());
}

TEST_F(EngineTest, StepUnknownTransactionFails) {
  Init();
  EXPECT_TRUE(engine_->StepTxn(TxnId(77)).status().IsNotFound());
}

TEST_F(EngineTest, IndependentTransactionsInterleave) {
  Init();
  ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(0), 1)).ok());
  ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(1), 2)).ok());
  ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(2), 3)).ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 101);
  EXPECT_EQ(store_.Get(EntityId(1)).value().value, 102);
  EXPECT_EQ(store_.Get(EntityId(2)).value().value, 103);
  EXPECT_EQ(engine_->metrics().deadlocks, 0u);
}

TEST_F(EngineTest, ConflictingTransactionsSerialize) {
  Init();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(0), 1)).ok());
  }
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 104);
  EXPECT_GE(engine_->metrics().lock_waits, 1u);
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, DeadlockResolvedAndBothCommit) {
  Init();
  auto ta = engine_->Spawn(
      TwoLockProgram(EntityId(0), EntityId(1), 1, "fwd"));
  auto tb = engine_->Spawn(
      TwoLockProgram(EntityId(1), EntityId(0), 10, "rev"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok()) << engine_->DumpState();
  EXPECT_EQ(engine_->metrics().deadlocks, 1u);
  EXPECT_EQ(engine_->metrics().rollbacks, 1u);
  // Both increments applied exactly once despite the rollback re-execution.
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 111);
  EXPECT_EQ(store_.Get(EntityId(1)).value().value, 111);
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, PartialRollbackKeepsEarlierLocks) {
  // Victim locks a "home" entity first; a partial rollback to the
  // conflicting lock keeps it, a total restart would release it.
  EngineOptions opt;
  opt.strategy = StrategyKind::kMcs;
  opt.victim_policy = VictimPolicyKind::kMinCost;
  Init(opt);

  // T0: home(2) -> 0 -> 1 ; T1: 1 -> 0. T0's conflict is over entity 0/1,
  // not its home lock.
  ProgramBuilder b0("t0", 1);
  b0.LockExclusive(EntityId(2))
      .Read(EntityId(2), 0)
      .LockExclusive(EntityId(0))
      .Read(EntityId(0), 0)
      .LockExclusive(EntityId(1))
      .WriteVar(EntityId(1), 0)
      .Commit();
  auto t0 = engine_->Spawn(Build(b0));
  auto t1 =
      engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 5, "t1"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());

  // Drive to deadlock: T0 holds 2,0; T1 holds 1; T0 requests 1; T1
  // requests 0.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // lock 2, read, lock 0,
                                                     // read
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // lock 1, rmw on 1
  }
  auto blocked = engine_->StepTxn(t0.value());  // request 1 -> wait
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked.value(), StepOutcome::kBlocked);
  auto resolved = engine_->StepTxn(t1.value());  // request 0 -> deadlock
  ASSERT_TRUE(resolved.ok());

  ASSERT_EQ(dumps().size(), 1u);
  const obs::DeadlockDump& ev = dumps()[0];
  EXPECT_EQ(ev.requester, t1.value());
  ASSERT_EQ(ev.victims.size(), 1u);
  EXPECT_EQ(engine_->metrics().partial_rollbacks +
                engine_->metrics().total_rollbacks,
            1u);
  if (ev.victims[0] == t0.value()) {
    // T0 rolled back to before locking entity 0: home lock kept.
    EXPECT_TRUE(
        engine_->lock_manager().HeldMode(t0.value(), EntityId(2)).has_value());
    EXPECT_EQ(engine_->metrics().partial_rollbacks, 1u);
  }
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, TotalRestartStrategyAlwaysRollsToZero) {
  EngineOptions opt;
  opt.strategy = StrategyKind::kTotalRestart;
  Init(opt);
  ASSERT_TRUE(
      engine_->Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a")).ok());
  ASSERT_TRUE(
      engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 2, "b")).ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(engine_->metrics().partial_rollbacks, 0u);
  EXPECT_GE(engine_->metrics().total_rollbacks, 1u);
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 103);
  EXPECT_EQ(store_.Get(EntityId(1)).value().value, 103);
}

TEST_F(EngineTest, ExplicitUnlockPublishesEarly) {
  Init();
  ProgramBuilder b("unlocker", 1);
  b.LockExclusive(EntityId(0))
      .Read(EntityId(0), 0)
      .Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(7))
      .WriteVar(EntityId(0), 0)
      .Unlock(EntityId(0))
      .Commit();
  auto t = engine_->Spawn(Build(b));
  ASSERT_TRUE(t.ok());
  // Step up to and including the unlock.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(engine_->StepTxn(t.value()).ok());
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 107);
  EXPECT_EQ(store_.Get(EntityId(0)).value().version, 1u);
  EXPECT_EQ(engine_->StatusOf(t.value()), TxnStatus::kReady);  // not done yet
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(EngineTest, ImplicitCommitWithoutCommitOp) {
  Init();
  ProgramBuilder b("no-commit", 1);
  b.LockExclusive(EntityId(0)).Read(EntityId(0), 0).WriteVar(EntityId(0), 0);
  auto t = engine_->Spawn(Build(b));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(engine_->StatusOf(t.value()), TxnStatus::kCommitted);
  EXPECT_EQ(store_.Get(EntityId(0)).value().version, 1u);
}

TEST_F(EngineTest, UpgradeDeadlockResolved) {
  // Classic upgrade deadlock: both S-hold entity 0, both upgrade.
  Init();
  auto MakeUpgrader = [&](const std::string& name) {
    ProgramBuilder b(name, 1);
    b.LockShared(EntityId(0))
        .Read(EntityId(0), 0)
        .LockExclusive(EntityId(0))
        .WriteVar(EntityId(0), 0)
        .Commit();
    return Build(b);
  };
  auto t0 = engine_->Spawn(MakeUpgrader("u0"));
  auto t1 = engine_->Spawn(MakeUpgrader("u1"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // S(0)
  ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // S(0)
  ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // read
  ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // read
  auto w0 = engine_->StepTxn(t0.value());          // upgrade waits on t1
  ASSERT_TRUE(w0.ok());
  EXPECT_EQ(w0.value(), StepOutcome::kBlocked);
  auto w1 = engine_->StepTxn(t1.value());  // upgrade -> deadlock
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok()) << engine_->DumpState();
  EXPECT_EQ(engine_->metrics().deadlocks, 1u);
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 100);  // writes of v0=100
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, RequesterPolicyRollsBackRequester) {
  EngineOptions opt;
  opt.victim_policy = VictimPolicyKind::kRequester;
  Init(opt);
  auto ta =
      engine_->Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a"));
  auto tb =
      engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 2, "b"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  ASSERT_GE(dumps().size(), 1u);
  const obs::DeadlockDump& ev = dumps()[0];
  EXPECT_EQ(ev.victims, std::vector<TxnId>{ev.requester});
  EXPECT_EQ(engine_->metrics().Preemptions(), 0u);
}

TEST_F(EngineTest, YoungestAndOldestPolicies) {
  for (auto kind : {VictimPolicyKind::kYoungest, VictimPolicyKind::kOldest}) {
    EngineOptions opt;
    opt.victim_policy = kind;
    storage::EntityStore store;
    store.CreateMany(4, 0);
    obs::CollectingDeadlockSink deadlocks;
    Engine engine(&store, opt);
    engine.set_forensics(&deadlocks);
    auto ta = engine.Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a"));
    auto tb = engine.Spawn(TwoLockProgram(EntityId(1), EntityId(0), 2, "b"));
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    ASSERT_TRUE(engine.RunToCompletion().ok());
    ASSERT_GE(deadlocks.dumps().size(), 1u);
    const obs::DeadlockDump& ev = deadlocks.dumps()[0];
    ASSERT_EQ(ev.victims.size(), 1u);
    if (kind == VictimPolicyKind::kYoungest) {
      EXPECT_EQ(ev.victims[0], tb.value());  // entered later
    } else {
      EXPECT_EQ(ev.victims[0], ta.value());
    }
  }
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  auto RunOnce = [](std::uint64_t seed) {
    storage::EntityStore store;
    store.CreateMany(4, 100);
    EngineOptions opt;
    opt.scheduler = SchedulerKind::kRandom;
    opt.seed = seed;
    Engine engine(&store, opt);
    for (int i = 0; i < 3; ++i) {
      auto p = TwoLockProgram(EntityId(i % 2), EntityId((i + 1) % 2), i + 1,
                              "t" + std::to_string(i));
      EXPECT_TRUE(engine.Spawn(std::move(p)).ok());
    }
    EXPECT_TRUE(engine.RunToCompletion().ok());
    return std::make_tuple(engine.metrics().ops_executed,
                           engine.metrics().deadlocks,
                           engine.metrics().wasted_ops,
                           store.Get(EntityId(0)).value().value,
                           store.Get(EntityId(1)).value().value);
  };
  EXPECT_EQ(RunOnce(7), RunOnce(7));
  EXPECT_EQ(RunOnce(8), RunOnce(8));
}

TEST_F(EngineTest, MetricsCountWastedOps) {
  EngineOptions opt;
  opt.victim_policy = VictimPolicyKind::kMinCost;
  Init(opt);
  auto ta = engine_->Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a"));
  auto tb = engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 2, "b"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_GT(engine_->metrics().wasted_ops, 0u);
  EXPECT_EQ(engine_->metrics().wasted_ops, engine_->metrics().ideal_wasted_ops)
      << "MCS rollback is exact";
}

TEST_F(EngineTest, PreemptionCounterTracksNonRequesterVictims) {
  EngineOptions opt;
  opt.victim_policy = VictimPolicyKind::kMinCost;
  Init(opt);
  // The requester's rollback is expensive (20 filler ops after its first
  // lock), the other transaction's is cheap: min-cost preempts the cheap
  // one even though it did not cause the conflict.
  ProgramBuilder b0("cheap", 1);
  b0.LockExclusive(EntityId(0)).LockExclusive(EntityId(1)).Commit();
  auto t0 = engine_->Spawn(Build(b0));

  ProgramBuilder b1("expensive-requester", 1);
  b1.LockExclusive(EntityId(1));
  for (int i = 0; i < 20; ++i) {
    b1.Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(1));
  }
  b1.LockExclusive(EntityId(0)).Commit();
  auto t1 = engine_->Spawn(Build(b1));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());

  ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // t0 locks 0
  for (int i = 0; i < 21; ++i) {
    ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // t1 locks 1 + work
  }
  auto blocked = engine_->StepTxn(t0.value());  // t0 waits on 1 (cost 1)
  ASSERT_TRUE(blocked.ok());
  ASSERT_EQ(blocked.value(), StepOutcome::kBlocked);
  auto outcome = engine_->StepTxn(t1.value());  // t1 waits on 0 -> deadlock
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(dumps().size(), 1u);
  const obs::DeadlockDump& ev = dumps()[0];
  EXPECT_EQ(ev.requester, t1.value());
  ASSERT_EQ(ev.victims.size(), 1u);
  EXPECT_EQ(ev.victims[0], t0.value());  // cheaper victim preempted
  EXPECT_EQ(engine_->metrics().Preemptions(), 1u);
  EXPECT_EQ(engine_->PreemptionCountOf(t0.value()), 1u);
  EXPECT_EQ(engine_->PreemptionCountOf(t1.value()), 0u);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(EngineTest, TimeoutHandlingResolvesDeadlock) {
  EngineOptions opt;
  opt.handling = core::DeadlockHandling::kTimeout;
  opt.wait_timeout_steps = 10;
  Init(opt);
  auto ta = engine_->Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a"));
  auto tb = engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 2, "b"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  // RunToCompletion uses StepAny, which expires stale waits.
  ASSERT_TRUE(engine_->RunToCompletion().ok()) << engine_->DumpState();
  EXPECT_GE(engine_->metrics().RollbacksOf(obs::RollbackCause::kTimeout), 1u);
  EXPECT_EQ(engine_->metrics().deadlocks, 0u);  // no graph detection ran
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 103);
  EXPECT_EQ(store_.Get(EntityId(1)).value().value, 103);
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, TimeoutDoesNotFireOnShortWaits) {
  EngineOptions opt;
  opt.handling = core::DeadlockHandling::kTimeout;
  opt.wait_timeout_steps = 1000;
  Init(opt);
  // Pure queueing without deadlock: nothing should ever time out.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(0), 1)).ok());
  }
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(engine_->metrics().RollbacksOf(obs::RollbackCause::kTimeout), 0u);
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 103);
}

TEST_F(EngineTest, PeriodicDetectionResolvesDeadlocks) {
  EngineOptions opt;
  opt.detection_mode = core::DetectionMode::kPeriodic;
  opt.detection_period = 16;
  Init(opt);
  auto ta = engine_->Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a"));
  auto tb = engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 10, "b"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok()) << engine_->DumpState();
  EXPECT_GE(engine_->metrics().periodic_scans, 1u);
  EXPECT_EQ(engine_->metrics().deadlocks, 1u);
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 111);
  EXPECT_EQ(store_.Get(EntityId(1)).value().value, 111);
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, PeriodicDetectionCompletesContendedWorkload) {
  EngineOptions opt;
  opt.detection_mode = core::DetectionMode::kPeriodic;
  opt.detection_period = 64;
  opt.scheduler = SchedulerKind::kRandom;
  Init(opt);
  for (int i = 0; i < 6; ++i) {
    auto p = TwoLockProgram(EntityId(i % 3), EntityId((i + 1) % 3), i,
                            "t" + std::to_string(i));
    ASSERT_TRUE(engine_->Spawn(std::move(p)).ok());
  }
  ASSERT_TRUE(engine_->RunToCompletion().ok()) << engine_->DumpState();
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, TraceRecordsProtocolEvents) {
  Init();
  obs::EventLog trace;
  engine_->set_trace(&trace);
  auto ta = engine_->Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a"));
  auto tb = engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 2, "b"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  auto count = [&trace](obs::EventKind kind) {
    return std::count_if(
        trace.events.begin(), trace.events.end(),
        [kind](const obs::EngineEvent& e) { return e.kind == kind; });
  };
  EXPECT_EQ(count(obs::EventKind::kAdmit), 2);
  EXPECT_EQ(count(obs::EventKind::kCommit), 2);
  EXPECT_EQ(count(obs::EventKind::kCycle), 1);
  EXPECT_EQ(count(obs::EventKind::kVictim), 1);
  EXPECT_EQ(count(obs::EventKind::kRollback), 1);
  EXPECT_GE(count(obs::EventKind::kBlock), 1);
  // Re-granted locks after the rollback: at least 4 grants + re-grants.
  EXPECT_GE(count(obs::EventKind::kGrant), 4);
  std::string s;
  for (const obs::EngineEvent& e : trace.events) {
    if (!obs::TraceKindName(e.kind).empty()) s += obs::TraceText(e) + "\n";
  }
  EXPECT_NE(s.find("deadlock"), std::string::npos);
  EXPECT_NE(s.find("rollback"), std::string::npos);
  EXPECT_NE(s.find("commit"), std::string::npos);
  EXPECT_EQ(s.find("victim"), std::string::npos);  // journal-only kind
}

TEST(TraceTextTest, Formats) {
  obs::EngineEvent ev;
  ev.kind = obs::EventKind::kRollback;
  ev.cause = obs::RollbackCause::kWaitDie;
  ev.step = 7;
  ev.txn = TxnId(3);
  ev.pc = 12;
  ev.target = 1;
  ev.cost = 4;
  EXPECT_EQ(obs::TraceText(ev),
            "[7] rollback T3 pc=12 -> lock state 1 (cost 4, wait_die)");
  obs::EngineEvent g;
  g.kind = obs::EventKind::kGrant;
  g.txn = TxnId(1);
  g.entity = EntityId(9);
  g.pc = 2;
  g.step = 1;
  EXPECT_EQ(obs::TraceText(g), "[1] grant T1 pc=2 entity=E9");
}

TEST(VictimPolicyTest, MinCostPicksCheapest) {
  std::vector<VictimCandidate> cs(3);
  cs[0] = {TxnId(1), 10, 2, 2, 7, 7, false};
  cs[1] = {TxnId(2), 11, 1, 1, 4, 4, true};
  cs[2] = {TxnId(3), 12, 0, 0, 9, 9, false};
  EXPECT_EQ(ChooseVictim(VictimPolicyKind::kMinCost, cs, 11).txn, TxnId(2));
}

TEST(VictimPolicyTest, MinCostTieBreaksBySmallerId) {
  std::vector<VictimCandidate> cs(2);
  cs[0] = {TxnId(5), 10, 0, 0, 4, 4, false};
  cs[1] = {TxnId(3), 11, 0, 0, 4, 4, true};
  EXPECT_EQ(ChooseVictim(VictimPolicyKind::kMinCost, cs, 11).txn, TxnId(3));
}

TEST(VictimPolicyTest, OrderedExcludesOlderThanRequester) {
  // Requester entry = 10. Candidate entry 5 is older: protected.
  std::vector<VictimCandidate> cs(3);
  cs[0] = {TxnId(1), 5, 0, 0, 1, 1, false};    // oldest, cheapest — protected
  cs[1] = {TxnId(2), 10, 0, 0, 6, 6, true};    // the requester
  cs[2] = {TxnId(3), 15, 0, 0, 4, 4, false};   // younger
  const auto& pick =
      ChooseVictim(VictimPolicyKind::kMinCostOrdered, cs, 10);
  EXPECT_EQ(pick.txn, TxnId(3));
}

TEST(VictimPolicyTest, OrderedFallsBackToRequester) {
  std::vector<VictimCandidate> cs(2);
  cs[0] = {TxnId(1), 5, 0, 0, 1, 1, false};
  cs[1] = {TxnId(2), 10, 0, 0, 6, 6, true};
  EXPECT_EQ(ChooseVictim(VictimPolicyKind::kMinCostOrdered, cs, 10).txn,
            TxnId(2));
}

TEST(VictimPolicyTest, YoungestOldestRequester) {
  std::vector<VictimCandidate> cs(3);
  cs[0] = {TxnId(1), 5, 0, 0, 1, 1, false};
  cs[1] = {TxnId(2), 10, 0, 0, 6, 6, true};
  cs[2] = {TxnId(3), 15, 0, 0, 4, 4, false};
  EXPECT_EQ(ChooseVictim(VictimPolicyKind::kYoungest, cs, 10).txn, TxnId(3));
  EXPECT_EQ(ChooseVictim(VictimPolicyKind::kOldest, cs, 10).txn, TxnId(1));
  EXPECT_EQ(ChooseVictim(VictimPolicyKind::kRequester, cs, 10).txn, TxnId(2));
}

TEST(VictimPolicyTest, KindNames) {
  EXPECT_EQ(VictimPolicyKindName(VictimPolicyKind::kMinCost), "min-cost");
  EXPECT_EQ(VictimPolicyKindName(VictimPolicyKind::kMinCostOrdered),
            "min-cost-ordered");
  EXPECT_EQ(VictimPolicyKindName(VictimPolicyKind::kYoungest), "youngest");
  EXPECT_EQ(VictimPolicyKindName(VictimPolicyKind::kOldest), "oldest");
  EXPECT_EQ(VictimPolicyKindName(VictimPolicyKind::kRequester), "requester");
}

// Shared locks, one wait closing 4 x 4 x 5 = 80 cycles — more than the
// 64 an enumerating detector would look at. The requester R holds E0
// shared; four A's hold E1 shared and wait for E0; four B's hold E2 shared
// and wait for E1; five C's hold E3 shared and wait for E2; R's exclusive
// request on E3 closes every cycle R -> A -> B -> C -> R. Every layer is a
// vertex cut; B is the cheapest (A: 1+1+1+10, B: 4 x 2, C: 5 x 4).
struct EightyCycleDeadlock {
  storage::EntityStore store;
  obs::CollectingDeadlockSink deadlocks;
  std::unique_ptr<Engine> engine;
  TxnId r;
  std::vector<TxnId> a, b, c;
};

// Builds the scenario under `policy` and issues R's closing request. R
// runs `requester_filler` computes before it, so rolling R back costs
// 1 + requester_filler.
void CloseEightyCycles(VictimPolicyKind policy, EightyCycleDeadlock* s,
                       int requester_filler = 0) {
  const std::vector<EntityId> e = s->store.CreateMany(4, 0);
  EngineOptions opt;
  opt.victim_policy = policy;
  opt.lock_options.fifo_fairness = false;
  s->engine = std::make_unique<Engine>(&s->store, opt);
  s->engine->set_forensics(&s->deadlocks);
  Engine& engine = *s->engine;
  // Holds `held` shared, runs `filler` computes, then requests `wanted`
  // exclusive: rolling back to the shared lock costs 1 + filler.
  auto Layer = [&](EntityId held, int filler, EntityId wanted) {
    ProgramBuilder b("layer", 1);
    b.LockShared(held);
    for (int i = 0; i < filler; ++i) {
      b.Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(1));
    }
    b.LockExclusive(wanted).Commit();
    auto t = engine.Spawn(Build(b));
    EXPECT_TRUE(t.ok());
    return t.value();
  };
  s->r = Layer(e[0], requester_filler, e[3]);
  for (int filler : {0, 0, 0, 9}) s->a.push_back(Layer(e[1], filler, e[0]));
  for (int i = 0; i < 4; ++i) s->b.push_back(Layer(e[2], 1, e[1]));
  for (int i = 0; i < 5; ++i) s->c.push_back(Layer(e[3], 3, e[2]));

  for (int i = 0; i <= requester_filler; ++i) {
    ASSERT_TRUE(engine.StepTxn(s->r).ok());  // R: shared E0, computes
  }
  for (const auto* layer : {&s->a, &s->b, &s->c}) {
    for (TxnId t : *layer) {
      for (;;) {
        auto out = engine.StepTxn(t);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        if (out.value() == StepOutcome::kBlocked) break;
        ASSERT_EQ(out.value(), StepOutcome::kExecuted);
      }
    }
  }
  ASSERT_EQ(engine.metrics().deadlocks, 0u);
  auto closing = engine.StepTxn(s->r);  // R: exclusive E3
  ASSERT_TRUE(closing.ok()) << closing.status().ToString();
}

TEST(ManyCycleDeadlockTest, OneExactCutResolvesEightyCycles) {
  EightyCycleDeadlock s;
  ASSERT_NO_FATAL_FAILURE(
      CloseEightyCycles(VictimPolicyKind::kMinCostOrdered, &s));
  const Engine& engine = *s.engine;
  const std::vector<TxnId>& a = s.a;
  const std::vector<TxnId>& b = s.b;
  const std::vector<TxnId>& c = s.c;
  ASSERT_EQ(engine.metrics().deadlocks, 1u);
  EXPECT_EQ(engine.metrics().cycles_found, 80u);
  ASSERT_EQ(s.deadlocks.dumps().size(), 1u);
  const obs::DeadlockDump& ev = s.deadlocks.dumps().front();
  EXPECT_EQ(ev.num_cycles, 80u);
  EXPECT_EQ(ev.participants.size(), 14u);
  EXPECT_EQ(ev.victims, b);

  // Brute force over every subset of the 13 non-requester members: the
  // cheapest set meeting all 80 cycles costs what the cut paid.
  std::vector<TxnId> members;
  for (const auto* layer : {&a, &b, &c}) {
    members.insert(members.end(), layer->begin(), layer->end());
  }
  auto CostOf = [&ev](TxnId t) {
    for (const obs::DeadlockParticipant& p : ev.participants) {
      if (p.txn == t) return p.cost;
    }
    ADD_FAILURE() << "no candidate for T" << t.value();
    return std::uint64_t{0};
  };
  std::uint64_t best = ~std::uint64_t{0};
  for (std::uint32_t set = 1; set < (1u << members.size()); ++set) {
    auto In = [&](TxnId t) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (members[i] == t) return ((set >> i) & 1u) != 0;
      }
      return false;
    };
    bool hits_all = true;
    for (TxnId ta : a) {
      for (TxnId tb : b) {
        for (TxnId tc : c) hits_all &= In(ta) || In(tb) || In(tc);
      }
    }
    if (!hits_all) continue;
    std::uint64_t cost = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if ((set >> i) & 1u) cost += CostOf(members[i]);
    }
    best = std::min(best, cost);
  }
  EXPECT_EQ(best, 8u);
  EXPECT_EQ(obs::VictimCost(ev), best);

  ASSERT_TRUE(s.engine->RunToCompletion().ok());
  EXPECT_EQ(engine.metrics().deadlocks, 1u);
}

// Unordered min-cost compares the requester with the cut and takes the
// requester on a tie: here both cost 8.
TEST(ManyCycleDeadlockTest, MinCostTakesTheRequesterWhenNoDearerThanTheCut) {
  EightyCycleDeadlock s;
  ASSERT_NO_FATAL_FAILURE(
      CloseEightyCycles(VictimPolicyKind::kMinCost, &s, /*requester_filler=*/7));
  ASSERT_EQ(s.deadlocks.dumps().size(), 1u);
  const obs::DeadlockDump& ev = s.deadlocks.dumps().front();
  EXPECT_EQ(ev.victims, std::vector<TxnId>{s.r});
  EXPECT_EQ(obs::VictimCost(ev), 8u);
}

// Youngest keeps its per-cycle rule: the youngest member of the first
// cycle no victim breaks yet, until none is left. Every cycle's youngest
// is a C, and the next uncovered cycle always ends in the next C, so all
// five C's go — in one resolution, with the requester kept.
TEST(ManyCycleDeadlockTest, YoungestPicksOnePerUncoveredCycle) {
  EightyCycleDeadlock s;
  ASSERT_NO_FATAL_FAILURE(CloseEightyCycles(VictimPolicyKind::kYoungest, &s));
  ASSERT_EQ(s.deadlocks.dumps().size(), 1u);
  const obs::DeadlockDump& ev = s.deadlocks.dumps().front();
  EXPECT_EQ(ev.num_cycles, 80u);
  EXPECT_EQ(ev.victims, s.c);
  EXPECT_EQ(s.engine->LockCountOf(s.r), 2u);  // granted E3, not rolled back
  ASSERT_TRUE(s.engine->RunToCompletion().ok());
  EXPECT_EQ(s.engine->metrics().deadlocks, 1u);
}

// ---------------------------------------------------------------------------
// StepQuantum: bounded quanta must not disturb the step sequence
// ---------------------------------------------------------------------------

// Spawns a contended crossing-lock-order mix (deadlocks included) into a
// fresh engine over `store`.
void SpawnContendedMix(Engine& engine, const std::vector<EntityId>& ids) {
  for (int i = 0; i < 8; ++i) {
    const EntityId a = ids[i % 4];
    const EntityId b = ids[(i + 1) % 4];
    auto t = engine.Spawn(i % 2 == 0 ? TwoLockProgram(a, b, 1, "fwd")
                                     : TwoLockProgram(b, a, 1, "rev"));
    ASSERT_TRUE(t.ok());
  }
}

TEST(StepQuantumTest, ChoppingIntoArbitraryQuantaMatchesOneUnboundedRun) {
  EngineOptions opt;
  opt.scheduler = SchedulerKind::kRandom;
  opt.seed = 5;

  storage::EntityStore store_a;
  auto ids_a = store_a.CreateMany(8, 100);
  Engine a(&store_a, opt);
  SpawnContendedMix(a, ids_a);
  ASSERT_TRUE(a.RunToCompletion().ok());

  storage::EntityStore store_b;
  auto ids_b = store_b.CreateMany(8, 100);
  Engine b(&store_b, opt);
  SpawnContendedMix(b, ids_b);
  // Ragged quantum sizes, nothing aligned with commits or deadlocks: the
  // engine keeps no per-quantum state, so the step sequence must be the
  // one RunToCompletion produced.
  const std::uint64_t budgets[] = {1, 2, 3, 5, 7};
  for (std::size_t i = 0; !b.AllCommitted(); ++i) {
    auto qr = b.StepQuantum(budgets[i % 5]);
    ASSERT_TRUE(qr.ok()) << qr.status().ToString();
    ASSERT_FALSE(qr->ran_dry);
    ASSERT_LT(i, 10'000u) << "quantum loop failed to converge";
  }

  EXPECT_EQ(a.metrics().commits, b.metrics().commits);
  EXPECT_EQ(a.metrics().rollbacks, b.metrics().rollbacks);
  EXPECT_EQ(a.metrics().deadlocks, b.metrics().deadlocks);
  EXPECT_EQ(a.metrics().ops_executed, b.metrics().ops_executed);
  EXPECT_EQ(a.metrics().lock_waits, b.metrics().lock_waits);
  for (std::size_t i = 0; i < ids_a.size(); ++i) {
    EXPECT_EQ(store_a.Get(ids_a[i]).value().value,
              store_b.Get(ids_b[i]).value().value);
  }
}

TEST_F(EngineTest, StepQuantumStopsRightAfterACommitWhenAsked) {
  Init();
  ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(0), 1)).ok());
  ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(1), 1)).ok());
  auto qr = engine_->StepQuantum(1000, /*stop_after_commit=*/true);
  ASSERT_TRUE(qr.ok());
  EXPECT_TRUE(qr->committed);
  EXPECT_EQ(engine_->metrics().commits, 1u);  // stopped at the first commit
  EXPECT_FALSE(engine_->AllCommitted());
  qr = engine_->StepQuantum(1000, /*stop_after_commit=*/true);
  ASSERT_TRUE(qr.ok());
  EXPECT_TRUE(qr->committed);
  EXPECT_TRUE(engine_->AllCommitted());
}

TEST_F(EngineTest, StepQuantumRespectsTheStepBudget) {
  Init();
  ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(0), 1)).ok());
  auto qr = engine_->StepQuantum(2);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->steps, 2u);
  EXPECT_FALSE(qr->ran_dry);
  EXPECT_FALSE(qr->committed);
  EXPECT_FALSE(engine_->AllCommitted());
  ASSERT_TRUE(engine_->StepQuantum(1000).ok());
  EXPECT_TRUE(engine_->AllCommitted());
}

TEST_F(EngineTest, StepQuantumOnEmptyEngineDoesNothing) {
  Init();
  auto qr = engine_->StepQuantum(100);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->steps, 0u);
  EXPECT_FALSE(qr->ran_dry);
  EXPECT_FALSE(qr->committed);
}

}  // namespace
}  // namespace pardb::core
