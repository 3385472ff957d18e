// Edge cases and secondary engine behaviors: accessors, dump caps, option
// toggles, error paths, and cross-checks that the main suites do not cover.

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/history.h"
#include "core/engine.h"
#include "par/sharded_driver.h"
#include "sim/workload.h"
#include "storage/entity_store.h"
#include "txn/program.h"

namespace pardb::core {
namespace {

using rollback::StrategyKind;
using txn::Operand;
using txn::ProgramBuilder;

txn::Program TwoLock(EntityId e1, EntityId e2, const std::string& name) {
  ProgramBuilder b(name, 1);
  b.LockExclusive(e1).LockExclusive(e2).WriteImm(e2, 1).Commit();
  auto p = b.Build();
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

class EngineEdgeTest : public ::testing::Test {
 protected:
  void Init(EngineOptions options = {}) {
    ids_ = store_.CreateMany(6, 100);
    engine_ = std::make_unique<Engine>(&store_, options);
  }
  storage::EntityStore store_;
  std::unique_ptr<Engine> engine_;
  std::vector<EntityId> ids_;
};

TEST_F(EngineEdgeTest, SpawnNullProgramRejected) {
  Init();
  std::shared_ptr<const txn::Program> null;
  EXPECT_EQ(engine_->Spawn(null).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineEdgeTest, AccessorsOnUnknownTxn) {
  Init();
  EXPECT_EQ(engine_->StatusOf(TxnId(99)), TxnStatus::kCommitted);
  EXPECT_EQ(engine_->StateIndexOf(TxnId(99)), 0u);
  EXPECT_EQ(engine_->LockCountOf(TxnId(99)), 0u);
  EXPECT_EQ(engine_->EntryOf(TxnId(99)), 0u);
  EXPECT_EQ(engine_->VarValueOf(TxnId(99), 0), 0);
  EXPECT_EQ(engine_->PreemptionCountOf(TxnId(99)), 0u);
}

TEST_F(EngineEdgeTest, CommittedIdKeepsItsAnswersAfterItsRowIsReused) {
  // DESIGN D23: a committed transaction's row goes to the next admission;
  // the old id must never alias it.
  Init();
  auto first = engine_->Spawn(TwoLock(ids_[0], ids_[1], "first"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  auto second = engine_->Spawn(TwoLock(ids_[1], ids_[2], "second"));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(engine_->StepTxn(second.value()).ok());
  EXPECT_EQ(engine_->txn_rows(), 1u);  // the second reused the first's row
  EXPECT_EQ(engine_->lock_manager().txn_rows(), 1u);

  const TxnId old = first.value();
  EXPECT_EQ(engine_->StatusOf(old), TxnStatus::kCommitted);
  auto step = engine_->StepTxn(old);
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step.value(), StepOutcome::kIdle);
  EXPECT_EQ(engine_->StateIndexOf(old), 0u);
  EXPECT_EQ(engine_->LockCountOf(old), 0u);
  EXPECT_EQ(engine_->EntryOf(old), 0u);
  EXPECT_EQ(engine_->VarValueOf(old, 0), 0);
  EXPECT_EQ(engine_->EntityValueOf(old, ids_[1]), 0);
  EXPECT_EQ(engine_->PreemptionCountOf(old), 0u);
  EXPECT_FALSE(engine_->AtHold(old));
  EXPECT_TRUE(engine_->lock_manager().HeldBy(old).empty());
  const std::vector<std::pair<EntityId, lock::LockMode>> conflicts = {
      {ids_[1], lock::LockMode::kExclusive}};
  EXPECT_EQ(engine_->PlanConflictRelease(old, conflicts).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_->ApplyExternalRollback(old, 0, 0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_->SetBackoff(old, true).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(engine_->SetBackoff(old, false).ok());

  // The live transaction in the reused row is untouched by all of that.
  EXPECT_EQ(engine_->StatusOf(second.value()), TxnStatus::kReady);
  EXPECT_EQ(engine_->StateIndexOf(second.value()), 1u);
  EXPECT_EQ(engine_->LockCountOf(second.value()), 1u);
  EXPECT_EQ(engine_->EntryOf(second.value()), 1u);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(engine_->StatusOf(second.value()), TxnStatus::kCommitted);
  // An id never handed out is still unknown, not committed-and-idle.
  EXPECT_EQ(engine_->StepTxn(TxnId(99)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(EngineEdgeTest, AccessorsTrackProgress) {
  Init();
  auto t = engine_->Spawn(TwoLock(ids_[0], ids_[1], "t"));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(engine_->StatusOf(t.value()), TxnStatus::kReady);
  EXPECT_EQ(engine_->EntryOf(t.value()), 0u);
  ASSERT_TRUE(engine_->StepTxn(t.value()).ok());
  EXPECT_EQ(engine_->StateIndexOf(t.value()), 1u);
  EXPECT_EQ(engine_->LockCountOf(t.value()), 1u);
}

TEST_F(EngineEdgeTest, RunToCompletionRespectsMaxSteps) {
  Init();
  ASSERT_TRUE(engine_->Spawn(TwoLock(ids_[0], ids_[1], "t")).ok());
  Status s = engine_->RunToCompletion(/*max_steps=*/1);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST_F(EngineEdgeTest, DeadlockDumpCapRespected) {
  EngineOptions opt;
  opt.victim_policy = VictimPolicyKind::kMinCostOrdered;
  Init(opt);
  obs::CollectingDeadlockSink deadlocks(/*max_dumps=*/1);
  engine_->set_forensics(&deadlocks);
  // Several sequential deadlocks; every one is seen, only one retained.
  for (int round = 0; round < 3; ++round) {
    auto ta = engine_->Spawn(TwoLock(ids_[0], ids_[1], "a"));
    auto tb = engine_->Spawn(TwoLock(ids_[1], ids_[0], "b"));
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    ASSERT_TRUE(engine_->RunToCompletion().ok());
  }
  EXPECT_GE(engine_->metrics().deadlocks, 2u);
  EXPECT_EQ(deadlocks.total_seen(), engine_->metrics().deadlocks);
  EXPECT_EQ(deadlocks.dumps().size(), 1u);
  engine_->set_forensics(nullptr);
}

TEST_F(EngineEdgeTest, LastLockSealFollowsDeadlockHandling) {
  // The same deadlock-free program under detection, where the §5 seal
  // applies (writes after the final lock request keep a single copy), and
  // under wound-wait, where running holders can be wounded and no write is
  // sealed.
  auto Run = [&](DeadlockHandling handling) {
    storage::EntityStore store;
    auto ids = store.CreateMany(3, 0);
    EngineOptions opt;
    opt.handling = handling;
    Engine engine(&store, opt);
    ProgramBuilder b("p", 1);
    b.LockExclusive(ids[0]).LockExclusive(ids[1]).LockExclusive(ids[2]);
    for (int i = 0; i < 4; ++i) {
      b.WriteImm(ids[0], i).WriteImm(ids[1], i).WriteImm(ids[2], i);
    }
    b.Commit();
    auto p = b.Build();
    EXPECT_TRUE(p.ok());
    auto t = engine.Spawn(std::move(p).value());
    EXPECT_TRUE(t.ok());
    EXPECT_TRUE(engine.RunToCompletion().ok());
    EXPECT_EQ(store.Get(ids[2]).value().value, 3);
    return engine.metrics().max_entity_copies;
  };
  const std::size_t sealed = Run(DeadlockHandling::kDetection);
  const std::size_t unsealed = Run(DeadlockHandling::kWoundWait);
  EXPECT_EQ(sealed, 3u);  // just the three working copies
  EXPECT_GT(unsealed, sealed);
}

TEST_F(EngineEdgeTest, DumpStateListsTransactionsAndLocks) {
  Init();
  auto t = engine_->Spawn(TwoLock(ids_[0], ids_[1], "t"));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(engine_->StepTxn(t.value()).ok());
  std::string s = engine_->DumpState();
  EXPECT_NE(s.find("T0"), std::string::npos);
  EXPECT_NE(s.find("status=ready"), std::string::npos);
  EXPECT_NE(s.find("E0"), std::string::npos);

  // Only live transactions are listed: a committed one drops out.
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  ASSERT_TRUE(engine_->Spawn(TwoLock(ids_[0], ids_[1], "u")).ok());
  s = engine_->DumpState();
  EXPECT_NE(s.find("(1 live of 2 txns)"), std::string::npos) << s;
  EXPECT_EQ(s.find("T0 "), std::string::npos) << s;
  EXPECT_NE(s.find("T1 pc=0"), std::string::npos) << s;
}

TEST_F(EngineEdgeTest, RollbackCostDistributionPercentiles) {
  Init();
  EXPECT_EQ(engine_->RollbackCostDistribution().count, 0u);
  auto ta = engine_->Spawn(TwoLock(ids_[0], ids_[1], "a"));
  auto tb = engine_->Spawn(TwoLock(ids_[1], ids_[0], "b"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  auto d = engine_->RollbackCostDistribution();
  EXPECT_EQ(d.count, 1u);
  EXPECT_EQ(d.p50, d.max);
  EXPECT_GT(d.max, 0u);
  EXPECT_GT(d.mean, 0.0);
}

TEST(CostDistributionTest, NearestRankPercentiles) {
  // Pins the nearest-rank semantics (percentile P = sorted[ceil(n*P/100) -
  // 1]). The old p95 guard `(n*95)/100 == n` was dead code — true only for
  // n == 0 — so p95 silently used the floor rank.
  auto Sample = [](std::uint64_t n) {
    std::vector<std::uint32_t> costs;
    for (std::uint64_t i = 1; i <= n; ++i) {
      costs.push_back(static_cast<std::uint32_t>(i));  // values 1..n
    }
    return ComputeCostDistribution(std::move(costs));
  };

  EXPECT_EQ(ComputeCostDistribution({}).count, 0u);

  auto d1 = Sample(1);  // single sample: every percentile is that sample
  EXPECT_EQ(d1.p50, 1u);
  EXPECT_EQ(d1.p95, 1u);
  EXPECT_EQ(d1.max, 1u);

  auto d19 = Sample(19);  // ceil(19*.95)=19 -> the max, not sorted[18*95/100]
  EXPECT_EQ(d19.p50, 10u);
  EXPECT_EQ(d19.p95, 19u);
  EXPECT_EQ(d19.max, 19u);

  auto d20 = Sample(20);  // ceil(20*.95)=19: first n where p95 < max
  EXPECT_EQ(d20.p50, 10u);
  EXPECT_EQ(d20.p95, 19u);
  EXPECT_EQ(d20.max, 20u);

  auto d100 = Sample(100);  // ceil(100*.95)=95
  EXPECT_EQ(d100.p50, 50u);
  EXPECT_EQ(d100.p95, 95u);
  EXPECT_EQ(d100.max, 100u);
  EXPECT_DOUBLE_EQ(d100.mean, 50.5);
}

// A holder with `busy_ops` compute steps between acquiring the lock and
// committing: long enough to outlast any small wait timeout.
txn::Program SlowHolder(EntityId e, int busy_ops) {
  ProgramBuilder b("holder", 1);
  b.LockExclusive(e);
  for (int i = 0; i < busy_ops; ++i) {
    b.Compute(0, Operand::Var(0), txn::ArithOp::kAdd, Operand::Imm(1));
  }
  b.WriteImm(e, 1).Commit();
  auto p = b.Build();
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST_F(EngineEdgeTest, TimeoutExpiresLongNonDeadlockedWait) {
  // kTimeout's documented false positive (engine.h): a wait that merely
  // outlives wait_timeout_steps is expired by StepAny even though no
  // deadlock exists.
  EngineOptions opt;
  opt.handling = DeadlockHandling::kTimeout;
  opt.wait_timeout_steps = 4;
  Init(opt);
  auto holder = engine_->Spawn(SlowHolder(ids_[0], /*busy_ops=*/12));
  auto waiter = engine_->Spawn(TwoLock(ids_[0], ids_[1], "waiter"));
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(waiter.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());  // drives via StepAny
  EXPECT_TRUE(engine_->AllCommitted());
  EXPECT_EQ(engine_->metrics().deadlocks, 0u);
  EXPECT_GE(engine_->metrics().RollbacksOf(obs::RollbackCause::kTimeout), 1u);
  // The waiter held nothing, so expiring it was a zero-cost total rollback.
  EXPECT_EQ(engine_->metrics().rollbacks,
            engine_->metrics().RollbacksOf(obs::RollbackCause::kTimeout));
}

TEST_F(EngineEdgeTest, ManualStepTxnNeverExpiresTimeouts) {
  // Timeouts are checked only by StepAny()/RunToCompletion(); purely
  // manual StepTxn driving never expires a wait (engine.h:60-62).
  EngineOptions opt;
  opt.handling = DeadlockHandling::kTimeout;
  opt.wait_timeout_steps = 4;
  Init(opt);
  auto holder = engine_->Spawn(SlowHolder(ids_[0], /*busy_ops=*/12));
  auto waiter = engine_->Spawn(TwoLock(ids_[0], ids_[1], "waiter"));
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(waiter.ok());
  // Holder takes its lock; waiter blocks behind it.
  ASSERT_TRUE(engine_->StepTxn(holder.value()).ok());
  auto blocked = engine_->StepTxn(waiter.value());
  ASSERT_TRUE(blocked.ok());
  ASSERT_EQ(blocked.value(), StepOutcome::kBlocked);
  // Drive the holder far past the timeout threshold: the wait ages in
  // engine steps but is never expired.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine_->StepTxn(holder.value()).ok());
    EXPECT_EQ(engine_->metrics().RollbacksOf(obs::RollbackCause::kTimeout), 0u);
    EXPECT_EQ(engine_->StatusOf(waiter.value()), TxnStatus::kWaiting);
  }
  // Finish both; the waiter is granted on release, never timed out.
  while (!engine_->AllCommitted()) {
    auto holder_step = engine_->StepTxn(holder.value());
    ASSERT_TRUE(holder_step.ok());
    auto waiter_step = engine_->StepTxn(waiter.value());
    ASSERT_TRUE(waiter_step.ok());
  }
  EXPECT_EQ(engine_->metrics().RollbacksOf(obs::RollbackCause::kTimeout), 0u);
  EXPECT_EQ(engine_->metrics().rollbacks, 0u);
}

TEST(DriverEdgeTest, IncompleteRunReported) {
  // Unconstrained min-cost on the adversarial workload with a tiny step
  // budget: the driver reports completed=false instead of erroring.
  par::ShardedOptions opt;
  opt.num_shards = 1;
  opt.cross_shard_fraction = 0.0;
  opt.engine.victim_policy = VictimPolicyKind::kMinCost;
  opt.workload.num_entities = 4;
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 4;
  opt.concurrency = 6;
  opt.total_txns = 1000;
  opt.max_steps_per_shard = 2000;  // far too few
  opt.seed = 1;
  opt.check_serializability = false;
  auto rep = par::RunSharded(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_FALSE(rep->completed);
  EXPECT_LT(rep->committed, 1000u);
  EXPECT_NE(rep->ToString().find("INCOMPLETE"), std::string::npos);
}

TEST(SchedulerTest, RoundRobinAndRandomBothComplete) {
  for (auto kind : {SchedulerKind::kRoundRobin, SchedulerKind::kRandom}) {
    storage::EntityStore store;
    store.CreateMany(4, 0);
    EngineOptions opt;
    opt.scheduler = kind;
    Engine engine(&store, opt);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          engine
              .Spawn(TwoLock(EntityId(i % 2), EntityId((i + 1) % 2),
                             "t" + std::to_string(i)))
              .ok());
    }
    ASSERT_TRUE(engine.RunToCompletion().ok());
    EXPECT_EQ(engine.metrics().commits, 4u);
  }
}

TEST(SharedProgramTest, ManyTransactionsShareOneProgram) {
  // Spawning via shared_ptr avoids copying the program per transaction.
  storage::EntityStore store;
  store.CreateMany(2, 0);
  Engine engine(&store, EngineOptions{});
  ProgramBuilder b("shared", 1);
  b.LockExclusive(EntityId(0)).Read(EntityId(0), 0).WriteVar(EntityId(0), 0);
  b.Commit();
  auto built = b.Build();
  ASSERT_TRUE(built.ok());
  auto shared =
      std::make_shared<const txn::Program>(std::move(built).value());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Spawn(shared).ok());
  }
  // 10 transactions + local + the compile cache's collision-guard
  // reference — no per-transaction copies.
  EXPECT_EQ(shared.use_count(), 12);
  ASSERT_TRUE(engine.RunToCompletion().ok());
  EXPECT_EQ(engine.metrics().commits, 10u);
  // Committed transactions release their program; the cache keeps its
  // reference while the entry sits in the idle window.
  EXPECT_EQ(shared.use_count(), 2);
}

// Residency (DESIGN D21) ---------------------------------------------------

std::shared_ptr<const txn::Program> Own(txn::Program p) {
  return std::make_shared<const txn::Program>(std::move(p));
}

TEST_F(EngineEdgeTest, CommittedTransactionHasNoRollbackPlan) {
  Init();
  auto t = engine_->Spawn(TwoLock(ids_[0], ids_[1], "t"));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  ASSERT_EQ(engine_->StatusOf(t.value()), TxnStatus::kCommitted);
  // Its plan is released: pricing it as a rollback candidate is an error,
  // as rolling it back is.
  const std::vector<std::pair<EntityId, lock::LockMode>> conflicts = {
      {ids_[0], lock::LockMode::kExclusive}};
  EXPECT_EQ(engine_->PlanConflictRelease(t.value(), conflicts).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_->ApplyExternalRollback(t.value(), 0, 0).code(),
            StatusCode::kFailedPrecondition);
  // Value reads answer 0 without touching plan or slot memory (run under
  // ASan in CI).
  EXPECT_EQ(engine_->VarValueOf(t.value(), 0), 0);
  EXPECT_EQ(engine_->EntityValueOf(t.value(), ids_[1]), 0);
}

TEST_F(EngineEdgeTest, LiveTransactionStillPricesConflictRelease) {
  Init();
  auto t = engine_->Spawn(TwoLock(ids_[0], ids_[1], "t"));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(engine_->StepTxn(t.value()).ok());  // LX E0 granted
  const std::vector<std::pair<EntityId, lock::LockMode>> conflicts = {
      {ids_[0], lock::LockMode::kExclusive}};
  auto c = engine_->PlanConflictRelease(t.value(), conflicts);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->actual_target, 0u);
  EXPECT_EQ(c->cost, 1u);
}

// Runs `programs` closed-loop at `concurrency` live transactions, refilling
// after every commit; returns the most entries ever resident.
std::size_t RunClosedLoop(
    Engine* engine,
    const std::vector<std::shared_ptr<const txn::Program>>& programs,
    std::size_t concurrency) {
  std::size_t next = 0;
  std::size_t max_resident = 0;
  while (next < programs.size() || engine->live_txn_count() > 0) {
    while (next < programs.size() && engine->live_txn_count() < concurrency) {
      EXPECT_TRUE(engine->Spawn(programs[next++]).ok());
    }
    max_resident = std::max(max_resident, engine->resident_programs());
    auto q = engine->StepQuantum(1'000'000, /*stop_after_commit=*/true);
    EXPECT_TRUE(q.ok());
    if (!q.ok() || q->ran_dry) break;
    max_resident = std::max(max_resident, engine->resident_programs());
  }
  return max_resident;
}

TEST(ResidencyTest, UniqueProgramsStayWithinTwicePeakLive) {
  // Every program unique (no templates): a cache that never released
  // would end the run holding all 8000 entries.
  constexpr std::size_t kTxns = 8000;
  constexpr std::size_t kConcurrency = 32;
  sim::WorkloadOptions w;
  w.num_entities = 256;
  w.min_locks = 2;
  w.max_locks = 4;
  sim::WorkloadGenerator gen(w, 3);
  std::vector<std::shared_ptr<const txn::Program>> programs;
  for (std::size_t i = 0; i < kTxns; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok());
    programs.push_back(Own(std::move(p).value()));
  }
  storage::EntityStore store;
  store.CreateMany(w.num_entities, 0);
  EngineOptions opt;
  opt.scheduler = SchedulerKind::kRandom;
  Engine engine(&store, opt);
  const std::size_t max_resident =
      RunClosedLoop(&engine, programs, kConcurrency);
  EXPECT_EQ(engine.metrics().commits, kTxns);
  EXPECT_EQ(engine.metrics().programs_compiled, kTxns);  // all distinct
  // Live entries (at most the peak live count) plus an idle window of the
  // peak live count.
  EXPECT_LE(max_resident, 2 * kConcurrency);
  EXPECT_LE(engine.resident_programs(), kConcurrency);
  // Every committed program but the idle window's was released.
  std::size_t still_referenced = 0;
  for (const auto& p : programs) still_referenced += p.use_count() > 1;
  EXPECT_LE(still_referenced, kConcurrency);
}

TEST(ResidencyTest, IdleProgramIsRevivedWithoutRecompiling) {
  storage::EntityStore store;
  auto ids = store.CreateMany(2, 0);
  Engine engine(&store, EngineOptions{});
  auto a = Own(TwoLock(ids[0], ids[1], "a"));
  ASSERT_TRUE(engine.Spawn(a).ok());
  ASSERT_TRUE(engine.Spawn(a).ok());  // peak live 2
  ASSERT_TRUE(engine.RunToCompletion().ok());
  EXPECT_EQ(engine.resident_programs(), 1u);  // idle, not evicted
  ASSERT_TRUE(engine.Spawn(Own(TwoLock(ids[0], ids[1], "renamed"))).ok());
  ASSERT_TRUE(engine.RunToCompletion().ok());
  EXPECT_EQ(engine.metrics().programs_compiled, 1u);
  EXPECT_EQ(engine.metrics().compile_cache_hits, 2u);
}

TEST(ResidencyTest, EvictedProgramRecompilesAndRunsIdentically) {
  // Peak live 1, so the idle window holds one entry: committing b evicts a.
  // a's re-admission lowers it again under a recycled entry number, with a
  // fresh plan, and it must step through the same states and values.
  storage::EntityStore store;
  auto ids = store.CreateMany(3, 5);
  Engine engine(&store, EngineOptions{});
  ProgramBuilder pa("a", 2);
  pa.InitVar(1, 7)
      .LockExclusive(ids[0])
      .Read(ids[0], 0)
      .Compute(0, Operand::Var(0), txn::ArithOp::kAdd, Operand::Var(1))
      .WriteVar(ids[0], 0)
      .LockExclusive(ids[1])
      .WriteVar(ids[1], 0)
      .Commit();
  auto a = Own(std::move(pa.Build()).value());
  auto Trace = [&](TxnId t) {
    std::vector<Value> seen;
    while (engine.StatusOf(t) != TxnStatus::kCommitted) {
      EXPECT_TRUE(engine.StepTxn(t).ok());
      seen.push_back(engine.VarValueOf(t, 0));
      seen.push_back(engine.EntityValueOf(t, ids[1]));
      seen.push_back(static_cast<Value>(engine.StateIndexOf(t)));
    }
    return seen;
  };
  auto first = engine.Spawn(a);
  ASSERT_TRUE(first.ok());
  const std::vector<Value> before = Trace(first.value());
  ASSERT_TRUE(store.Publish(ids[0], 5).ok());  // same starting store
  ASSERT_TRUE(store.Publish(ids[1], 5).ok());

  auto b = engine.Spawn(TwoLock(ids[2], ids[1], "b"));
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(engine.RunToCompletion().ok());
  ASSERT_TRUE(store.Publish(ids[1], 5).ok());
  EXPECT_EQ(engine.resident_programs(), 1u);  // a evicted, b idle
  EXPECT_EQ(a.use_count(), 1);                // nothing holds a any more

  auto again = engine.Spawn(a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(engine.metrics().programs_compiled, 3u);
  EXPECT_EQ(Trace(again.value()), before);
  EXPECT_EQ(store.Get(ids[1]).value().value, 12);
}

}  // namespace
}  // namespace pardb::core
