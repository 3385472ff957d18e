// Edge cases and secondary engine behaviors: accessors, event caps, option
// toggles, error paths, and cross-checks that the main suites do not cover.

#include <gtest/gtest.h>

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

TEST_F(EngineEdgeTest, DeadlockEventCapRespected) {
  EngineOptions opt;
  opt.max_recorded_events = 1;
  opt.victim_policy = VictimPolicyKind::kMinCostOrdered;
  Init(opt);
  // Several sequential deadlocks; only one event retained.
  for (int round = 0; round < 3; ++round) {
    auto ta = engine_->Spawn(TwoLock(ids_[0], ids_[1], "a"));
    auto tb = engine_->Spawn(TwoLock(ids_[1], ids_[0], "b"));
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    ASSERT_TRUE(engine_->RunToCompletion().ok());
  }
  EXPECT_GE(engine_->metrics().deadlocks, 2u);
  EXPECT_EQ(engine_->deadlock_events().size(), 1u);
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
  EXPECT_GE(engine_->metrics().timeouts, 1u);
  // The waiter held nothing, so expiring it was a zero-cost total rollback.
  EXPECT_EQ(engine_->metrics().rollbacks, engine_->metrics().timeouts);
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
    EXPECT_EQ(engine_->metrics().timeouts, 0u);
    EXPECT_EQ(engine_->StatusOf(waiter.value()), TxnStatus::kWaiting);
  }
  // Finish both; the waiter is granted on release, never timed out.
  while (!engine_->AllCommitted()) {
    auto holder_step = engine_->StepTxn(holder.value());
    ASSERT_TRUE(holder_step.ok());
    auto waiter_step = engine_->StepTxn(waiter.value());
    ASSERT_TRUE(waiter_step.ok());
  }
  EXPECT_EQ(engine_->metrics().timeouts, 0u);
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
  ASSERT_TRUE(engine.RunToCompletion().ok());
  EXPECT_EQ(engine.metrics().commits, 10u);
  // 10 transactions + local + the compile cache's collision-guard
  // reference — still no per-transaction copies.
  EXPECT_EQ(shared.use_count(), 12);
}

}  // namespace
}  // namespace pardb::core
