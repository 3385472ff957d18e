// Cross-cutting coverage: trace events from prevention schemes, SDG
// monitoring shutdown, distributed report formatting, and workload naming.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/engine.h"
#include "dist/distributed.h"
#include "par/sharded_driver.h"
#include "sim/workload.h"
#include "storage/entity_store.h"
#include "txn/program.h"

namespace pardb {
namespace {

using core::DeadlockHandling;
using core::Engine;
using core::EngineOptions;
using txn::ProgramBuilder;

// Rollback events in `trace` with the given cause.
std::size_t Rollbacks(const std::vector<obs::EngineEvent>& trace,
                      obs::RollbackCause cause) {
  return static_cast<std::size_t>(std::count_if(
      trace.begin(), trace.end(), [cause](const obs::EngineEvent& e) {
        return e.kind == obs::EventKind::kRollback && e.cause == cause;
      }));
}

txn::Program TwoLock(EntityId e1, EntityId e2, const std::string& name) {
  ProgramBuilder b(name, 1);
  b.LockExclusive(e1).LockExclusive(e2).WriteImm(e2, 1).Commit();
  auto p = b.Build();
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST(TraceIntegrationTest, WoundEmitsOneRollback) {
  storage::EntityStore store;
  auto ids = store.CreateMany(4, 0);
  EngineOptions opt;
  opt.handling = DeadlockHandling::kWoundWait;
  Engine engine(&store, opt);
  obs::EventLog trace;
  engine.set_trace(&trace);
  auto t0 = engine.Spawn(TwoLock(ids[0], ids[1], "old"));
  auto t1 = engine.Spawn(TwoLock(ids[0], ids[2], "young"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(engine.StepTxn(t1.value()).ok());   // young locks 0
  ASSERT_TRUE(engine.StepTxn(t0.value()).ok());   // old wounds young
  // A wound is exactly one rollback event.
  EXPECT_EQ(Rollbacks(trace.events, obs::RollbackCause::kWoundWait), 1u);
  EXPECT_EQ(std::count_if(trace.events.begin(), trace.events.end(),
                          [](const obs::EngineEvent& e) {
                            return e.kind == obs::EventKind::kRollback;
                          }),
            1);
  ASSERT_TRUE(engine.RunToCompletion().ok());
}

TEST(TraceIntegrationTest, DeathAndTimeoutRollbacksCarryCause) {
  {
    storage::EntityStore store;
    auto ids = store.CreateMany(4, 0);
    EngineOptions opt;
    opt.handling = DeadlockHandling::kWaitDie;
    Engine engine(&store, opt);
    obs::EventLog trace;
    engine.set_trace(&trace);
    auto t0 = engine.Spawn(TwoLock(ids[0], ids[1], "old"));
    auto t1 = engine.Spawn(TwoLock(ids[0], ids[2], "young"));
    ASSERT_TRUE(t0.ok());
    ASSERT_TRUE(t1.ok());
    ASSERT_TRUE(engine.StepTxn(t0.value()).ok());  // old locks 0
    ASSERT_TRUE(engine.StepTxn(t1.value()).ok());  // young dies
    EXPECT_EQ(Rollbacks(trace.events, obs::RollbackCause::kWaitDie), 1u);
    ASSERT_TRUE(engine.RunToCompletion().ok());
  }
  {
    storage::EntityStore store;
    auto ids = store.CreateMany(4, 0);
    EngineOptions opt;
    opt.handling = DeadlockHandling::kTimeout;
    opt.wait_timeout_steps = 4;
    Engine engine(&store, opt);
    obs::EventLog trace;
    engine.set_trace(&trace);
    ASSERT_TRUE(engine.Spawn(TwoLock(ids[0], ids[1], "a")).ok());
    ASSERT_TRUE(engine.Spawn(TwoLock(ids[1], ids[0], "b")).ok());
    ASSERT_TRUE(engine.RunToCompletion().ok());
    EXPECT_GE(Rollbacks(trace.events, obs::RollbackCause::kTimeout), 1u);
  }
}

TEST(SiteAnalysisTest, ReportAndFractionBounds) {
  par::ShardedOptions opt;
  opt.num_shards = 1;
  opt.cross_shard_fraction = 0.0;
  opt.collect_forensics = true;
  opt.max_forensics_dumps = 4096;
  opt.workload.num_entities = 6;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.concurrency = 5;
  opt.total_txns = 40;
  opt.seed = 21;
  auto rep = par::RunSharded(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const dist::SiteAnalysis a = dist::AnalyzeDeadlockSites(rep->forensics, 3);
  EXPECT_EQ(a.deadlocks_local + a.deadlocks_multi_site,
            rep->aggregate.deadlocks);
  EXPECT_GE(a.multi_site_fraction, 0.0);
  EXPECT_LE(a.multi_site_fraction, 1.0);
  std::string s = rep->ToString();
  EXPECT_NE(s.find("committed=40"), std::string::npos);
  EXPECT_NE(s.find("serializable=yes"), std::string::npos);
}

TEST(WorkloadNamingTest, PatternAndHandlingNames) {
  EXPECT_EQ(sim::WritePatternName(sim::WritePattern::kScattered),
            "scattered");
  EXPECT_EQ(sim::WritePatternName(sim::WritePattern::kClustered),
            "clustered");
  EXPECT_EQ(sim::WritePatternName(sim::WritePattern::kThreePhase),
            "three-phase");
  EXPECT_EQ(core::DeadlockHandlingName(DeadlockHandling::kDetection),
            "detection");
  EXPECT_EQ(core::DeadlockHandlingName(DeadlockHandling::kWoundWait),
            "wound-wait");
  EXPECT_EQ(core::DeadlockHandlingName(DeadlockHandling::kWaitDie),
            "wait-die");
  EXPECT_EQ(core::DeadlockHandlingName(DeadlockHandling::kTimeout),
            "timeout");
}

TEST(RunReportTest, RollbackCostsPopulated) {
  par::ShardedOptions opt;
  opt.num_shards = 1;
  opt.cross_shard_fraction = 0.0;
  opt.workload.num_entities = 4;
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 4;
  opt.concurrency = 6;
  opt.total_txns = 60;
  opt.seed = 19;
  opt.check_serializability = false;
  auto rep = par::RunSharded(opt);
  ASSERT_TRUE(rep.ok());
  ASSERT_GT(rep->aggregate.rollbacks, 0u);
  EXPECT_EQ(rep->rollback_costs.count, rep->aggregate.rollbacks);
  EXPECT_LE(rep->rollback_costs.p50, rep->rollback_costs.p95);
  EXPECT_LE(rep->rollback_costs.p95, rep->rollback_costs.max);
}

}  // namespace
}  // namespace pardb
