// Tests for the §3.3 distributed substrate: timestamp prevention schemes
// (wound-wait / wait-die) built on partial rollback, and the per-site
// classification of the deadlocks a run's forensics recorded.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/engine.h"
#include "dist/distributed.h"
#include "par/sharded_driver.h"
#include "storage/entity_store.h"
#include "txn/program.h"

namespace pardb::dist {
namespace {

using core::DeadlockHandling;
using core::Engine;
using core::EngineOptions;
using core::StepOutcome;
using core::TxnStatus;
using txn::Operand;
using txn::ProgramBuilder;

txn::Program TwoLock(EntityId e1, EntityId e2, const std::string& name,
                     int fillers = 0) {
  ProgramBuilder b(name, 1);
  b.LockExclusive(e1);
  for (int i = 0; i < fillers; ++i) {
    b.Compute(0, Operand::Var(0), txn::ArithOp::kAdd, Operand::Imm(1));
  }
  b.LockExclusive(e2);
  b.WriteImm(e1, 1).WriteImm(e2, 2).Commit();
  auto p = b.Build();
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST(SitePartitionTest, StableAndInRange) {
  for (std::uint64_t e = 0; e < 100; ++e) {
    std::uint32_t s = SiteOfEntity(EntityId(e), 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, SiteOfEntity(EntityId(e), 4));
  }
  EXPECT_EQ(SiteOfEntity(EntityId(5), 0), 0u);
  EXPECT_EQ(SiteOfEntity(EntityId(5), 1), 0u);
}

TEST(SitePartitionTest, SpreadsOverSites) {
  std::set<std::uint32_t> seen;
  for (std::uint64_t e = 0; e < 64; ++e) {
    seen.insert(SiteOfEntity(EntityId(e), 4));
  }
  EXPECT_EQ(seen.size(), 4u);
}

class PreventionTest : public ::testing::Test {
 protected:
  void Init(DeadlockHandling handling) {
    ids_ = store_.CreateMany(4, 100);
    EngineOptions opt;
    opt.handling = handling;
    engine_ = std::make_unique<Engine>(&store_, opt);
  }
  storage::EntityStore store_;
  std::unique_ptr<Engine> engine_;
  std::vector<EntityId> ids_;
};

TEST_F(PreventionTest, WoundWaitOlderPreemptsYoungerHolder) {
  Init(DeadlockHandling::kWoundWait);
  // t0 (older) and t1 (younger) conflict on entity 0; t1 holds it when t0
  // requests: t1 is wounded even though no deadlock exists yet.
  auto t0 = engine_->Spawn(TwoLock(ids_[0], ids_[1], "old"));
  auto t1 = engine_->Spawn(TwoLock(ids_[0], ids_[2], "young"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // t1 locks 0
  auto outcome = engine_->StepTxn(t0.value());     // t0 requests 0 -> wound
  ASSERT_TRUE(outcome.ok());
  // t1 was rolled back past its lock on 0; t0 holds it now.
  EXPECT_EQ(outcome.value(), StepOutcome::kExecuted);
  EXPECT_EQ(engine_->metrics().RollbacksOf(obs::RollbackCause::kWoundWait), 1u);
  EXPECT_EQ(engine_->PreemptionCountOf(t1.value()), 1u);
  EXPECT_EQ(engine_->lock_manager().HeldMode(t0.value(), ids_[0]),
            lock::LockMode::kExclusive);
  EXPECT_EQ(engine_->StateIndexOf(t1.value()), 0u);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(PreventionTest, WoundWaitYoungerWaitsForOlder) {
  Init(DeadlockHandling::kWoundWait);
  auto t0 = engine_->Spawn(TwoLock(ids_[0], ids_[1], "old"));
  auto t1 = engine_->Spawn(TwoLock(ids_[0], ids_[2], "young"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // t0 (older) locks 0
  auto outcome = engine_->StepTxn(t1.value());     // t1 requests 0 -> waits
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), StepOutcome::kBlocked);
  EXPECT_EQ(engine_->metrics().RollbacksOf(obs::RollbackCause::kWoundWait), 0u);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(PreventionTest, WoundWaitNeverWoundsShrinkingHolder) {
  Init(DeadlockHandling::kWoundWait);
  // Younger t1 holds entity 0 and has already unlocked entity 2: it is in
  // its shrinking phase and cannot deadlock, so the older t0 simply waits.
  ProgramBuilder b("young-shrinking", 1);
  b.LockExclusive(ids_[2]).LockExclusive(ids_[0]);
  b.WriteImm(ids_[2], 9).Unlock(ids_[2]);
  b.WriteImm(ids_[0], 8).Commit();
  auto py = b.Build();
  ASSERT_TRUE(py.ok());
  auto t0 = engine_->Spawn(TwoLock(ids_[0], ids_[1], "old"));
  auto t1 = engine_->Spawn(std::move(py).value());
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // through the unlock
  }
  auto outcome = engine_->StepTxn(t0.value());  // t0 requests 0
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), StepOutcome::kBlocked);
  EXPECT_EQ(engine_->metrics().RollbacksOf(obs::RollbackCause::kWoundWait), 0u);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(PreventionTest, WaitDieYoungerRequesterDies) {
  Init(DeadlockHandling::kWaitDie);
  auto t0 = engine_->Spawn(TwoLock(ids_[0], ids_[1], "old"));
  auto t1 = engine_->Spawn(TwoLock(ids_[0], ids_[2], "young"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // t0 (older) locks 0
  auto outcome = engine_->StepTxn(t1.value());     // t1 requests 0 -> dies
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), StepOutcome::kRolledBack);
  EXPECT_EQ(engine_->metrics().RollbacksOf(obs::RollbackCause::kWaitDie), 1u);
  // Nothing held an older transaction was queued for: a zero-cost
  // cancel-and-retry.
  EXPECT_EQ(engine_->metrics().wasted_ops, 0u);
  EXPECT_EQ(engine_->StatusOf(t1.value()), TxnStatus::kReady);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(PreventionTest, WaitDieOlderRequesterWaits) {
  Init(DeadlockHandling::kWaitDie);
  auto t0 = engine_->Spawn(TwoLock(ids_[0], ids_[1], "old"));
  auto t1 = engine_->Spawn(TwoLock(ids_[0], ids_[2], "young"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // t1 (younger) locks 0
  auto outcome = engine_->StepTxn(t0.value());     // t0 requests 0 -> waits
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), StepOutcome::kBlocked);
  EXPECT_EQ(engine_->metrics().RollbacksOf(obs::RollbackCause::kWaitDie), 0u);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(PreventionTest, WaitDieReleasesLocksOlderTransactionsNeed) {
  Init(DeadlockHandling::kWaitDie);
  // t1 (young) holds entity 1 with 3 ops of progress; t0 (old) queues for
  // it; when t1 then dies against t0's hold on entity 0, its rollback must
  // reach back past entity 1 so t0 can proceed.
  auto t0 = engine_->Spawn(TwoLock(ids_[0], ids_[1], "old"));
  auto t1 = engine_->Spawn(TwoLock(ids_[1], ids_[0], "young", 3));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // lock 1 + fillers
  }
  ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // t0 locks 0
  auto w0 = engine_->StepTxn(t0.value());          // t0 queues for 1 (waits)
  ASSERT_TRUE(w0.ok());
  EXPECT_EQ(w0.value(), StepOutcome::kBlocked);
  auto died = engine_->StepTxn(t1.value());  // t1 requests 0 -> dies
  ASSERT_TRUE(died.ok());
  EXPECT_EQ(died.value(), StepOutcome::kRolledBack);
  EXPECT_EQ(engine_->metrics().RollbacksOf(obs::RollbackCause::kWaitDie), 1u);
  EXPECT_GT(engine_->metrics().wasted_ops, 0u);  // real progress lost
  // t0 got entity 1.
  EXPECT_EQ(engine_->lock_manager().HeldMode(t0.value(), ids_[1]),
            lock::LockMode::kExclusive);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

// The closed loop on one shard, every program from one generator over the
// whole entity universe; the forensics cap is the one the site analysis
// reads under (every dump of these runs is kept).
par::ShardedOptions OneShard() {
  par::ShardedOptions opt;
  opt.num_shards = 1;
  opt.cross_shard_fraction = 0.0;
  opt.instrument = false;
  opt.collect_forensics = true;
  opt.max_forensics_dumps = 4096;
  return opt;
}

TEST(PreventionLivenessTest, BothSchemesCompleteContendedWorkloads) {
  for (auto handling :
       {DeadlockHandling::kWoundWait, DeadlockHandling::kWaitDie}) {
    for (auto strategy : {rollback::StrategyKind::kTotalRestart,
                          rollback::StrategyKind::kMcs,
                          rollback::StrategyKind::kSdg}) {
      par::ShardedOptions opt = OneShard();
      opt.engine.handling = handling;
      opt.engine.strategy = strategy;
      opt.engine.scheduler = core::SchedulerKind::kRandom;
      opt.workload.num_entities = 6;
      opt.workload.min_locks = 2;
      opt.workload.max_locks = 4;
      opt.concurrency = 6;
      opt.total_txns = 60;
      opt.seed = 5;
      auto rep = par::RunSharded(opt);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      EXPECT_TRUE(rep->completed) << rep->ToString();
      EXPECT_EQ(rep->committed, 60u);
      EXPECT_TRUE(rep->serializable) << rep->ToString();
      // Prevention never runs the cycle detector.
      EXPECT_EQ(rep->aggregate.deadlocks, 0u);
      EXPECT_TRUE(rep->forensics.empty());
      using C = obs::RollbackCause;
      EXPECT_EQ(rep->aggregate.RollbacksOf(
                    handling == DeadlockHandling::kWoundWait ? C::kWaitDie
                                                             : C::kWoundWait),
                0u);
    }
  }
}

TEST(PreventionLivenessTest, SharedLockWorkloadsComplete) {
  for (auto handling :
       {DeadlockHandling::kWoundWait, DeadlockHandling::kWaitDie}) {
    par::ShardedOptions opt = OneShard();
    opt.engine.handling = handling;
    opt.workload.num_entities = 6;
    opt.workload.shared_fraction = 0.5;
    opt.concurrency = 6;
    opt.total_txns = 60;
    opt.seed = 11;
    auto rep = par::RunSharded(opt);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_TRUE(rep->completed) << rep->ToString();
    EXPECT_TRUE(rep->serializable);
  }
}

obs::DeadlockDump DumpOverEntities(const std::vector<std::uint64_t>& ids) {
  obs::DeadlockDump dump;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    dump.arcs.push_back(obs::WaitsForArc{
        TxnId(i), TxnId((i + 1) % ids.size()), EntityId(ids[i])});
  }
  return dump;
}

// Entities 0.. grouped by the site SiteOfEntity assigns them.
std::vector<std::vector<std::uint64_t>> EntitiesBySite(std::uint32_t sites) {
  std::vector<std::vector<std::uint64_t>> by_site(sites);
  for (std::uint64_t e = 0; e < 256; ++e) {
    by_site[SiteOfEntity(EntityId(e), sites)].push_back(e);
  }
  return by_site;
}

TEST(SiteAnalysisTest, OneSiteCycleIsLocal) {
  const auto by_site = EntitiesBySite(4);
  ASSERT_GE(by_site[2].size(), 3u);
  const SiteAnalysis a = AnalyzeDeadlockSites(
      {DumpOverEntities({by_site[2][0], by_site[2][1], by_site[2][2]})}, 4);
  EXPECT_EQ(a.deadlocks_local, 1u);
  EXPECT_EQ(a.deadlocks_multi_site, 0u);
  EXPECT_EQ(a.multi_site_fraction, 0.0);
  EXPECT_EQ(a.max_sites_in_deadlock, 1u);
}

TEST(SiteAnalysisTest, ThreeSiteCycleIsMultiSite) {
  const auto by_site = EntitiesBySite(4);
  const SiteAnalysis a = AnalyzeDeadlockSites(
      {DumpOverEntities({by_site[0][0], by_site[1][0], by_site[3][0],
                         by_site[1][1]}),
       DumpOverEntities({by_site[3][0], by_site[3][1]})},
      4);
  EXPECT_EQ(a.deadlocks_local, 1u);
  EXPECT_EQ(a.deadlocks_multi_site, 1u);
  EXPECT_EQ(a.multi_site_fraction, 0.5);
  EXPECT_EQ(a.max_sites_in_deadlock, 3u);
  // One site holds every entity: nothing is multi-site.
  EXPECT_EQ(AnalyzeDeadlockSites(
                {DumpOverEntities({by_site[0][0], by_site[1][0]})}, 1)
                .deadlocks_multi_site,
            0u);
}

TEST(SiteAnalysisTest, EmptyInputIsAllZeroAndFinite) {
  const SiteAnalysis a = AnalyzeDeadlockSites({}, 4);
  EXPECT_EQ(a.deadlocks_local, 0u);
  EXPECT_EQ(a.deadlocks_multi_site, 0u);
  EXPECT_EQ(a.max_sites_in_deadlock, 0u);
  EXPECT_TRUE(std::isfinite(a.multi_site_fraction));
  EXPECT_EQ(a.multi_site_fraction, 0.0);
}

TEST(SiteAnalysisTest, DetectionRunClassifiesEveryDeadlock) {
  par::ShardedOptions opt = OneShard();
  opt.engine.handling = DeadlockHandling::kDetection;
  opt.workload.num_entities = 8;
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 5;
  opt.concurrency = 8;
  opt.total_txns = 120;
  opt.seed = 3;
  auto rep = par::RunSharded(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_TRUE(rep->completed);
  EXPECT_GT(rep->aggregate.deadlocks, 0u);
  const SiteAnalysis a = AnalyzeDeadlockSites(rep->forensics, 4);
  EXPECT_EQ(a.deadlocks_local + a.deadlocks_multi_site,
            rep->aggregate.deadlocks);
  // With 8 entities hashed over 4 sites, most 2+-entity cycles span sites.
  EXPECT_GT(a.deadlocks_multi_site, 0u);
  EXPECT_GE(a.max_sites_in_deadlock, 2u);
}

TEST(SiteAnalysisTest, PreventionCostsMoreRollbacksButNoGraph) {
  // Same workload under detection and wound-wait: prevention needs no
  // cycle enumeration but preempts on conflicts, not deadlocks, so it
  // rolls back at least as often.
  par::ShardedOptions base = OneShard();
  base.workload.num_entities = 8;
  base.workload.min_locks = 3;
  base.workload.max_locks = 5;
  base.concurrency = 8;
  base.total_txns = 120;
  base.seed = 9;

  auto detect = base;
  detect.engine.handling = DeadlockHandling::kDetection;
  auto dr = par::RunSharded(detect);
  ASSERT_TRUE(dr.ok());

  auto wound = base;
  wound.engine.handling = DeadlockHandling::kWoundWait;
  auto wr = par::RunSharded(wound);
  ASSERT_TRUE(wr.ok());

  EXPECT_GE(wr->aggregate.rollbacks, dr->aggregate.rollbacks);
  EXPECT_EQ(wr->aggregate.cycles_found, 0u);
  EXPECT_GT(dr->aggregate.cycles_found, 0u);
}

TEST(SiteAnalysisTest, EmptyWorkloadReportStaysFinite) {
  // Zero transactions -> zero commits and zero executed ops. Every report
  // fraction must degrade to a finite 0.0, never NaN/inf.
  par::ShardedOptions opt = OneShard();
  opt.total_txns = 0;
  auto rep = par::RunSharded(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->committed, 0u);
  EXPECT_EQ(rep->aggregate.ops_executed, 0u);
  EXPECT_TRUE(std::isfinite(rep->wasted_fraction));
  EXPECT_TRUE(std::isfinite(rep->goodput));
  EXPECT_EQ(rep->wasted_fraction, 0.0);
  EXPECT_EQ(rep->goodput, 0.0);
  EXPECT_EQ(AnalyzeDeadlockSites(rep->forensics, 4).multi_site_fraction, 0.0);
}

}  // namespace
}  // namespace pardb::dist
