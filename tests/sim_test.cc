#include <set>
#include <string>

#include <gtest/gtest.h>

#include "obs/serve/hub.h"
#include "par/report_json.h"
#include "par/sharded_driver.h"
#include "sim/workload.h"

namespace pardb::sim {
namespace {

TEST(WorkloadTest, GeneratesValidPrograms) {
  WorkloadOptions opt;
  opt.num_entities = 16;
  opt.min_locks = 2;
  opt.max_locks = 5;
  opt.ops_per_entity = 2;
  WorkloadGenerator gen(opt, 1);
  for (int i = 0; i < 50; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_GE(p.value().NumLockRequests(), 2u);
    EXPECT_LE(p.value().NumLockRequests(), 5u);
    for (const txn::Op& op : p.value().ops()) {
      if (op.code == txn::OpCode::kLockExclusive ||
          op.code == txn::OpCode::kLockShared) {
        EXPECT_LT(op.entity.value(), 16u);
      }
    }
  }
}

TEST(WorkloadTest, DeterministicPerSeed) {
  WorkloadOptions opt;
  WorkloadGenerator a(opt, 9), b(opt, 9), c(opt, 10);
  bool differs = false;
  for (int i = 0; i < 20; ++i) {
    auto pa = a.Next();
    auto pb = b.Next();
    auto pc = c.Next();
    ASSERT_TRUE(pa.ok());
    ASSERT_TRUE(pb.ok());
    ASSERT_TRUE(pc.ok());
    EXPECT_EQ(pa.value().ToString(), pb.value().ToString());
    if (pa.value().ToString() != pc.value().ToString()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(WorkloadTest, ClusteredPatternScoresZeroSpread) {
  WorkloadOptions opt;
  opt.pattern = WritePattern::kClustered;
  WorkloadGenerator gen(opt, 3);
  for (int i = 0; i < 20; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value().WriteSpreadScore(), 0u) << p.value().ToString();
  }
}

TEST(WorkloadTest, ThreePhasePatternIsThreePhase) {
  WorkloadOptions opt;
  opt.pattern = WritePattern::kThreePhase;
  WorkloadGenerator gen(opt, 4);
  for (int i = 0; i < 20; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(p.value().IsThreePhase()) << p.value().ToString();
  }
}

TEST(WorkloadTest, ScatteredPatternSpreadsWrites) {
  WorkloadOptions opt;
  opt.pattern = WritePattern::kScattered;
  opt.min_locks = 4;
  opt.max_locks = 8;
  opt.ops_per_entity = 3;
  WorkloadGenerator gen(opt, 5);
  std::uint64_t total_spread = 0;
  for (int i = 0; i < 30; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok());
    total_spread += p.value().WriteSpreadScore();
  }
  EXPECT_GT(total_spread, 0u);
}

TEST(WorkloadTest, SharedFractionProducesSharedLocks) {
  WorkloadOptions opt;
  opt.shared_fraction = 1.0;
  WorkloadGenerator gen(opt, 6);
  auto p = gen.Next();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().CountOps(txn::OpCode::kLockExclusive), 0u);
  EXPECT_GT(p.value().CountOps(txn::OpCode::kLockShared), 0u);
  EXPECT_EQ(p.value().CountOps(txn::OpCode::kWrite), 0u);
}

TEST(WorkloadTest, SortedEntitiesLockInOrder) {
  WorkloadOptions opt;
  opt.sorted_entities = true;
  WorkloadGenerator gen(opt, 7);
  for (int i = 0; i < 20; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok());
    EntityId prev;
    for (const txn::Op& op : p.value().ops()) {
      if (op.code == txn::OpCode::kLockExclusive ||
          op.code == txn::OpCode::kLockShared) {
        if (prev.valid()) {
          EXPECT_LT(prev, op.entity);
        }
        prev = op.entity;
      }
    }
  }
}

TEST(WorkloadTest, InvalidLockRangeRejected) {
  WorkloadOptions opt;
  opt.min_locks = 5;
  opt.max_locks = 2;
  WorkloadGenerator gen(opt, 1);
  EXPECT_EQ(gen.Next().status().code(), StatusCode::kInvalidArgument);
}

// The closed loop (§1): concurrency transactions live until total_txns
// commit, on one shard whose programs all come from one generator over
// the whole entity universe.
par::ShardedOptions OneShard() {
  par::ShardedOptions opt;
  opt.num_shards = 1;
  opt.cross_shard_fraction = 0.0;
  opt.instrument = false;
  return opt;
}

TEST(ClosedLoopTest, SmallContentedRunCompletesSerializably) {
  par::ShardedOptions opt = OneShard();
  opt.workload.num_entities = 8;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.concurrency = 4;
  opt.total_txns = 40;
  opt.seed = 11;
  auto report = par::RunSharded(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->committed, 40u);
  EXPECT_TRUE(report->serializable);
  EXPECT_GT(report->aggregate.ops_executed, 0u);
  // Streaming admission: programs are generated into a bounded queue,
  // never batch-materialized ahead of the engine.
  EXPECT_LE(report->admission.peak_materialized_programs,
            opt.admission_queue_capacity + 1);
}

TEST(ClosedLoopTest, DeterministicReports) {
  par::ShardedOptions opt = OneShard();
  opt.workload.num_entities = 6;
  opt.concurrency = 4;
  opt.total_txns = 30;
  opt.seed = 13;
  auto a = par::RunSharded(opt);
  auto b = par::RunSharded(opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(par::ShardedReportToJson(a.value()),
            par::ShardedReportToJson(b.value()));
  EXPECT_EQ(a->max_preemptions_single_txn, b->max_preemptions_single_txn);
}

TEST(ClosedLoopTest, NonPowerOfTwoHubSnapshotPeriodRoundsUpAndPublishes) {
  // A period of 100 is rounded up to 128 internally (masking with 99 would
  // not be a valid cadence).
  obs::LiveHub hub;
  par::ShardedOptions opt = OneShard();
  opt.workload.num_entities = 8;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.concurrency = 4;
  opt.total_txns = 40;
  opt.seed = 11;
  opt.hub = &hub;
  opt.hub_snapshot_period = 100;
  auto report = par::RunSharded(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->committed, 40u);
  EXPECT_EQ(hub.Snapshots().size(), 1u);  // one shard publishes as shard 0
}

TEST(ClosedLoopTest, SortedEntitiesNeverDeadlock) {
  // The hierarchical-order control: deadlock-free by construction.
  par::ShardedOptions opt = OneShard();
  opt.workload.num_entities = 8;
  opt.workload.sorted_entities = true;
  opt.concurrency = 6;
  opt.total_txns = 60;
  opt.seed = 17;
  auto report = par::RunSharded(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->aggregate.deadlocks, 0u);
  EXPECT_EQ(report->aggregate.rollbacks, 0u);
}

TEST(ClosedLoopTest, ContentionCausesDeadlocks) {
  par::ShardedOptions opt = OneShard();
  opt.workload.num_entities = 4;  // tiny database, heavy contention
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 4;
  opt.concurrency = 6;
  opt.total_txns = 60;
  opt.seed = 19;
  auto report = par::RunSharded(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->aggregate.deadlocks, 0u);
  EXPECT_GT(report->max_preemptions_single_txn, 0u);
  EXPECT_TRUE(report->serializable);
}

TEST(ClosedLoopTest, ReportToStringMentionsKeyFields) {
  par::ShardedOptions opt = OneShard();
  opt.total_txns = 5;
  opt.concurrency = 2;
  auto report = par::RunSharded(opt);
  ASSERT_TRUE(report.ok());
  std::string s = report->ToString();
  EXPECT_NE(s.find("committed=5"), std::string::npos);
  EXPECT_NE(s.find("serializable=yes"), std::string::npos);
}

// E2 (Figure 2, Theorem 2) on the one driver: on the random-contention
// sweep the unconstrained min-cost policy and the always-the-requester
// policy livelock — mutual preemption without end — while the ω-ordered
// policy and youngest-victim commit every transaction, serializably.
TEST(PaperClaimsTest, E2SweepLivelocksExactlyTheUnorderedPolicies) {
  for (auto policy :
       {core::VictimPolicyKind::kMinCost,
        core::VictimPolicyKind::kMinCostOrdered,
        core::VictimPolicyKind::kYoungest,
        core::VictimPolicyKind::kRequester}) {
    par::ShardedOptions opt = OneShard();
    opt.engine.victim_policy = policy;
    opt.engine.scheduler = core::SchedulerKind::kRandom;
    opt.workload.num_entities = 6;
    opt.workload.min_locks = 3;
    opt.workload.max_locks = 5;
    opt.concurrency = 8;
    opt.total_txns = 300;
    opt.max_steps_per_shard = 200'000;
    opt.seed = 4242;
    auto report = par::RunSharded(opt);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::string name(core::VictimPolicyKindName(policy));
    if (policy == core::VictimPolicyKind::kMinCost ||
        policy == core::VictimPolicyKind::kRequester) {
      EXPECT_FALSE(report->completed) << name << ": " << report->ToString();
      EXPECT_LT(report->committed, 300u) << name;
    } else {
      EXPECT_TRUE(report->completed) << name << ": " << report->ToString();
      EXPECT_EQ(report->committed, 300u) << name;
      EXPECT_TRUE(report->serializable) << name;
    }
  }
}

}  // namespace
}  // namespace pardb::sim
