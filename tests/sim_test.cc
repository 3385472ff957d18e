#include <set>
#include <string>

#include <gtest/gtest.h>

#include "obs/serve/hub.h"
#include "par/report_json.h"
#include "par/sharded_driver.h"
#include "sim/workload.h"
#include "workload_oracle.h"

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

TEST(WorkloadTest, PoolListingAnEntityTwiceIsRefused) {
  WorkloadOptions opt;
  opt.entity_universe = {EntityId(5), EntityId(5), EntityId(6)};
  opt.min_locks = opt.max_locks = 3;  // draws every pool index
  WorkloadGenerator gen(opt, 1);
  EXPECT_EQ(gen.Next().status().code(), StatusCode::kInvalidArgument);
}

// Generator oracle (tests/workload_oracle.h): the builder-based generator,
// program by program, over every option that shapes a program.
void ExpectSameProgram(const txn::Program& want, const txn::Program& got) {
  ASSERT_EQ(want.name(), got.name());
  ASSERT_EQ(want.size(), got.size()) << want.name();
  auto SameOperand = [](const txn::Operand& x, const txn::Operand& y) {
    return x.kind == y.kind && x.imm == y.imm && x.var == y.var;
  };
  for (std::size_t i = 0; i < want.size(); ++i) {
    const txn::Op& w = want.op(i);
    const txn::Op& g = got.op(i);
    ASSERT_TRUE(w.code == g.code && w.entity == g.entity && w.dst == g.dst &&
                w.arith == g.arith && SameOperand(w.a, g.a) &&
                SameOperand(w.b, g.b))
        << want.name() << " op " << i << ": " << w.ToString() << " vs "
        << g.ToString();
  }
  ASSERT_EQ(want.num_vars(), got.num_vars());
  ASSERT_EQ(want.initial_vars(), got.initial_vars());
  ASSERT_EQ(want.LockRequestPositions(), got.LockRequestPositions());
  ASSERT_EQ(want.MaxEntityBound(), got.MaxEntityBound());
}

// Draws `count` programs from both and compares them; then a bookmark of
// each draws the next `count` while the originals draw them too.
void ExpectMatchesOracle(const WorkloadOptions& opt, std::uint64_t seed,
                         int count) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  WorkloadGenerator gen(opt, seed);
  OracleWorkloadGenerator oracle(opt, seed);
  auto Same = [](OracleWorkloadGenerator& o, WorkloadGenerator& g) {
    auto want = o.Next();
    auto got = g.Next();
    ASSERT_EQ(want.ok(), got.ok());
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectSameProgram(want.value(), got.value());
  };
  for (int i = 0; i < count; ++i) {
    ASSERT_NO_FATAL_FAILURE(Same(oracle, gen));
  }
  WorkloadGenerator gen_mark = gen;
  OracleWorkloadGenerator oracle_mark = oracle;
  for (int i = 0; i < count; ++i) {
    ASSERT_NO_FATAL_FAILURE(Same(oracle, gen));
  }
  for (int i = 0; i < count; ++i) {
    ASSERT_NO_FATAL_FAILURE(Same(oracle_mark, gen_mark));
  }
}

TEST(WorkloadOracleTest, DrawsTheBuilderGeneratorsProgramsExactly) {
  struct Case {
    const char* label;
    WorkloadOptions opt;
    int count;
  };
  std::vector<Case> cases;
  auto Add = [&](const char* label, auto edit, int count = 20) {
    WorkloadOptions o;
    edit(o);
    cases.push_back(Case{label, o, count});
  };
  Add("default scattered", [](WorkloadOptions&) {});
  Add("clustered", [](WorkloadOptions& o) {
    o.pattern = WritePattern::kClustered;
  });
  Add("three-phase", [](WorkloadOptions& o) {
    o.pattern = WritePattern::kThreePhase;
  });
  for (WritePattern w : {WritePattern::kScattered, WritePattern::kClustered,
                         WritePattern::kThreePhase}) {
    for (double shared : {0.3, 1.0}) {
      Add("shared mix", [&](WorkloadOptions& o) {
        o.pattern = w;
        o.shared_fraction = shared;
        o.zipf_theta = 0.8;
      });
    }
  }
  Add("sorted entities", [](WorkloadOptions& o) {
    o.sorted_entities = true;
    o.shared_fraction = 0.3;
    o.zipf_theta = 0.9;
    o.num_entities = 12;
  });
  Add("entity universe", [](WorkloadOptions& o) {
    for (std::uint64_t e = 0; e < 40; ++e) {
      o.entity_universe.push_back(EntityId(1000 - 7 * e));
    }
    o.zipf_theta = 0.5;
    o.shared_fraction = 0.3;
  });
  Add("sorted entity universe", [](WorkloadOptions& o) {
    for (std::uint64_t e = 0; e < 16; ++e) {
      o.entity_universe.push_back(EntityId(300 - 11 * e));
    }
    o.sorted_entities = true;
  });
  Add("templates", [](WorkloadOptions& o) {
    o.num_templates = 5;
    o.shared_fraction = 0.3;
  });
  for (std::uint32_t reps : {0u, 1u, 3u}) {
    Add("ops per entity", [&](WorkloadOptions& o) {
      o.ops_per_entity = reps;
      o.shared_fraction = 0.3;
    });
  }
  Add("fixed lock count", [](WorkloadOptions& o) {
    o.min_locks = o.max_locks = 4;
  });
  Add("200+ locks", [](WorkloadOptions& o) {
    o.num_entities = 1000;
    o.min_locks = 200;
    o.max_locks = 260;
    o.ops_per_entity = 3;
    o.shared_fraction = 0.3;
  }, 2);
  Add("universe smaller than k", [](WorkloadOptions& o) {
    o.num_entities = 3;
    o.min_locks = 5;
    o.max_locks = 8;
  });
  Add("pool smaller than k", [](WorkloadOptions& o) {
    o.entity_universe = {EntityId(9), EntityId(4)};
    o.min_locks = 3;
    o.max_locks = 6;
    o.shared_fraction = 0.5;
  });
  Add("empty universe", [](WorkloadOptions& o) { o.num_entities = 0; });
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(c.opt, seed, c.count));
    }
  }
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
  // Streamed admission: each program is drawn as the shard admits it, so
  // none waits ahead of the engine.
  EXPECT_EQ(report->admission.peak_materialized_programs, 0u);
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
