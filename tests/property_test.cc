// Property-based tests over random workloads: the paper's §2 claim that
// partial rollback never compromises two-phase locking's serializability,
// the Theorem 2 ordering invariant, the Theorem 1 forest invariant, the
// Theorem 3 space bound and the derived waits-for graph against an
// independent restatement of the arc rules, all checked across every
// strategy/policy combination.

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/history.h"
#include "core/engine.h"
#include "obs/journal.h"
#include "par/sharded_driver.h"
#include "rollback/plan.h"
#include "sim/workload.h"
#include "storage/entity_store.h"
#include "component_oracle.h"
#include "waits_for_oracle.h"

namespace pardb {
namespace {

using core::Engine;
using core::EngineOptions;
using core::SchedulerKind;
using core::VictimPolicyKind;
using rollback::StrategyKind;
using sim::WorkloadGenerator;
using sim::WorkloadOptions;

// The closed loop on one shard: every program comes from one generator
// over the whole entity universe.
par::ShardedOptions OneShard() {
  par::ShardedOptions opt;
  opt.num_shards = 1;
  opt.cross_shard_fraction = 0.0;
  opt.instrument = false;
  return opt;
}

struct Config {
  StrategyKind strategy;
  VictimPolicyKind policy;
  core::DeadlockHandling handling = core::DeadlockHandling::kDetection;
};

std::vector<Config> AllConfigs() {
  std::vector<Config> out;
  // Detection with every victim policy.
  for (auto s : {StrategyKind::kTotalRestart, StrategyKind::kMcs,
                 StrategyKind::kSdg}) {
    for (auto p :
         {VictimPolicyKind::kMinCost, VictimPolicyKind::kMinCostOrdered,
          VictimPolicyKind::kYoungest, VictimPolicyKind::kOldest,
          VictimPolicyKind::kRequester}) {
      out.push_back({s, p});
    }
  }
  // Prevention/timeout schemes with every rollback strategy.
  for (auto s : {StrategyKind::kTotalRestart, StrategyKind::kMcs,
                 StrategyKind::kSdg}) {
    for (auto h :
         {core::DeadlockHandling::kWoundWait, core::DeadlockHandling::kWaitDie,
          core::DeadlockHandling::kTimeout}) {
      out.push_back({s, VictimPolicyKind::kMinCostOrdered, h});
    }
  }
  return out;
}

class PropertyTest : public ::testing::TestWithParam<Config> {};

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PropertyTest, ::testing::ValuesIn(AllConfigs()),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string name(core::DeadlockHandlingName(info.param.handling));
      name += "_";
      name += rollback::StrategyKindName(info.param.strategy);
      if (info.param.handling == core::DeadlockHandling::kDetection) {
        name += "_";
        name += core::VictimPolicyKindName(info.param.policy);
      }
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST_P(PropertyTest, ContendedRunsStaySerializable) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    par::ShardedOptions opt = OneShard();
    opt.engine.strategy = GetParam().strategy;
    opt.engine.victim_policy = GetParam().policy;
    opt.engine.handling = GetParam().handling;
    opt.engine.scheduler = SchedulerKind::kRandom;
    opt.workload.num_entities = 5;  // heavy contention
    opt.workload.min_locks = 2;
    opt.workload.max_locks = 4;
    opt.workload.ops_per_entity = 2;
    opt.concurrency = 5;
    opt.total_txns = 50;
    opt.max_steps_per_shard = 2'000'000;
    opt.seed = seed * 100;
    auto report = par::RunSharded(opt);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (GetParam().policy == VictimPolicyKind::kMinCost &&
        GetParam().handling == core::DeadlockHandling::kDetection) {
      // Unconstrained min-cost may livelock — the paper's potentially
      // infinite mutual preemption (Figure 2). Whatever committed must
      // still be serializable.
      EXPECT_TRUE(report->serializable) << report->ToString();
    } else {
      EXPECT_TRUE(report->completed) << report->ToString();
      EXPECT_EQ(report->committed, 50u);
      EXPECT_TRUE(report->serializable)
          << "seed " << seed << ": " << report->ToString();
    }
    EXPECT_LE(report->aggregate.ideal_wasted_ops, report->aggregate.wasted_ops);
  }
}

TEST_P(PropertyTest, SharedLockRunsStaySerializable) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    par::ShardedOptions opt = OneShard();
    opt.engine.strategy = GetParam().strategy;
    opt.engine.victim_policy = GetParam().policy;
    opt.engine.handling = GetParam().handling;
    opt.engine.scheduler = SchedulerKind::kRandom;
    opt.workload.num_entities = 6;
    opt.workload.min_locks = 2;
    opt.workload.max_locks = 4;
    opt.workload.shared_fraction = 0.5;
    opt.concurrency = 5;
    opt.total_txns = 40;
    opt.max_steps_per_shard = 2'000'000;
    opt.seed = seed * 31;
    auto report = par::RunSharded(opt);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->serializable) << report->ToString();
    if (GetParam().policy != VictimPolicyKind::kMinCost ||
        GetParam().handling != core::DeadlockHandling::kDetection) {
      EXPECT_TRUE(report->completed) << report->ToString();
    }
  }
}

// The concurrent outcome must equal SOME serial execution of the same
// programs (view of final database state) — stronger than the precedence
// check, verified by brute force over all permutations of 3 transactions.
TEST_P(PropertyTest, FinalStateMatchesSomeSerialOrder) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    WorkloadOptions wopt;
    wopt.num_entities = 4;
    wopt.min_locks = 2;
    wopt.max_locks = 3;
    wopt.ops_per_entity = 2;
    WorkloadGenerator gen(wopt, seed);
    std::vector<txn::Program> programs;
    for (int i = 0; i < 3; ++i) {
      auto p = gen.Next();
      ASSERT_TRUE(p.ok());
      programs.push_back(std::move(p).value());
    }

    // Concurrent run.
    storage::EntityStore store;
    store.CreateMany(wopt.num_entities, 100);
    EngineOptions eopt;
    eopt.strategy = GetParam().strategy;
    eopt.victim_policy = GetParam().policy;
    eopt.handling = GetParam().handling;
    eopt.scheduler = SchedulerKind::kRandom;
    eopt.seed = seed;
    Engine engine(&store, eopt);
    for (const auto& p : programs) {
      ASSERT_TRUE(engine.Spawn(p).ok());
    }
    Status run = engine.RunToCompletion(2'000'000);
    if (!run.ok() && run.code() == StatusCode::kResourceExhausted &&
        GetParam().policy == VictimPolicyKind::kMinCost &&
        GetParam().handling == core::DeadlockHandling::kDetection) {
      continue;  // documented min-cost livelock; nothing to compare
    }
    ASSERT_TRUE(run.ok()) << run << "\n" << engine.DumpState();
    auto concurrent = store.Snapshot();

    // All serial orders.
    std::vector<int> perm{0, 1, 2};
    bool matched = false;
    do {
      storage::EntityStore serial_store;
      serial_store.CreateMany(wopt.num_entities, 100);
      Engine serial(&serial_store, EngineOptions{});
      bool ok = true;
      for (int i : perm) {
        auto t = serial.Spawn(programs[i]);
        ok = ok && t.ok() && serial.RunToCompletion().ok();
      }
      ASSERT_TRUE(ok);
      if (serial_store.Snapshot() == concurrent) {
        matched = true;
        break;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_TRUE(matched) << "no serial order matches, seed " << seed;
  }
}

// Theorem 2's invariant under the ordered policy: a preempted victim is
// always younger (later entry) than the requester that caused the
// preemption.
TEST(OrderedPolicyPropertyTest, VictimsNeverOlderThanRequester) {
  EngineOptions eopt;
  eopt.victim_policy = VictimPolicyKind::kMinCostOrdered;
  eopt.scheduler = SchedulerKind::kRandom;
  WorkloadOptions wopt;
  wopt.num_entities = 5;
  wopt.min_locks = 2;
  wopt.max_locks = 4;
  const std::uint32_t concurrency = 6;
  const std::uint64_t total_txns = 80;

  storage::EntityStore store;
  store.CreateMany(wopt.num_entities, 100);
  // Every deadlock of the run, up to 4096.
  obs::CollectingDeadlockSink deadlocks(4096);
  Engine engine(&store, eopt);
  engine.set_forensics(&deadlocks);
  WorkloadGenerator gen(wopt, /*seed=*/3);
  std::uint64_t spawned = 0;
  while (engine.metrics().commits < total_txns) {
    while (spawned < total_txns &&
           spawned - engine.metrics().commits < concurrency) {
      auto p = gen.Next();
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE(engine.Spawn(std::move(p).value()).ok());
      ++spawned;
    }
    auto stepped = engine.StepAny();
    ASSERT_TRUE(stepped.ok());
    ASSERT_TRUE(stepped.value().has_value());
  }
  // Entries as the dump priced them: a committed transaction's id no
  // longer answers EntryOf.
  for (const obs::DeadlockDump& ev : deadlocks.dumps()) {
    Timestamp requester_entry = 0;
    for (const obs::DeadlockParticipant& p : ev.participants) {
      if (p.is_requester) requester_entry = p.entry;
    }
    for (const obs::DeadlockParticipant& p : ev.participants) {
      if (!p.is_victim || p.is_requester) continue;
      EXPECT_GT(p.entry, requester_entry)
          << "older transaction preempted under the ordered policy";
    }
  }
}

// Theorem 1: with exclusive locks only, the waits-for graph is a forest at
// every step (checked between scheduler steps on a contended workload).
// Uses the paper's own grant model — with holder-only arcs a waiter waits
// for exactly one exclusive holder.
TEST(ForestPropertyTest, XOnlyGraphAlwaysForest) {
  storage::EntityStore store;
  store.CreateMany(5, 100);
  EngineOptions eopt;
  eopt.scheduler = SchedulerKind::kRandom;
  eopt.seed = 5;
  eopt.lock_options.fifo_fairness = false;
  Engine engine(&store, eopt);
  WorkloadOptions wopt;
  wopt.num_entities = 5;
  wopt.min_locks = 2;
  wopt.max_locks = 4;
  WorkloadGenerator gen(wopt, 21);
  for (int i = 0; i < 8; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(engine.Spawn(std::move(p).value()).ok());
  }
  int guard = 200000;
  while (!engine.AllCommitted() && guard-- > 0) {
    auto stepped = engine.StepAny();
    ASSERT_TRUE(stepped.ok());
    ASSERT_TRUE(stepped.value().has_value());
    const obs::WaitsForSnapshot snap = engine.SnapshotWaitsFor();
    EXPECT_TRUE(snap.forest) << snap.ToDot();
  }
  EXPECT_TRUE(engine.AllCommitted());
}

// The engine derives its waits-for graph from the lock table (DESIGN D27).
// After every step of a contended shared/exclusive run it must equal, edge
// for edge, the arcs the §2 conflict rule and the D6 queue rule give for
// that table — under every handling mode, both queue disciplines and both
// detection cadences. LockManager::MayBlockWaiters, the detection
// early-out (DESIGN D28), must answer true for every tail of those arcs.
// Before every step — so in the state each periodic scan's first round
// reads — Engine::CyclicGroups, the groups the scan collects (DESIGN D30),
// must equal the whole-graph oracle's cyclic components, and the
// snapshot's structure flags the oracle's.
struct WaitsForCase {
  const char* name;
  core::DeadlockHandling handling;
  core::DetectionMode detection = core::DetectionMode::kContinuous;
};

class WaitsForOracleTest
    : public ::testing::TestWithParam<std::tuple<WaitsForCase, bool>> {};

TEST_P(WaitsForOracleTest, DerivedGraphMatchesOracleAfterEveryStep) {
  const auto& [c, fifo] = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WorkloadOptions wopt;
    wopt.num_entities = 8;
    wopt.min_locks = 2;
    wopt.max_locks = 5;
    wopt.zipf_theta = 0.7;
    wopt.shared_fraction = 0.3;
    storage::EntityStore store;
    store.CreateMany(wopt.num_entities, 100);
    EngineOptions eopt;
    eopt.handling = c.handling;
    eopt.detection_mode = c.detection;
    eopt.detection_period = 8;
    eopt.wait_timeout_steps = 16;
    eopt.lock_options.fifo_fairness = fifo;
    eopt.scheduler = SchedulerKind::kRandom;
    eopt.seed = seed;
    Engine engine(&store, eopt);
    WorkloadGenerator gen(wopt, seed);
    std::vector<TxnId> spawned;
    std::uint64_t arcs_seen = 0;
    std::uint64_t answered_yes = 0;
    std::uint64_t answered_no = 0;
    std::uint64_t groups_seen = 0;
    int guard = 100000;
    while (engine.metrics().commits < 60 && guard-- > 0) {
      while (spawned.size() < 60 &&
             spawned.size() - engine.metrics().commits < 8) {
        auto p = gen.Next();
        ASSERT_TRUE(p.ok());
        auto id = engine.Spawn(std::move(p).value());
        ASSERT_TRUE(id.ok());
        spawned.push_back(id.value());
      }
      {
        std::vector<graph::Edge> arcs;
        engine.AppendWaitsFor(&arcs);
        const auto want = graph::CyclicComponentsOracle(arcs);
        ASSERT_EQ(engine.CyclicGroups(), want)
            << "step " << engine.metrics().steps << "\n"
            << engine.lock_manager().ToString();
        groups_seen += want.size();
        const obs::WaitsForSnapshot snap = engine.SnapshotWaitsFor();
        ASSERT_EQ(snap.acyclic, want.empty());
        ASSERT_EQ(snap.forest, graph::IsForestOracle(arcs));
      }
      auto stepped = engine.StepAny();
      ASSERT_TRUE(stepped.ok()) << stepped.status();
      if (!stepped.value().has_value()) break;  // stalled; checked below
      std::vector<graph::Edge> derived;
      engine.AppendWaitsFor(&derived);
      const std::set<graph::Edge> expected =
          WaitsForOracle(engine.lock_manager(), spawned);
      ASSERT_EQ(std::set<graph::Edge>(derived.begin(), derived.end()),
                expected)
          << "step " << engine.metrics().steps << "\n"
          << engine.lock_manager().ToString();
      ASSERT_EQ(derived.size(), expected.size());
      arcs_seen += derived.size();
      // The detection early-out (DESIGN D28): a transaction the lock
      // table says no waiter lists is the tail of no arc.
      for (TxnId t : spawned) {
        const bool may_block = engine.lock_manager().MayBlockWaiters(t);
        (may_block ? answered_yes : answered_no) += 1;
        if (may_block) continue;
        for (const graph::Edge& e : expected) {
          ASSERT_NE(e.from, t.value())
              << "step " << engine.metrics().steps << "\n"
              << engine.lock_manager().ToString();
        }
      }
    }
    // With the paper's grant rule (DESIGN D6) some prevention runs stall
    // (nothing ready) or run out of steps; FIFO runs finish.
    if (fifo) {
      EXPECT_EQ(engine.metrics().commits, 60u);
    }
    // The runs must actually wait, or the comparison shows nothing; a
    // periodic run must meet deadlocked groups before its scans.
    EXPECT_GT(arcs_seen, 0u);
    EXPECT_GT(answered_yes, 0u);
    EXPECT_GT(answered_no, 0u);
    if (c.detection == core::DetectionMode::kPeriodic) {
      EXPECT_GT(groups_seen, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllHandlings, WaitsForOracleTest,
    ::testing::Combine(
        ::testing::Values(
            WaitsForCase{"continuous", core::DeadlockHandling::kDetection},
            WaitsForCase{"periodic", core::DeadlockHandling::kDetection,
                         core::DetectionMode::kPeriodic},
            WaitsForCase{"wound_wait", core::DeadlockHandling::kWoundWait},
            WaitsForCase{"wait_die", core::DeadlockHandling::kWaitDie},
            WaitsForCase{"timeout", core::DeadlockHandling::kTimeout}),
        ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) ? "_fifo" : "_paper");
    });

// Theorem 3: the engine-observed peak MCS copies never exceed n(n+1)/2
// entity copies and n*|L| variable copies for n = max locks per txn.
TEST(McsSpacePropertyTest, EngineRunsRespectTheorem3Bound) {
  par::ShardedOptions opt = OneShard();
  opt.engine.strategy = StrategyKind::kMcs;
  opt.workload.num_entities = 8;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 6;
  opt.workload.ops_per_entity = 3;
  opt.workload.pattern = sim::WritePattern::kScattered;
  opt.concurrency = 5;
  opt.total_txns = 60;
  opt.seed = 7;
  auto report = par::RunSharded(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::size_t n = opt.workload.max_locks;
  EXPECT_LE(report->aggregate.max_entity_copies, n * (n + 1) / 2);
  // |L| = one var per locked entity in the generator.
  EXPECT_LE(report->aggregate.max_var_copies, n * opt.workload.max_locks);
}

// Theorem 3 per program: the MCS preset's peak copies, sealed at the last
// lock request as under detection, stay within n(n+1)/2 entity copies and
// n*|L| variable copies, where n is the program's lock requests and |L|
// its variables — for every write pattern, with and without shared locks.
TEST(McsSpacePropertyTest, PlanPeaksRespectTheorem3Bound) {
  for (sim::WritePattern pattern :
       {sim::WritePattern::kScattered, sim::WritePattern::kClustered,
        sim::WritePattern::kThreePhase}) {
    for (double shared : {0.0, 0.3}) {
      WorkloadOptions w;
      w.num_entities = 32;
      w.min_locks = 1;
      w.max_locks = 12;
      w.ops_per_entity = 4;
      w.pattern = pattern;
      w.shared_fraction = shared;
      WorkloadGenerator gen(w, 5);
      rollback::RollbackPlanner planner;
      for (int i = 0; i < 200; ++i) {
        const txn::Program p = gen.Next().value();
        const rollback::CopyCounts peak =
            planner.Build(p, StrategyKind::kMcs, /*seal=*/true)
                .PeakCopiesAt(p.size());
        const std::size_t n = p.NumLockRequests();
        EXPECT_LE(peak.entity, n * (n + 1) / 2) << p.ToString();
        EXPECT_LE(peak.var, n * p.num_vars()) << p.ToString();
      }
    }
  }
}

// Strategy comparison on identical workloads: single-copy strategies can
// only lose MORE progress than MCS's exact restoration would, never less
// (per-event; aggregate across a run is measured in the benches).
TEST(StrategyComparisonTest, ActualCostNeverBelowIdeal) {
  for (auto strategy :
       {StrategyKind::kTotalRestart, StrategyKind::kMcs, StrategyKind::kSdg}) {
    par::ShardedOptions opt = OneShard();
    opt.engine.strategy = strategy;
    opt.workload.num_entities = 5;
    opt.workload.min_locks = 2;
    opt.workload.max_locks = 4;
    opt.concurrency = 5;
    opt.total_txns = 40;
    opt.seed = 23;
    auto report = par::RunSharded(opt);
    ASSERT_TRUE(report.ok());
    EXPECT_GE(report->aggregate.wasted_ops, report->aggregate.ideal_wasted_ops);
    if (strategy == StrategyKind::kMcs) {
      EXPECT_EQ(report->aggregate.wasted_ops,
                report->aggregate.ideal_wasted_ops);
    }
  }
}

// ---------------------------------------------------------------------------
// One rollback, one charge: every rollback site (detection victims and
// self-rollbacks, wounds, deaths, timeouts and the coordinator's
// distributed rollbacks) goes through one accounting path, so on every
// shard the engine's ledger and the journal's rollback records — the two
// independent records of a run's rollbacks — describe the same rollbacks,
// cause by cause. A site that charged its cost twice, or emitted a
// rollback it did not count, breaks an equality.
// ---------------------------------------------------------------------------

// `report` is the run of `opt`, which recorded its journals to files.
void ExpectOneChargePerRollback(const par::ShardedOptions& opt,
                                const par::ShardedReport& report,
                                const std::string& what) {
  std::uint64_t rollbacks = 0;
  for (const par::ShardResult& shard : report.shards) {
    const std::string where =
        what + " shard " + std::to_string(shard.shard);
    auto journal = obs::ReadJournalFile(opt.journal_out + ".shard" +
                                        std::to_string(shard.shard) + ".jrnl");
    ASSERT_TRUE(journal.ok()) << where << ": " << journal.status().ToString();
    ASSERT_EQ(journal->dropped, 0u) << where;
    std::array<std::uint64_t, obs::kNumRollbackCauses> rollbacks_by_cause{};
    std::array<std::uint64_t, obs::kNumRollbackCauses> wasted_by_cause{};
    for (const obs::JournalRecord& r : journal->records) {
      if (r.kind != static_cast<std::uint8_t>(obs::EventKind::kRollback)) {
        continue;
      }
      ++rollbacks_by_cause.at(r.aux);
      wasted_by_cause.at(r.aux) += r.b;
    }
    const core::EngineMetrics& m = shard.metrics;
    EXPECT_EQ(m.rollbacks_by_cause, rollbacks_by_cause) << where;
    EXPECT_EQ(m.wasted_by_cause, wasted_by_cause) << where;
    std::uint64_t wasted = 0;
    for (std::size_t c = 0; c < obs::kNumRollbackCauses; ++c) {
      rollbacks += rollbacks_by_cause[c];
      wasted += wasted_by_cause[c];
    }
    EXPECT_EQ(m.wasted_ops, wasted) << where;
  }
  EXPECT_EQ(report.aggregate.rollbacks, rollbacks) << what;
  EXPECT_GT(rollbacks, 0u) << what << ": the mix must contend";
}

par::ShardedOptions ContendedRecorded(const std::string& name) {
  par::ShardedOptions opt = OneShard();
  opt.engine.scheduler = SchedulerKind::kRandom;
  opt.workload.num_entities = 6;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.workload.ops_per_entity = 2;
  opt.workload.shared_fraction = 0.3;
  opt.concurrency = 6;
  opt.total_txns = 120;
  opt.max_steps_per_shard = 200'000;
  opt.seed = 77;
  opt.journal_out = ::testing::TempDir() + "one_charge_" + name;
  return opt;
}

TEST(OneChargePropertyTest, EverySingleShardRollbackSiteAgrees) {
  struct Case {
    const char* name;
    core::DeadlockHandling handling;
    VictimPolicyKind policy;
  };
  for (const Case& c :
       {Case{"min_cost", core::DeadlockHandling::kDetection,
             VictimPolicyKind::kMinCost},
        Case{"min_cost_ordered", core::DeadlockHandling::kDetection,
             VictimPolicyKind::kMinCostOrdered},
        Case{"wound_wait", core::DeadlockHandling::kWoundWait,
             VictimPolicyKind::kMinCostOrdered},
        Case{"wait_die", core::DeadlockHandling::kWaitDie,
             VictimPolicyKind::kMinCostOrdered},
        Case{"timeout", core::DeadlockHandling::kTimeout,
             VictimPolicyKind::kMinCostOrdered}}) {
    par::ShardedOptions opt = ContendedRecorded(c.name);
    opt.engine.handling = c.handling;
    opt.engine.victim_policy = c.policy;
    opt.engine.wait_timeout_steps = 16;
    auto report = par::RunSharded(opt);
    ASSERT_TRUE(report.ok()) << c.name << ": " << report.status().ToString();
    ExpectOneChargePerRollback(opt, report.value(), c.name);
  }
}

TEST(OneChargePropertyTest, FourShardDistributedRollbacksAgree) {
  // Contested kLocks mix (as in xshard_test): slices of different globals
  // block each other on several shards, so the coordinator applies
  // distributed rollbacks beside each shard's local resolutions.
  par::ShardedOptions opt;
  opt.num_shards = 4;
  opt.workload.num_entities = 24;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.workload.ops_per_entity = 2;
  opt.cross_shard_fraction = 0.4;
  opt.concurrency = 16;
  opt.total_txns = 300;
  opt.seed = 5;
  opt.journal_out = ::testing::TempDir() + "one_charge_4shard";
  auto report = par::RunSharded(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GE(report->xshard.distributed_rollbacks, 1u);
  ExpectOneChargePerRollback(opt, report.value(), "4-shard");
}

// The per-cause ledger is the engine's: a run without the lifecycle book
// reports the same one.
TEST(OneChargePropertyTest, LedgerDoesNotDependOnTheLifecycleBook) {
  par::ShardedOptions one = ContendedRecorded("txnlife_one");
  one.journal_out.clear();
  par::ShardedOptions four = one;
  four.num_shards = 4;
  four.cross_shard_fraction = 0.3;
  four.engine.scheduler = SchedulerKind::kRoundRobin;
  four.concurrency = 16;
  four.total_txns = 300;
  for (par::ShardedOptions opt : {one, four}) {
    const std::string what = std::to_string(opt.num_shards) + " shard(s)";
    opt.txnlife = true;
    auto with_book = par::RunSharded(opt);
    opt.txnlife = false;
    auto without = par::RunSharded(opt);
    ASSERT_TRUE(with_book.ok())
        << what << ": " << with_book.status().ToString();
    ASSERT_TRUE(without.ok()) << what << ": " << without.status().ToString();
    EXPECT_GT(with_book->aggregate.rollbacks, 0u) << what;
    EXPECT_EQ(without->rollbacks_by_cause, with_book->rollbacks_by_cause)
        << what;
    EXPECT_EQ(without->wasted_by_cause, with_book->wasted_by_cause) << what;
    std::uint64_t wasted = 0;
    for (std::uint64_t w : without->wasted_by_cause) wasted += w;
    EXPECT_EQ(wasted, without->aggregate.wasted_ops) << what;
  }
}

// A rollback is charged the ops its rewind discards, priced when it is
// applied. Several victims of one resolution roll back in turn, and an
// earlier victim's release can grant a later one its pending lock: that
// victim then has one more op to discard than when the victims were
// chosen. The shared-lock mix makes such multi-victim cuts common.
TEST(OneChargePropertyTest, ChargeEqualsTheOpsEachRewindDiscards) {
  WorkloadOptions wopt;
  wopt.num_entities = 40;
  wopt.min_locks = 3;
  wopt.max_locks = 6;
  wopt.shared_fraction = 0.3;
  const std::uint32_t concurrency = 16;
  const std::uint64_t total_txns = 600;

  storage::EntityStore store;
  store.CreateMany(wopt.num_entities, 100);
  EngineOptions eopt;
  eopt.scheduler = SchedulerKind::kRandom;
  eopt.seed = 5;
  Engine engine(&store, eopt);
  WorkloadGenerator gen(wopt, /*seed=*/5);
  std::uint64_t spawned = 0;
  while (engine.metrics().commits < total_txns) {
    while (spawned < total_txns &&
           spawned - engine.metrics().commits < concurrency) {
      auto p = gen.Next();
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE(engine.Spawn(std::move(p).value()).ok());
      ++spawned;
    }
    auto stepped = engine.StepAny();
    ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
    ASSERT_TRUE(stepped.value().has_value());
  }
  const std::vector<std::uint32_t>& samples = engine.rollback_cost_samples();
  ASSERT_EQ(samples.size(), engine.metrics().rollbacks);
  std::uint64_t discarded = 0;
  for (std::uint32_t c : samples) discarded += c;
  EXPECT_GT(engine.metrics().Preemptions(), 0u) << "the mix must contend";
  EXPECT_EQ(engine.metrics().wasted_ops, discarded);
}

}  // namespace
}  // namespace pardb
