// Sharded parallel execution: routing, the fork-join, phase-1 generation,
// determinism and aggregate correctness of par::RunSharded, on one shard
// and on several (one epoch driver runs both). The whole suite is also run
// under ThreadSanitizer in CI (-DPARDB_TSAN=ON).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/distributed.h"
#include "obs/metric_names.h"
#include "obs/serve/hub.h"
#include "par/fork_join.h"
#include "par/report_json.h"
#include "par/router.h"
#include "par/sharded_driver.h"
#include "txn/program.h"

namespace pardb::par {
namespace {

txn::Program LockProgram(const std::vector<EntityId>& entities) {
  txn::ProgramBuilder b("p", 0);
  for (EntityId e : entities) b.LockExclusive(e);
  b.Commit();
  auto p = b.Build();
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

// Finds entity ids on the given shard (under the 4-shard partition).
std::vector<EntityId> EntitiesOnShard(std::uint32_t shard,
                                      std::uint32_t num_shards,
                                      std::size_t count) {
  std::vector<EntityId> out;
  for (std::uint64_t e = 0; out.size() < count && e < 10'000; ++e) {
    if (dist::SiteOfEntity(EntityId(e), num_shards) == shard) {
      out.push_back(EntityId(e));
    }
  }
  EXPECT_EQ(out.size(), count);
  return out;
}

TEST(RouterTest, FootprintIsDistinctEntitiesInLockOrder) {
  txn::ProgramBuilder b("p", 1);
  b.LockShared(EntityId(7))
      .LockExclusive(EntityId(3))
      .LockExclusive(EntityId(7))  // S->X upgrade: not a new footprint entry
      .Read(EntityId(3), 0)
      .Commit();
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  auto fp = EntityFootprint(p.value());
  ASSERT_EQ(fp.size(), 2u);
  EXPECT_EQ(fp[0], EntityId(7));
  EXPECT_EQ(fp[1], EntityId(3));
}

TEST(RouterTest, SingleShardFootprintRoutedHome) {
  const std::uint32_t kShards = 4;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    auto program = LockProgram(EntitiesOnShard(shard, kShards, 3));
    const Route r = RouteProgram(program, kShards, /*coordinator_shard=*/0);
    EXPECT_FALSE(r.cross_shard);
    EXPECT_EQ(r.shard, shard);
  }
}

TEST(RouterTest, SpanningFootprintGoesToCoordinator) {
  const std::uint32_t kShards = 4;
  std::vector<EntityId> mixed = EntitiesOnShard(1, kShards, 1);
  mixed.push_back(EntitiesOnShard(2, kShards, 1)[0]);
  const Route r = RouteProgram(LockProgram(mixed), kShards,
                               /*coordinator_shard=*/3);
  EXPECT_TRUE(r.cross_shard);
  EXPECT_EQ(r.shard, 3u);
}

TEST(RouterTest, SingleShardSystemRoutesEverythingToShardZero) {
  auto program = LockProgram({EntityId(5), EntityId(9)});
  const Route r = RouteProgram(program, 1, 0);
  EXPECT_FALSE(r.cross_shard);
  EXPECT_EQ(r.shard, 0u);
}

TEST(RouterTest, ShardUniversesPartitionTheEntityRange) {
  const std::uint64_t kEntities = 257;
  auto universes = ShardEntityUniverses(kEntities, 4);
  ASSERT_EQ(universes.size(), 4u);
  std::set<EntityId> seen;
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (EntityId e : universes[s]) {
      EXPECT_EQ(dist::SiteOfEntity(e, 4), s);
      EXPECT_TRUE(seen.insert(e).second) << "entity in two universes";
    }
  }
  EXPECT_EQ(seen.size(), kEntities);
}

TEST(ForkJoinTest, EveryIndexRunsExactlyOnceAcrossBackToBackRuns) {
  // Consecutive runs alternate their counts, so a helper that wakes late
  // and claims against a stale run would run an index twice, skip one or
  // run past the count.
  for (std::size_t threads : {2u, 4u}) {
    ForkJoin fj(threads);
    ASSERT_EQ(fj.num_threads(), threads);
    const std::size_t counts[] = {0, 1, threads - 1, threads, 3 * threads};
    std::vector<std::atomic<int>> hits(3 * threads);
    std::atomic<int> bad_worker{0};
    for (int round = 0; round < 500; ++round) {
      for (std::size_t count : counts) {
        for (auto& h : hits) h.store(0, std::memory_order_relaxed);
        fj.Run(count, [&](std::size_t i, std::size_t worker) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          if (worker >= threads) bad_worker.fetch_add(1);
        });
        for (std::size_t i = 0; i < hits.size(); ++i) {
          ASSERT_EQ(hits[i].load(), i < count ? 1 : 0)
              << "threads=" << threads << " round=" << round
              << " count=" << count << " index=" << i;
        }
      }
    }
    EXPECT_EQ(bad_worker.load(), 0);
    for (std::size_t w = 0; w < threads; ++w) {
      EXPECT_LE(fj.busy_nanos(w), fj.uptime_nanos());
    }
  }
}

TEST(ForkJoinTest, OneThreadRunsEverythingOnTheCaller) {
  ForkJoin fj(0);  // clamped to the caller alone
  EXPECT_EQ(fj.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;  // plain: every call is on this thread
  bool elsewhere = false;
  for (std::size_t count : {0u, 1u, 5u}) {
    fj.Run(count, [&](std::size_t, std::size_t worker) {
      ++calls;
      elsewhere |= worker != 0 || std::this_thread::get_id() != caller;
    });
  }
  EXPECT_EQ(calls, 6);
  EXPECT_FALSE(elsewhere);
}

TEST(ForkJoinTest, CallerAndEveryHelperRunConcurrently) {
  // Each task waits until all `threads` tasks are inside fn: that only
  // completes if the caller and all threads - 1 helpers each took one.
  constexpr std::size_t kThreads = 4;
  ForkJoin fj(kThreads);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> arrived{0};
    std::vector<std::atomic<int>> by_worker(kThreads);
    fj.Run(kThreads, [&](std::size_t, std::size_t worker) {
      by_worker[worker].fetch_add(1);
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < kThreads &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
    ASSERT_EQ(arrived.load(), kThreads);
    for (std::size_t w = 0; w < kThreads; ++w) {
      EXPECT_EQ(by_worker[w].load(), 1) << "worker " << w;
    }
  }
}

TEST(ForkJoinTest, DestroyingWithParkedHelpersJoinsCleanly) {
  for (int i = 0; i < 50; ++i) {
    ForkJoin idle(3);  // never ran: helpers parked from the start
  }
  for (int i = 0; i < 50; ++i) {
    std::atomic<int> sum{0};
    {
      ForkJoin fj(4);
      fj.Run(16, [&](std::size_t index, std::size_t) {
        sum.fetch_add(static_cast<int>(index));
      });
      if (i % 10 == 0) {
        // Let the helpers reach their park before the destructor runs.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    EXPECT_EQ(sum.load(), 16 * 15 / 2);
  }
}

std::string ProgramText(const txn::Program& program) {
  std::string text = program.name();
  for (const txn::Op& op : program.ops()) text += ";" + op.ToString();
  return text;
}

// One routed program of phase 1: its route, name and op sequence.
std::string Emission(const Route& route, const txn::Program& program) {
  return std::to_string(route.shard) + (route.cross_shard ? "x " : " ") +
         ProgramText(program);
}

// The serial plan walk: each program drawn from its generator when its
// turn comes and routed at once, in plan order.
std::vector<std::string> SerialPlanWalk(const ShardedOptions& opt) {
  RoutingStream stream(opt);
  std::vector<std::string> emissions;
  while (!stream.done()) {
    const std::uint64_t t = stream.position();
    auto program = stream.Draw(stream.Next());
    EXPECT_TRUE(program.ok());
    if (!program.ok()) break;
    emissions.push_back(Emission(
        RouteProgram(program.value(), opt.num_shards, opt.coordinator_shard, t),
        program.value()));
  }
  return emissions;
}

ShardedOptions Phase1Options(std::uint32_t shards, std::uint64_t entities,
                             double cross, bool hot) {
  ShardedOptions opt;
  opt.num_shards = shards;
  opt.coordinator_shard = shards - 1;
  opt.workload.num_entities = entities;
  opt.workload.min_locks = 1;  // some single-entity (always local) programs
  opt.workload.max_locks = 4;
  opt.workload.zipf_theta = 0.9;
  opt.cross_shard_fraction = cross;
  opt.hot_shard_routing = hot;
  opt.total_txns = 300;
  opt.seed = 1000 + shards;
  return opt;
}

TEST(Phase1Test, StreamedDrawsMatchTheSerialPlanWalk) {
  std::vector<ShardedOptions> cases;
  for (std::uint32_t shards : {2u, 3u, 4u, 8u}) {
    for (double cross : {0.0, 0.05, 1.0}) {
      for (bool hot : {false, true}) {
        cases.push_back(Phase1Options(shards, 64, cross, hot));
      }
    }
  }
  // Fewer entities than shards: some shard owns none, and the plan must
  // never pick its (absent) generator.
  for (bool hot : {false, true}) {
    cases.push_back(Phase1Options(8, 3, 0.05, hot));
  }
  const auto pools = ShardEntityUniverses(3, 8);
  EXPECT_TRUE(std::any_of(pools.begin(), pools.end(),
                          [](const auto& pool) { return pool.empty(); }));

  for (const ShardedOptions& opt : cases) {
    const std::string where =
        "shards=" + std::to_string(opt.num_shards) +
        " entities=" + std::to_string(opt.workload.num_entities) +
        " cross=" + std::to_string(opt.cross_shard_fraction) +
        " hot=" + std::to_string(opt.hot_shard_routing);
    const std::vector<std::string> serial = SerialPlanWalk(opt);
    ASSERT_EQ(serial.size(), opt.total_txns) << where;

    // The streamed admission's extreme: walk the whole plan drawing only
    // full-universe programs (each also drawn again from a bookmark taken
    // before it, later), then draw every local generator's share last, one
    // generator after another. Each local draw must route to its own
    // shard, and the programs in plan order must be the serial walk's.
    RoutingStream stream(opt);
    std::vector<std::uint32_t> picks;
    std::vector<std::optional<txn::Program>> drawn;
    std::vector<sim::WorkloadGenerator> marks;
    while (!stream.done()) {
      const std::uint32_t g = stream.Next();
      picks.push_back(g);
      drawn.emplace_back();
      if (g == stream.global_generator()) {
        marks.push_back(stream.Bookmark());
        auto p = stream.Draw(g);
        ASSERT_TRUE(p.ok()) << where;
        drawn.back() = std::move(p).value();
      }
    }
    std::size_t m = 0;
    for (std::size_t t = 0; t < picks.size(); ++t) {
      if (picks[t] != stream.global_generator()) continue;
      auto again = marks[m++].Next();
      ASSERT_TRUE(again.ok()) << where;
      EXPECT_EQ(ProgramText(again.value()), ProgramText(*drawn[t])) << where;
    }
    for (std::uint32_t g = 0; g < opt.num_shards; ++g) {
      for (std::size_t t = 0; t < picks.size(); ++t) {
        if (picks[t] != g) continue;
        auto p = stream.Draw(g);
        ASSERT_TRUE(p.ok()) << where;
        const Route r = RouteProgram(p.value(), opt.num_shards,
                                     opt.coordinator_shard, t);
        EXPECT_EQ(r.shard, g) << where;
        EXPECT_FALSE(r.cross_shard) << where;
        drawn[t] = std::move(p).value();
      }
    }
    std::vector<std::string> streamed;
    for (std::size_t t = 0; t < drawn.size(); ++t) {
      streamed.push_back(Emission(
          RouteProgram(*drawn[t], opt.num_shards, opt.coordinator_shard, t),
          *drawn[t]));
    }
    EXPECT_EQ(streamed, serial) << where;
  }
}

ShardedOptions SmallOptions(std::uint32_t shards, std::uint64_t seed) {
  ShardedOptions opt;
  opt.num_shards = shards;
  opt.workload.num_entities = 64;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.workload.ops_per_entity = 2;
  opt.cross_shard_fraction = 0.2;
  opt.concurrency = 8;
  opt.total_txns = 120;
  opt.seed = seed;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  return opt;
}

TEST(ShardedDriverTest, CommitsEveryTransactionAndStaysSerializable) {
  auto rep = RunSharded(SmallOptions(4, 11));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->committed, 120u);  // whole transactions, not slices
  EXPECT_TRUE(rep->completed);
  EXPECT_TRUE(rep->serializable);
  EXPECT_TRUE(rep->global_serializable);
  ASSERT_EQ(rep->shards.size(), 4u);
  std::uint64_t assigned = 0, engine_commits = 0;
  for (const ShardResult& s : rep->shards) {
    EXPECT_TRUE(s.serializable);
    assigned += s.assigned;
    engine_commits += s.committed;
  }
  EXPECT_EQ(assigned, 120u);
  // Engine commits count every slice: each global commits once per slice
  // instead of once.
  EXPECT_GT(rep->xshard.global_commits, 0u);
  EXPECT_EQ(engine_commits, 120u - rep->xshard.global_commits +
                                rep->xshard.sub_commits);
  EXPECT_TRUE(std::isfinite(rep->goodput));
  EXPECT_TRUE(std::isfinite(rep->wasted_fraction));
}

// DESIGN D23: every per-transaction table on the default path holds rows
// for the live transactions (plus a bounded window), never for the run.
TEST(ShardedDriverTest, PerTransactionStateFollowsTheLiveCount) {
  for (std::uint32_t shards : {1u, 4u}) {
    ShardedOptions opt;
    opt.num_shards = shards;
    opt.cross_shard_fraction = shards > 1 ? 0.05 : 0.0;
    opt.workload.num_entities = 256;
    opt.workload.min_locks = 2;
    opt.workload.max_locks = 4;
    opt.workload.zipf_theta = 0.2;
    opt.concurrency = 16;
    opt.total_txns = 50'000;
    opt.seed = 3;
    auto rep = RunSharded(opt);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    ASSERT_TRUE(rep->completed);
    EXPECT_TRUE(rep->serializable);
    EXPECT_EQ(rep->committed, opt.total_txns);
    // A shard runs its share of the level plus at most the coordinator's
    // globals in flight as slices.
    const std::size_t live =
        opt.concurrency + (shards > 1 ? xshard::Coordinator::kMaxActiveGlobals
                                      : 0);
    for (const ShardResult& s : rep->shards) {
      const std::string where = "shards=" + std::to_string(shards) +
                                " shard=" + std::to_string(s.shard);
      EXPECT_GT(s.committed, 5'000u) << where;
      EXPECT_LE(s.footprint.engine_rows, live) << where;
      EXPECT_LE(s.footprint.lock_rows, live) << where;
      EXPECT_LE(s.footprint.txnlife_rows,
                live + obs::TxnLifeBook::kRecent) << where;
      EXPECT_GT(s.footprint.certifier_nodes, 0u) << where;
      EXPECT_LE(s.footprint.certifier_nodes, 8 * live) << where;
    }
    // Streamed admission: only the walked full-universe programs wait,
    // as bookmarks (one shard draws none).
    EXPECT_EQ(rep->admission.peak_materialized_programs > 0, shards > 1);
    EXPECT_LT(rep->admission.peak_materialized_programs,
              opt.total_txns / 50);
  }
}

// DESIGN D23: a generated program publishes only in its commit step, so
// even a run cut short by its step budget leaves every recorder exact and
// the global verdict comes from the certifier union (a refusal would fail
// the run). With cross-shard traffic a shard out of budget strands its
// slices of globals, and the shards waiting on them; the run then ends
// incomplete instead of stalling. One shard ends the same way once its
// budget is spent.
TEST(ShardedDriverTest, IncompleteRunCertifiesThroughTheUnion) {
  for (std::uint32_t shards : {1u, 4u}) {
    ShardedOptions opt = SmallOptions(shards, 5);
    opt.total_txns = 2'000;
    opt.max_steps_per_shard = 3'000;
    auto rep = RunSharded(opt);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_FALSE(rep->completed) << "shards=" << shards;
    EXPECT_GT(rep->committed, 0u) << "shards=" << shards;
    EXPECT_LT(rep->committed, opt.total_txns) << "shards=" << shards;
    EXPECT_TRUE(rep->global_serializable) << "shards=" << shards;
    EXPECT_TRUE(rep->serializable) << "shards=" << shards;
    if (shards == 1) {
      EXPECT_EQ(rep->shards[0].metrics.steps, opt.max_steps_per_shard);
    }
  }
}

TEST(ShardedDriverTest, BitIdenticalAcrossRepeatedRuns) {
  // Same options, repeated runs, different worker counts: thread
  // scheduling must not leak into the report.
  auto opt = SmallOptions(2, 7);
  auto a = RunSharded(opt);
  ASSERT_TRUE(a.ok());
  auto b = RunSharded(opt);
  ASSERT_TRUE(b.ok());
  opt.num_threads = 1;  // fully serial execution of the same shards
  auto c = RunSharded(opt);
  ASSERT_TRUE(c.ok());
  const std::string ja = ShardedReportToJson(a.value());
  EXPECT_EQ(ja, ShardedReportToJson(b.value()));
  EXPECT_EQ(ja, ShardedReportToJson(c.value()));
  EXPECT_EQ(a->ToString(), b->ToString());
}

TEST(ShardedDriverTest, ShardsUseDistinctDerivedSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint32_t s = 0; s < 16; ++s) {
    seeds.insert(DeriveShardSeed(42, s));
  }
  EXPECT_EQ(seeds.size(), 16u);
  EXPECT_NE(DeriveShardSeed(42, 0), DeriveShardSeed(43, 0));
}

TEST(ShardedDriverTest, CrossShardFractionTracksWorkloadLocality) {
  auto local = SmallOptions(4, 3);
  local.cross_shard_fraction = 0.0;  // every txn drawn from one shard's pool
  auto lrep = RunSharded(local);
  ASSERT_TRUE(lrep.ok());
  EXPECT_EQ(lrep->cross_shard_txns, 0u);

  auto mixed = SmallOptions(4, 3);
  mixed.cross_shard_fraction = 1.0;  // every txn drawn from the full range
  auto mrep = RunSharded(mixed);
  ASSERT_TRUE(mrep.ok());
  // Multi-entity txns over a 4-shard hash partition almost surely span
  // shards; routing counts all of those on the coordinator (shard 0).
  EXPECT_GT(mrep->cross_shard_fraction, 0.5);
  for (const ShardResult& s : mrep->shards) {
    if (s.shard != 0) continue;
    EXPECT_GE(s.assigned, mrep->cross_shard_txns);
  }
}

TEST(ShardedDriverTest, ZeroTransactionReportIsFiniteZeros) {
  auto opt = SmallOptions(2, 1);
  opt.total_txns = 0;
  auto rep = RunSharded(opt);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->committed, 0u);
  EXPECT_EQ(rep->goodput, 0.0);
  EXPECT_EQ(rep->wasted_fraction, 0.0);
  EXPECT_EQ(rep->cross_shard_fraction, 0.0);
  EXPECT_TRUE(std::isfinite(rep->goodput));
}

TEST(ShardedDriverTest, InvalidOptionsRejected) {
  auto opt = SmallOptions(2, 1);
  opt.num_shards = 0;
  EXPECT_EQ(RunSharded(opt).status().code(), StatusCode::kInvalidArgument);
  opt = SmallOptions(2, 1);
  opt.coordinator_shard = 2;
  EXPECT_EQ(RunSharded(opt).status().code(), StatusCode::kInvalidArgument);
  opt = SmallOptions(2, 1);
  opt.workload.num_entities = 0;
  EXPECT_EQ(RunSharded(opt).status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedDriverTest, AggregateMatchesShardSums) {
  auto rep = RunSharded(SmallOptions(4, 19));
  ASSERT_TRUE(rep.ok());
  std::uint64_t commits = 0, rollbacks = 0, ops = 0, costs = 0;
  for (const ShardResult& s : rep->shards) {
    commits += s.metrics.commits;
    rollbacks += s.metrics.rollbacks;
    ops += s.metrics.ops_executed;
    costs += s.rollback_costs.count;
  }
  EXPECT_EQ(rep->aggregate.commits, commits);
  EXPECT_EQ(rep->aggregate.rollbacks, rollbacks);
  EXPECT_EQ(rep->aggregate.ops_executed, ops);
  EXPECT_EQ(rep->rollback_costs.count, costs);
}

TEST(ShardedDriverTest, ReportBitIdenticalAcrossRunsAndWorkers) {
  // Workers decide only *where and when* an epoch's quanta run, never what
  // a shard computes — so the report must be byte-identical across any
  // worker count and repeated runs. One shard on a multi-worker fork-join
  // runs its quantum, refills included, on whichever worker claims it.
  for (std::uint32_t shards : {1u, 4u}) {
    auto opt = SmallOptions(shards, 13);
    opt.num_threads = 4;
    auto golden_rep = RunSharded(opt);
    ASSERT_TRUE(golden_rep.ok()) << golden_rep.status().ToString();
    const std::string golden = ShardedReportToJson(golden_rep.value());
    const std::string where = "shards=" + std::to_string(shards);

    for (int rep = 0; rep < 4; ++rep) {  // 5 runs total with the golden one
      auto r = RunSharded(opt);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(golden, ShardedReportToJson(r.value()))
          << where << " repeat " << rep;
    }
    for (std::size_t workers : {1u, 2u, 7u}) {
      auto v = opt;
      v.num_threads = workers;
      auto r = RunSharded(v);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(golden, ShardedReportToJson(r.value()))
          << where << " workers=" << workers;
    }
  }
}

TEST(ShardedDriverTest, SchedulerStatsAreFilledAndMakespanIsBounded) {
  auto opt = SmallOptions(4, 11);
  opt.num_threads = 2;
  auto rep = RunSharded(opt);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->scheduler.num_workers, 2u);
  // Only quanta actually submitted count: at least one per shard, at most
  // one per shard per epoch.
  EXPECT_GE(rep->scheduler.quanta, 4u);
  EXPECT_LE(rep->scheduler.quanta, 4 * rep->xshard.epochs);
  std::uint64_t total_steps = 0, max_shard_steps = 0;
  for (const ShardResult& s : rep->shards) {
    total_steps += s.metrics.steps;
    max_shard_steps = std::max(max_shard_steps, s.metrics.steps);
  }
  // Greedy list scheduling of each epoch on 2 virtual workers, epochs in
  // sequence: the makespan sits between perfect parallelism's lower bounds
  // and the fully serial upper bound.
  EXPECT_GE(rep->scheduler.virtual_makespan_steps, max_shard_steps);
  EXPECT_GE(rep->scheduler.virtual_makespan_steps, (total_steps + 1) / 2);
  EXPECT_LE(rep->scheduler.virtual_makespan_steps, total_steps);
  // Deterministic: a repeat run reads the same makespan.
  auto again = RunSharded(opt);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->scheduler.virtual_makespan_steps,
            rep->scheduler.virtual_makespan_steps);
}

TEST(ShardedDriverTest, StealsAreBoundedByQuantaAndOneThreadNeverSteals) {
  // A steal is a quantum run away from its home worker (shard % threads);
  // the calling thread is worker 0 and has a utilization series of its own.
  for (std::size_t threads : {1u, 2u, 4u}) {
    auto opt = SmallOptions(4, 11);
    opt.num_threads = threads;
    auto rep = RunSharded(opt);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(rep->scheduler.num_workers, threads);
    EXPECT_LE(rep->scheduler.steals, rep->scheduler.quanta);
    if (threads == 1) {
      EXPECT_EQ(rep->scheduler.steals, 0u);
    }
    const auto* steals = rep->metrics.Find(obs::kStealsTotal);
    ASSERT_NE(steals, nullptr);
    EXPECT_EQ(steals->counter, rep->scheduler.steals);
    std::size_t series = 0;
    for (const obs::MetricSnapshot& m : rep->metrics.metrics) {
      series += m.name == obs::kWorkerUtilization;
    }
    EXPECT_EQ(series, threads) << "threads=" << threads;
    EXPECT_NE(rep->metrics.Find(obs::kWorkerUtilization,
                                {{obs::kWorkerLabel, "0"}}),
              nullptr);
  }
}

TEST(ShardedDriverTest, HotShardRoutingIsDeterministicAndChangesPlacement) {
  auto hot = SmallOptions(4, 9);
  hot.workload.zipf_theta = 0.9;
  hot.cross_shard_fraction = 0.0;  // isolate the local-routing change
  hot.hot_shard_routing = true;
  auto a = RunSharded(hot);
  ASSERT_TRUE(a.ok());
  auto b = RunSharded(hot);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ShardedReportToJson(a.value()), ShardedReportToJson(b.value()));
  EXPECT_EQ(a->committed, hot.total_txns);
  EXPECT_TRUE(a->serializable);

  auto uniform = hot;
  uniform.hot_shard_routing = false;
  auto u = RunSharded(uniform);
  ASSERT_TRUE(u.ok());
  // Zipf-homed placement must actually differ from the uniform spread.
  bool differs = false;
  for (std::size_t s = 0; s < a->shards.size(); ++s) {
    differs |= a->shards[s].assigned != u->shards[s].assigned;
  }
  EXPECT_TRUE(differs);
}

TEST(ShardedDriverTest, JsonIsWellFormedEnoughToGrep) {
  auto rep = RunSharded(SmallOptions(2, 5));
  ASSERT_TRUE(rep.ok());
  const std::string json = ShardedReportToJson(rep.value());
  EXPECT_NE(json.find("\"num_shards\":2"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":["), std::string::npos);
  EXPECT_NE(json.find("\"cross_shard_fraction\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ShardedDriverTest, InterimHubExportsDoNotDoubleCountTotals) {
  // With a hub every shard exports its engine aggregates at every epoch
  // boundary (live /metrics quantiles). The delta exporter must still land
  // the registry on the exact totals.
  for (std::uint32_t shards : {1u, 2u}) {
    obs::LiveHub hub;
    auto opt = SmallOptions(shards, 7);
    opt.hub = &hub;
    auto rep = RunSharded(opt);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(rep->committed, opt.total_txns);
    EXPECT_EQ(hub.Snapshots().size(), shards);  // the latest per shard
    for (const ShardResult& s : rep->shards) {
      const obs::LabelSet labels{{obs::kShardLabel, std::to_string(s.shard)}};
      const auto* steps = rep->metrics.Find(obs::kStepsTotal, labels);
      ASSERT_NE(steps, nullptr) << "shard " << s.shard;
      EXPECT_EQ(steps->counter, s.metrics.steps) << "shard " << s.shard;
      const auto* commits = rep->metrics.Find(obs::kCommitsTotal, labels);
      ASSERT_NE(commits, nullptr) << "shard " << s.shard;
      EXPECT_EQ(commits->counter, s.metrics.commits) << "shard " << s.shard;
      const auto* costs = rep->metrics.Find(obs::kRollbackCostOps, labels);
      ASSERT_NE(costs, nullptr) << "shard " << s.shard;
      EXPECT_EQ(costs->hist.count, s.rollback_costs.count)
          << "shard " << s.shard;
    }
  }
}

}  // namespace
}  // namespace pardb::par
