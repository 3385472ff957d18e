// Sharded parallel execution: routing, thread pool, determinism and
// aggregate correctness of par::RunSharded. The whole suite is also run
// under ThreadSanitizer in CI (-DPARDB_TSAN=ON).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "dist/distributed.h"
#include "obs/metric_names.h"
#include "par/admission_queue.h"
#include "obs/serve/hub.h"
#include "par/report_json.h"
#include "par/router.h"
#include "par/sharded_driver.h"
#include "par/stealing_pool.h"
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

TEST(StealingPoolTest, ReusableAcrossWaitBatches) {
  StealingPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  EXPECT_EQ(pool.current_worker(), -1);  // the test body is not a worker
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();  // pool is reusable after Wait
    EXPECT_EQ(count.load(), (batch + 1) * 100);
  }
}

TEST(StealingPoolTest, DestructorDrainsQueuedWork) {
  std::atomic<int> count{0};
  {
    StealingPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~StealingPool waits for the queues
  EXPECT_EQ(count.load(), 50);
}

TEST(StealingPoolTest, TasksSubmittedFromInsideATaskFinishBeforeWaitReturns) {
  // The sharded driver's quantum chain: each task resubmits the next from
  // inside a worker, landing on that worker's own deque. Wait() must cover
  // the whole chain, not just the externally submitted head.
  StealingPool pool(3);
  std::atomic<int> count{0};
  std::atomic<int> remaining{200};
  std::function<void()> step = [&] {
    EXPECT_GE(pool.current_worker(), 0);
    EXPECT_LT(pool.current_worker(), 3);
    count.fetch_add(1, std::memory_order_relaxed);
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) > 1) {
      pool.Submit(step);
    }
  };
  pool.Submit(step);
  pool.Wait();
  EXPECT_EQ(count.load(), 200);
}

TEST(StealingPoolTest, SelfResubmittingChainNeverOverlapsItself) {
  // A chain's next link is submitted by the previous one, so at most one
  // link is ever runnable — the structural ready-token the sharded driver
  // relies on so no engine is touched by two threads.
  StealingPool pool(4);
  std::atomic<bool> inside{false};
  std::atomic<int> overlaps{0};
  std::atomic<int> left{500};
  std::function<void()> quantum = [&] {
    if (inside.exchange(true, std::memory_order_acq_rel)) {
      overlaps.fetch_add(1, std::memory_order_relaxed);
    }
    inside.store(false, std::memory_order_release);
    if (left.fetch_sub(1, std::memory_order_acq_rel) > 1) {
      pool.Submit(quantum);
    }
  };
  pool.Submit(quantum);
  pool.Wait();
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(left.load(), 0);
}

TEST(StealingPoolTest, IdleWorkerStealsFromABusyWorkersDeque) {
  // One worker parks inside a task after pushing a second task onto its
  // own deque; only a steal by the other worker can run it.
  StealingPool pool(2);
  std::atomic<bool> stolen_ran{false};
  pool.Submit([&] {
    pool.Submit([&] { stolen_ran.store(true, std::memory_order_release); });
    while (!stolen_ran.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  pool.Wait();
  EXPECT_TRUE(stolen_ran.load());
  EXPECT_GE(pool.steals(), 1u);
}

TEST(StealingPoolTest, EveryTaskRunsExactlyOnceAndCountersAddUp) {
  StealingPool pool(4);
  constexpr int kTasks = 300;
  std::vector<std::atomic<int>> runs(kTasks);  // value-initialized to 0
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&runs, i] { runs[i].fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
  std::uint64_t executed = 0;
  for (std::size_t w = 0; w < pool.num_threads(); ++w) {
    executed += pool.tasks_executed(w);
    EXPECT_LE(pool.busy_nanos(w), pool.uptime_nanos());
  }
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_LE(pool.steals(), executed);
}

ShardedOptions SmallOptions(std::uint32_t shards, std::uint64_t seed) {
  ShardedOptions opt;
  // These tests pin the original coordinator-replica routing: their
  // assertions (committed == assigned per shard, overlap formula, pipeline
  // equivalence) describe that path. Locks-mode runs are covered by
  // xshard_test.
  opt.xshard = XShardMode::kReplica;
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
  EXPECT_EQ(rep->committed, 120u);
  EXPECT_TRUE(rep->completed);
  EXPECT_TRUE(rep->serializable);
  ASSERT_EQ(rep->shards.size(), 4u);
  std::uint64_t assigned = 0;
  for (const ShardResult& s : rep->shards) {
    EXPECT_EQ(s.committed, s.assigned);
    EXPECT_TRUE(s.serializable);
    assigned += s.assigned;
  }
  EXPECT_EQ(assigned, 120u);
  EXPECT_TRUE(std::isfinite(rep->goodput));
  EXPECT_TRUE(std::isfinite(rep->wasted_fraction));
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
  // shards; all of those serialize through the coordinator (shard 0).
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

TEST(ShardedDriverTest, ReportBitIdenticalAcrossSchedulersWorkersAndQuanta) {
  // The scheduler decides only *where and when* quanta run, never what a
  // shard computes — so the report must be byte-identical across
  // run-to-completion vs time-slicing, any worker count, any quantum size,
  // and repeated runs.
  auto opt = SmallOptions(4, 13);
  opt.scheduler = ShardScheduler::kTimeSlice;
  opt.num_threads = 4;
  auto golden_rep = RunSharded(opt);
  ASSERT_TRUE(golden_rep.ok());
  const std::string golden = ShardedReportToJson(golden_rep.value());

  for (int rep = 0; rep < 4; ++rep) {  // 5 runs total with the golden one
    auto r = RunSharded(opt);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(golden, ShardedReportToJson(r.value())) << "repeat " << rep;
  }
  for (auto sched : {ShardScheduler::kTimeSlice,
                     ShardScheduler::kRunToCompletion}) {
    for (std::size_t workers : {1u, 2u, 4u, 7u}) {
      auto v = opt;
      v.scheduler = sched;
      v.num_threads = workers;
      auto r = RunSharded(v);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(golden, ShardedReportToJson(r.value()))
          << "scheduler=" << (sched == ShardScheduler::kTimeSlice ? "ts" : "rtc")
          << " workers=" << workers;
    }
  }
  // Ragged quanta, adaptation off: still the same step sequences.
  auto v = opt;
  v.quantum_steps = 7;
  v.min_quantum_steps = 1;
  v.adaptive_quantum = false;
  auto r = RunSharded(v);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(golden, ShardedReportToJson(r.value()));
}

TEST(ShardedDriverTest, SchedulerStatsAreFilledAndMakespanIsBounded) {
  auto opt = SmallOptions(4, 11);
  opt.scheduler = ShardScheduler::kTimeSlice;
  opt.num_threads = 2;
  opt.quantum_steps = 64;
  auto rep = RunSharded(opt);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->scheduler.num_workers, 2u);
  EXPECT_GE(rep->scheduler.quanta, 4u);  // at least one per shard
  std::uint64_t total_steps = 0, max_shard_steps = 0;
  for (const ShardResult& s : rep->shards) {
    total_steps += s.metrics.steps;
    max_shard_steps = std::max(max_shard_steps, s.metrics.steps);
  }
  // Greedy list scheduling on 2 virtual workers: the makespan sits between
  // perfect parallelism's lower bounds and the fully serial upper bound.
  EXPECT_GE(rep->scheduler.virtual_makespan_steps, max_shard_steps);
  EXPECT_GE(rep->scheduler.virtual_makespan_steps, (total_steps + 1) / 2);
  EXPECT_LE(rep->scheduler.virtual_makespan_steps, total_steps);
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

TEST(ShardedDriverTest, NonPowerOfTwoHubSnapshotPeriodRoundsUpAndPublishes) {
  // hub_snapshot_period = 100 used to corrupt the cadence mask (100 & 99
  // is not a power-of-two mask); it now rounds up to 128 internally.
  obs::LiveHub hub;
  auto opt = SmallOptions(2, 7);
  opt.hub = &hub;
  opt.hub_snapshot_period = 100;
  auto rep = RunSharded(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep->completed);
  EXPECT_EQ(rep->committed, opt.total_txns);
  auto snaps = hub.Snapshots();
  EXPECT_EQ(snaps.size(), 2u);  // the end-of-run snapshot per shard
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

TEST(AdmissionQueueTest, DeliversFifoThenReportsClosedForever) {
  AdmissionQueue q(8);
  for (std::uint64_t e = 0; e < 5; ++e) q.Push(LockProgram({EntityId(e)}));
  q.Close();
  EXPECT_TRUE(q.closed());
  txn::Program p;
  for (std::uint64_t e = 0; e < 5; ++e) {
    ASSERT_EQ(q.TryPop(&p), AdmissionQueue::Pop::kItem);
    EXPECT_EQ(p.op(0).entity, EntityId(e));  // FIFO: admission order is
  }                                          // generation order
  EXPECT_EQ(q.TryPop(&p), AdmissionQueue::Pop::kClosed);
  EXPECT_EQ(q.WaitPop(&p, std::chrono::microseconds(1)),
            AdmissionQueue::Pop::kClosed);  // end-of-stream is sticky
  EXPECT_EQ(q.pushed(), 5u);
  EXPECT_EQ(q.popped(), 5u);
}

TEST(AdmissionQueueTest, BackpressureBlocksProducerWithoutDropping) {
  // Producer blocks on a full queue, nothing is dropped, and the consumer
  // observes the end-of-stream token exactly once. Runs under TSan in CI.
  constexpr std::size_t kCapacity = 4;
  constexpr std::uint64_t kItems = 64;
  AdmissionQueue q(kCapacity);
  std::atomic<std::uint64_t> produced{0};
  std::thread producer([&q, &produced] {
    for (std::uint64_t e = 0; e < kItems; ++e) {
      q.Push(LockProgram({EntityId(e)}));
      produced.fetch_add(1, std::memory_order_release);
    }
    q.Close();
  });
  // With no consumer the producer must wedge at capacity, not run ahead.
  while (q.depth() < kCapacity) std::this_thread::yield();
  EXPECT_LE(produced.load(std::memory_order_acquire), kCapacity);

  txn::Program p;
  std::uint64_t next = 0, closed_seen = 0;
  for (;;) {
    auto r = q.WaitPop(&p, std::chrono::microseconds(100));
    if (r == AdmissionQueue::Pop::kEmpty) continue;
    if (r == AdmissionQueue::Pop::kClosed) {
      ++closed_seen;
      break;
    }
    EXPECT_EQ(p.op(0).entity, EntityId(next));  // in order, none dropped
    ++next;
  }
  producer.join();
  EXPECT_EQ(next, kItems);
  EXPECT_EQ(closed_seen, 1u);
  EXPECT_EQ(q.pushed(), kItems);
  EXPECT_EQ(q.popped(), kItems);
  EXPECT_GE(q.blocked_pushes(), 1u);  // backpressure actually engaged
  EXPECT_EQ(q.TryPop(&p), AdmissionQueue::Pop::kClosed);
}

TEST(AdmissionQueueTest, AbandonUnblocksProducerAndDiscards) {
  // Consumer death (shard failure) must not wedge the producer mid-sweep.
  AdmissionQueue q(1);
  q.Push(LockProgram({EntityId(0)}));  // queue now full
  std::thread producer([&q] {
    for (std::uint64_t e = 1; e < 8; ++e) q.Push(LockProgram({EntityId(e)}));
    q.Close();
  });
  q.Abandon();
  producer.join();  // every Push returned despite nobody popping
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.depth(), 0u);
  txn::Program p;
  EXPECT_EQ(q.TryPop(&p), AdmissionQueue::Pop::kClosed);
}

TEST(ShardedDriverTest, PipelinedReportMatchesBatchByteForByte) {
  // The pipelined-admission determinism contract: streaming generation
  // through bounded queues must reproduce the batch report exactly — same
  // routing sweep, same refill points, same step sequences — across queue
  // capacities, worker counts, and both shard schedulers.
  auto opt = SmallOptions(4, 13);
  opt.pipeline = false;
  auto batch = RunSharded(opt);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_FALSE(batch->admission.pipelined);
  EXPECT_EQ(batch->admission.overlap_fraction, 0.0);
  EXPECT_EQ(batch->admission.peak_materialized_programs, opt.total_txns);
  const std::string golden = ShardedReportToJson(batch.value());

  for (std::size_t capacity : {1u, 8u, 1024u}) {
    for (std::size_t workers : {1u, 4u, 7u}) {
      auto v = opt;
      v.pipeline = true;
      v.admission_queue_capacity = capacity;
      v.num_threads = workers;
      auto r = RunSharded(v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(golden, ShardedReportToJson(r.value()))
          << "capacity=" << capacity << " workers=" << workers;
      EXPECT_TRUE(r->admission.pipelined);
      EXPECT_EQ(r->admission.queue_capacity, capacity);
      // Backpressure bounds materialization: one program per queue slot
      // plus at most one in the producer's hand.
      EXPECT_LE(r->admission.peak_materialized_programs,
                opt.num_shards * capacity + 1);
    }
  }
  // Time-sliced quanta over streaming queues: still the same report.
  auto ts = opt;
  ts.pipeline = true;
  ts.scheduler = ShardScheduler::kTimeSlice;
  ts.quantum_steps = 7;
  ts.min_quantum_steps = 1;
  ts.adaptive_quantum = false;
  auto r = RunSharded(ts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(golden, ShardedReportToJson(r.value())) << "time-sliced";
}

TEST(ShardedDriverTest, OverlapFractionIsTheDeterministicRoutingFormula) {
  // overlap = sum over shards of max(0, assigned - capacity) / total: a
  // function of routing counts and the capacity only, so it is exactly
  // reproducible — the single-CPU CI proxy for pipelining effectiveness.
  auto opt = SmallOptions(4, 17);
  opt.admission_queue_capacity = 4;
  auto rep = RunSharded(opt);  // pipeline defaults on
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_TRUE(rep->admission.pipelined);
  std::uint64_t overflow = 0;
  for (const ShardResult& s : rep->shards) {
    if (s.assigned > opt.admission_queue_capacity) {
      overflow += s.assigned - opt.admission_queue_capacity;
    }
  }
  const double expected =
      static_cast<double>(overflow) / static_cast<double>(opt.total_txns);
  EXPECT_EQ(rep->admission.overlap_fraction, expected);
  EXPECT_GT(rep->admission.overlap_fraction, 0.0);
  auto again = RunSharded(opt);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->admission.overlap_fraction,
            rep->admission.overlap_fraction);
}

TEST(ShardedDriverTest, InterimHubExportsDoNotDoubleCountTotals) {
  // A tight snapshot cadence makes every shard export its engine
  // aggregates many times mid-run (live /metrics quantiles). The delta
  // exporter must still land the merged registry on the exact totals.
  obs::LiveHub hub;
  auto opt = SmallOptions(2, 7);
  opt.hub = &hub;
  opt.hub_snapshot_period = 16;
  auto rep = RunSharded(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
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

}  // namespace
}  // namespace pardb::par
