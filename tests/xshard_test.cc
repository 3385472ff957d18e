// Tests for the cross-shard transaction layer (DESIGN D12): program
// splitting, lock-free routing, the merged-history global
// serializability checker, the engine's sub-transaction hold protocol,
// and the multi-shard driver end to end. The checker's replica-divergence
// cases witness the fault it exists to catch: two stores evolving one
// entity independently.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/global_history.h"
#include "analysis/history.h"
#include "core/engine.h"
#include "dist/distributed.h"
#include "obs/serve/hub.h"
#include "par/report_json.h"
#include "par/router.h"
#include "par/sharded_driver.h"
#include "par/xshard/coordinator.h"
#include "par/xshard/global_graph.h"
#include "par/xshard/split.h"
#include "sim/workload.h"
#include "storage/entity_store.h"
#include "txn/program.h"

namespace pardb {
namespace {

using analysis::AccessEvent;
using analysis::CertifyUnion;
using analysis::GlobalHistory;
using analysis::HistoryRecorder;
using par::RouteProgram;
using par::RunSharded;
using par::ShardedOptions;
using par::ShardedReportToJson;
using par::xshard::SplitProgram;
using par::xshard::SubProgram;
using txn::Operand;
using txn::ProgramBuilder;

// First entity owned by `shard` under the dist::SiteOfEntity partition.
EntityId EntityOn(std::uint32_t shard, std::uint32_t num_shards,
                  EntityId after = EntityId(0)) {
  for (std::uint64_t e = after.value();; ++e) {
    if (dist::SiteOfEntity(EntityId(e), num_shards) == shard) {
      return EntityId(e);
    }
  }
}

// ---------------------------------------------------------------------------
// SplitProgram
// ---------------------------------------------------------------------------

TEST(SplitProgramTest, SplitsFootprintByEntityOwner) {
  const EntityId a = EntityOn(0, 2);
  const EntityId b = EntityOn(1, 2);
  auto p = ProgramBuilder("t")
               .LockExclusive(a)
               .LockExclusive(b)
               .WriteImm(a, 1)
               .WriteImm(b, 2)
               .Commit()
               .Build();
  ASSERT_TRUE(p.ok());
  auto subs = SplitProgram(p.value(), 2);
  ASSERT_TRUE(subs.ok()) << subs.status().ToString();
  ASSERT_EQ(subs->size(), 2u);
  // Slices come back in shard order; each is [its locks | its body | Commit]
  // and holds at the end of its lock prefix.
  EXPECT_EQ((*subs)[0].shard, 0u);
  EXPECT_EQ((*subs)[1].shard, 1u);
  for (const SubProgram& sub : subs.value()) {
    ASSERT_EQ(sub.program.ops().size(), 3u);
    EXPECT_EQ(sub.hold_pc, 1u);
    EXPECT_EQ(sub.program.ops()[0].code, txn::OpCode::kLockExclusive);
    EXPECT_EQ(sub.program.ops()[1].code, txn::OpCode::kWrite);
    EXPECT_EQ(sub.program.ops()[2].code, txn::OpCode::kCommit);
  }
  EXPECT_EQ((*subs)[0].program.ops()[0].entity, a);
  EXPECT_EQ((*subs)[1].program.ops()[0].entity, b);
}

TEST(SplitProgramTest, SingleShardFootprintYieldsOneSlice) {
  const EntityId a = EntityOn(1, 4);
  const EntityId b = EntityOn(1, 4, EntityId(a.value() + 1));
  auto p = ProgramBuilder("t")
               .LockExclusive(a)
               .LockExclusive(b)
               .WriteImm(b, 7)
               .Commit()
               .Build();
  ASSERT_TRUE(p.ok());
  auto subs = SplitProgram(p.value(), 4);
  ASSERT_TRUE(subs.ok());
  ASSERT_EQ(subs->size(), 1u);
  EXPECT_EQ((*subs)[0].shard, 1u);
  EXPECT_EQ((*subs)[0].hold_pc, 2u);
}

TEST(SplitProgramTest, ComputeWithImmediateOperandsFollowsFirstLock) {
  const EntityId a = EntityOn(0, 2);
  const EntityId b = EntityOn(1, 2);
  auto p = ProgramBuilder("t", 1)
               .InitVar(0, 0)
               .LockExclusive(b)  // first lock: shard 1 is the fallback owner
               .LockExclusive(a)
               .Compute(0, Operand::Imm(2), txn::ArithOp::kAdd,
                        Operand::Imm(3))
               .WriteVar(b, 0)
               .WriteImm(a, 1)
               .Commit()
               .Build();
  ASSERT_TRUE(p.ok());
  auto subs = SplitProgram(p.value(), 2);
  ASSERT_TRUE(subs.ok()) << subs.status().ToString();
  ASSERT_EQ(subs->size(), 2u);
  // The imm-only compute has no operand owner, so it rides with the shard
  // of the first lock request (shard 1), where its result is consumed.
  EXPECT_EQ((*subs)[0].program.ops().size(), 3u);  // lock a, write a, commit
  EXPECT_EQ((*subs)[1].program.ops().size(), 4u);  // lock b, compute, write b
}

TEST(SplitProgramTest, RejectsCrossShardVarFlow) {
  const EntityId a = EntityOn(0, 2);
  const EntityId b = EntityOn(1, 2);
  auto p = ProgramBuilder("t", 1)
               .InitVar(0, 0)
               .LockExclusive(a)
               .LockExclusive(b)
               .Read(a, 0)      // var 0 is produced on shard 0...
               .WriteVar(b, 0)  // ...and consumed on shard 1: slices cannot
               .Commit()        // exchange values.
               .Build();
  ASSERT_TRUE(p.ok());
  auto subs = SplitProgram(p.value(), 2);
  ASSERT_FALSE(subs.ok());
  EXPECT_EQ(subs.status().code(), StatusCode::kInvalidArgument);
}

TEST(SplitProgramTest, RejectsEarlyUnlock) {
  const EntityId a = EntityOn(0, 2);
  const EntityId b = EntityOn(1, 2);
  auto p = ProgramBuilder("t")
               .LockExclusive(a)
               .LockExclusive(b)
               .WriteImm(a, 1)
               .Unlock(a)
               .WriteImm(b, 2)
               .Commit()
               .Build();
  ASSERT_TRUE(p.ok());
  auto subs = SplitProgram(p.value(), 2);
  ASSERT_FALSE(subs.ok());
  EXPECT_EQ(subs.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// RouteProgram: lock-free programs
// ---------------------------------------------------------------------------

TEST(RouterTest, LockFreeProgramsSpreadBySequenceHash) {
  auto p = ProgramBuilder("noop").Commit().Build();
  ASSERT_TRUE(p.ok());
  std::set<std::uint32_t> shards;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    const par::Route r = RouteProgram(p.value(), 4, 0, seq);
    EXPECT_FALSE(r.cross_shard);
    EXPECT_LT(r.shard, 4u);
    // Deterministic: the same admission sequence number always lands on
    // the same shard.
    EXPECT_EQ(RouteProgram(p.value(), 4, 0, seq).shard, r.shard);
    shards.insert(r.shard);
  }
  // The old behaviour piled every lock-free program onto shard 0 (the
  // coordinator, the busiest shard). The hash must actually spread them.
  EXPECT_EQ(shards.size(), 4u);
}

// ---------------------------------------------------------------------------
// GlobalHistory: the merged-commit-log checker
// ---------------------------------------------------------------------------

AccessEvent Rd(std::uint64_t entity, std::uint64_t version) {
  return AccessEvent{EntityId(entity), version, StateIndex(0), false};
}
AccessEvent Wr(std::uint64_t entity, std::uint64_t version) {
  return AccessEvent{EntityId(entity), version, StateIndex(0), true};
}

TEST(GlobalHistoryTest, CleanMergedOrderIsSerializable) {
  GlobalHistory h;
  h.Add(GlobalHistory::GlobalKey(1), {Wr(5, 1)});
  h.Add(GlobalHistory::LocalKey(0, TxnId(2)), {Rd(5, 1), Wr(5, 2)});
  EXPECT_FALSE(h.HasReplicaDivergence());
  EXPECT_TRUE(h.IsConflictSerializable());
  EXPECT_TRUE(h.WitnessCycle().empty());
}

TEST(GlobalHistoryTest, DetectsCrossShardCycle) {
  // T1 reads x before T2 writes it; T2 reads y before T1 writes it. Each
  // per-shard projection is serializable; only the merged view exposes the
  // r->w / r->w cycle.
  GlobalHistory h;
  h.Add(GlobalHistory::GlobalKey(1), {Rd(10, 0), Wr(20, 1)});
  h.Add(GlobalHistory::GlobalKey(2), {Rd(20, 0), Wr(10, 1)});
  EXPECT_FALSE(h.HasReplicaDivergence());
  EXPECT_FALSE(h.IsConflictSerializable());
  EXPECT_FALSE(h.WitnessCycle().empty());
}

TEST(GlobalHistoryTest, DetectsReplicaDivergence) {
  // Two distinct merged transactions publish the same version of the same
  // entity: two stores evolved it independently.
  GlobalHistory h;
  h.Add(GlobalHistory::LocalKey(0, TxnId(1)), {Wr(5, 1)});
  h.Add(GlobalHistory::LocalKey(1, TxnId(9)), {Wr(5, 1)});
  EXPECT_TRUE(h.HasReplicaDivergence());
  EXPECT_FALSE(h.IsConflictSerializable());
}

TEST(GlobalHistoryTest, SameKeyMayAddDisjointSlices) {
  GlobalHistory h;
  h.Add(GlobalHistory::GlobalKey(3), {Wr(1, 1)});
  h.Add(GlobalHistory::GlobalKey(3), {Wr(2, 1)});
  EXPECT_EQ(h.size(), 1u);
  EXPECT_FALSE(h.HasReplicaDivergence());
  EXPECT_TRUE(h.IsConflictSerializable());
}

// ---------------------------------------------------------------------------
// CertifyUnion: GlobalHistory's verdict from the shards' certifier graphs
// ---------------------------------------------------------------------------

using KeyFn = std::function<std::uint64_t(std::size_t, TxnId)>;

// Recorder i's transaction t is global transaction t when `fused(t)`, else
// local to shard i.
KeyFn FuseKeys(std::function<bool(TxnId)> fused) {
  return [fused](std::size_t i, TxnId t) {
    return fused(t) ? GlobalHistory::GlobalKey(t.value())
                    : GlobalHistory::LocalKey(static_cast<std::uint32_t>(i), t);
  };
}

// The same merge through the event logs.
bool MergedVerdict(const std::vector<const HistoryRecorder*>& recorders,
                   const KeyFn& key_of) {
  GlobalHistory merged;
  for (std::size_t i = 0; i < recorders.size(); ++i) {
    for (const auto& c : recorders[i]->CommittedLog()) {
      merged.Add(key_of(i, c.txn), c.events);
    }
  }
  return merged.IsConflictSerializable();
}

TEST(CertifyUnionTest, FindsCycleThatClosesOnlyAcrossShards) {
  // Global T1 reads x on shard 0 before global T2 overwrites it; T2 reads
  // y on shard 1 before T1 overwrites it. Each shard alone is acyclic.
  HistoryRecorder s0, s1;
  for (HistoryRecorder* r : {&s0, &s1}) {
    r->OnBegin(TxnId(1), 0);
    r->OnBegin(TxnId(2), 1);
  }
  s0.OnRead(TxnId(1), EntityId(10), 0, 1);
  s0.OnPublish(TxnId(2), EntityId(10), 1, 2);
  s1.OnRead(TxnId(2), EntityId(20), 0, 1);
  s1.OnPublish(TxnId(1), EntityId(20), 1, 2);
  for (HistoryRecorder* r : {&s0, &s1}) {
    r->OnCommit(TxnId(1));
    r->OnCommit(TxnId(2));
    EXPECT_TRUE(r->IsConflictSerializable());
  }
  const std::vector<const HistoryRecorder*> recs{&s0, &s1};
  const auto global = FuseKeys([](TxnId) { return true; });
  ASSERT_TRUE(CertifyUnion(recs, global).has_value());
  EXPECT_FALSE(*CertifyUnion(recs, global));
  EXPECT_FALSE(MergedVerdict(recs, global));
  // Unfused, the same logs are two independent serializable shards.
  const auto local = FuseKeys([](TxnId) { return false; });
  EXPECT_EQ(CertifyUnion(recs, local), std::optional<bool>(true));
  EXPECT_TRUE(MergedVerdict(recs, local));
}

TEST(CertifyUnionTest, SharedPublishedEntityFallsBack) {
  // Both stores publish entity 5 (replica divergence), or one reads
  // what the other publishes: the union cannot stand in for the merge.
  HistoryRecorder a, b, c;
  for (HistoryRecorder* r : {&a, &b, &c}) r->OnBegin(TxnId(1), 0);
  a.OnPublish(TxnId(1), EntityId(5), 1, 1);
  b.OnPublish(TxnId(1), EntityId(5), 1, 1);
  c.OnRead(TxnId(1), EntityId(5), 0, 1);
  for (HistoryRecorder* r : {&a, &b, &c}) r->OnCommit(TxnId(1));
  const auto local = FuseKeys([](TxnId) { return false; });
  EXPECT_FALSE(CertifyUnion({&a, &b}, local).has_value());
  EXPECT_FALSE(MergedVerdict({&a, &b}, local));  // replica divergence
  EXPECT_FALSE(CertifyUnion({&a, &c}, local).has_value());
  // Reads alone on both sides share no conflict.
  EXPECT_EQ(CertifyUnion({&c, &c}, local), std::optional<bool>(true));
}

// Closed-loop engine run over its own slice of the entity space.
std::unique_ptr<HistoryRecorder> RunSlice(std::uint64_t first_entity,
                                          std::uint64_t seed) {
  auto recorder = std::make_unique<HistoryRecorder>();
  storage::EntityStore store;
  store.CreateMany(first_entity + 12, 0);
  core::EngineOptions eopt;
  eopt.scheduler = core::SchedulerKind::kRandom;
  eopt.seed = seed;
  core::Engine engine(&store, eopt, recorder.get());
  sim::WorkloadOptions w;
  w.shared_fraction = 0.3;
  w.min_locks = 2;
  w.max_locks = 4;
  for (std::uint64_t e = 0; e < 12; ++e) {
    w.entity_universe.push_back(EntityId(first_entity + e));
  }
  sim::WorkloadGenerator gen(w, seed);
  for (int t = 0; t < 40; ++t) {
    auto program = gen.Next();
    EXPECT_TRUE(program.ok());
    EXPECT_TRUE(engine.Spawn(std::move(program).value()).ok());
  }
  EXPECT_TRUE(engine.RunToCompletion().ok());
  return recorder;
}

TEST(CertifyUnionTest, MatchesGlobalHistoryOnFusedEngineRuns) {
  // Two engines on disjoint entities; every third transaction id is fused
  // into one global transaction across both, which often closes cycles
  // no real coordinator would allow — a differential corpus with both
  // verdicts.
  int cyclic = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto s0 = RunSlice(0, seed);
    auto s1 = RunSlice(12, seed + 100);
    const std::vector<const HistoryRecorder*> recs{s0.get(), s1.get()};
    const auto keys = FuseKeys([](TxnId t) { return t.value() % 3 == 0; });
    const std::optional<bool> verdict = CertifyUnion(recs, keys);
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(*verdict, MergedVerdict(recs, keys)) << "seed " << seed;
    cyclic += *verdict ? 0 : 1;
  }
  EXPECT_GT(cyclic, 0);
}

// ---------------------------------------------------------------------------
// Engine: the sub-transaction hold protocol
// ---------------------------------------------------------------------------

TEST(EngineSubTxnTest, HoldReleaseLifecycle) {
  storage::EntityStore store;
  store.CreateMany(4, 0);
  core::EngineOptions opt;
  core::Engine engine(&store, opt);
  auto p = ProgramBuilder("sub")
               .LockExclusive(EntityId(1))
               .WriteImm(EntityId(1), 42)
               .Commit()
               .Build();
  ASSERT_TRUE(p.ok());
  auto id = engine.SpawnSub(std::move(p).value(), /*hold_pc=*/1);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // The slice acquires its lock and parks at the hold point; StepAny must
  // not advance it past the hold.
  for (int i = 0; i < 10 && !engine.AtHold(id.value()); ++i) {
    ASSERT_TRUE(engine.StepAny().ok());
  }
  ASSERT_TRUE(engine.AtHold(id.value()));
  for (int i = 0; i < 5; ++i) {
    auto s = engine.StepAny();
    ASSERT_TRUE(s.ok());
    EXPECT_FALSE(s.value()) << "held sub-transaction must not be stepped";
  }
  EXPECT_EQ(engine.StatusOf(id.value()), core::TxnStatus::kReady);

  ASSERT_TRUE(engine.ReleaseHold(id.value()).ok());
  while (engine.live_txn_count() > 0) {
    ASSERT_TRUE(engine.StepAny().ok());
  }
  EXPECT_EQ(engine.StatusOf(id.value()), core::TxnStatus::kCommitted);
  EXPECT_EQ(engine.metrics().commits, 1u);
}

// ---------------------------------------------------------------------------
// Coordinator: the merge early-out
// ---------------------------------------------------------------------------

// MergeAndResolve builds no union while no slice of a global in flight
// waits: a cycle through a global node needs an arc into it, and only a
// waiting slice draws one (DESIGN D29). Engines and a coordinator are
// driven directly — a small hot universe, 30% spanning programs, random
// stepping between coordinate phases — and at every phase where the
// early-out fires, the union must hold no cyclic component with a global.
// At most two globals are in flight, so the early-out fires often, and
// programs of up to six locks span three or four shards, so global cycles
// form whose waiting slices are not their globals' first.
TEST(CoordinatorTest, MergeEarlyOutFiresOnlyWithoutGlobalCycles) {
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint64_t kLocalLevel = 3;
  constexpr std::size_t kGlobalsInFlight = 2;
  std::uint64_t fired = 0;
  std::uint64_t merged = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ShardedOptions opt;
    opt.num_shards = kShards;
    opt.cross_shard_fraction = 0.3;
    opt.workload.num_entities = 16;
    opt.workload.min_locks = 2;
    opt.workload.max_locks = 6;
    opt.total_txns = 1u << 20;
    opt.seed = seed;
    par::RoutingStream stream(opt);
    std::vector<std::unique_ptr<storage::EntityStore>> stores;
    std::vector<std::unique_ptr<core::Engine>> owned;
    std::vector<core::Engine*> engines;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      stores.push_back(std::make_unique<storage::EntityStore>());
      stores.back()->CreateMany(opt.workload.num_entities, 100);
      core::EngineOptions eopt;
      eopt.scheduler = core::SchedulerKind::kRandom;
      eopt.seed = par::DeriveShardSeed(seed, s);
      owned.push_back(
          std::make_unique<core::Engine>(stores.back().get(), eopt));
      engines.push_back(owned.back().get());
    }
    par::xshard::Coordinator::Options copt;
    copt.num_shards = kShards;
    par::xshard::Coordinator coord(engines, copt);
    std::vector<std::uint64_t> locals(kShards, 0);  // spawned, uncommitted
    std::mt19937_64 rng(seed);
    for (int phase = 0; phase < 300; ++phase) {
      ASSERT_TRUE(coord.Poll().ok());
      if (coord.AnySliceWaiting()) {
        ++merged;
      } else {
        ++fired;
        std::vector<std::vector<graph::Edge>> arcs(kShards);
        for (std::uint32_t s = 0; s < kShards; ++s) {
          engines[s]->AppendWaitsFor(&arcs[s]);
        }
        const auto union_graph = par::xshard::MergeWaitsFor(arcs, coord);
        for (const auto& component : union_graph.graph.CyclicComponents()) {
          for (graph::VertexId v : component) {
            ASSERT_FALSE(par::xshard::IsGlobalNode(v))
                << "seed " << seed << " phase " << phase << ": global G" << v
                << " on a cycle while no slice waits";
          }
        }
      }
      ASSERT_TRUE(coord.MergeAndResolve().ok());
      // Admission: globals up to kGlobalsInFlight, locals up to each
      // shard's level; a draw with no room is dropped.
      for (int draw = 0; draw < 16; ++draw) {
        const std::uint64_t t = stream.position();
        auto program = stream.Draw(stream.Next());
        ASSERT_TRUE(program.ok());
        const par::Route route =
            RouteProgram(program.value(), kShards, /*coordinator_shard=*/0, t);
        if (route.cross_shard) {
          if (coord.active().size() < kGlobalsInFlight) {
            ASSERT_TRUE(coord.Admit(std::move(program).value()).ok());
          }
        } else if (engines[route.shard]->metrics().commits -
                       coord.sub_commits_on(route.shard) + kLocalLevel >
                   locals[route.shard]) {
          ASSERT_TRUE(engines[route.shard]
                          ->Spawn(std::move(program).value())
                          .ok());
          ++locals[route.shard];
        }
      }
      for (std::uint32_t s = 0; s < kShards; ++s) {
        ASSERT_TRUE(coord.SpawnQueued(s).ok());
      }
      coord.IndexSpawned();
      for (std::uint64_t k = rng() % 48; k > 0; --k) {
        ASSERT_TRUE(engines[rng() % kShards]->StepAny().ok());
      }
    }
  }
  // Both branches are exercised: phases with no waiting slice, and phases
  // that had to build the union.
  EXPECT_GT(fired, 0u);
  EXPECT_GT(merged, 0u);
}

// ---------------------------------------------------------------------------
// RunSharded across several shards
// ---------------------------------------------------------------------------

ShardedOptions LocksOptions(double cross, std::uint64_t seed) {
  ShardedOptions opt;
  opt.num_shards = 4;
  opt.workload.num_entities = 64;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.workload.ops_per_entity = 2;
  opt.cross_shard_fraction = cross;
  opt.concurrency = 8;
  opt.total_txns = 160;
  opt.seed = seed;
  return opt;
}

class LocksModeTest : public ::testing::TestWithParam<double> {};

TEST_P(LocksModeTest, CommitsAllAndStaysGloballySerializable) {
  auto rep = RunSharded(LocksOptions(GetParam(), 11));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->committed, 160u);
  EXPECT_TRUE(rep->completed);
  EXPECT_TRUE(rep->serializable);
  EXPECT_TRUE(rep->global_serializable);
  // Every admitted global retired: all slices spawned were committed.
  EXPECT_EQ(rep->xshard.global_txns, rep->cross_shard_txns);
  EXPECT_EQ(rep->xshard.global_commits, rep->xshard.global_txns);
  EXPECT_EQ(rep->xshard.sub_commits, rep->xshard.sub_txns);
  if (GetParam() > 0.0) {
    EXPECT_GT(rep->xshard.global_txns, 0u);
    // Every global splits into at least two slices.
    EXPECT_GE(rep->xshard.sub_txns, 2 * rep->xshard.global_txns);
    EXPECT_GT(rep->xshard.prepares, 0u);
    EXPECT_EQ(rep->xshard.prepares, rep->xshard.resolves);
  } else {
    EXPECT_EQ(rep->cross_shard_txns, 0u);
    EXPECT_EQ(rep->xshard.global_txns, 0u);
  }
  EXPECT_GT(rep->xshard.epochs, 0u);
  EXPECT_GT(rep->xshard.merges, 0u);
}

INSTANTIATE_TEST_SUITE_P(CrossFractions, LocksModeTest,
                         ::testing::Values(0.0, 0.05, 0.2));

TEST(LocksModeTest, ReportBitIdenticalAcrossRunsAndWorkerCounts) {
  auto opt = LocksOptions(0.2, 7);
  auto a = RunSharded(opt);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  const std::string ja = ShardedReportToJson(a.value());
  EXPECT_NE(ja.find("\"mode\":\"locks\""), std::string::npos);
  for (std::size_t workers : {1u, 2u, 7u}) {
    opt.num_threads = workers;
    auto b = RunSharded(opt);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(ja, ShardedReportToJson(b.value())) << "workers=" << workers;
  }
}

// Contested configuration: a small entity universe with a high cross-shard
// fraction, so slices of different globals block each other on several
// shards at once and union-only cycles actually form.
ShardedOptions ContestedLocksOptions(std::uint64_t seed) {
  ShardedOptions opt;
  opt.num_shards = 4;
  opt.workload.num_entities = 24;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.workload.ops_per_entity = 2;
  opt.cross_shard_fraction = 0.4;
  opt.concurrency = 16;
  opt.total_txns = 300;
  opt.seed = seed;
  return opt;
}

TEST(LocksModeTest, ResolvesGlobalCyclesByDistributedPartialRollback) {
  auto rep = RunSharded(ContestedLocksOptions(5));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->committed, 300u);
  EXPECT_TRUE(rep->completed);
  EXPECT_TRUE(rep->global_serializable);
  // The point of the configuration: at least one cycle existed only in the
  // union of the per-shard forests, and distributed partial rollback
  // removed it (while the run still commits everything).
  EXPECT_GE(rep->xshard.global_cycles, 1u);
  EXPECT_GE(rep->xshard.distributed_rollbacks, 1u);
  // 2PC accounting covers at least every slice of every global.
  EXPECT_GE(rep->xshard.messages,
            2 * (rep->xshard.prepares + rep->xshard.resolves));
}

TEST(LocksModeTest, RequiresDeadlockDetection) {
  auto opt = LocksOptions(0.2, 3);
  opt.engine.handling = core::DeadlockHandling::kWoundWait;
  auto rep = RunSharded(opt);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);
}

TEST(LocksModeTest, PublishesGlobalWaitsForSnapshotToHub) {
  obs::LiveHub hub;
  auto opt = ContestedLocksOptions(9);
  opt.hub = &hub;
  auto rep = RunSharded(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto snap = hub.GlobalSnapshot();
  ASSERT_TRUE(snap.has_value());
  // The final published union view is post-resolution: no global cycle
  // survives a merge round.
  EXPECT_TRUE(snap->acyclic);
  // Per-shard snapshots are published at merge cadence too.
  EXPECT_EQ(hub.Snapshots().size(), opt.num_shards);
}

TEST(LocksModeTest, CommitFreeLivelockFailsWithinTheEpochBound) {
  // `pardb parallel --shards=4 --txns=10000 --threads=1 --seed=7`: after
  // 1,291 commits one shard rolls a transaction back every epoch and
  // the coordinator applies a distributed rollback every second one, so
  // the shards keep stepping but nothing commits. The run must finish or
  // fail as stalled after the bounded number of commit-free epochs, not
  // spin until its step budget runs out.
  ShardedOptions opt;
  opt.num_shards = 4;
  opt.num_threads = 1;
  opt.cross_shard_fraction = 0.05;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  opt.total_txns = 10000;
  opt.concurrency = 8;
  opt.workload.num_entities = 32;
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 6;
  opt.seed = 7;
  auto rep = RunSharded(opt);
  if (rep.ok()) {
    EXPECT_TRUE(rep->completed);
    EXPECT_EQ(rep->committed, opt.total_txns);
    return;
  }
  EXPECT_EQ(rep.status().code(), StatusCode::kInternal);
  EXPECT_NE(rep.status().message().find("no commit for 65536 epochs"),
            std::string::npos)
      << rep.status().message().substr(0, 200);
  EXPECT_NE(rep.status().message().find("globals in flight: G"),
            std::string::npos);
}

}  // namespace
}  // namespace pardb
