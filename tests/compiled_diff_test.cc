// D16 compiled-program tests: lowering unit asserts (one code and entity
// per op, the static upgrade flag, arith fusion, constant folding, value
// slots from the rollback plan, var frames of any width), compile-cache
// identity (names excluded), and execution against an independent
// reference: the engine's final store must equal the serial oracle's
// replay of the committed programs, over plain txn::Op semantics, in the
// run's serial order (tests/serial_oracle.h). Covered: shared/exclusive
// mixes, deadlock-victim partial rollbacks, S->X upgrade deadlocks,
// mid-program unlocks and every arith op on every operand kind.

#include "txn/compiled.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/history.h"
#include "common/random.h"
#include "core/engine.h"
#include "par/sharded_driver.h"
#include "rollback/plan.h"
#include "serial_oracle.h"
#include "sim/workload.h"
#include "storage/entity_store.h"
#include "txn/program.h"

namespace pardb {
namespace {

using txn::ArithOp;
using txn::MicroOp;
using txn::MicroOpCode;
using txn::Operand;
using txn::Program;
using txn::ProgramBuilder;

std::shared_ptr<const Program> Own(Result<Program> built) {
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::make_shared<const Program>(std::move(built).value());
}

// The plan an engine under default options admits `p` with: the µops name
// no value slot, the plan names every one.
rollback::RollbackPlan Plan(const Program& p) {
  return rollback::RollbackPlanner().Build(p, rollback::StrategyKind::kMcs,
                                           /*seal=*/true);
}

// ---------------------------------------------------------------------------
// Lowering unit asserts.
// ---------------------------------------------------------------------------

TEST(CompiledLoweringTest, OpsLowerToOneCodeAndEntityEach) {
  ProgramBuilder b("locks", 1);
  b.LockExclusive(EntityId(0))
      .LockExclusive(EntityId(1))
      .Read(EntityId(0), 0)
      .WriteVar(EntityId(1), 0)
      .Commit();
  auto program = Own(std::move(b).Build());
  auto compiled = txn::CompiledProgram::Compile(*program);
  ASSERT_NE(compiled, nullptr);
  ASSERT_EQ(compiled->size(), 5u);
  const MicroOp* u = compiled->uops();
  const rollback::RollbackPlan plan = Plan(*program);
  EXPECT_EQ(u[0].code, static_cast<std::uint8_t>(MicroOpCode::kLockExclusive));
  EXPECT_EQ(u[2].code, static_cast<std::uint8_t>(MicroOpCode::kRead));
  EXPECT_EQ(plan.op(2).a, rollback::RollbackPlan::kGlobal);
  EXPECT_EQ(plan.op(2).dst, plan.VarSlotAt(*program, 0, 3));
  EXPECT_GE(plan.op(2).dst, program->num_vars()) << "initial slots stay";
  EXPECT_EQ(u[3].code, static_cast<std::uint8_t>(MicroOpCode::kWrite));
  EXPECT_TRUE(u[3].flags & txn::kMicroFlagAVar);
  EXPECT_EQ(plan.op(3).a, plan.op(2).dst);
  EXPECT_EQ(u[4].code, static_cast<std::uint8_t>(MicroOpCode::kCommit));
  EXPECT_EQ(u[0].entity, 0u);
  EXPECT_EQ(u[1].entity, 1u);
  EXPECT_EQ(u[2].entity, 0u);
  EXPECT_EQ(u[3].entity, 1u);
}

TEST(CompiledLoweringTest, UpgradeFlagIsStatic) {
  ProgramBuilder b("upgrade", 1);
  b.LockShared(EntityId(5))
      .Read(EntityId(5), 0)
      .LockExclusive(EntityId(5))  // S->X upgrade
      .WriteImm(EntityId(5), 9)
      .Commit();
  auto compiled = txn::CompiledProgram::Compile(*Own(std::move(b).Build()));
  ASSERT_NE(compiled, nullptr);
  const MicroOp* u = compiled->uops();
  EXPECT_EQ(u[0].code, static_cast<std::uint8_t>(MicroOpCode::kLockShared));
  EXPECT_FALSE(u[0].flags & txn::kMicroFlagUpgrade);
  EXPECT_EQ(u[2].code, static_cast<std::uint8_t>(MicroOpCode::kLockExclusive));
  EXPECT_TRUE(u[2].flags & txn::kMicroFlagUpgrade);
}

TEST(CompiledLoweringTest, ArithFusesIntoOpcodeAndConstantsFold) {
  ProgramBuilder b("arith", 2);
  b.LockExclusive(EntityId(0))
      .Compute(0, Operand::Imm(2), ArithOp::kMul, Operand::Imm(3))
      .Compute(1, Operand::Var(0), ArithOp::kAdd, Operand::Imm(1))
      .Compute(0, Operand::Var(0), ArithOp::kSub, Operand::Var(1))
      .Commit();
  auto program = Own(std::move(b).Build());
  auto compiled = txn::CompiledProgram::Compile(*program);
  ASSERT_NE(compiled, nullptr);
  const MicroOp* u = compiled->uops();
  const rollback::RollbackPlan plan = Plan(*program);
  // Both-imm compute folds to a constant load at compile time.
  EXPECT_EQ(u[1].code, static_cast<std::uint8_t>(MicroOpCode::kLoadImm));
  EXPECT_EQ(u[1].a, 6);
  EXPECT_EQ(plan.op(1).dst, plan.VarSlotAt(*program, 0, 2));
  // Var-imm compute fuses the ArithOp into the opcode byte.
  EXPECT_EQ(u[2].code, static_cast<std::uint8_t>(MicroOpCode::kComputeAdd));
  EXPECT_TRUE(u[2].flags & txn::kMicroFlagAVar);
  EXPECT_FALSE(u[2].flags & txn::kMicroFlagBVar);
  EXPECT_EQ(u[2].a, 0);
  EXPECT_EQ(u[2].b, 1);
  EXPECT_EQ(plan.op(2).a, plan.op(1).dst);
  EXPECT_EQ(plan.op(2).dst, plan.VarSlotAt(*program, 1, 3));
  EXPECT_EQ(u[3].code, static_cast<std::uint8_t>(MicroOpCode::kComputeSub));
  EXPECT_TRUE(u[3].flags & txn::kMicroFlagAVar);
  EXPECT_TRUE(u[3].flags & txn::kMicroFlagBVar);
  EXPECT_EQ(plan.op(3).a, plan.op(1).dst);
  EXPECT_EQ(plan.op(3).b, plan.op(2).dst);
}

// ---------------------------------------------------------------------------
// Cache identity.
// ---------------------------------------------------------------------------

std::shared_ptr<const Program> MixProgram(const std::string& name) {
  ProgramBuilder b(name, 1);
  b.LockShared(EntityId(3))
      .Read(EntityId(3), 0)
      .LockExclusive(EntityId(4))
      .WriteVar(EntityId(4), 0)
      .Commit();
  return Own(std::move(b).Build());
}

TEST(CompileCacheTest, NamesAreExcludedFromProgramIdentity) {
  txn::CompileCache cache;
  const txn::CompiledProgram& a = cache.Get(MixProgram("txn-0"));
  const txn::CompiledProgram& b = cache.Get(MixProgram("txn-1"));
  EXPECT_EQ(&a, &b) << "renamed template must hit the cache";
  EXPECT_EQ(cache.stats().compiles, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().compiled_bytes, a.byte_size());
}

TEST(CompileCacheTest, EntriesAreNumberedInFirstSightOrder) {
  txn::CompileCache cache;
  ProgramBuilder other("other", 1);
  other.LockExclusive(EntityId(9)).WriteImm(EntityId(9), 1).Commit();
  std::size_t e0 = 99, e1 = 99, e2 = 99;
  cache.Get(MixProgram("txn-0"), &e0);
  cache.Get(Own(std::move(other).Build()), &e1);
  cache.Get(MixProgram("txn-2"), &e2);  // a hit keeps its first number
  EXPECT_EQ(e0, 0u);
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(e2, 0u);
}

TEST(CompileCacheTest, DifferentOpsMissAndTemplateStampsHit) {
  txn::CompileCache cache;
  sim::WorkloadOptions w;
  w.num_entities = 16;
  w.num_templates = 4;
  sim::WorkloadGenerator gen(w, 9);
  std::uint64_t compiles_after_pool = 0;
  for (int i = 0; i < 32; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok());
    cache.Get(std::make_shared<const Program>(std::move(p).value()));
    if (i == 3) compiles_after_pool = cache.stats().compiles;
  }
  // Every admission past the template pool is a stamped copy: compile
  // count stays frozen while hits absorb the remaining 28 admissions.
  EXPECT_EQ(cache.stats().compiles, compiles_after_pool);
  EXPECT_EQ(cache.stats().hits + cache.stats().compiles, 32u);
  EXPECT_GE(cache.stats().hits, 28u);
}

// ---------------------------------------------------------------------------
// Residency: release, idle window, eviction (DESIGN D21).
// ---------------------------------------------------------------------------

// One distinct program per i: locks and writes entity i.
std::shared_ptr<const Program> Numbered(std::uint64_t i) {
  ProgramBuilder b("n" + std::to_string(i), 1);
  b.LockExclusive(EntityId(i))
      .Read(EntityId(i), 0)
      .WriteImm(EntityId(i), static_cast<Value>(i))
      .Commit();
  return Own(std::move(b).Build());
}

TEST(CompileCacheTest, EvictionUnderChurnKeepsSurvivorsReachable) {
  // 400 entries in a 1024-slot table collide along probe runs; evicting
  // them in a shuffled order exercises every backward-shift case.
  constexpr std::size_t kPrograms = 400;
  constexpr std::size_t kWindow = 200;
  txn::CompileCache cache;
  std::vector<std::shared_ptr<const Program>> programs;
  std::vector<std::size_t> entry(kPrograms);
  for (std::size_t i = 0; i < kPrograms; ++i) {
    programs.push_back(Numbered(i));
    cache.Get(programs[i], &entry[i]);
  }
  std::vector<std::size_t> order(kPrograms);
  for (std::size_t i = 0; i < kPrograms; ++i) order[i] = i;
  Rng rng(5);
  for (std::size_t i = kPrograms - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  // The first kWindow releases go idle; each later one evicts the oldest
  // idle entry, in release order.
  for (std::size_t k = 0; k < kPrograms; ++k) {
    const std::size_t evicted = cache.Release(entry[order[k]], kWindow);
    EXPECT_EQ(evicted, k < kWindow ? txn::CompileCache::kNoEntry
                                   : entry[order[k - kWindow]])
        << "release " << k;
  }
  EXPECT_EQ(cache.resident(), kWindow);
  // Survivors still hit under their numbers (probed before any evictee
  // refills a hole); evictees lower again under recycled numbers, so
  // numbering never grows past the peak resident set.
  for (std::size_t n = 0; n < kPrograms; ++n) {
    const std::size_t k = (n + kPrograms - kWindow) % kPrograms;
    const std::size_t i = order[k];
    std::size_t e = txn::CompileCache::kNoEntry;
    const std::uint64_t compiles = cache.stats().compiles;
    cache.Get(programs[i], &e);
    if (k >= kPrograms - kWindow) {
      EXPECT_EQ(e, entry[i]) << "survivor " << i;
      EXPECT_EQ(cache.stats().compiles, compiles);
    } else {
      EXPECT_EQ(cache.stats().compiles, compiles + 1) << "evictee " << i;
    }
    EXPECT_LT(e, kPrograms);
  }
  EXPECT_EQ(cache.resident(), kPrograms);
  EXPECT_EQ(cache.stats().compiles, kPrograms + (kPrograms - kWindow));
  EXPECT_EQ(cache.stats().hits, kWindow);
}

TEST(CompileCacheTest, EvictedProgramRecompilesToIdenticalUopsAndPlan) {
  txn::CompileCache cache;
  auto mix = MixProgram("txn-0");
  std::size_t e0 = 99;
  const txn::CompiledProgram& first = cache.Get(mix, &e0);
  const std::vector<MicroOp> uops(first.uops(), first.uops() + first.size());
  const std::size_t bytes = first.byte_size();
  // Window 0: the release evicts at once and drops the stream (`first`
  // dangles from here on) and the cache's program reference.
  EXPECT_EQ(cache.Release(e0, 0), e0);
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_EQ(mix.use_count(), 1);

  // A warm planner (scratch left by another program) rebuilds the plan.
  rollback::RollbackPlanner planner;
  const rollback::RollbackPlan cold =
      planner.Build(*mix, rollback::StrategyKind::kMcs, /*seal=*/true);
  planner.Build(*Numbered(7), rollback::StrategyKind::kMcs, /*seal=*/true);

  std::size_t e1 = 99;
  const txn::CompiledProgram& again = cache.Get(MixProgram("txn-1"), &e1);
  EXPECT_EQ(e1, e0);  // the recycled number
  EXPECT_EQ(cache.stats().compiles, 2u);
  EXPECT_EQ(cache.stats().compiled_bytes, 2 * bytes);
  ASSERT_EQ(again.size(), uops.size());
  for (std::size_t i = 0; i < uops.size(); ++i) {
    EXPECT_EQ(again.uops()[i].code, uops[i].code) << i;
    EXPECT_EQ(again.uops()[i].flags, uops[i].flags) << i;
    EXPECT_EQ(again.uops()[i].entity, uops[i].entity) << i;
    EXPECT_EQ(again.uops()[i].a, uops[i].a) << i;
    EXPECT_EQ(again.uops()[i].b, uops[i].b) << i;
  }
  const rollback::RollbackPlan warm =
      planner.Build(*mix, rollback::StrategyKind::kMcs, /*seal=*/true);
  ASSERT_EQ(warm.num_slots(), cold.num_slots());
  for (std::size_t pc = 0; pc <= mix->size(); ++pc) {
    EXPECT_EQ(warm.op(pc).dst, cold.op(pc).dst) << pc;
    EXPECT_EQ(warm.op(pc).a, cold.op(pc).a) << pc;
    EXPECT_EQ(warm.op(pc).b, cold.op(pc).b) << pc;
    EXPECT_EQ(warm.PeakCopiesAt(pc).entity, cold.PeakCopiesAt(pc).entity);
    EXPECT_EQ(warm.PeakCopiesAt(pc).var, cold.PeakCopiesAt(pc).var);
    for (LockIndex q = 0; q <= 2; ++q) {
      EXPECT_EQ(warm.IsRestorable(q, pc), cold.IsRestorable(q, pc));
    }
  }
}

TEST(CompileCacheTest, UnreleasedCacheNeverEvicts) {
  // The bare cache (no Release) keeps every entry, as the hot-path compile
  // micro relies on.
  txn::CompileCache cache;
  for (std::uint64_t i = 0; i < 100; ++i) cache.Get(Numbered(i));
  EXPECT_EQ(cache.resident(), 100u);
  EXPECT_EQ(cache.stats().compiles, 100u);
}

// ---------------------------------------------------------------------------
// Execution against the serial oracle.
// ---------------------------------------------------------------------------

struct RunMetrics {
  std::uint64_t rollbacks = 0;
  std::uint64_t deadlocks = 0;
};

// Runs `programs` (transaction k runs programs[k]) on one engine over
// entities 0..initial.size()-1 starting at `initial`, and expects the final
// store to equal the serial oracle's replay of the committed programs in
// the recorded history's serial order. Admission is windowed like
// par::RunSharded's, so the waits-for graph stays workload-shaped.
RunMetrics RunAndCheck(
    const std::vector<std::shared_ptr<const Program>>& programs,
    const std::vector<Value>& initial, core::SchedulerKind scheduler,
    std::uint64_t seed) {
  constexpr std::size_t kConcurrency = 12;
  constexpr std::uint64_t kMaxSteps = 2'000'000;
  storage::EntityStore store;
  for (std::size_t e = 0; e < initial.size(); ++e) {
    EXPECT_TRUE(store.Create(EntityId(e), initial[e]).ok());
  }
  core::EngineOptions opt;
  opt.scheduler = scheduler;
  opt.seed = seed;
  analysis::HistoryRecorder recorder;
  core::Engine engine(&store, opt, &recorder);
  std::size_t spawned = 0;
  while (engine.metrics().commits < programs.size() &&
         engine.metrics().steps < kMaxSteps) {
    while (spawned < programs.size() &&
           spawned - engine.metrics().commits < kConcurrency) {
      auto s = engine.Spawn(programs[spawned]);
      EXPECT_TRUE(s.ok()) << s.status().ToString();
      ++spawned;
    }
    auto r = engine.StepQuantum(256, false);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) break;
  }
  EXPECT_EQ(recorder.committed_count(), programs.size());

  auto serial = txn::ReplaySerialOrder(recorder, programs, initial);
  EXPECT_TRUE(serial.ok()) << serial.status().ToString();
  std::vector<Value> final_values;
  for (std::size_t e = 0; e < initial.size(); ++e) {
    final_values.push_back(store.Get(EntityId(e)).value().value);
  }
  if (serial.ok()) {
    EXPECT_EQ(final_values, serial.value())
        << "final store differs from the serial replay";
  }
  return RunMetrics{engine.metrics().rollbacks, engine.metrics().deadlocks};
}

std::vector<Value> Zeros(std::size_t n) { return std::vector<Value>(n, 0); }

std::vector<std::shared_ptr<const Program>> GenerateWorkload(
    const sim::WorkloadOptions& w, std::uint64_t seed, std::size_t n) {
  sim::WorkloadGenerator gen(w, seed);
  std::vector<std::shared_ptr<const Program>> programs;
  for (std::size_t i = 0; i < n; ++i) {
    auto p = gen.Next();
    EXPECT_TRUE(p.ok());
    programs.push_back(
        std::make_shared<const Program>(std::move(p).value()));
  }
  return programs;
}

TEST(CompiledLoweringTest, WideVarFramesRunCompiled) {
  // A frame wider than 16 bits: every slot is a 32-bit plan position, so
  // the program lowers like any other and runs on its µops.
  constexpr txn::VarId kWide = 0x10000;
  std::vector<std::shared_ptr<const Program>> programs;
  for (int i = 0; i < 2; ++i) {
    ProgramBuilder b("wide-" + std::to_string(i), kWide + 1);
    b.InitVar(kWide, 7 + i);
    b.LockExclusive(EntityId(0))
        .Read(EntityId(0), kWide - 1)
        .Compute(kWide - 1, Operand::Var(kWide - 1), ArithOp::kMul,
                 Operand::Var(kWide))
        .Compute(kWide, Operand::Var(kWide - 1), ArithOp::kSub,
                 Operand::Imm(i + 1))
        .WriteVar(EntityId(0), kWide)
        .Commit();
    programs.push_back(Own(std::move(b).Build()));
  }
  auto compiled = txn::CompiledProgram::Compile(*programs[0]);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->size(), programs[0]->size());
  const rollback::RollbackPlan plan = Plan(*programs[0]);
  EXPECT_EQ(plan.op(2).a, plan.op(1).dst);
  EXPECT_EQ(plan.op(2).b, kWide) << "var 0x10000's initial slot";
  EXPECT_EQ(plan.op(4).a, plan.op(3).dst);
  RunAndCheck(programs, {3}, core::SchedulerKind::kRoundRobin, 1);
}

TEST(SerialOracleTest, SharedExclusiveMixesMatchSerialReplay) {
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    sim::WorkloadOptions w;
    w.num_entities = 24;
    w.zipf_theta = 0.6;
    w.shared_fraction = 0.5;
    w.min_locks = 2;
    w.max_locks = 4;
    auto programs = GenerateWorkload(w, seed, 80);
    RunAndCheck(programs, Zeros(w.num_entities), core::SchedulerKind::kRandom,
                seed);
  }
}

TEST(SerialOracleTest, DeadlockVictimRollbacksMatchSerialReplay) {
  for (std::uint64_t seed : {5u, 11u}) {
    sim::WorkloadOptions w;
    w.num_entities = 12;
    w.zipf_theta = 0.9;
    w.min_locks = 3;
    w.max_locks = 5;
    auto programs = GenerateWorkload(w, seed, 60);
    // High contention on a small hot set: the run must include real
    // deadlock-victim partial rollbacks for the comparison to mean much.
    const RunMetrics m = RunAndCheck(programs, Zeros(w.num_entities),
                                     core::SchedulerKind::kRandom, seed);
    EXPECT_GT(m.rollbacks, 0u) << "workload produced no rollbacks";
  }
}

TEST(SerialOracleTest, UpgradeDeadlocksMatchSerialReplay) {
  // Two transactions both read-share e0 then upgrade: the classic S->X
  // upgrade deadlock — one must be rolled back.
  std::vector<std::shared_ptr<const Program>> programs;
  for (int i = 0; i < 2; ++i) {
    ProgramBuilder b("up-" + std::to_string(i), 1);
    b.LockShared(EntityId(0))
        .Read(EntityId(0), 0)
        .LockExclusive(EntityId(0))
        .Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(i + 1))
        .WriteVar(EntityId(0), 0)
        .Commit();
    programs.push_back(Own(std::move(b).Build()));
  }
  const RunMetrics m =
      RunAndCheck(programs, {10}, core::SchedulerKind::kRoundRobin, 1);
  EXPECT_GT(m.deadlocks, 0u);
}

TEST(SerialOracleTest, MidProgramUnlocksMatchSerialReplay) {
  // Unlock mid-program (shrinking phase) interleaved across two entities
  // and three transactions.
  std::vector<std::shared_ptr<const Program>> programs;
  for (int i = 0; i < 3; ++i) {
    ProgramBuilder b("un-" + std::to_string(i), 1);
    b.LockExclusive(EntityId(0))
        .Read(EntityId(0), 0)
        .Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(1))
        .WriteVar(EntityId(0), 0)
        .LockExclusive(EntityId(1))
        .Unlock(EntityId(0))
        .WriteVar(EntityId(1), 0)
        .Commit();
    programs.push_back(Own(std::move(b).Build()));
  }
  RunAndCheck(programs, {5, 9}, core::SchedulerKind::kRoundRobin, 1);
}

// Every arith op on every operand kind (var/var, var/imm, imm/var and the
// folded imm/imm), under contention. Each program computes one value from
// what it read (at most doubling the largest magnitude, so no run
// overflows) and one constant, and writes both.
std::shared_ptr<const Program> ArithProgram(Rng& rng, std::size_t entities,
                                            int i) {
  ProgramBuilder b("arith-" + std::to_string(i), 3);
  b.InitVar(2, static_cast<Value>(rng.Uniform(5)) + 1);
  const EntityId x(rng.Uniform(entities));
  EntityId y(rng.Uniform(entities));
  if (y == x) y = EntityId((x.value() + 1) % entities);
  const auto SmallImm = [&rng] {
    return Operand::Imm(static_cast<Value>(rng.Uniform(5)) - 2);
  };
  const ArithOp arith[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul};
  const ArithOp op = arith[rng.Uniform(3)];
  b.LockExclusive(x).Read(x, 0).LockExclusive(y).Read(y, 1);
  switch (rng.Uniform(3)) {
    case 0:  // var OP imm
      b.Compute(0, Operand::Var(0), op, SmallImm());
      break;
    case 1:  // imm OP var
      b.Compute(0, SmallImm(), op, Operand::Var(1));
      break;
    default:  // var OP var; a product of two reads could overflow
      b.Compute(0, Operand::Var(static_cast<txn::VarId>(rng.Uniform(2))),
                op == ArithOp::kMul ? ArithOp::kSub : op, Operand::Var(1));
      break;
  }
  b.Compute(1, Operand::Imm(static_cast<Value>(rng.Uniform(20)) + 3),
            arith[rng.Uniform(3)],
            Operand::Imm(static_cast<Value>(rng.Uniform(7)) + 2));
  b.Compute(1, Operand::Var(1), arith[rng.Uniform(3)], Operand::Var(2));
  b.WriteVar(x, 0).WriteVar(y, 1).Commit();
  return Own(std::move(b).Build());
}

TEST(SerialOracleTest, ArithmeticMatchesSerialReplay) {
  constexpr std::size_t kEntities = 5;
  for (std::uint64_t seed : {2u, 13u, 41u}) {
    Rng rng(seed);
    std::vector<std::shared_ptr<const Program>> programs;
    for (int i = 0; i < 40; ++i) {
      programs.push_back(ArithProgram(rng, kEntities, i));
    }
    const RunMetrics m = RunAndCheck(programs, {4, 9, 15, 22, 31},
                                     core::SchedulerKind::kRandom, seed);
    EXPECT_GT(m.deadlocks, 0u) << "seed " << seed;
  }
}

// The cache-hit telemetry the CI observability smoke asserts on: a
// templated one-shard run must report hits on the engine metrics. With
// T <= concurrency templates the idle window (the peak live count) keeps
// every template resident while it sits idle between instances, so each
// compiles exactly once (DESIGN D21).
TEST(CompileCacheTest, TemplatedWorkloadReportsCacheHits) {
  for (std::uint32_t templates : {1u, 5u, 8u}) {
    par::ShardedOptions opt;
    opt.num_shards = 1;
    opt.cross_shard_fraction = 0.0;
    opt.engine.scheduler = core::SchedulerKind::kRandom;
    opt.total_txns = 100;
    opt.concurrency = 8;
    opt.workload.num_entities = 16;
    opt.workload.num_templates = templates;
    opt.seed = 4;
    auto rep = par::RunSharded(opt);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    const core::EngineMetrics& m = rep->shards[0].metrics;
    EXPECT_EQ(m.programs_compiled, templates) << templates << " templates";
    EXPECT_EQ(m.compile_cache_hits, 100u - templates);
    EXPECT_GT(m.compiled_bytes, 0u);
  }
}

}  // namespace
}  // namespace pardb
