// D16 compiled-program tests: lowering unit asserts (lock indices, upgrade
// and last-lock flags, arith fusion, constant folding), compile-cache
// identity (names excluded), and the differential contract — interpreted
// and compiled execution must produce identical commit logs, final entity
// states and decision-journal chain heads on every workload, including
// shared/exclusive mixes, S->X upgrades, mid-program unlocks and
// deadlock-victim partial rollbacks.

#include "txn/compiled.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/trace.h"
#include "par/report_json.h"
#include "par/sharded_driver.h"
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
  auto compiled = txn::CompiledProgram::Compile(*Own(std::move(b).Build()));
  ASSERT_NE(compiled, nullptr);
  ASSERT_EQ(compiled->size(), 5u);
  const MicroOp* u = compiled->uops();
  EXPECT_EQ(u[0].code, static_cast<std::uint8_t>(MicroOpCode::kLockExclusive));
  EXPECT_EQ(u[2].code, static_cast<std::uint8_t>(MicroOpCode::kRead));
  EXPECT_EQ(u[2].dst, 0u);
  EXPECT_EQ(u[3].code, static_cast<std::uint8_t>(MicroOpCode::kWrite));
  EXPECT_TRUE(u[3].flags & txn::kMicroFlagAVar);
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
  auto compiled = txn::CompiledProgram::Compile(*Own(std::move(b).Build()));
  ASSERT_NE(compiled, nullptr);
  const MicroOp* u = compiled->uops();
  // Both-imm compute folds to a constant load at compile time.
  EXPECT_EQ(u[1].code, static_cast<std::uint8_t>(MicroOpCode::kLoadImm));
  EXPECT_EQ(u[1].a, 6);
  EXPECT_EQ(u[1].dst, 0u);
  // Var-imm compute fuses the ArithOp into the opcode byte.
  EXPECT_EQ(u[2].code, static_cast<std::uint8_t>(MicroOpCode::kComputeAdd));
  EXPECT_TRUE(u[2].flags & txn::kMicroFlagAVar);
  EXPECT_FALSE(u[2].flags & txn::kMicroFlagBVar);
  EXPECT_EQ(u[2].a, 0);
  EXPECT_EQ(u[2].b, 1);
  EXPECT_EQ(u[3].code, static_cast<std::uint8_t>(MicroOpCode::kComputeSub));
  EXPECT_TRUE(u[3].flags & txn::kMicroFlagAVar);
  EXPECT_TRUE(u[3].flags & txn::kMicroFlagBVar);
}

TEST(CompiledLoweringTest, WideVarFramesFallBackToInterpreter) {
  ProgramBuilder b("wide", 0x10001);
  b.LockExclusive(EntityId(0)).Read(EntityId(0), 0x10000).Commit();
  auto program = Own(std::move(b).Build());
  EXPECT_EQ(txn::CompiledProgram::Compile(*program), nullptr);
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
  auto a = cache.Get(MixProgram("txn-0"));
  auto b = cache.Get(MixProgram("txn-1"));
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get()) << "renamed template must hit the cache";
  EXPECT_EQ(cache.stats().compiles, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().compiled_bytes, a->byte_size());
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
// Differential: interpreted vs compiled execution.
// ---------------------------------------------------------------------------

struct RunArtifacts {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> commit_log;  // txn,step
  std::vector<Value> final_values;
  std::uint64_t steps = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t deadlocks = 0;
};

RunArtifacts RunPrograms(
    const std::vector<std::shared_ptr<const Program>>& programs,
    std::uint64_t num_entities, bool compile, core::SchedulerKind scheduler,
    std::uint64_t seed) {
  // Admission is windowed like par::RunSharded's: dumping every program
  // into the engine at once makes the waits-for graph dense enough that
  // cycle enumeration dominates, which is a workload-shape pathology, not
  // what this differential is probing. Both paths use the identical loop.
  constexpr std::size_t kConcurrency = 12;
  storage::EntityStore store;
  store.CreateMany(num_entities, 0);
  core::EngineOptions opt;
  opt.compile_programs = compile;
  opt.scheduler = scheduler;
  opt.seed = seed;
  core::Engine engine(&store, opt, nullptr);
  core::VectorTrace trace;
  engine.set_trace(&trace);
  std::size_t spawned = 0;
  while (engine.metrics().commits < programs.size()) {
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

  RunArtifacts out;
  for (const auto& ev : trace.events()) {
    if (ev.kind == core::TraceEvent::Kind::kCommit) {
      out.commit_log.emplace_back(ev.txn.value(), ev.step);
    }
  }
  for (std::uint64_t e = 0; e < num_entities; ++e) {
    auto v = store.Get(EntityId(e));
    EXPECT_TRUE(v.ok());
    out.final_values.push_back(v.value().value);
  }
  out.steps = engine.metrics().steps;
  out.rollbacks = engine.metrics().rollbacks;
  out.deadlocks = engine.metrics().deadlocks;
  return out;
}

void ExpectIdenticalRuns(
    const std::vector<std::shared_ptr<const Program>>& programs,
    std::uint64_t num_entities, core::SchedulerKind scheduler,
    std::uint64_t seed) {
  const RunArtifacts compiled =
      RunPrograms(programs, num_entities, true, scheduler, seed);
  const RunArtifacts interp =
      RunPrograms(programs, num_entities, false, scheduler, seed);
  EXPECT_EQ(compiled.commit_log, interp.commit_log);
  EXPECT_EQ(compiled.final_values, interp.final_values);
  EXPECT_EQ(compiled.steps, interp.steps);
  EXPECT_EQ(compiled.rollbacks, interp.rollbacks);
  EXPECT_EQ(compiled.deadlocks, interp.deadlocks);
}

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

TEST(CompiledDifferentialTest, SharedExclusiveMixesMatchAcrossSeeds) {
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    sim::WorkloadOptions w;
    w.num_entities = 24;
    w.zipf_theta = 0.6;
    w.shared_fraction = 0.5;
    w.min_locks = 2;
    w.max_locks = 4;
    auto programs = GenerateWorkload(w, seed, 80);
    ExpectIdenticalRuns(programs, w.num_entities,
                        core::SchedulerKind::kRandom, seed);
  }
}

TEST(CompiledDifferentialTest, DeadlockVictimRollbacksMatch) {
  for (std::uint64_t seed : {5u, 11u}) {
    sim::WorkloadOptions w;
    w.num_entities = 12;
    w.zipf_theta = 0.9;
    w.min_locks = 3;
    w.max_locks = 5;
    auto programs = GenerateWorkload(w, seed, 60);
    // High contention on a small hot set: the run must include real
    // deadlock-victim partial rollbacks for the comparison to mean much.
    const RunArtifacts compiled = RunPrograms(
        programs, w.num_entities, true, core::SchedulerKind::kRandom, seed);
    EXPECT_GT(compiled.rollbacks, 0u) << "workload produced no rollbacks";
    ExpectIdenticalRuns(programs, w.num_entities,
                        core::SchedulerKind::kRandom, seed);
  }
}

TEST(CompiledDifferentialTest, UpgradeDeadlocksMatch) {
  // Two transactions both read-share e0 then upgrade: the classic S->X
  // upgrade deadlock — one must be rolled back, on either path alike.
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
  const RunArtifacts compiled = RunPrograms(
      programs, 1, true, core::SchedulerKind::kRoundRobin, 1);
  EXPECT_GT(compiled.deadlocks, 0u);
  ExpectIdenticalRuns(programs, 1, core::SchedulerKind::kRoundRobin, 1);
}

TEST(CompiledDifferentialTest, MidProgramUnlocksMatch) {
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
  ExpectIdenticalRuns(programs, 2, core::SchedulerKind::kRoundRobin, 1);
}

// Full-pipeline differential: the one-shard report and decision-journal
// chain heads (what `pardb diff-runs` compares) must be identical with the
// compile cache on and off.
par::ShardedOptions OneShard() {
  par::ShardedOptions opt;
  opt.num_shards = 1;
  opt.cross_shard_fraction = 0.0;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  return opt;
}

TEST(CompiledDifferentialTest, OneShardReportAndJournalChainMatchAcrossPaths) {
  for (std::uint64_t seed : {7u, 23u}) {
    par::ShardedOptions on = OneShard();
    on.total_txns = 120;
    on.concurrency = 12;
    on.workload.num_entities = 16;
    on.workload.shared_fraction = 0.3;
    on.workload.zipf_theta = 0.5;
    on.seed = seed;
    par::ShardedOptions off = on;
    off.engine.compile_programs = false;

    auto a = par::RunSharded(on);
    auto b = par::RunSharded(off);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(par::ShardedReportToJson(a.value()),
              par::ShardedReportToJson(b.value()));
    EXPECT_EQ(a->shards[0].journal_records, b->shards[0].journal_records);
    EXPECT_EQ(a->shards[0].journal_chain, b->shards[0].journal_chain)
        << "seed " << seed
        << ": journal chain heads diverged between compiled and "
           "interpreted execution";
  }
}

// The cache-hit telemetry the CI observability smoke asserts on: a
// templated one-shard run must report hits on the engine metrics.
TEST(CompiledDifferentialTest, TemplatedWorkloadReportsCacheHits) {
  par::ShardedOptions opt = OneShard();
  opt.total_txns = 100;
  opt.concurrency = 8;
  opt.workload.num_entities = 16;
  opt.workload.num_templates = 5;
  opt.seed = 4;
  auto rep = par::RunSharded(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const core::EngineMetrics& m = rep->shards[0].metrics;
  EXPECT_GT(m.compile_cache_hits, 0u);
  EXPECT_LE(m.programs_compiled, 5u);
  EXPECT_GT(m.compiled_bytes, 0u);
}

}  // namespace
}  // namespace pardb
