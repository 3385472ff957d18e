// D16 compiled-program tests: lowering unit asserts (one code and entity
// per op, the static upgrade flag, arith fusion, constant folding, value
// slots from the rollback plan, var frames of any width) and execution
// against an independent reference: the engine's final store must equal
// the serial oracle's replay of the committed programs, over plain txn::Op
// semantics, in the run's serial order (tests/serial_oracle.h). Covered:
// shared/exclusive mixes, deadlock-victim partial rollbacks, S->X upgrade
// deadlocks, mid-program unlocks and every arith op on every operand kind.

#include "txn/compiled.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/history.h"
#include "common/random.h"
#include "core/engine.h"
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

// The engine keeps one planner and lowers every admission with it, so a
// planner whose scratch another program left behind must build the plan a
// fresh one does.
TEST(CompiledLoweringTest, WarmPlannerBuildsTheSamePlan) {
  ProgramBuilder mb("mix", 1);
  mb.LockShared(EntityId(3))
      .Read(EntityId(3), 0)
      .LockExclusive(EntityId(4))
      .WriteVar(EntityId(4), 0)
      .Commit();
  auto mix = Own(std::move(mb).Build());
  ProgramBuilder ob("other", 2);
  ob.LockExclusive(EntityId(7))
      .Read(EntityId(7), 0)
      .LockExclusive(EntityId(8))
      .Read(EntityId(8), 1)
      .Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Var(1))
      .WriteVar(EntityId(7), 0)
      .WriteVar(EntityId(8), 0)
      .Commit();
  auto other = Own(std::move(ob).Build());

  const rollback::RollbackPlan cold = Plan(*mix);
  rollback::RollbackPlanner planner;
  planner.Build(*other, rollback::StrategyKind::kMcs, /*seal=*/true);
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

}  // namespace
}  // namespace pardb
