// Rollback plans (rollback/plan.h, DESIGN D20) run through the engine: every
// preset's restorable set, slot layout and copy counts, checked against a
// serial replay of the program and, for Theorem 4, against a
// state-dependency graph fed the executed prefix.

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/engine.h"
#include "obs/journal.h"
#include "rollback/plan.h"
#include "rollback/sdg.h"
#include "serial_oracle.h"
#include "sim/workload.h"
#include "storage/entity_store.h"
#include "txn/program.h"

namespace pardb::rollback {
namespace {

using core::DeadlockHandling;
using core::Engine;
using core::EngineOptions;
using txn::Operand;
using txn::Program;
using txn::ProgramBuilder;

constexpr std::uint64_t kEntities = 8;

Value InitialValue(EntityId e) { return 100 * static_cast<Value>(e.value()); }

Program Build(ProgramBuilder& b) {
  auto p = b.Build();
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

// Position of the first unlock or commit: rollback is legal before it.
std::size_t GrowingEnd(const Program& p) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p.op(i).code == txn::OpCode::kUnlock ||
        p.op(i).code == txn::OpCode::kCommit) {
      return i;
    }
  }
  return p.size();
}

// One transaction alone in an engine: the plan drives its values, the
// reference replay says what they must be.
class Solo {
 public:
  Solo(Program program, StrategyKind kind,
       DeadlockHandling handling = DeadlockHandling::kDetection)
      : program_(std::move(program)) {
    for (std::uint64_t i = 0; i < kEntities; ++i) {
      EXPECT_TRUE(store_.Create(EntityId(i), InitialValue(EntityId(i))).ok());
    }
    EngineOptions opt;
    opt.strategy = kind;
    opt.handling = handling;
    engine_ = std::make_unique<Engine>(&store_, opt);
    engine_->set_journal(&journal_);
    auto id = engine_->Spawn(program_);
    EXPECT_TRUE(id.ok());
    txn_ = id.value();
  }

  void StepTo(std::size_t pc) {
    while (engine_->StateIndexOf(txn_) < pc) {
      auto out = engine_->StepTxn(txn_);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ASSERT_EQ(out.value(), core::StepOutcome::kExecuted);
    }
  }

  Status RollbackTo(LockIndex target) {
    return engine_->ApplyExternalRollback(txn_, target, target);
  }

  std::size_t pc() const { return engine_->StateIndexOf(txn_); }
  LockIndex locks() const { return engine_->LockCountOf(txn_); }

  // Every value the transaction sees equals the serial replay's at pc.
  void ExpectMatchesReference() const {
    const txn::SerialState ref = txn::ReplayTo(program_, pc(), InitialValue);
    for (txn::VarId v = 0; v < program_.num_vars(); ++v) {
      EXPECT_EQ(engine_->VarValueOf(txn_, v), ref.vars[v])
          << "var " << v << " at pc " << pc() << "\n" << program_.ToString();
    }
    for (std::uint64_t i = 0; i < kEntities; ++i) {
      const EntityId e(i);
      auto it = ref.written.find(e);
      EXPECT_EQ(engine_->EntityValueOf(txn_, e),
                it != ref.written.end() ? it->second : InitialValue(e))
          << "entity " << e << " at pc " << pc() << "\n"
          << program_.ToString();
    }
  }

  // Runs to commit; the published values are the serial replay's.
  void FinishAndExpectPublished() {
    ASSERT_TRUE(engine_->RunToCompletion().ok());
    const txn::SerialState ref =
        txn::ReplayTo(program_, program_.size(), InitialValue);
    for (std::uint64_t i = 0; i < kEntities; ++i) {
      const EntityId e(i);
      auto it = ref.written.find(e);
      EXPECT_EQ(store_.Get(e).value().value,
                it != ref.written.end() ? it->second : InitialValue(e))
          << "published " << e << "\n" << program_.ToString();
    }
  }

  Engine& engine() { return *engine_; }
  const obs::DecisionJournal& journal() const { return journal_; }
  storage::EntityStore& store() { return store_; }
  TxnId txn() const { return txn_; }

 private:
  Program program_;
  storage::EntityStore store_;
  obs::DecisionJournal journal_;
  std::unique_ptr<Engine> engine_;
  TxnId txn_;
};

// Rolls back to q, which must be restorable, and checks every value.
void RollBackAndCheck(Solo& solo, LockIndex q) {
  ASSERT_TRUE(solo.RollbackTo(q).ok()) << "target " << q;
  EXPECT_EQ(solo.locks(), q);
  solo.ExpectMatchesReference();
}

// ---------------------------------------------------------------------------
// Program generators: the workload generator's three write patterns (with
// and without shared locks) and random programs with S->X upgrades.
// ---------------------------------------------------------------------------

Program RandomProgram(Rng& rng, bool with_unlocks) {
  const txn::VarId num_vars = 3;
  ProgramBuilder b("random", num_vars);
  for (txn::VarId v = 0; v < num_vars; ++v) {
    b.InitVar(v, static_cast<Value>(rng.Uniform(50)));
  }
  std::map<std::uint64_t, bool> held;  // entity -> exclusive
  auto Pick = [&](bool exclusive_only) -> std::optional<EntityId> {
    std::vector<std::uint64_t> c;
    for (const auto& [e, x] : held) {
      if (x || !exclusive_only) c.push_back(e);
    }
    if (c.empty()) return std::nullopt;
    return EntityId(c[rng.Uniform(c.size())]);
  };
  const std::uint64_t locks = 2 + rng.Uniform(5);
  for (std::uint64_t i = 0; i < locks; ++i) {
    // Prefer an S->X upgrade now and then.
    std::optional<std::uint64_t> upgrade;
    for (const auto& [e, x] : held) {
      if (!x && rng.Bernoulli(0.5)) upgrade = e;
    }
    if (upgrade.has_value()) {
      b.LockExclusive(EntityId(*upgrade));
      held[*upgrade] = true;
    } else {
      std::uint64_t e = rng.Uniform(kEntities);
      while (held.count(e) != 0) e = (e + 1) % kEntities;
      const bool exclusive = rng.Bernoulli(0.6);
      if (exclusive) {
        b.LockExclusive(EntityId(e));
      } else {
        b.LockShared(EntityId(e));
      }
      held[e] = exclusive;
    }
    const std::uint64_t accesses = rng.Uniform(4);
    for (std::uint64_t a = 0; a < accesses; ++a) {
      const auto var = static_cast<txn::VarId>(rng.Uniform(num_vars));
      switch (rng.Uniform(3)) {
        case 0:
          b.Read(*Pick(false), var);
          break;
        case 1:
          b.Compute(var, Operand::Var(static_cast<txn::VarId>(
                             rng.Uniform(num_vars))),
                    txn::ArithOp::kAdd,
                    rng.Bernoulli(0.5)
                        ? Operand::Imm(static_cast<Value>(rng.Uniform(9)))
                        : Operand::Var(var));
          break;
        default:
          if (auto e = Pick(true)) {
            b.Write(*e, rng.Bernoulli(0.5)
                            ? Operand::Var(var)
                            : Operand::Imm(static_cast<Value>(
                                  rng.Uniform(1000))));
          }
          break;
      }
    }
  }
  if (with_unlocks && rng.Bernoulli(0.5)) {
    for (const auto& [e, x] : held) {
      if (rng.Bernoulli(0.5)) b.Unlock(EntityId(e));
    }
  }
  b.Commit();
  return Build(b);
}

std::vector<Program> GeneratedPrograms() {
  std::vector<Program> out;
  for (sim::WritePattern pattern :
       {sim::WritePattern::kScattered, sim::WritePattern::kClustered,
        sim::WritePattern::kThreePhase}) {
    for (double shared : {0.0, 0.4}) {
      sim::WorkloadOptions w;
      w.num_entities = kEntities;
      w.min_locks = 2;
      w.max_locks = 6;
      w.ops_per_entity = 3;
      w.pattern = pattern;
      w.shared_fraction = shared;
      sim::WorkloadGenerator gen(w, 17);
      for (int i = 0; i < 25; ++i) out.push_back(gen.Next().value());
    }
  }
  Rng rng(2024);
  for (int i = 0; i < 150; ++i) out.push_back(RandomProgram(rng, true));
  return out;
}

// ---------------------------------------------------------------------------
// Theorem 4 oracle: the kSdg plan's restorable set at every position is the
// set of well-defined lock states of a state-dependency graph fed the
// executed prefix — fed the way the paper's running SDG is, with the index
// of restorability computed here, independently of rollback::WriteChords.
// ---------------------------------------------------------------------------

void ExpectPlansMatchSdgOracle(const Program& p) {
  const RollbackPlan sdg_plan =
      RollbackPlanner().Build(p, StrategyKind::kSdg, false);
  const RollbackPlan mcs =
      RollbackPlanner().Build(p, StrategyKind::kMcs, false);
  const RollbackPlan total =
      RollbackPlanner().Build(p, StrategyKind::kTotalRestart, false);
  StateDependencyGraph oracle;
  std::map<std::pair<int, std::uint64_t>, LockIndex> first_write;
  LockIndex m = 0;
  for (std::size_t pc = 0;; ++pc) {
    for (LockIndex q = 0; q <= m; ++q) {
      EXPECT_EQ(sdg_plan.IsRestorable(q, pc), oracle.IsWellDefined(q))
          << "q=" << q << " pc=" << pc << "\n" << p.ToString();
      EXPECT_EQ(sdg_plan.LatestRestorableAtOrBefore(q, pc),
                oracle.LatestWellDefinedAtOrBefore(q));
      EXPECT_TRUE(mcs.IsRestorable(q, pc));
      EXPECT_EQ(total.IsRestorable(q, pc), q == 0);
    }
    if (pc == p.size()) break;
    const txn::Op& op = p.op(pc);
    std::optional<std::pair<int, std::uint64_t>> object;
    switch (op.code) {
      case txn::OpCode::kLockShared:
      case txn::OpCode::kLockExclusive:
        oracle.AddLockState(m++);
        break;
      case txn::OpCode::kWrite:
        object = {0, op.entity.value()};
        break;
      case txn::OpCode::kRead:
      case txn::OpCode::kCompute:
        object = {1, op.dst};
        break;
      default:
        break;
    }
    if (object.has_value()) {
      const LockIndex first = first_write.emplace(*object, m).first->second;
      oracle.RecordWrite(first - 1, m);
    }
  }
}

TEST(Theorem4OracleTest, PlanRestorableSetsEqualPrefixSdgForGeneratedPrograms) {
  for (const Program& p : GeneratedPrograms()) ExpectPlansMatchSdgOracle(p);
}

TEST(Theorem4OracleTest, FigureGraphsUseThePlansChords) {
  // BuildSdgForProgram and the kSdg plan read one chord list: the figure
  // graph's well-defined states are the plan's restorable states once the
  // whole program has run.
  for (const Program& p : GeneratedPrograms()) {
    const StateDependencyGraph g = BuildSdgForProgram(p);
    const RollbackPlan plan =
        RollbackPlanner().Build(p, StrategyKind::kSdg, false);
    EXPECT_EQ(g.NumRecordedWrites(), WriteChords(p).size());
    for (LockIndex q = 0; q < g.NumLockStates(); ++q) {
      EXPECT_EQ(plan.IsRestorable(q, p.size()), g.IsWellDefined(q)) << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Every preset, randomized: roll back to every restorable target from every
// growing-phase position, and chains of rollbacks, against the replay.
// ---------------------------------------------------------------------------

class PresetTest : public ::testing::TestWithParam<StrategyKind> {};

INSTANTIATE_TEST_SUITE_P(
    Presets, PresetTest,
    ::testing::Values(StrategyKind::kTotalRestart, StrategyKind::kMcs,
                      StrategyKind::kSdg),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      std::string name(StrategyKindName(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST_P(PresetTest, EveryRestorableTargetMatchesSerialReplay) {
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const Program p = RandomProgram(rng, /*with_unlocks=*/false);
    const RollbackPlan plan = RollbackPlanner().Build(p, GetParam(), true);
    for (std::size_t stop = 0; stop <= GrowingEnd(p); ++stop) {
      LockIndex locks = 0;
      for (std::size_t i = 0; i < stop; ++i) {
        if (p.op(i).code == txn::OpCode::kLockShared ||
            p.op(i).code == txn::OpCode::kLockExclusive) {
          ++locks;
        }
      }
      for (LockIndex q = 0; q <= locks; ++q) {
        if (!plan.IsRestorable(q, stop)) continue;
        Solo solo(p, GetParam());
        solo.StepTo(stop);
        RollBackAndCheck(solo, q);
        solo.FinishAndExpectPublished();
      }
    }
  }
}

TEST_P(PresetTest, ChainedRollbacksMatchSerialReplay) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const Program p = RandomProgram(rng, /*with_unlocks=*/true);
    const std::size_t end = GrowingEnd(p);
    const RollbackPlan plan = RollbackPlanner().Build(p, GetParam(), true);
    Solo solo(p, GetParam());
    for (int round = 0; round < 4; ++round) {
      solo.StepTo(solo.pc() + rng.Uniform(end - solo.pc() + 1));
      const LockIndex q = rng.Uniform(solo.locks() + 1);
      RollBackAndCheck(solo, plan.LatestRestorableAtOrBefore(q, solo.pc()));
    }
    solo.FinishAndExpectPublished();
  }
}

// ---------------------------------------------------------------------------
// Contended runs: after every rollback, the victim's values are its serial
// replay's. Checked at each lock grant, where the transaction holds every
// entity its prefix read, so the replay may read the current global
// values. Covers victims whose last lock request an earlier victim's
// release granted in the same resolution: the seal must not outlive
// their rollback.
// ---------------------------------------------------------------------------

class ReplayCheck final : public obs::EventSink {
 public:
  ReplayCheck(const Engine* engine, const storage::EntityStore* store,
              const std::vector<Program>* programs)
      : engine_(engine), store_(store), programs_(programs) {}

  void OnEvent(const obs::EngineEvent& ev) override {
    if (ev.kind != obs::EventKind::kGrant) return;
    const Program& p = (*programs_)[ev.txn.value()];
    const txn::SerialState ref = txn::ReplayTo(
        p, ev.pc, [this](EntityId e) { return store_->Get(e)->value; });
    ++checks_;
    bool ok = true;
    for (txn::VarId v = 0; v < p.num_vars(); ++v) {
      ok = ok && engine_->VarValueOf(ev.txn, v) == ref.vars[v];
    }
    for (const auto& [e, value] : ref.written) {
      ok = ok && engine_->EntityValueOf(ev.txn, e) == value;
    }
    if (!ok) ++mismatches_;
  }

  std::uint64_t checks() const { return checks_; }
  std::uint64_t mismatches() const { return mismatches_; }

 private:
  const Engine* engine_;
  const storage::EntityStore* store_;
  const std::vector<Program>* programs_;
  std::uint64_t checks_ = 0;
  std::uint64_t mismatches_ = 0;
};

TEST_P(PresetTest, ContendedRollbacksLeaveSerialReplayValues) {
  // bench_partial_vs_total's hot-spot mix (E9) at concurrency 16.
  sim::WorkloadOptions w;
  w.num_entities = 24;
  w.min_locks = 3;
  w.max_locks = 6;
  w.ops_per_entity = 3;
  w.zipf_theta = 0.6;
  constexpr std::size_t kTxns = 600;
  constexpr std::size_t kConcurrency = 16;
  storage::EntityStore store;
  for (std::uint64_t i = 0; i < w.num_entities; ++i) {
    ASSERT_TRUE(store.Create(EntityId(i), InitialValue(EntityId(i))).ok());
  }
  EngineOptions opt;
  opt.strategy = GetParam();
  opt.scheduler = core::SchedulerKind::kRandom;
  opt.seed = 12345;
  Engine engine(&store, opt);
  std::vector<Program> programs;
  ReplayCheck check(&engine, &store, &programs);
  engine.set_trace(&check);
  sim::WorkloadGenerator gen(w, 12345);
  while (engine.metrics().commits < kTxns) {
    while (programs.size() < kTxns &&
           programs.size() - engine.metrics().commits < kConcurrency) {
      programs.push_back(gen.Next().value());
      ASSERT_TRUE(engine.Spawn(programs.back()).ok());
    }
    auto q = engine.StepQuantum(1'000'000, /*stop_after_commit=*/true);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_FALSE(q->ran_dry);
  }
  EXPECT_GT(engine.metrics().rollbacks, 1000u);
  EXPECT_GT(check.checks(), 0u);
  EXPECT_EQ(check.mismatches(), 0u);
}

// ---------------------------------------------------------------------------
// A bad target changes nothing: validated before anything is accounted,
// logged or mutated.
// ---------------------------------------------------------------------------

TEST(RollbackTargetTest, BadTargetLeavesEngineUntouched) {
  ProgramBuilder b("scattered", 1);
  b.LockExclusive(EntityId(0))
      .WriteImm(EntityId(0), 1)  // first write @1: u = 0
      .LockExclusive(EntityId(1))
      .LockExclusive(EntityId(2))
      .WriteImm(EntityId(0), 2)  // @3: destroys lock states 1 and 2
      .LockExclusive(EntityId(3))
      .Commit();
  Solo solo(Build(b), StrategyKind::kSdg);
  solo.StepTo(5);
  const std::uint64_t digest = solo.engine().StateDigest();
  const core::EngineMetrics metrics = solo.engine().metrics();
  const std::uint64_t chain = solo.journal().chain();
  const std::uint64_t records = solo.journal().total_records();
  for (LockIndex bad : {LockIndex{1}, LockIndex{2}, LockIndex{4}}) {
    EXPECT_EQ(solo.RollbackTo(bad).code(), StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(solo.engine().StateDigest(), digest);
    EXPECT_TRUE(solo.engine().metrics() == metrics);
    EXPECT_EQ(solo.journal().chain(), chain);
    EXPECT_EQ(solo.journal().total_records(), records);
    EXPECT_EQ(solo.pc(), 5u);
    EXPECT_EQ(solo.locks(), 3u);
  }
  RollBackAndCheck(solo, 3);  // the current lock state: nothing undone
  RollBackAndCheck(solo, 0);
  EXPECT_EQ(solo.engine().metrics().Preemptions(), 2u);
  solo.FinishAndExpectPublished();
}

TEST(RollbackTargetTest, RollbackAfterUnlockIsRefused) {
  ProgramBuilder b("p", 1);
  b.LockExclusive(EntityId(1))
      .WriteImm(EntityId(1), 123)
      .Unlock(EntityId(1))
      .Commit();
  const Program p = Build(b);
  for (StrategyKind kind : {StrategyKind::kTotalRestart, StrategyKind::kMcs,
                            StrategyKind::kSdg}) {
    Solo solo(p, kind);
    solo.StepTo(3);
    // The unlock published the final value.
    EXPECT_EQ(solo.store().Get(EntityId(1)).value().value, 123);
    const std::uint64_t digest = solo.engine().StateDigest();
    EXPECT_EQ(solo.RollbackTo(0).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(solo.engine().StateDigest(), digest);
  }
}

// ---------------------------------------------------------------------------
// Total restart
// ---------------------------------------------------------------------------

TEST(TotalRestartTest, OnlyStateZeroRestorable) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const Program p = RandomProgram(rng, false);
    const RollbackPlan plan =
        RollbackPlanner().Build(p, StrategyKind::kTotalRestart, true);
    LockIndex locks = 0;
    for (std::size_t pc = 0; pc <= p.size(); ++pc) {
      EXPECT_TRUE(plan.IsRestorable(0, pc));
      EXPECT_EQ(plan.LatestRestorableAtOrBefore(locks, pc), 0u);
      for (LockIndex q = 1; q <= locks; ++q) {
        EXPECT_FALSE(plan.IsRestorable(q, pc));
      }
      if (pc < p.size() && (p.op(pc).code == txn::OpCode::kLockShared ||
                            p.op(pc).code == txn::OpCode::kLockExclusive)) {
        ++locks;
      }
    }
  }
}

TEST(TotalRestartTest, RestoreResetsVarsAndDropsEntities) {
  ProgramBuilder b("p", 2);
  b.InitVar(0, 10).InitVar(1, 20);
  b.LockExclusive(EntityId(1))
      .WriteImm(EntityId(1), 111)
      .Compute(0, Operand::Imm(99), txn::ArithOp::kAdd, Operand::Imm(0))
      .LockExclusive(EntityId(2))
      .Commit();
  Solo solo(Build(b), StrategyKind::kTotalRestart);
  solo.StepTo(4);
  EXPECT_EQ(solo.engine().VarValueOf(solo.txn(), 0), 99);
  EXPECT_EQ(solo.engine().EntityValueOf(solo.txn(), EntityId(1)), 111);
  EXPECT_EQ(solo.RollbackTo(1).code(), StatusCode::kInvalidArgument);
  RollBackAndCheck(solo, 0);
  EXPECT_EQ(solo.engine().VarValueOf(solo.txn(), 0), 10);  // initial
  EXPECT_EQ(solo.engine().VarValueOf(solo.txn(), 1), 20);
  EXPECT_EQ(solo.engine().EntityValueOf(solo.txn(), EntityId(1)), 100);
  EXPECT_TRUE(solo.engine().lock_manager().HeldBy(solo.txn()).empty());
  solo.FinishAndExpectPublished();
}

TEST(TotalRestartTest, SharedLockPublishesNothing) {
  ProgramBuilder b("p", 1);
  b.LockShared(EntityId(1)).Read(EntityId(1), 0).Unlock(EntityId(1)).Commit();
  const Program p = Build(b);
  const RollbackPlan plan =
      RollbackPlanner().Build(p, StrategyKind::kTotalRestart, true);
  ASSERT_EQ(plan.releases(2).size(), 1u);
  EXPECT_EQ(plan.releases(2)[0].source, RollbackPlan::kNone);
  Solo solo(p, StrategyKind::kTotalRestart);
  const std::uint64_t version = solo.store().Get(EntityId(1)).value().version;
  solo.StepTo(3);
  EXPECT_EQ(solo.store().Get(EntityId(1)).value().version, version);
}

TEST(TotalRestartTest, SpaceIsOneCopyPerExclusiveEntity) {
  ProgramBuilder b("p", 2);
  b.LockExclusive(EntityId(1))
      .LockExclusive(EntityId(2))
      .LockShared(EntityId(3))
      .WriteImm(EntityId(1), 7)
      .LockExclusive(EntityId(4))
      .WriteImm(EntityId(1), 8)
      .Commit();
  const RollbackPlan plan =
      RollbackPlanner().Build(Build(b), StrategyKind::kTotalRestart, true);
  EXPECT_EQ(plan.PeakCopiesAt(4).entity, 2u);  // writes do not add copies
  EXPECT_EQ(plan.PeakCopiesAt(6).entity, 3u);
  EXPECT_EQ(plan.PeakCopiesAt(6).var, 2u);  // saved initial vars
}

// ---------------------------------------------------------------------------
// MCS
// ---------------------------------------------------------------------------

Program McsProgram() {
  ProgramBuilder b("mcs", 3);
  b.InitVar(0, 1).InitVar(1, 2).InitVar(2, 3);
  b.LockExclusive(EntityId(0))  // lock state 0
      .WriteImm(EntityId(0), 101)
      .Compute(0, Operand::Imm(11), txn::ArithOp::kAdd, Operand::Imm(0))
      .LockExclusive(EntityId(1))  // lock state 1
      .WriteImm(EntityId(0), 102)
      .WriteImm(EntityId(1), 201)
      .LockExclusive(EntityId(2))  // lock state 2
      .Compute(1, Operand::Var(0), txn::ArithOp::kMul, Operand::Imm(2))
      .WriteVar(EntityId(2), 1)
      .LockExclusive(EntityId(3))  // lock state 3
      .Commit();
  return Build(b);
}

TEST(McsTest, EveryLockStateRestorable) {
  const Program p = McsProgram();
  const RollbackPlan plan =
      RollbackPlanner().Build(p, StrategyKind::kMcs, true);
  for (LockIndex q = 0; q <= 3; ++q) {
    EXPECT_EQ(plan.LatestRestorableAtOrBefore(q, 9), q);
  }
  Solo solo(p, StrategyKind::kMcs);
  solo.StepTo(9);
  // Restore to lock state 2, then further back to 1 and 0 (total), each
  // without re-executing in between.
  RollBackAndCheck(solo, 2);
  EXPECT_EQ(solo.pc(), 6u);
  RollBackAndCheck(solo, 1);
  RollBackAndCheck(solo, 0);
  solo.FinishAndExpectPublished();
}

TEST(McsTest, SameLockIndexWritesShareASlot) {
  ProgramBuilder b("p", 1);
  b.LockExclusive(EntityId(0))
      .WriteImm(EntityId(0), 101)
      .WriteImm(EntityId(0), 102)  // same lock index: same stack element
      .LockExclusive(EntityId(1))
      .WriteImm(EntityId(0), 103)  // new lock index: a new element
      .LockExclusive(EntityId(2))
      .Commit();
  const RollbackPlan plan =
      RollbackPlanner().Build(Build(b), StrategyKind::kMcs,
                                              /*seal=*/true);
  EXPECT_EQ(plan.op(1).dst, plan.op(2).dst);
  EXPECT_NE(plan.op(2).dst, plan.op(4).dst);
  // Stack depth of entity 0: the saved global value, then one element per
  // lock index written.
  EXPECT_EQ(plan.PeakCopiesAt(1).entity, 1u);
  EXPECT_EQ(plan.PeakCopiesAt(3).entity, 2u);
  EXPECT_EQ(plan.PeakCopiesAt(5).entity, 4u);  // + entity 1's saved value
}

TEST(McsTest, UnlockPublishesTopOfStack) {
  ProgramBuilder b("p", 1);
  b.LockExclusive(EntityId(0))
      .WriteImm(EntityId(0), 140)
      .LockExclusive(EntityId(1))
      .WriteImm(EntityId(0), 150)
      .Unlock(EntityId(0))
      .Unlock(EntityId(1))
      .Commit();
  const Program p = Build(b);
  const RollbackPlan plan =
      RollbackPlanner().Build(p, StrategyKind::kMcs, false);
  EXPECT_EQ(plan.releases(4)[0].source, plan.op(3).dst);
  EXPECT_EQ(plan.releases(5)[0].source, RollbackPlan::kGlobal);
  Solo solo(p, StrategyKind::kMcs);
  solo.StepTo(5);
  EXPECT_EQ(solo.store().Get(EntityId(0)).value().value, 150);
  EXPECT_EQ(solo.RollbackTo(0).code(), StatusCode::kFailedPrecondition);
  solo.FinishAndExpectPublished();
  // An unwritten exclusive lock republishes the global value.
  EXPECT_EQ(solo.store().Get(EntityId(1)).value().value, 100);
}

TEST(McsTest, UnlockFreesTheWholeStack) {
  // Unsealed (prevention schemes): writes after an unlock still push.
  ProgramBuilder b("p", 1);
  b.LockExclusive(EntityId(0))
      .WriteImm(EntityId(0), 1)
      .LockExclusive(EntityId(1))
      .WriteImm(EntityId(0), 2)
      .LockExclusive(EntityId(2))
      .WriteImm(EntityId(0), 3)  // E0's stack: 4 elements; E1, E2: 1 each
      .Unlock(EntityId(0))       // frees all 4
      .WriteImm(EntityId(1), 4)
      .WriteImm(EntityId(2), 5)  // back up to 4 live copies
      .Commit();
  const Program p = Build(b);
  const RollbackPlan plan =
      RollbackPlanner().Build(p, StrategyKind::kMcs, false);
  EXPECT_EQ(plan.PeakCopiesAt(6).entity, 6u);
  EXPECT_EQ(plan.PeakCopiesAt(p.size()).entity, 6u);
  Solo solo(p, StrategyKind::kMcs, DeadlockHandling::kWoundWait);
  solo.FinishAndExpectPublished();
}

// The Theorem 3 worst case: every held entity written between every pair
// of lock requests.
Program WorstCase(std::size_t n, txn::VarId vars) {
  ProgramBuilder b("worst", vars);
  for (std::size_t i = 0; i < n; ++i) {
    b.LockExclusive(EntityId(i));
    for (std::size_t j = 0; j <= i; ++j) {
      b.WriteImm(EntityId(j), static_cast<Value>(100 * i + j));
    }
    for (txn::VarId v = 0; v < vars; ++v) {
      b.Compute(v, Operand::Var(v), txn::ArithOp::kAdd, Operand::Imm(1));
    }
  }
  b.Commit();
  return Build(b);
}

TEST(McsTest, Theorem3Bound) {
  constexpr std::size_t kN = 12;
  const Program p = WorstCase(kN, 3);
  const CopyCounts c = RollbackPlanner()
                           .Build(p, StrategyKind::kMcs, true)
                           .PeakCopiesAt(p.size());
  // Entity j's stack: saved global + one element per later lock state; the
  // pattern attains the bound exactly.
  EXPECT_EQ(c.entity, kN * (kN + 1) / 2);
  EXPECT_EQ(c.var, kN * 3);  // n * |L|, also attained
}

TEST(McsTest, SealedWritesHoldNoCopies) {
  // The §5 seal (under detection): writes past the last lock request reuse
  // the stack top. The same program unsealed (prevention schemes) keeps a
  // new element per entity.
  ProgramBuilder b("p", 1);
  b.LockExclusive(EntityId(0)).LockExclusive(EntityId(1)).LockExclusive(
      EntityId(2));
  for (int i = 0; i < 4; ++i) {
    b.WriteImm(EntityId(0), i).WriteImm(EntityId(1), i).WriteImm(EntityId(2),
                                                                 i);
    b.Compute(0, Operand::Var(0), txn::ArithOp::kAdd, Operand::Imm(i));
  }
  b.Commit();
  const Program p = Build(b);
  const RollbackPlan sealed =
      RollbackPlanner().Build(p, StrategyKind::kMcs, true);
  const RollbackPlan open =
      RollbackPlanner().Build(p, StrategyKind::kMcs, false);
  EXPECT_EQ(sealed.PeakCopiesAt(p.size()).entity, 3u);  // working copies
  EXPECT_EQ(open.PeakCopiesAt(p.size()).entity, 6u);
  EXPECT_EQ(sealed.PeakCopiesAt(p.size()).var, 1u);
  EXPECT_EQ(open.PeakCopiesAt(p.size()).var, 2u);
  // Values are unaffected, under every preset.
  for (StrategyKind kind : {StrategyKind::kTotalRestart, StrategyKind::kMcs,
                            StrategyKind::kSdg}) {
    Solo solo(p, kind);
    solo.StepTo(p.size() - 1);
    solo.ExpectMatchesReference();
    solo.FinishAndExpectPublished();
  }
}

TEST(McsTest, UpgradeRollbackRevertsToShared) {
  ProgramBuilder b("p", 1);
  b.LockShared(EntityId(5))  // lock state 0
      .Read(EntityId(5), 0)
      .LockExclusive(EntityId(6))  // lock state 1
      .LockExclusive(EntityId(5))  // lock state 2: S->X upgrade
      .WriteImm(EntityId(5), 9)
      .LockExclusive(EntityId(7))
      .Commit();
  const Program p = Build(b);
  for (StrategyKind kind : {StrategyKind::kMcs, StrategyKind::kSdg}) {
    Solo solo(p, kind);
    solo.StepTo(6);
    RollBackAndCheck(solo, 2);  // undo the upgrade, keep the shared lock
    const auto held = solo.engine().lock_manager().HeldBy(solo.txn());
    ASSERT_EQ(held.size(), 2u);
    for (const auto& [e, mode] : held) {
      if (e == EntityId(5)) {
        EXPECT_EQ(mode, lock::LockMode::kShared);
      }
    }
    EXPECT_EQ(solo.engine().EntityValueOf(solo.txn(), EntityId(5)), 500);
    solo.FinishAndExpectPublished();
  }
}

// ---------------------------------------------------------------------------
// SDG
// ---------------------------------------------------------------------------

TEST(SdgPlanTest, ScatteredWritesCoarsenRollback) {
  ProgramBuilder b("p", 1);
  b.LockExclusive(EntityId(0))       // state 0
      .WriteImm(EntityId(0), 101)    // first write of E0 @1, u=0
      .LockExclusive(EntityId(1))    // state 1
      .LockExclusive(EntityId(2))    // state 2
      .WriteImm(EntityId(0), 102)    // E0 again @3: destroys states 1,2
      .LockExclusive(EntityId(3))
      .Commit();
  const Program p = Build(b);
  const RollbackPlan plan =
      RollbackPlanner().Build(p, StrategyKind::kSdg, true);
  EXPECT_EQ(plan.LatestRestorableAtOrBefore(3, 5), 3u);
  EXPECT_EQ(plan.LatestRestorableAtOrBefore(2, 5), 0u);  // 1,2 destroyed
  EXPECT_EQ(plan.LatestRestorableAtOrBefore(1, 5), 0u);
  EXPECT_EQ(plan.LatestRestorableAtOrBefore(2, 4), 2u);  // not yet written
  Solo solo(p, StrategyKind::kSdg);
  solo.StepTo(5);
  EXPECT_EQ(solo.RollbackTo(2).code(), StatusCode::kInvalidArgument);
  RollBackAndCheck(solo, 0);
  solo.FinishAndExpectPublished();
}

TEST(SdgPlanTest, ClusteredWritesKeepAllStates) {
  ProgramBuilder b("p", 1);
  b.LockExclusive(EntityId(0))
      .WriteImm(EntityId(0), 101)
      .WriteImm(EntityId(0), 102)  // same lock index: no straddle
      .LockExclusive(EntityId(1))
      .WriteImm(EntityId(1), 201)
      .LockExclusive(EntityId(2))
      .LockExclusive(EntityId(3))
      .Commit();
  const Program p = Build(b);
  const RollbackPlan plan =
      RollbackPlanner().Build(p, StrategyKind::kSdg, true);
  for (LockIndex q = 0; q <= 3; ++q) {
    EXPECT_EQ(plan.LatestRestorableAtOrBefore(q, 6), q) << q;
  }
  Solo solo(p, StrategyKind::kSdg);
  solo.StepTo(6);
  RollBackAndCheck(solo, 2);
  RollBackAndCheck(solo, 1);
  solo.FinishAndExpectPublished();
}

TEST(SdgPlanTest, KeptEntityRevertsToGlobalWhenAllWritesUndone) {
  ProgramBuilder b("p", 1);
  b.LockExclusive(EntityId(0))     // state 0
      .LockExclusive(EntityId(1))  // state 1
      .WriteImm(EntityId(0), 111)  // first write @2, u=1: no straddle
      .LockExclusive(EntityId(2))
      .Commit();
  Solo solo(Build(b), StrategyKind::kSdg);
  solo.StepTo(3);
  RollBackAndCheck(solo, 1);
  // E0 is still locked but its write is undone: reads see the global.
  EXPECT_EQ(solo.engine().EntityValueOf(solo.txn(), EntityId(0)), 0);
  solo.FinishAndExpectPublished();
}

TEST(SdgPlanTest, VarWritesDestroyStatesToo) {
  ProgramBuilder b("p", 1);
  b.InitVar(0, 1);
  b.LockExclusive(EntityId(0))  // state 0
      .Compute(0, Operand::Imm(5), txn::ArithOp::kAdd, Operand::Imm(0))
      .LockExclusive(EntityId(1))  // state 1
      .LockExclusive(EntityId(2))  // state 2
      .Compute(0, Operand::Var(0), txn::ArithOp::kAdd, Operand::Imm(1))
      .LockExclusive(EntityId(3))
      .Commit();
  const Program p = Build(b);
  EXPECT_EQ(RollbackPlanner().Build(p, StrategyKind::kSdg, true)
                .LatestRestorableAtOrBefore(2, 5),
            0u);
  Solo solo(p, StrategyKind::kSdg);
  solo.StepTo(5);
  RollBackAndCheck(solo, 0);
  EXPECT_EQ(solo.engine().VarValueOf(solo.txn(), 0), 1);  // initial value
  solo.FinishAndExpectPublished();
}

TEST(SdgPlanTest, SpaceStaysSingleCopy) {
  ProgramBuilder b("p", 3);
  b.LockExclusive(EntityId(0)).LockExclusive(EntityId(1));
  for (int i = 0; i < 10; ++i) {
    b.WriteImm(EntityId(0), i).WriteImm(EntityId(1), i);
  }
  b.Commit();
  const Program p = Build(b);
  const RollbackPlan plan =
      RollbackPlanner().Build(p, StrategyKind::kSdg, false);
  EXPECT_EQ(plan.PeakCopiesAt(p.size()).entity, 2u);  // one per X entity
  EXPECT_EQ(plan.PeakCopiesAt(p.size()).var, 3u);
  EXPECT_EQ(plan.num_slots(), 3u + 2u);  // initial vars + one per entity
}

TEST(StrategyKindTest, NamesAllPresets) {
  EXPECT_EQ(StrategyKindName(StrategyKind::kMcs), "mcs");
  EXPECT_EQ(StrategyKindName(StrategyKind::kSdg), "sdg");
  EXPECT_EQ(StrategyKindName(StrategyKind::kTotalRestart), "total-restart");
}

}  // namespace
}  // namespace pardb::rollback
