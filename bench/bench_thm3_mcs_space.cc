// E6 — Theorem 3: MCS storage overhead.
//
// "There can be at most n(n+1)/2 local copies of global entities and n*|L|
// copies of local variables associated with T using MCS."
//
// Reproduces the bound with the worst-case adversarial transaction (write
// every held entity between every pair of lock requests), shows the bound
// is attained exactly when the §5 seal stops history at the last lock
// request and only slightly exceeded without it, and contrasts MCS's
// quadratic growth with the constant single-copy footprint of the
// total-restart and SDG presets. Copies are a static fact of the program,
// so the table reads them straight off each preset's rollback plan.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/table_util.h"
#include "rollback/plan.h"
#include "rollback/sdg.h"
#include "txn/program.h"

namespace {

using namespace pardb;
using bench::Section;
using bench::Table;
using rollback::StrategyKind;

constexpr txn::VarId kVars = 4;

// The Theorem 3 worst case with n locks: after the i-th lock request,
// write every held entity once and every variable once.
txn::Program WorstCaseProgram(std::size_t n) {
  txn::ProgramBuilder b("space", kVars);
  for (std::size_t i = 0; i < n; ++i) {
    b.LockExclusive(EntityId(i));
    for (std::size_t j = 0; j <= i; ++j) {
      b.WriteImm(EntityId(j), Value(100 * i + j));
    }
    for (txn::VarId v = 0; v < kVars; ++v) {
      b.Compute(v, txn::Operand::Imm(Value(i)), txn::ArithOp::kAdd,
                txn::Operand::Imm(0));
    }
  }
  b.Commit();
  return std::move(b.Build()).value();
}

// Copies the preset holds once every write has executed (before commit).
rollback::CopyCounts WorstCase(StrategyKind kind, std::size_t n, bool seal) {
  const txn::Program program = WorstCaseProgram(n);
  return rollback::RollbackPlanner().Build(program, kind, seal)
      .PeakCopiesAt(program.size() - 1);
}

void PrintReproduction() {
  Section("Theorem 3: MCS entity copies vs n (worst-case transaction)");
  Table t({"n (locks held)", "bound n(n+1)/2", "MCS (with last-lock decl)",
           "MCS (without)", "total-restart", "sdg"});
  for (std::size_t n : {2, 4, 8, 16, 32, 64}) {
    auto mcs_decl = WorstCase(StrategyKind::kMcs, n, true);
    auto mcs_plain = WorstCase(StrategyKind::kMcs, n, false);
    auto total = WorstCase(StrategyKind::kTotalRestart, n, false);
    auto sdg = WorstCase(StrategyKind::kSdg, n, false);
    t.AddRow(n, n * (n + 1) / 2, mcs_decl.entity, mcs_plain.entity,
             total.entity, sdg.entity);
  }
  t.Print();
  std::cout << "(with the §5 last-lock declaration the worst case attains "
               "the paper's bound exactly; without it, writes after the "
               "final lock request add one more copy per entity)\n";

  Section("Variable copies vs n (|L| = 4)");
  Table v({"n", "bound n*|L|", "MCS", "total-restart", "sdg"});
  for (std::size_t n : {2, 4, 8, 16, 32}) {
    auto mcs = WorstCase(StrategyKind::kMcs, n, true);
    auto total = WorstCase(StrategyKind::kTotalRestart, n, true);
    auto sdg = WorstCase(StrategyKind::kSdg, n, true);
    v.AddRow(n, n * 4, mcs.var, total.var, sdg.var);
  }
  v.Print();

  Section("SDG metadata (write-log entries) — bookkeeping, not copies");
  Table s({"n", "sdg metadata entries", "sdg entity copies"});
  for (std::size_t n : {4, 16, 64}) {
    // The chords a live SDG would log; the plan compiles them away.
    const auto sdg = rollback::BuildSdgForProgram(WorstCaseProgram(n));
    s.AddRow(n, sdg.NumRecordedWrites(),
             WorstCase(StrategyKind::kSdg, n, false).entity);
  }
  s.Print();
  std::cout << "(paper: the SDG implementation needs \"no more storage "
               "overhead than that required for total removal and "
               "restart\")\n";
}

// Planning cost of the worst case: the once-per-program work that replaced
// per-transaction history tracking.
void BM_McsWorstCase(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const txn::Program program = WorstCaseProgram(n);
  rollback::RollbackPlanner planner;
  for (auto _ : state) {
    auto plan = planner.Build(program, StrategyKind::kMcs, true);
    benchmark::DoNotOptimize(plan.num_slots());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_McsWorstCase)->Range(4, 128)->Complexity();

void BM_SdgWorstCase(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const txn::Program program = WorstCaseProgram(n);
  rollback::RollbackPlanner planner;
  for (auto _ : state) {
    auto plan = planner.Build(program, StrategyKind::kSdg, true);
    benchmark::DoNotOptimize(plan.num_slots());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SdgWorstCase)->Range(4, 128)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
