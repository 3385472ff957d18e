// E1 — Figure 1: cost-optimal victim selection with exclusive locks.
//
// Reproduces the paper's worked example exactly (rollback costs 12-8=4 for
// T2, 11-5=6 for T3, 15-10=5 for T4; T2 chosen; T1 stops waiting for T2),
// sweeps the victim policy to show what each would have chosen, and then
// times deadlock detection+resolution on the scenario.

#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "bench/table_util.h"
#include "core/engine.h"
#include "sim/scenario.h"

namespace {

using namespace pardb;  // bench binaries favor brevity
using bench::Section;
using bench::Table;
using core::EngineOptions;
using core::VictimPolicyKind;
using sim::BuildFigure1;

EngineOptions Options(VictimPolicyKind policy,
                      rollback::StrategyKind strategy =
                          rollback::StrategyKind::kMcs) {
  EngineOptions opt;
  opt.victim_policy = policy;
  opt.strategy = strategy;
  return opt;
}

void PrintReproduction() {
  Section("Figure 1(a): rollback costs and chosen victim (min-cost, MCS)");
  auto fig = BuildFigure1(Options(VictimPolicyKind::kMinCost));
  if (!fig.ok()) {
    std::cerr << "scenario failed: " << fig.status() << "\n";
    return;
  }
  (void)fig->TriggerDeadlock();
  const obs::DeadlockDump& dump = fig->runner->deadlocks().dumps().at(0);

  Table t({"txn", "holds", "waits (state)", "locked at state", "cost",
           "paper"});
  std::map<TxnId, const obs::DeadlockParticipant*> by_txn;
  for (const auto& p : dump.participants) by_txn[p.txn] = &p;
  t.AddRow("T2", "b", "e (12)", 8, by_txn[fig->t2]->cost, "12-8=4");
  t.AddRow("T3", "c", "b (11)", 5, by_txn[fig->t3]->cost, "11-5=6");
  t.AddRow("T4", "e", "c (15)", 10, by_txn[fig->t4]->cost, "15-10=5");
  t.Print();
  std::cout << "victim: T" << dump.victims.at(0).value() - fig->t1.value() + 1
            << " (paper: T2), rolled back to state "
            << fig->runner->engine().StateIndexOf(fig->t2)
            << " (paper: 8)\n";
  std::cout << "T1 waiting after rollback: "
            << (fig->runner->engine().StatusOf(fig->t1) ==
                        core::TxnStatus::kReady
                    ? "no (paper: no)"
                    : "YES — MISMATCH")
            << "\n";

  Section("Victim-policy sweep on the same deadlock");
  Table p({"policy", "victim", "cost paid", "total rollback?"});
  for (auto policy :
       {VictimPolicyKind::kMinCost, VictimPolicyKind::kMinCostOrdered,
        VictimPolicyKind::kYoungest, VictimPolicyKind::kOldest,
        VictimPolicyKind::kRequester}) {
    auto f = BuildFigure1(Options(policy));
    if (!f.ok()) continue;
    (void)f->TriggerDeadlock();
    const obs::DeadlockDump& d = f->runner->deadlocks().dumps().at(0);
    std::string victim = "T" + std::to_string(d.victims.at(0).value() + 1);
    p.AddRow(std::string(core::VictimPolicyKindName(policy)), victim,
             obs::VictimCost(d),
             f->runner->engine().metrics().total_rollbacks > 0 ? "yes" : "no");
  }
  p.Print();

  Section("Rollback-strategy sweep (min-cost policy)");
  Table s({"strategy", "victim", "cost paid", "ideal cost",
           "overshoot (ops)"});
  for (auto strategy :
       {rollback::StrategyKind::kMcs, rollback::StrategyKind::kSdg,
        rollback::StrategyKind::kTotalRestart}) {
    auto f = BuildFigure1(Options(VictimPolicyKind::kMinCost, strategy));
    if (!f.ok()) continue;
    (void)f->TriggerDeadlock();
    const obs::DeadlockDump& d = f->runner->deadlocks().dumps().at(0);
    const std::uint64_t cost = obs::VictimCost(d);
    const std::uint64_t ideal = obs::VictimIdealCost(d);
    s.AddRow(std::string(rollback::StrategyKindName(strategy)),
             "T" + std::to_string(d.victims.at(0).value() + 1), cost, ideal,
             cost - ideal);
  }
  s.Print();
  std::cout << "\n(paper claim: partial rollback loses only the progress "
               "since the conflicting lock; total restart loses everything)\n";
}

void BM_Figure1BuildAndResolve(benchmark::State& state) {
  for (auto _ : state) {
    auto fig = BuildFigure1(Options(VictimPolicyKind::kMinCost));
    if (!fig.ok()) state.SkipWithError("scenario failed");
    benchmark::DoNotOptimize(fig->TriggerDeadlock());
  }
}
BENCHMARK(BM_Figure1BuildAndResolve);

void BM_Figure1ResolutionOnly(benchmark::State& state) {
  // Isolate detection+resolution by rebuilding outside the timed region.
  for (auto _ : state) {
    state.PauseTiming();
    auto fig = BuildFigure1(Options(VictimPolicyKind::kMinCost));
    if (!fig.ok()) state.SkipWithError("scenario failed");
    state.ResumeTiming();
    benchmark::DoNotOptimize(fig->TriggerDeadlock());
  }
}
BENCHMARK(BM_Figure1ResolutionOnly);

}  // namespace

int main(int argc, char** argv) {
  PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
