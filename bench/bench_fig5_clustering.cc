// E8/E10 — Figure 5 and §5: transaction structure vs rollback efficiency.
//
// The paper's claim: clustering each object's writes (few lock states
// between successive writes) maximises well-defined states, so single-copy
// (SDG) rollbacks overshoot less and MCS keeps fewer copies; the strict
// three-phase structure (acquire / update / release) is best of all — after
// the last lock request monitoring stops entirely.
//
// Series reported per write pattern: fraction of well-defined lock states,
// SDG rollback overshoot (actual - ideal cost), wasted work, MCS copy
// peaks.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/closed_loop.h"
#include "bench/table_util.h"
#include "rollback/sdg.h"
#include "sim/workload.h"
#include "txn/optimizer.h"

namespace {

using namespace pardb;
using bench::Section;
using bench::Table;
using sim::WritePattern;

double WellDefinedFraction(const txn::Program& p) {
  auto sdg = rollback::BuildSdgForProgram(p);
  if (sdg.NumLockStates() == 0) return 1.0;
  return static_cast<double>(sdg.WellDefinedStates().size()) /
         static_cast<double>(sdg.NumLockStates());
}

void PrintReproduction() {
  Section("Static structure analysis (1000 generated programs per pattern)");
  Table t({"pattern", "write spread (avg)", "well-defined fraction",
           "three-phase"});
  for (auto pattern : {WritePattern::kScattered, WritePattern::kClustered,
                       WritePattern::kThreePhase}) {
    sim::WorkloadOptions wopt;
    wopt.num_entities = 32;
    wopt.min_locks = 4;
    wopt.max_locks = 8;
    wopt.ops_per_entity = 3;
    wopt.pattern = pattern;
    sim::WorkloadGenerator gen(wopt, 1);
    double spread = 0, wd = 0;
    int three_phase = 0;
    const int kN = 1000;
    for (int i = 0; i < kN; ++i) {
      auto p = gen.Next();
      if (!p.ok()) continue;
      spread += static_cast<double>(p.value().WriteSpreadScore());
      wd += WellDefinedFraction(p.value());
      three_phase += p.value().IsThreePhase() ? 1 : 0;
    }
    t.AddRow(std::string(WritePatternName(pattern)), spread / kN, wd / kN,
             std::to_string(100 * three_phase / kN) + "%");
  }
  t.Print();
  std::cout << "(paper: T2-style clustering leaves every state well-defined;"
               " T1-style scattering only the trivial ones)\n";

  Section("§5 future work, implemented: compile-time write clustering");
  {
    sim::WorkloadOptions wopt;
    wopt.num_entities = 32;
    wopt.min_locks = 4;
    wopt.max_locks = 8;
    wopt.ops_per_entity = 3;
    wopt.pattern = WritePattern::kScattered;
    sim::WorkloadGenerator gen(wopt, 2);
    double spread_before = 0, spread_after = 0;
    double wd_before = 0, wd_after = 0;
    const int kN = 1000;
    int transformed_ok = 0;
    for (int i = 0; i < kN; ++i) {
      auto p = gen.Next();
      if (!p.ok()) continue;
      auto c = txn::ClusterWrites(p.value());
      if (!c.ok()) continue;
      ++transformed_ok;
      spread_before += static_cast<double>(p.value().WriteSpreadScore());
      spread_after += static_cast<double>(c->WriteSpreadScore());
      wd_before += WellDefinedFraction(p.value());
      wd_after += WellDefinedFraction(c.value());
    }
    Table o({"", "write spread (avg)", "well-defined fraction"});
    o.AddRow("scattered, as written", spread_before / transformed_ok,
             wd_before / transformed_ok);
    o.AddRow("after ClusterWrites()", spread_after / transformed_ok,
             wd_after / transformed_ok);
    o.Print();
    std::cout << "(" << transformed_ok << "/" << kN
              << " programs transformed; solo semantics preserved — see "
                 "optimizer_test)\n";
  }

  Section("Dynamic effect under the SDG strategy (400 txns, contended)");
  Table d({"pattern", "deadlocks", "rollbacks", "ideal lost ops",
           "actual lost ops", "overshoot", "goodput"});
  for (auto pattern : {WritePattern::kScattered, WritePattern::kClustered,
                       WritePattern::kThreePhase}) {
    par::ShardedOptions opt = bench::ClosedLoop();
    opt.engine.strategy = rollback::StrategyKind::kSdg;
    opt.engine.victim_policy = core::VictimPolicyKind::kMinCostOrdered;
    opt.workload.num_entities = 10;
    opt.workload.min_locks = 3;
    opt.workload.max_locks = 6;
    opt.workload.ops_per_entity = 3;
    opt.workload.pattern = pattern;
    opt.concurrency = 10;
    opt.total_txns = 400;
    opt.seed = 7;
    opt.check_serializability = false;
    auto rep = par::RunSharded(opt);
    if (!rep.ok()) {
      std::cerr << "sim failed: " << rep.status() << "\n";
      continue;
    }
    d.AddRow(std::string(WritePatternName(pattern)), rep->aggregate.deadlocks,
             rep->aggregate.rollbacks, rep->aggregate.ideal_wasted_ops,
             rep->aggregate.wasted_ops,
             rep->aggregate.wasted_ops - rep->aggregate.ideal_wasted_ops,
             rep->goodput);
  }
  d.Print();
  std::cout << "(overshoot = extra progress lost because the ideal target "
               "state was not well-defined)\n";

  Section("MCS copy peaks by structure (same workloads, MCS strategy)");
  Table m({"pattern", "max entity copies (one txn)", "max var copies"});
  for (auto pattern : {WritePattern::kScattered, WritePattern::kClustered,
                       WritePattern::kThreePhase}) {
    par::ShardedOptions opt = bench::ClosedLoop();
    opt.engine.strategy = rollback::StrategyKind::kMcs;
    opt.workload.num_entities = 10;
    opt.workload.min_locks = 3;
    opt.workload.max_locks = 6;
    opt.workload.ops_per_entity = 3;
    opt.workload.pattern = pattern;
    opt.concurrency = 10;
    opt.total_txns = 400;
    opt.seed = 7;
    opt.check_serializability = false;
    auto rep = par::RunSharded(opt);
    if (!rep.ok()) continue;
    m.AddRow(std::string(WritePatternName(pattern)),
             rep->aggregate.max_entity_copies, rep->aggregate.max_var_copies);
  }
  m.Print();
  std::cout << "(paper §5: clustering \"is also efficient for the MCS "
               "implementation as it minimizes the number of copies\")\n";
}

void BM_SimulationByPattern(benchmark::State& state) {
  const auto pattern = static_cast<WritePattern>(state.range(0));
  for (auto _ : state) {
    par::ShardedOptions opt = bench::ClosedLoop();
    opt.engine.strategy = rollback::StrategyKind::kSdg;
    opt.workload.num_entities = 10;
    opt.workload.pattern = pattern;
    opt.concurrency = 8;
    opt.total_txns = 100;
    opt.seed = 3;
    opt.check_serializability = false;
    auto rep = par::RunSharded(opt);
    if (!rep.ok()) state.SkipWithError("sim failed");
    benchmark::DoNotOptimize(rep->aggregate.wasted_ops);
  }
}
BENCHMARK(BM_SimulationByPattern)
    ->Arg(static_cast<int>(WritePattern::kScattered))
    ->Arg(static_cast<int>(WritePattern::kClustered))
    ->Arg(static_cast<int>(WritePattern::kThreePhase));

}  // namespace

int main(int argc, char** argv) {
  PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
