// E9 — the paper's §1 motivation: as concurrency rises, deadlocks become
// common and total removal-and-restart becomes burdensome; partial rollback
// loses far less progress.
//
// Series: multiprogramming level (concurrency) x rollback strategy
// (total-restart baseline vs MCS partial vs SDG single-copy partial), all
// under the Theorem 2 ordered min-cost policy. Reported per cell: deadlock
// frequency, work lost to rollbacks, wasted fraction and goodput
// (commits per executed op). Expected shape per the paper: deadlocks/txn
// grows with concurrency; partial rollback's wasted work is a small
// fraction of total restart's at every level; SDG sits between MCS and
// total restart.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/closed_loop.h"
#include "bench/table_util.h"
#include "obs/txnlife.h"

namespace {

using namespace pardb;
using bench::Section;
using bench::Table;
using rollback::StrategyKind;

par::ShardedOptions BaseOptions(StrategyKind strategy,
                                std::uint32_t concurrency,
                                std::uint64_t seed) {
  par::ShardedOptions opt = bench::ClosedLoop();
  opt.engine.strategy = strategy;
  opt.engine.victim_policy = core::VictimPolicyKind::kMinCostOrdered;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  opt.workload.num_entities = 24;
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 6;
  opt.workload.ops_per_entity = 3;
  opt.workload.zipf_theta = 0.6;  // hotspot contention
  opt.concurrency = concurrency;
  opt.total_txns = 600;
  opt.seed = seed;
  opt.check_serializability = false;
  return opt;
}

void PrintReproduction() {
  Section("Concurrency sweep: partial vs total rollback (600 txns each)");
  Table t({"concurrency", "strategy", "deadlocks/txn", "rollbacks",
           "ops wasted", "wasted fraction", "cost p50/p95/max", "goodput"});
  for (std::uint32_t mpl : {2, 4, 8, 16, 32}) {
    for (auto strategy : {StrategyKind::kTotalRestart, StrategyKind::kSdg,
                          StrategyKind::kMcs}) {
      auto rep = par::RunSharded(BaseOptions(strategy, mpl, 12345));
      if (!rep.ok()) {
        std::cerr << "sim failed: " << rep.status() << "\n";
        continue;
      }
      const auto& cd = rep->rollback_costs;
      t.AddRow(mpl, std::string(rollback::StrategyKindName(strategy)),
               SafeRatio(rep->aggregate.deadlocks, rep->committed),
               rep->aggregate.rollbacks,
               rep->aggregate.wasted_ops, rep->wasted_fraction,
               std::to_string(cd.p50) + "/" + std::to_string(cd.p95) + "/" +
                   std::to_string(cd.max),
               rep->goodput);
    }
  }
  t.Print();
  std::cout
      << "(paper claim: with rising concurrency deadlocks become a common\n"
         " occurrence and \"such expensive means of handling the problem\"\n"
         " — total removal — \"will become more burdensome\"; partial\n"
         " rollback wastes a fraction of the work at every level)\n";

  // D13 wasted-work ledger: every wasted step attributed to the decision
  // that caused the loss. Under the ordered min-cost policy the causes are
  // deadlock victims, ω-preemptions and requester self-rollbacks; the table
  // shows where each strategy's loss actually comes from, not just its sum.
  Section("Wasted-work attribution by cause (concurrency 16, 600 txns)");
  Table w({"strategy", "cause", "rollbacks", "wasted steps", "share"});
  for (auto strategy : {StrategyKind::kTotalRestart, StrategyKind::kSdg,
                        StrategyKind::kMcs}) {
    auto rep = par::RunSharded(BaseOptions(strategy, 16, 12345));
    if (!rep.ok()) {
      std::cerr << "sim failed: " << rep.status() << "\n";
      continue;
    }
    std::uint64_t total_wasted = 0;
    for (std::uint64_t v : rep->wasted_by_cause) total_wasted += v;
    for (std::size_t c = 0; c < obs::kNumRollbackCauses; ++c) {
      if (rep->rollbacks_by_cause[c] == 0 && rep->wasted_by_cause[c] == 0) {
        continue;
      }
      w.AddRow(std::string(rollback::StrategyKindName(strategy)),
               std::string(obs::RollbackCauseName(
                   static_cast<obs::RollbackCause>(c))),
               rep->rollbacks_by_cause[c], rep->wasted_by_cause[c],
               total_wasted == 0
                   ? 0.0
                   : static_cast<double>(rep->wasted_by_cause[c]) /
                         static_cast<double>(total_wasted));
    }
  }
  w.Print();
  std::cout
      << "(wasted steps = ops executed and then rolled back, attributed to\n"
         " the rollback's cause; partial rollback shrinks every cause's\n"
         " loss because victims back off to an intermediate state instead\n"
         " of restarting)\n";

  Section("Victim-policy ablation at concurrency 16 (MCS strategy)");
  Table p({"policy", "deadlocks", "preemptions", "ops wasted",
           "wasted fraction", "completed"});
  for (auto policy :
       {core::VictimPolicyKind::kMinCostOrdered,
        core::VictimPolicyKind::kYoungest, core::VictimPolicyKind::kOldest,
        core::VictimPolicyKind::kRequester, core::VictimPolicyKind::kMinCost}) {
    auto opt = BaseOptions(StrategyKind::kMcs, 16, 777);
    opt.engine.victim_policy = policy;
    opt.max_steps_per_shard = 3'000'000;
    auto rep = par::RunSharded(opt);
    if (!rep.ok()) continue;
    p.AddRow(std::string(core::VictimPolicyKindName(policy)),
             rep->aggregate.deadlocks, rep->aggregate.Preemptions(),
             rep->aggregate.wasted_ops, rep->wasted_fraction,
             rep->completed ? "yes" : "NO (livelock)");
  }
  p.Print();
}

void BM_SimulationThroughput(benchmark::State& state) {
  const auto strategy = static_cast<StrategyKind>(state.range(0));
  const auto mpl = static_cast<std::uint32_t>(state.range(1));
  std::uint64_t committed = 0;
  for (auto _ : state) {
    auto opt = BaseOptions(strategy, mpl, 42);
    opt.total_txns = 200;
    auto rep = par::RunSharded(opt);
    if (!rep.ok()) state.SkipWithError("sim failed");
    committed += rep->committed;
    benchmark::DoNotOptimize(rep->aggregate.ops_executed);
  }
  state.counters["txns"] =
      benchmark::Counter(static_cast<double>(committed),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulationThroughput)
    ->ArgsProduct({{static_cast<int>(StrategyKind::kTotalRestart),
                    static_cast<int>(StrategyKind::kMcs),
                    static_cast<int>(StrategyKind::kSdg)},
                   {4, 16}});

}  // namespace

int main(int argc, char** argv) {
  PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
