// E2/E5 — Figure 2 and Theorem 2: potentially infinite mutual preemption.
//
// Part 1 replays the paper's Figure 1 -> Figure 2 alternation: under the
// unconstrained min-cost policy the exact Figure 1(a) configuration recurs
// round after round (we drive 25 rounds; it would continue forever) while
// the Theorem 2 entry-ordered policy breaks the loop at the first
// resolution and every transaction commits.
//
// Part 2 measures the phenomenon statistically on random high-contention
// workloads: repeated-preemption tails with and without the ordering.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/closed_loop.h"
#include "bench/table_util.h"
#include "sim/scenario.h"

namespace {

using namespace pardb;
using bench::Section;
using bench::Table;
using core::EngineOptions;
using core::VictimPolicyKind;

EngineOptions Options(VictimPolicyKind policy) {
  EngineOptions opt;
  opt.victim_policy = policy;
  return opt;
}

void PrintReproduction() {
  Section("Figure 2: the adversarial alternation (25 driven rounds)");
  Table t({"policy", "fig-1(a) recurrences", "deadlocks", "rollbacks",
           "T2..T4 committed", "loop broken"});
  for (auto policy :
       {VictimPolicyKind::kMinCost, VictimPolicyKind::kMinCostOrdered}) {
    auto out = sim::RunFigure2MutualPreemption(Options(policy), 25);
    if (!out.ok()) {
      std::cerr << "scenario failed: " << out.status() << "\n";
      continue;
    }
    const auto& m = out->runner->engine().metrics();
    t.AddRow(std::string(core::VictimPolicyKindName(policy)),
             out->recurrences, m.deadlocks, m.rollbacks,
             out->all_committed ? "yes" : "no",
             out->pattern_sustained ? "no (runs forever)" : "yes");
  }
  t.Print();
  std::cout << "(paper claim: without an ordering the scenario \"has the "
               "potential to continue to occur indefinitely\"; Theorem 2's "
               "partial order eliminates it)\n";

  Section("Random contention: repeated-preemption tail, 300 txns");
  Table r({"policy", "deadlocks", "preemptions", "max preemptions of one txn",
           "wasted ops", "completed"});
  for (auto policy :
       {VictimPolicyKind::kMinCost, VictimPolicyKind::kMinCostOrdered,
        VictimPolicyKind::kYoungest, VictimPolicyKind::kRequester}) {
    par::ShardedOptions opt = bench::ClosedLoop();
    opt.engine.victim_policy = policy;
    opt.engine.scheduler = core::SchedulerKind::kRandom;
    opt.workload.num_entities = 6;
    opt.workload.min_locks = 3;
    opt.workload.max_locks = 5;
    opt.concurrency = 8;
    opt.total_txns = 300;
    opt.max_steps_per_shard = 4'000'000;
    opt.seed = 4242;
    opt.check_serializability = false;
    auto rep = par::RunSharded(opt);
    if (!rep.ok()) {
      r.AddRow(std::string(core::VictimPolicyKindName(policy)), "-", "-", "-",
               "-", std::string("error: ") + rep.status().ToString());
      continue;
    }
    r.AddRow(std::string(core::VictimPolicyKindName(policy)),
             rep->aggregate.deadlocks, rep->aggregate.Preemptions(),
             rep->max_preemptions_single_txn, rep->aggregate.wasted_ops,
             rep->completed
                 ? "yes"
                 : "NO (livelocked, " +
                       std::to_string(rep->committed) + "/300)");
  }
  r.Print();
}

void BM_Figure2RoundsMinCost(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto out = sim::RunFigure2MutualPreemption(
        Options(VictimPolicyKind::kMinCost), rounds);
    if (!out.ok()) state.SkipWithError("scenario failed");
    benchmark::DoNotOptimize(out->recurrences);
  }
  state.counters["recurrences"] = static_cast<double>(rounds);
}
BENCHMARK(BM_Figure2RoundsMinCost)->Arg(1)->Arg(8)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
