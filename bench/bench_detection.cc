// E4 (Theorem 1): with exclusive locks only, the deadlock-free concurrency
// graph is a forest and a wait can close at most one cycle, so detection is
// a single descendant check. This bench measures the cost of the wait-time
// cycle check on forests of increasing size, and of the shared+exclusive
// multi-cycle probe (the requester's component and its cycle count,
// DESIGN D19).

#include <benchmark/benchmark.h>
#include <cstdint>

#include <iostream>

#include "bench/closed_loop.h"
#include "bench/table_util.h"
#include "common/random.h"
#include "graph/cycles_through.h"
#include "graph/digraph.h"

namespace {

using pardb::Rng;
using pardb::graph::Digraph;

// Continuous wait-time detection (the paper's model) vs periodic scans vs
// timeout expiry, on the same contended workload. Continuous pays a cycle
// check per wait but resolves instantly; periodic amortises the check at
// the price of transactions sitting in undetected deadlocks; timeout needs
// no graph at all but fires on long non-deadlocked waits too.
void PrintDetectionModeComparison() {
  pardb::bench::Section(
      "Detection cadence on one workload (400 txns, concurrency 12)");
  pardb::bench::Table t({"mode", "deadlocks", "scans", "timeouts",
                         "ops wasted", "ops executed", "goodput"});
  auto Run = [&](const std::string& label, pardb::core::EngineOptions eopt) {
    pardb::par::ShardedOptions opt = pardb::bench::ClosedLoop();
    opt.engine = eopt;
    opt.engine.scheduler = pardb::core::SchedulerKind::kRandom;
    opt.workload.num_entities = 16;
    opt.workload.min_locks = 3;
    opt.workload.max_locks = 6;
    opt.concurrency = 12;
    opt.total_txns = 400;
    opt.seed = 77;
    opt.check_serializability = false;
    auto rep = pardb::par::RunSharded(opt);
    if (!rep.ok()) {
      std::cerr << label << " failed: " << rep.status() << "\n";
      return;
    }
    t.AddRow(label, rep->aggregate.deadlocks, rep->aggregate.periodic_scans,
             rep->aggregate.RollbacksOf(pardb::obs::RollbackCause::kTimeout),
             rep->aggregate.wasted_ops,
             rep->aggregate.ops_executed, rep->goodput);
  };
  {
    pardb::core::EngineOptions e;
    Run("continuous", e);
  }
  for (std::uint64_t period : {8, 64, 256}) {
    pardb::core::EngineOptions e;
    e.detection_mode = pardb::core::DetectionMode::kPeriodic;
    e.detection_period = period;
    Run("periodic/" + std::to_string(period), e);
  }
  for (std::uint64_t to : {16, 128}) {
    pardb::core::EngineOptions e;
    e.handling = pardb::core::DeadlockHandling::kTimeout;
    e.wait_timeout_steps = to;
    Run("timeout/" + std::to_string(to), e);
  }
  t.Print();
}

// Builds a random forest of out-trees with n vertices (every vertex except
// roots has exactly one predecessor), modeling an X-only waits-for graph.
Digraph MakeForest(std::size_t n, std::uint64_t seed) {
  Digraph g;
  Rng rng(seed);
  for (std::size_t v = 0; v < n; ++v) {
    g.AddVertex(v);
    if (v > 0 && rng.Bernoulli(0.9)) {
      // Parent chosen among earlier vertices: guaranteed acyclic, in-degree 1.
      g.AddEdge(rng.Uniform(v), v, v);
    }
  }
  return g;
}

void BM_WouldCreateCycle_Forest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Digraph g = MakeForest(n, 42);
  Rng rng(7);
  for (auto _ : state) {
    const std::size_t a = rng.Uniform(n);
    const std::size_t b = rng.Uniform(n);
    benchmark::DoNotOptimize(g.WouldCreateCycle(a, b));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WouldCreateCycle_Forest)->Range(16, 4096)->Complexity();

void BM_FindCycleThrough_Forest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Digraph g = MakeForest(n, 42);
  // Close one cycle.
  g.AddEdge(n - 1, 0, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.FindCycleThrough(0));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FindCycleThrough_Forest)->Range(16, 4096)->Complexity();

// Shared locks: dense waits-for DAG with many short cycles through one
// requester (the paper's §3.2 worst case for enumeration). The probe
// loads the requester's component and counts its cycles without listing
// them.
void BM_CyclesThrough_SharedLocks(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Digraph g;
  // Requester 0 waits on k holders; each holder waits back on 0 through a
  // private chain of length 2: k distinct cycles through 0.
  for (std::size_t i = 1; i <= k; ++i) {
    g.AddEdge(i, 0, i);          // holder i blocks requester 0
    g.AddEdge(0, k + i, k + i);  // 0 holds something k+i waits for
    g.AddEdge(k + i, i, 2 * k + i);
  }
  pardb::graph::CyclesThrough cycles;
  std::uint64_t found = 0;
  for (auto _ : state) {
    const bool closed = cycles.Load(
        0, [&g](pardb::graph::VertexId v) { return g.InArcs(v); });
    found = closed ? cycles.CountCycles() : 0;
    benchmark::DoNotOptimize(found);
  }
  state.counters["cycles"] = static_cast<double>(found);
}
BENCHMARK(BM_CyclesThrough_SharedLocks)->RangeMultiplier(2)->Range(2, 64);

}  // namespace

int main(int argc, char** argv) {
  PrintDetectionModeComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
