// E3/E11 — Figure 3 and §3.2: shared+exclusive locks.
//
// Reproduces the three worked graphs: (a) an acyclic concurrency graph that
// is not a forest; (b) one request closing two cycles where either the
// requester or T2 clears everything; (c) two cycles whose only
// single-victim cut is the requester, otherwise both shared holders must
// roll back. Then ablates the §3.2 cut optimisation (minimum vertex cut vs
// requester-always) on a shared-lock workload and on random multi-cycle
// instances. The paper observes the general cut-set problem to be
// NP-complete; with every cycle through the requester it is a minimum s–t
// vertex cut, solved exactly by max-flow (DESIGN D19).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "bench/closed_loop.h"
#include "bench/table_util.h"
#include "common/random.h"
#include "graph/cycles_through.h"
#include "sim/scenario.h"

namespace {

using namespace pardb;
using bench::Section;
using bench::Table;
using core::EngineOptions;
using core::VictimPolicyKind;

EngineOptions Options(VictimPolicyKind policy, bool cut = true) {
  EngineOptions opt;
  opt.victim_policy = policy;
  opt.optimize_vertex_cut = cut;
  return opt;
}

std::string VictimNames(const std::vector<TxnId>& victims) {
  std::string out;
  for (TxnId v : victims) {
    if (!out.empty()) out += "+";
    out += "T" + std::to_string(v.value() + 1);
  }
  return out;
}

void PrintReproduction() {
  Section("Figure 3(a): acyclic concurrency graph that is not a forest");
  {
    auto fig = sim::BuildFigure3a(Options(VictimPolicyKind::kMinCost));
    if (!fig.ok()) {
      std::cerr << "scenario failed: " << fig.status() << "\n";
    } else {
      const obs::WaitsForSnapshot g =
          fig->runner->engine().SnapshotWaitsFor();
      const std::size_t t3_in = static_cast<std::size_t>(std::count_if(
          g.arcs.begin(), g.arcs.end(),
          [&](const obs::WaitsForArc& a) { return a.waiter == fig->t3; }));
      Table t({"property", "measured", "paper"});
      t.AddRow("acyclic", g.acyclic ? "yes" : "no", "yes (no deadlock)");
      t.AddRow("forest", g.forest ? "yes" : "no",
               "no (T3 waits for two holders)");
      t.AddRow("T3 in-degree", t3_in, "2");
      t.Print();
    }
  }

  Section("Figure 3(b): one wait closes two cycles — victim choices");
  {
    Table t({"policy", "cycles", "victims", "cost", "all commit after"});
    for (auto policy :
         {VictimPolicyKind::kRequester, VictimPolicyKind::kMinCost}) {
      auto fig = sim::BuildFigure3b(Options(policy));
      if (!fig.ok()) continue;
      (void)fig->TriggerDeadlock();
      // A copy: finishing the run can record more dumps and reallocate.
      const obs::DeadlockDump dump = fig->runner->deadlocks().dumps().at(0);
      bool done = fig->runner->FinishAll().ok();
      t.AddRow(std::string(core::VictimPolicyKindName(policy)),
               dump.num_cycles, VictimNames(dump.victims),
               obs::VictimCost(dump), done ? "yes" : "no");
    }
    t.Print();
    std::cout << "(paper: all cycles include T1; rollback of T1 or of T2 "
                 "removes every deadlock)\n";
  }

  Section("Figure 3(c): requester vs both shared holders");
  {
    Table t({"mode", "cycles", "victims", "cost"});
    {
      auto fig = sim::BuildFigure3c(Options(VictimPolicyKind::kMinCost));
      if (fig.ok()) {
        (void)fig->TriggerDeadlock();
        const obs::DeadlockDump& dump = fig->runner->deadlocks().dumps().at(0);
        t.AddRow("min-cost vertex cut", dump.num_cycles,
                 VictimNames(dump.victims), obs::VictimCost(dump));
      }
    }
    {
      auto fig = sim::BuildFigure3c(
          Options(VictimPolicyKind::kMinCost, /*cut=*/false));
      if (fig.ok()) {
        (void)fig->TriggerDeadlock();
        const obs::DeadlockDump& dump = fig->runner->deadlocks().dumps().at(0);
        t.AddRow("requester only", dump.num_cycles, VictimNames(dump.victims),
                 obs::VictimCost(dump));
      }
    }
    t.Print();
    std::cout << "(paper: \"in 3(c) both T2 and T3 would need to be rolled "
                 "back if T1 is not\")\n";
  }

  Section("Cut ablation on a shared-lock workload (200 txns, 50% shared)");
  {
    Table t({"mode", "deadlocks", "rollbacks", "wasted ops",
             "wasted fraction", "completed"});
    for (bool cut : {true, false}) {
      par::ShardedOptions opt = bench::ClosedLoop();
      opt.engine.victim_policy = VictimPolicyKind::kMinCostOrdered;
      opt.engine.optimize_vertex_cut = cut;
      opt.workload.num_entities = 8;
      opt.workload.min_locks = 3;
      opt.workload.max_locks = 5;
      opt.workload.shared_fraction = 0.5;
      opt.concurrency = 8;
      opt.total_txns = 200;
      opt.seed = 99;
      opt.check_serializability = false;
      auto rep = par::RunSharded(opt);
      if (!rep.ok()) {
        std::cerr << "sim failed: " << rep.status() << "\n";
        continue;
      }
      t.AddRow(cut ? "vertex-cut optimised" : "requester-always",
               rep->aggregate.deadlocks, rep->aggregate.rollbacks,
               rep->aggregate.wasted_ops, rep->wasted_fraction,
               rep->completed ? "yes"
                              : "NO (livelocked, " +
                                    std::to_string(rep->committed) + "/200)");
    }
    t.Print();
  }
}

// Random instances shaped like §3.2 deadlocks: k member sets drawn over a
// universe of transactions, each closed into a cycle through the
// requester (vertex 0) as the ascending chain 0 -> m1 -> ... -> 0. Arcs
// between members run upward, so G − 0 is acyclic, as under continuous
// detection. costs[v] prices vertex v.
void MakeInstance(std::size_t k, std::size_t members_per_cycle,
                  std::uint64_t seed, graph::Digraph* g,
                  std::vector<std::uint64_t>* costs) {
  Rng rng(seed);
  const std::size_t universe = 1 + k * members_per_cycle;
  costs->clear();
  for (std::size_t i = 0; i < universe; ++i) {
    costs->push_back(1 + rng.Uniform(40));
  }
  *g = graph::Digraph();
  graph::EdgeLabel label = 0;
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<std::size_t> cyc{0};  // the requester is on every cycle
    for (std::size_t m = 0; m < members_per_cycle; ++m) {
      cyc.push_back(1 + rng.Uniform(universe - 1));
    }
    std::sort(cyc.begin(), cyc.end());
    cyc.erase(std::unique(cyc.begin(), cyc.end()), cyc.end());
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      const std::size_t next = i + 1 < cyc.size() ? cyc[i + 1] : 0;
      if (!g->HasEdge(cyc[i], next)) g->AddEdge(cyc[i], next, label++);
    }
  }
}

// Minimum vertex cut over the instance's component; members are priced by
// their vertex cost.
std::uint64_t FlowCutCost(const graph::Digraph& g,
                          const std::vector<std::uint64_t>& costs,
                          graph::CyclesThrough* cycles,
                          std::vector<std::uint64_t>* capacity,
                          std::vector<std::size_t>* cut) {
  if (!cycles->Load(0, [&g](graph::VertexId v) { return g.InArcs(v); })) {
    return 0;
  }
  capacity->clear();
  for (std::size_t i = 0; i < cycles->size(); ++i) {
    capacity->push_back(costs[cycles->member(i)]);
  }
  return cycles->MinVertexCut(*capacity, cut);
}

void PrintInstanceAblation() {
  Section("Flow cut vs requester-only on random multi-cycle instances");
  Table t({"cycles drawn", "cycles through requester", "members",
           "flow cut cost", "cut size", "requester cost", "min-cost pick"});
  graph::CyclesThrough cycles;
  std::vector<std::uint64_t> capacity;
  std::vector<std::size_t> cut;
  for (std::size_t k : {2, 4, 8, 16}) {
    graph::Digraph g;
    std::vector<std::uint64_t> costs;
    MakeInstance(k, 3, 7, &g, &costs);
    const std::uint64_t cost = FlowCutCost(g, costs, &cycles, &capacity, &cut);
    t.AddRow(k, cycles.CountCycles(), cycles.size(), cost, cut.size(),
             costs[0], cost < costs[0] ? "cut" : "requester");
  }
  t.Print();
  std::cout << "(one max-flow per instance; under min-cost the engine rolls "
               "back the requester when it is no dearer than the cut)\n";
}

void BM_FlowCut(benchmark::State& state) {
  graph::Digraph g;
  std::vector<std::uint64_t> costs;
  MakeInstance(static_cast<std::size_t>(state.range(0)), 3, 7, &g, &costs);
  graph::CyclesThrough cycles;
  std::vector<std::uint64_t> capacity;
  std::vector<std::size_t> cut;
  std::uint64_t total = 0;
  for (auto _ : state) {
    total = FlowCutCost(g, costs, &cycles, &capacity, &cut);
    benchmark::DoNotOptimize(total);
  }
  state.counters["cut_cost"] = static_cast<double>(total);
}
BENCHMARK(BM_FlowCut)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_RequesterOnly(benchmark::State& state) {
  graph::Digraph g;
  std::vector<std::uint64_t> costs;
  MakeInstance(static_cast<std::size_t>(state.range(0)), 3, 7, &g, &costs);
  graph::CyclesThrough cycles;
  bool found = false;
  for (auto _ : state) {
    // Detection only; the victim is vertex 0.
    found = cycles.Load(0, [&g](graph::VertexId v) { return g.InArcs(v); });
    benchmark::DoNotOptimize(found);
  }
  state.counters["cut_cost"] = found ? static_cast<double>(costs[0]) : 0.0;
}
BENCHMARK(BM_RequesterOnly)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  PrintReproduction();
  PrintInstanceAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
