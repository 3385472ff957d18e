// Walkthrough of the paper's worked figures, printed as Graphviz DOT plus
// commentary. Pipe any block into `dot -Tpng` to render the same drawings
// the paper shows.
//
// Build & run:  ./build/examples/figures_walkthrough

#include <cstdio>
#include <iostream>

#include "rollback/sdg.h"
#include "sim/scenario.h"
#include "storage/entity_store.h"

using namespace pardb;

namespace {

core::EngineOptions MinCostOptions() {
  core::EngineOptions opt;
  opt.victim_policy = core::VictimPolicyKind::kMinCost;
  opt.strategy = rollback::StrategyKind::kMcs;
  return opt;
}

std::string TxnName(graph::VertexId v) { return "T" + std::to_string(v + 1); }

void Figure1() {
  std::printf("--- Figure 1(a): the exclusive-lock deadlock ---\n");
  auto fig = sim::BuildFigure1(MinCostOptions());
  if (!fig.ok()) return;
  auto& engine = fig->runner->engine();
  auto entity_name = [&](graph::EdgeLabel l) {
    switch (l - fig->b.value()) {
      case 0:
        return std::string("b");
      case 1:
        return std::string("c");
      case 2:
        return std::string("e");
      case 3:
        return std::string("f");
      default:
        return "h" + std::to_string(l + 1);
    }
  };
  // Trigger and show both states.
  std::cout << "before T2 requests e:\n"
            << engine.WaitsFor().ToDot(TxnName, entity_name);
  (void)fig->TriggerDeadlock();
  const obs::DeadlockDump& dump = fig->runner->deadlocks().dumps().at(0);
  std::printf("deadlock: cycle of %zu transactions; candidate costs:\n",
              dump.arcs.size());
  for (const obs::DeadlockParticipant& p : dump.participants) {
    std::printf("  T%llu: roll back to lock state %llu, cost %llu ops\n",
                (unsigned long long)p.txn.value() + 1,
                (unsigned long long)p.target, (unsigned long long)p.cost);
  }
  std::printf("victim: T%llu (cost %llu)\n\n",
              (unsigned long long)dump.victims[0].value() + 1,
              (unsigned long long)obs::VictimCost(dump));
  std::cout << "Figure 1(b), after the partial rollback of T2:\n"
            << engine.WaitsFor().ToDot(TxnName, entity_name) << "\n";
}

void Figure2() {
  std::printf("--- Figure 2: potentially infinite mutual preemption ---\n");
  auto out = sim::RunFigure2MutualPreemption(MinCostOptions(), 3);
  if (!out.ok()) return;
  std::printf(
      "min-cost victims over 3 driven rounds:");
  for (TxnId v : out->victims) {
    std::printf(" T%llu", (unsigned long long)v.value() + 1);
  }
  std::printf("\nFigure 1(a) configuration recurred %d times; %s\n\n",
              out->recurrences,
              out->pattern_sustained
                  ? "the alternation would continue forever"
                  : "the alternation broke");
}

void Figure3() {
  std::printf("--- Figure 3: shared + exclusive locks ---\n");
  auto a = sim::BuildFigure3a(MinCostOptions());
  if (a.ok()) {
    std::cout << "(a) acyclic but not a forest:\n"
              << a->runner->engine().WaitsFor().ToDot(TxnName);
  }
  auto c = sim::BuildFigure3c(MinCostOptions());
  if (c.ok()) {
    (void)c->TriggerDeadlock();
    const obs::DeadlockDump& dump = c->runner->deadlocks().dumps().at(0);
    std::printf("(c) T1's request closed %zu cycles; victims:",
                dump.num_cycles);
    for (TxnId v : dump.victims) {
      std::printf(" T%llu", (unsigned long long)v.value() + 1);
    }
    std::printf(" (rolling back T1 alone would also clear every cycle)\n\n");
  }
}

void Figures4And5() {
  std::printf("--- Figures 4 and 5: state-dependency graphs ---\n");
  storage::EntityStore store;
  auto ids = store.CreateMany(6);
  auto p4 = sim::MakeFigure4Program(ids, false);
  auto sdg4 = rollback::BuildSdgForProgram(p4);
  std::printf("scattered transaction (Figure 4):\n%s", p4.ToString().c_str());
  std::cout << sdg4.ToUndirectedGraph().ToDot();
  std::printf("well-defined lock states:");
  for (LockIndex q : sdg4.WellDefinedStates()) {
    std::printf(" %llu", (unsigned long long)q);
  }
  std::printf("  (only the trivial ones)\n\n");

  auto p5 = sim::MakeFigure5Program(ids);
  auto sdg5 = rollback::BuildSdgForProgram(p5);
  std::printf("the same operations clustered (Figure 5):\n");
  std::printf("well-defined lock states:");
  for (LockIndex q : sdg5.WellDefinedStates()) {
    std::printf(" %llu", (unsigned long long)q);
  }
  std::printf("  (every lock state)\n");
}

}  // namespace

int main() {
  Figure1();
  Figure2();
  Figure3();
  Figures4And5();
  return 0;
}
