// Exact reproductions of the paper's worked figures (1 and 3; 4 and 5 are
// covered in sdg_test.cc). Every state index, rollback cost and victim
// matches the numbers printed in the paper.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "sim/scenario.h"

namespace pardb::sim {
namespace {

using core::EngineOptions;
using core::StepOutcome;
using core::TxnStatus;
using core::VictimPolicyKind;
using rollback::StrategyKind;

EngineOptions Fig1Options(VictimPolicyKind policy = VictimPolicyKind::kMinCost,
                          StrategyKind strategy = StrategyKind::kMcs) {
  EngineOptions opt;
  opt.victim_policy = policy;
  opt.strategy = strategy;
  return opt;
}

TEST(Figure1Test, GraphBeforeDeadlockMatchesPaper) {
  auto fig = BuildFigure1(Fig1Options());
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  auto& engine = fig->runner->engine();
  const auto g = engine.WaitsFor();

  // Arcs: T2 -b-> T1, T2 -b-> T3, T3 -c-> T4; T2 is still running.
  EXPECT_TRUE(g.HasEdge(fig->t2.value(), fig->t1.value(), fig->b.value()));
  EXPECT_TRUE(g.HasEdge(fig->t2.value(), fig->t3.value(), fig->b.value()));
  EXPECT_TRUE(g.HasEdge(fig->t3.value(), fig->t4.value(), fig->c.value()));
  EXPECT_TRUE(g.IsAcyclic());
  // Theorem 1: exclusive locks only, deadlock-free => forest.
  EXPECT_TRUE(g.IsForest());

  // State indices as printed in the figure.
  EXPECT_EQ(engine.StateIndexOf(fig->t2), 12u);
  EXPECT_EQ(engine.StateIndexOf(fig->t3), 11u);
  EXPECT_EQ(engine.StateIndexOf(fig->t4), 15u);
  EXPECT_EQ(engine.StateIndexOf(fig->t1), 3u);
}

TEST(Figure1Test, CostsAndVictimMatchPaper) {
  auto fig = BuildFigure1(Fig1Options());
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  auto outcome = fig->TriggerDeadlock();
  ASSERT_TRUE(outcome.ok());
  // T2 (the requester) is the min-cost victim: it rolled itself back.
  EXPECT_EQ(outcome.value(), StepOutcome::kRolledBack);

  auto& engine = fig->runner->engine();
  ASSERT_EQ(fig->runner->deadlocks().dumps().size(), 1u);
  const obs::DeadlockDump& ev = fig->runner->deadlocks().dumps()[0];
  EXPECT_EQ(ev.requester, fig->t2);
  EXPECT_EQ(ev.num_cycles, 1u);
  EXPECT_EQ(ev.arcs.size(), 3u);

  // Candidate costs 4 (T2), 6 (T3), 5 (T4) — the paper's 12-8, 11-5, 15-10.
  ASSERT_EQ(ev.participants.size(), 3u);
  std::map<TxnId, std::uint64_t> costs;
  for (const auto& p : ev.participants) costs[p.txn] = p.cost;
  EXPECT_EQ(costs[fig->t2], 4u);
  EXPECT_EQ(costs[fig->t3], 6u);
  EXPECT_EQ(costs[fig->t4], 5u);

  ASSERT_EQ(ev.victims.size(), 1u);
  EXPECT_EQ(ev.victims[0], fig->t2);
  EXPECT_EQ(obs::VictimCost(ev), 4u);

  // T2 resumed at state 8 (just before locking b).
  EXPECT_EQ(engine.StateIndexOf(fig->t2), 8u);
  EXPECT_EQ(engine.StatusOf(fig->t2), TxnStatus::kReady);
}

TEST(Figure1Test, PostRollbackGraphMatchesFigure1b) {
  auto fig = BuildFigure1(Fig1Options());
  ASSERT_TRUE(fig.ok());
  ASSERT_TRUE(fig->TriggerDeadlock().ok());
  auto& engine = fig->runner->engine();
  const auto g = engine.WaitsFor();

  // "T1 no longer waits for T2": b was granted to T1 (first in queue).
  EXPECT_EQ(engine.StatusOf(fig->t1), TxnStatus::kReady);
  EXPECT_FALSE(g.HasEdge(fig->t2.value(), fig->t1.value(), fig->b.value()));
  // T3 now waits for the new holder T1.
  EXPECT_TRUE(g.HasEdge(fig->t1.value(), fig->t3.value(), fig->b.value()));
  // T4 still waits for T3.
  EXPECT_TRUE(g.HasEdge(fig->t3.value(), fig->t4.value(), fig->c.value()));
  EXPECT_TRUE(g.IsForest());

  // T1 runs to completion as in the figure. (The remaining transactions
  // cannot all commit under unconstrained min-cost: this very scenario is
  // the paper's Figure 2 mutual-preemption loop, asserted separately.)
  auto done1 = fig->runner->StepUntilBlocked(fig->t1);
  ASSERT_TRUE(done1.ok());
  EXPECT_EQ(done1.value(), StepOutcome::kCommitted);
  EXPECT_TRUE(fig->runner->recorder().IsConflictSerializable());
}

TEST(Figure1Test, OrderedPolicyPreemptsCheapestYoungerMember) {
  // Under the Theorem 2 ordered policy a conflict caused by T2 may only
  // roll back transactions that entered later: T3 (cost 6) or T4 (cost 5).
  // T4 is preempted even though T2's own rollback (cost 4) would be
  // cheaper — the price of immunity from infinite mutual preemption.
  auto fig = BuildFigure1(Fig1Options(VictimPolicyKind::kMinCostOrdered));
  ASSERT_TRUE(fig.ok());
  ASSERT_TRUE(fig->TriggerDeadlock().ok());
  const obs::DeadlockDump& ev = fig->runner->deadlocks().dumps().at(0);
  EXPECT_EQ(ev.victims, std::vector<TxnId>{fig->t4});
  EXPECT_EQ(obs::VictimCost(ev), 5u);
  ASSERT_TRUE(fig->runner->FinishAll().ok());
  EXPECT_TRUE(fig->runner->recorder().IsConflictSerializable());
}

TEST(Figure2Test, MinCostSustainsMutualPreemptionForever) {
  // The paper's Figure 1 -> Figure 2 alternation: under unconstrained
  // min-cost the exact Figure 1(a) configuration recurs every round and no
  // one in {T2, T3, T4} ever commits.
  auto out =
      RunFigure2MutualPreemption(Fig1Options(VictimPolicyKind::kMinCost), 5);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->pattern_sustained);
  EXPECT_EQ(out->recurrences, 5);
  EXPECT_FALSE(out->all_committed);
  // Victims alternate T2, T3, T2, T3, ...
  ASSERT_GE(out->victims.size(), 4u);
  for (std::size_t i = 0; i < out->victims.size(); ++i) {
    EXPECT_EQ(out->victims[i], i % 2 == 0 ? out->t2 : out->t3) << i;
  }
  // T2 and T3 were each rolled back repeatedly without progress.
  EXPECT_GE(out->runner->engine().metrics().deadlocks, 12u);
  EXPECT_EQ(out->runner->engine().metrics().commits, 1u);  // only T1
}

TEST(Figure2Test, OrderedPolicyBreaksTheLoop) {
  // Theorem 2: with victims restricted to later entries the very first
  // resolution preempts T4 instead of T2 and every transaction commits.
  auto out = RunFigure2MutualPreemption(
      Fig1Options(VictimPolicyKind::kMinCostOrdered), 5);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out->pattern_sustained);
  EXPECT_EQ(out->recurrences, 0);
  EXPECT_TRUE(out->all_committed);
  ASSERT_FALSE(out->victims.empty());
  EXPECT_EQ(out->victims[0], out->t4);
}

TEST(Figure1Test, TotalRestartPaysFullCost) {
  // Same scenario, total-restart state: the victim still minimises over
  // *achievable* rollbacks, which all reach back to state 0.
  auto fig = BuildFigure1(
      Fig1Options(VictimPolicyKind::kMinCost, StrategyKind::kTotalRestart));
  ASSERT_TRUE(fig.ok());
  ASSERT_TRUE(fig->TriggerDeadlock().ok());
  auto& engine = fig->runner->engine();
  const obs::DeadlockDump& ev = fig->runner->deadlocks().dumps().at(0);
  // All candidates cost their full progress: T2=12, T3=11, T4=15 (rolling
  // to state index 0 = position of the first lock request).
  std::map<TxnId, std::uint64_t> costs;
  for (const auto& p : ev.participants) costs[p.txn] = p.cost;
  EXPECT_EQ(costs[fig->t2], 12u);
  EXPECT_EQ(costs[fig->t3], 11u);
  EXPECT_EQ(costs[fig->t4], 15u);
  // Ideal (partial) costs are still reported for comparison.
  std::map<TxnId, std::uint64_t> ideal;
  for (const auto& p : ev.participants) ideal[p.txn] = p.ideal_cost;
  EXPECT_EQ(ideal[fig->t2], 4u);
  EXPECT_EQ(ideal[fig->t3], 6u);
  EXPECT_EQ(ideal[fig->t4], 5u);
  // Victim is T3 (11 < 12 < 15) under total restart!
  EXPECT_EQ(ev.victims, std::vector<TxnId>{fig->t3});
  EXPECT_EQ(engine.metrics().total_rollbacks, 1u);
  ASSERT_TRUE(fig->runner->FinishAll().ok());
}

TEST(Figure3Test, FigureAIsAcyclicButNotForest) {
  auto fig = BuildFigure3a(Fig1Options());
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  const auto g = fig->runner->engine().WaitsFor();
  // T3 waits for both shared holders of c: in-degree 2.
  EXPECT_TRUE(g.HasEdge(fig->t1.value(), fig->t3.value(), fig->c.value()));
  EXPECT_TRUE(g.HasEdge(fig->t2.value(), fig->t3.value(), fig->c.value()));
  EXPECT_TRUE(g.HasEdge(fig->t1.value(), fig->t2.value(), fig->a.value()));
  EXPECT_TRUE(g.IsAcyclic());
  EXPECT_FALSE(g.IsForest());
  EXPECT_EQ(fig->runner->engine().metrics().deadlocks, 0u);
  ASSERT_TRUE(fig->runner->FinishAll().ok());
}

TEST(Figure3Test, FigureBOneRequestClosesTwoCycles) {
  auto fig = BuildFigure3b(Fig1Options(VictimPolicyKind::kRequester));
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  ASSERT_TRUE(fig->TriggerDeadlock().ok());
  ASSERT_EQ(fig->runner->deadlocks().dumps().size(), 1u);
  const obs::DeadlockDump& ev = fig->runner->deadlocks().dumps()[0];
  EXPECT_EQ(ev.requester, fig->t1);
  EXPECT_EQ(ev.num_cycles, 2u);
  // Rolling back the requester removes all cycles at once.
  EXPECT_EQ(ev.victims, std::vector<TxnId>{fig->t1});
  ASSERT_TRUE(fig->runner->FinishAll().ok());
  EXPECT_TRUE(fig->runner->recorder().IsConflictSerializable());
}

TEST(Figure3Test, FigureBMinCostCanPickT2) {
  // {T2} is also a cut (both cycles pass through it). T1's rollback costs
  // 4 (filler), T2's costs 3: the vertex-cut optimiser picks T2.
  auto fig = BuildFigure3b(Fig1Options(VictimPolicyKind::kMinCost));
  ASSERT_TRUE(fig.ok());
  ASSERT_TRUE(fig->TriggerDeadlock().ok());
  const obs::DeadlockDump& ev = fig->runner->deadlocks().dumps().at(0);
  EXPECT_EQ(ev.num_cycles, 2u);
  EXPECT_EQ(ev.victims, std::vector<TxnId>{fig->t2});
  EXPECT_EQ(obs::VictimCost(ev), 3u);
  ASSERT_TRUE(fig->runner->FinishAll().ok());
}

TEST(Figure3Test, FigureCNeedsBothSharedHoldersIfNotRequester) {
  // T1's rollback is expensive (8 ops); T2+T3 together cost 2: the
  // optimiser rolls back the pair, exactly the paper's "both T2 and T3
  // would need to be rolled back if T1 is not".
  auto fig = BuildFigure3c(Fig1Options(VictimPolicyKind::kMinCost));
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  ASSERT_TRUE(fig->TriggerDeadlock().ok());
  const obs::DeadlockDump& ev = fig->runner->deadlocks().dumps().at(0);
  EXPECT_EQ(ev.requester, fig->t1);
  EXPECT_EQ(ev.num_cycles, 2u);
  std::vector<TxnId> expected{fig->t2, fig->t3};
  EXPECT_EQ(ev.victims, expected);
  EXPECT_EQ(obs::VictimCost(ev), 2u);
  ASSERT_TRUE(fig->runner->FinishAll().ok());
  EXPECT_TRUE(fig->runner->recorder().IsConflictSerializable());
}

TEST(Figure3Test, FigureCRequesterOnlyModeRollsBackT1) {
  auto opt = Fig1Options(VictimPolicyKind::kMinCost);
  opt.optimize_vertex_cut = false;
  auto fig = BuildFigure3c(opt);
  ASSERT_TRUE(fig.ok());
  ASSERT_TRUE(fig->TriggerDeadlock().ok());
  const obs::DeadlockDump& ev = fig->runner->deadlocks().dumps().at(0);
  EXPECT_EQ(ev.victims, std::vector<TxnId>{fig->t1});
  ASSERT_TRUE(fig->runner->FinishAll().ok());
}

}  // namespace
}  // namespace pardb::sim
