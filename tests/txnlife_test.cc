// D13 transaction lifecycle timelines: each victim's cause-tagged rollback
// record beside the engine's per-cause ledger (asserted against the
// paper's exact Figure 1 and Figure 2 schedules), the bounded event ring
// with counted eviction, the per-txn record/latency-component arithmetic,
// and the JSON the live endpoints serve.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "core/engine.h"
#include "obs/clock.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/txnlife.h"
#include "sim/scenario.h"

namespace pardb {
namespace {

using core::VictimPolicyKind;
using obs::EventKind;
using obs::kNumRollbackCauses;
using obs::ManualClock;
using obs::MetricsRegistry;
using obs::RollbackCause;
using obs::TxnLifeBook;
using obs::TxnTimelineRecord;

core::EngineOptions FigOptions(VictimPolicyKind policy) {
  core::EngineOptions opt;
  opt.victim_policy = policy;
  return opt;
}

std::uint64_t SumCauses(
    const std::array<std::uint64_t, kNumRollbackCauses>& by_cause) {
  std::uint64_t total = 0;
  for (std::uint64_t v : by_cause) total += v;
  return total;
}

// ---------------------------------------------------------------------------
// Wasted-work attribution on the paper's worked figures.
// ---------------------------------------------------------------------------

TEST(TxnLifeLedgerTest, Figure1MinCostAttributesSelfRollbackCost4) {
  // Unconstrained min-cost sacrifices the requester T2 itself (cost 4, the
  // paper's 12-8). The ledger must attribute exactly those 4 steps to
  // self_rollback and nothing to any other cause.
  TxnLifeBook book;
  auto fig = sim::BuildFigure1(FigOptions(VictimPolicyKind::kMinCost), &book);
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  ASSERT_TRUE(fig->TriggerDeadlock().ok());

  const core::EngineMetrics& m = fig->runner->engine().metrics();
  const auto self = static_cast<std::size_t>(RollbackCause::kSelfRollback);
  EXPECT_EQ(m.rollbacks_by_cause[self], 1u);
  EXPECT_EQ(m.wasted_by_cause[self], 4u);
  EXPECT_EQ(m.wasted_ops, 4u);
  EXPECT_EQ(SumCauses(m.wasted_by_cause), 4u);
  EXPECT_EQ(SumCauses(m.rollbacks_by_cause), 1u);

  // The victim's own record carries the tagged event: cause label, cost,
  // the holder it was waiting on (T4) and the deadlock ordinal.
  const TxnTimelineRecord rec = book.RecordOf(fig->t2);
  EXPECT_EQ(rec.rollbacks, 1u);
  EXPECT_EQ(rec.redo_steps, 4u);
  bool saw_rollback = false;
  for (const auto& e : rec.events) {
    if (e.kind != obs::TxnLifeEvent::Kind::kRollback) continue;
    saw_rollback = true;
    EXPECT_EQ(e.cause, RollbackCause::kSelfRollback);
    EXPECT_EQ(e.detail, 4u);                        // cost
    EXPECT_EQ(e.causing, fig->t4.value() + 1);      // blocked on T4's e
    EXPECT_EQ(e.cycle, 1u);                         // first deadlock
  }
  EXPECT_TRUE(saw_rollback);

  const std::string json = obs::TxnTimelineToJson(rec);
  EXPECT_NE(json.find("\"cause\":\"self_rollback\""), std::string::npos);
  EXPECT_NE(json.find("\"cost\":4"), std::string::npos);
}

TEST(TxnLifeLedgerTest, Figure1OrderedAttributesOmegaPreemptionCost5) {
  // Theorem 2's ordered policy overrides min-cost and preempts T4
  // (cost 5) instead of the requester: one rollback, attributed to
  // omega_preemption, with the requester T2 as the causing transaction.
  TxnLifeBook book;
  auto fig =
      sim::BuildFigure1(FigOptions(VictimPolicyKind::kMinCostOrdered), &book);
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  ASSERT_TRUE(fig->TriggerDeadlock().ok());

  const core::EngineMetrics& m = fig->runner->engine().metrics();
  const auto omega =
      static_cast<std::size_t>(RollbackCause::kOmegaPreemption);
  EXPECT_EQ(m.rollbacks_by_cause[omega], 1u);
  EXPECT_EQ(m.wasted_by_cause[omega], 5u);
  EXPECT_EQ(SumCauses(m.wasted_by_cause), 5u);
  EXPECT_EQ(m.omega_interventions, 1u);

  const TxnTimelineRecord rec = book.RecordOf(fig->t4);
  EXPECT_EQ(rec.rollbacks, 1u);
  EXPECT_EQ(rec.redo_steps, 5u);
  bool saw_rollback = false;
  for (const auto& e : rec.events) {
    if (e.kind != obs::TxnLifeEvent::Kind::kRollback) continue;
    saw_rollback = true;
    EXPECT_EQ(e.cause, RollbackCause::kOmegaPreemption);
    EXPECT_EQ(e.detail, 5u);
    EXPECT_EQ(e.causing, fig->t2.value() + 1);
  }
  EXPECT_TRUE(saw_rollback);
}

TEST(TxnLifeLedgerTest, Figure2AlternationIsSelfRollbacksAllTheWayDown) {
  // The paper's mutual-preemption schedule under min-cost: every deadlock
  // resolution is the requester rolling itself back (T2 and T3 in turn),
  // so the whole ledger lands on the self_rollback cause — 2 per round.
  TxnLifeBook book;
  auto out = sim::RunFigure2MutualPreemption(
      FigOptions(VictimPolicyKind::kMinCost), /*rounds=*/4,
      /*lineage=*/nullptr, &book);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out->pattern_sustained);

  const core::EngineMetrics& m = out->runner->engine().metrics();
  const auto self = static_cast<std::size_t>(RollbackCause::kSelfRollback);
  const auto omega =
      static_cast<std::size_t>(RollbackCause::kOmegaPreemption);
  EXPECT_GE(m.rollbacks_by_cause[self], 8u);
  EXPECT_EQ(m.rollbacks_by_cause[omega], 0u);
  EXPECT_EQ(SumCauses(m.rollbacks_by_cause), m.rollbacks_by_cause[self]);
  EXPECT_EQ(SumCauses(m.wasted_by_cause), m.wasted_ops);
  EXPECT_GT(m.wasted_ops, 0u);
  // Every rollback is on a victim's own timeline.
  std::uint64_t recorded = 0;
  for (TxnId t : {out->t1, out->t2, out->t3, out->t4}) {
    recorded += book.RecordOf(t).rollbacks;
  }
  EXPECT_EQ(recorded, m.rollbacks);
}

TEST(TxnLifeLedgerTest, Figure2OrderedPolicyPaysOnceAndCommitsAll) {
  // Under the ordered policy the very first resolution ω-preempts T4 and
  // the alternation never starts: one rollback of cost 5 total, every
  // transaction committed, and the ledger says exactly that.
  TxnLifeBook book;
  auto out = sim::RunFigure2MutualPreemption(
      FigOptions(VictimPolicyKind::kMinCostOrdered), /*rounds=*/4,
      /*lineage=*/nullptr, &book);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->all_committed);

  const core::EngineMetrics& m = out->runner->engine().metrics();
  const auto omega =
      static_cast<std::size_t>(RollbackCause::kOmegaPreemption);
  EXPECT_EQ(m.rollbacks_by_cause[omega], 1u);
  EXPECT_EQ(m.wasted_by_cause[omega], 5u);
  EXPECT_EQ(SumCauses(m.rollbacks_by_cause), 1u);
  EXPECT_EQ(m.wasted_ops, 5u);
  EXPECT_EQ(book.committed(), 4u);

  // Digest ranks committed transactions by end-to-end steps, descending.
  // Its wasted-steps total is the engine's, filled in by the publisher.
  obs::TxnLifeDigest d = book.Digest(/*shard=*/0);
  d.wasted_steps = m.wasted_ops;
  EXPECT_EQ(d.committed, 4u);
  EXPECT_EQ(d.dropped_events, 0u);
  ASSERT_GE(d.slowest.size(), 2u);
  for (std::size_t i = 1; i < d.slowest.size(); ++i) {
    EXPECT_GE(d.slowest[i - 1].e2e_steps, d.slowest[i].e2e_steps);
  }

  // The endpoint renderers accept the digest as-is.
  const std::string slowest = obs::SlowestTxnsJson({d}, 2);
  EXPECT_NE(slowest.find("\"k\":2"), std::string::npos);
  EXPECT_NE(slowest.find("\"count\":2"), std::string::npos);
  const std::string by_id =
      obs::TxnByIdJson({d}, d.slowest.front().txn);
  EXPECT_NE(by_id.find("\"matches\":[{"), std::string::npos);
  EXPECT_NE(by_id.find("\"wasted_steps\":5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Record arithmetic and the bounded event ring.
// ---------------------------------------------------------------------------

TEST(TxnLifeBookTest, RecordTracksLatencyComponents) {
  ManualClock clock(1000);
  TxnLifeBook::Options opt;
  opt.clock = &clock;
  TxnLifeBook book(opt);

  const TxnId t0(0);
  book.OnEvent({.kind = EventKind::kAdmit, .step = 0, .txn = t0});
  book.OnStep(t0, 1);
  book.OnEvent({.kind = EventKind::kBlock,
                .step = 2,
                .txn = t0,
                .entity = EntityId(7)});
  // A grant that ends a wait: one wake plus one executed op.
  book.OnEvent({.kind = EventKind::kGrant,
                .flags = obs::kEventWoke,
                .step = 5,
                .txn = t0,
                .entity = EntityId(7)});
  clock.SetNanos(5000);
  book.OnEvent({.kind = EventKind::kCommit, .step = 6, .txn = t0, .pc = 3});

  ASSERT_TRUE(book.Has(t0));
  const TxnTimelineRecord rec = book.RecordOf(t0, /*shard=*/2);
  EXPECT_EQ(rec.shard, 2u);
  EXPECT_TRUE(rec.committed);
  EXPECT_EQ(rec.admit_step, 0u);
  EXPECT_EQ(rec.first_step, 1u);
  EXPECT_EQ(rec.commit_step, 6u);
  EXPECT_EQ(rec.e2e_steps, 6u);
  EXPECT_EQ(rec.lock_wait_steps, 3u);  // blocked at 2, woken at 5
  EXPECT_EQ(rec.exec_steps, 2u);
  EXPECT_EQ(rec.redo_steps, 0u);
  EXPECT_EQ(rec.blocks, 1u);
  EXPECT_EQ(rec.rollbacks, 0u);
  EXPECT_EQ(rec.admit_ns, 1000u);
  EXPECT_EQ(rec.commit_ns, 5000u);
  ASSERT_EQ(rec.events.size(), 5u);  // admit, first_step, block, wake, commit

  const std::string json = obs::TxnTimelineToJson(rec);
  EXPECT_NE(json.find("\"txn\":0"), std::string::npos);
  EXPECT_NE(json.find("\"committed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"block\",\"step\":2"), std::string::npos);
  EXPECT_NE(json.find("\"entity\":7"), std::string::npos);
  EXPECT_NE(json.find("\"pc\":3"), std::string::npos);
}

TEST(TxnLifeBookTest, RingEvictionCountsDroppedAndMirrorsMetric) {
  MetricsRegistry registry;
  TxnLifeBook::Options opt;
  opt.ring_capacity = 2;
  TxnLifeBook book(opt);
  book.AttachMetrics(&registry, {{"shard", "0"}});

  book.OnEvent({.kind = EventKind::kAdmit, .step = 0, .txn = TxnId(0)});
  book.OnEvent({.kind = EventKind::kAdmit, .step = 1, .txn = TxnId(1)});
  EXPECT_EQ(book.dropped_events(), 0u);
  // Evicts txn 0's admit event.
  book.OnEvent({.kind = EventKind::kAdmit, .step = 2, .txn = TxnId(2)});
  EXPECT_EQ(book.total_events(), 3u);
  EXPECT_EQ(book.dropped_events(), 1u);

  // The evicted transaction keeps its columns; only its ring window is
  // gone.
  EXPECT_TRUE(book.Has(TxnId(0)));
  EXPECT_TRUE(book.RecordOf(TxnId(0)).events.empty());
  EXPECT_EQ(book.RecordOf(TxnId(2)).events.size(), 1u);

  const auto snap = registry.Snapshot();
  const auto* dropped = snap.Find(obs::kTxnlifeDroppedTotal,
                                  {{"shard", "0"}});
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->counter, 1u);
  EXPECT_EQ(book.Digest(0).dropped_events, 1u);
}

TEST(TxnLifeBookTest, ZeroCapacityRingDropsEverythingButKeepsColumns) {
  TxnLifeBook::Options opt;
  opt.ring_capacity = 0;
  TxnLifeBook book(opt);
  book.OnEvent({.kind = EventKind::kAdmit, .step = 0, .txn = TxnId(0)});
  book.OnStep(TxnId(0), 1);
  book.OnEvent({.kind = EventKind::kRollback,
                .cause = RollbackCause::kTimeout,
                .step = 2,
                .txn = TxnId(0),
                .cost = 1});
  EXPECT_EQ(book.dropped_events(), book.total_events());
  EXPECT_TRUE(book.RecordOf(TxnId(0)).events.empty());
  // The per-txn record is column-backed, not ring-backed: it survives.
  const TxnTimelineRecord rec = book.RecordOf(TxnId(0));
  EXPECT_EQ(rec.rollbacks, 1u);
  EXPECT_EQ(rec.redo_steps, 1u);
  EXPECT_EQ(rec.exec_steps, 1u);
}

TEST(TxnLifeBookTest, AttachMetricsMaterializesLatencySeriesAtZero) {
  // The latency series must exist from the first scrape (CI greps for
  // them on a live run).
  MetricsRegistry registry;
  TxnLifeBook book;
  book.AttachMetrics(&registry);
  const auto snap = registry.Snapshot();
  ASSERT_NE(snap.Find(obs::kTxnlifeDroppedTotal, {}), nullptr);
  ASSERT_NE(snap.Find(obs::kTxnE2eSteps, {}), nullptr);
  ASSERT_NE(snap.Find(obs::kTxnLockWaitSteps, {}), nullptr);
  ASSERT_NE(snap.Find(obs::kTxnExecSteps, {}), nullptr);
  ASSERT_NE(snap.Find(obs::kTxnRedoSteps, {}), nullptr);
}

}  // namespace
}  // namespace pardb
