// Telemetry subsystem: metrics registry, phase timers, trace export and
// deadlock forensics — plus the engine live-set regressions that ride
// along with it.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "core/engine.h"
#include "core/metrics_export.h"
#include "obs/clock.h"
#include "obs/forensics.h"
#include "obs/journal.h"
#include "obs/lineage.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/phase_timer.h"
#include "obs/probe.h"
#include "obs/trace_export.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "storage/entity_store.h"
#include "txn/program.h"

namespace pardb {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;
using obs::LabelSet;
using obs::MetricSnapshot;
using obs::MetricsRegistry;
using obs::RegistrySnapshot;
using txn::ArithOp;
using txn::Operand;
using txn::ProgramBuilder;

// ---------------------------------------------------------------------------
// Registry basics.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SameIdentityReturnsSameObject) {
  MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("pardb_x_total");
  obs::Counter* b = reg.GetCounter("pardb_x_total");
  EXPECT_EQ(a, b);
  a->Inc();
  b->Inc(2);
  EXPECT_EQ(a->value(), 3u);

  // Different labels are different instances.
  obs::Counter* s0 = reg.GetCounter("pardb_x_total", {{"shard", "0"}});
  EXPECT_NE(a, s0);
  EXPECT_EQ(s0->value(), 0u);
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry reg;
  ASSERT_NE(reg.GetCounter("pardb_thing"), nullptr);
  EXPECT_EQ(reg.GetGauge("pardb_thing"), nullptr);
  EXPECT_EQ(reg.GetHistogram("pardb_thing"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotFindAndWriters) {
  MetricsRegistry reg;
  reg.GetCounter("pardb_b_total", {{"shard", "1"}})->Inc(7);
  reg.GetGauge("pardb_a_gauge")->Set(-3);
  reg.GetHistogram("pardb_c_ns")->Record(5);

  RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  // Sorted by (name, labels).
  EXPECT_EQ(snap.metrics[0].name, "pardb_a_gauge");
  EXPECT_EQ(snap.metrics[1].name, "pardb_b_total");
  EXPECT_EQ(snap.metrics[2].name, "pardb_c_ns");

  const MetricSnapshot* c = snap.Find("pardb_b_total", {{"shard", "1"}});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->counter, 7u);
  EXPECT_EQ(snap.Find("pardb_b_total"), nullptr);  // unlabeled: absent

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"pardb_a_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":-3"), std::string::npos);
  EXPECT_NE(json.find("\"shard\":\"1\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);

  const std::string prom = snap.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE pardb_b_total counter"), std::string::npos);
  EXPECT_NE(prom.find("pardb_b_total{shard=\"1\"} 7"), std::string::npos);
  EXPECT_NE(prom.find("pardb_c_ns_count 1"), std::string::npos);
}

TEST(MetricsRegistryTest, MergeSumsAndWithoutLabelFolds) {
  MetricsRegistry r0;
  r0.GetCounter("pardb_x_total", {{"shard", "0"}})->Inc(3);
  MetricsRegistry r1;
  r1.GetCounter("pardb_x_total", {{"shard", "1"}})->Inc(4);

  RegistrySnapshot merged = r0.Snapshot();
  merged.MergeFrom(r1.Snapshot());
  ASSERT_EQ(merged.metrics.size(), 2u);  // side by side, distinct labels

  RegistrySnapshot folded = merged.WithoutLabel("shard");
  ASSERT_EQ(folded.metrics.size(), 1u);
  EXPECT_TRUE(folded.metrics[0].labels.empty());
  EXPECT_EQ(folded.metrics[0].counter, 7u);
}

// ---------------------------------------------------------------------------
// Histogram quantiles: merging per-shard histograms must agree with a
// histogram of the pooled samples at every exported quantile rank, and both
// must follow core::ComputeCostDistribution's nearest-rank convention.
// ---------------------------------------------------------------------------

TEST(HistogramTest, QuantileFollowsNearestRank) {
  // Samples sit exactly on bucket bounds (powers of two), so the bucket
  // upper bound IS the sample and the histogram quantile must equal the
  // exact nearest-rank percentile.
  std::vector<std::uint32_t> samples;
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t v = 1u << (i % 7);  // 1..64
    samples.push_back(v);
    h.Record(v);
  }
  const core::CostDistribution exact =
      core::ComputeCostDistribution(samples);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.Quantile(50), exact.p50);
  EXPECT_EQ(snap.Quantile(95), exact.p95);
  EXPECT_EQ(snap.Quantile(100), exact.max);
  EXPECT_EQ(snap.max, exact.max);
}

TEST(HistogramTest, MergedShardsEqualPooledAtEveryExportedQuantile) {
  // Three "shards" with very different distributions; bounds identical
  // (DefaultBounds), so bucket-wise merging is exact.
  const std::vector<std::vector<std::uint64_t>> shard_samples = {
      {1, 2, 2, 4, 8, 8, 8, 16},
      {1024, 2048, 2048, 4096},
      {32, 32, 64, 128, 256, 512, 1u << 20, 1u << 30},
  };
  std::vector<Histogram> shards(shard_samples.size());
  Histogram pooled;
  for (std::size_t s = 0; s < shard_samples.size(); ++s) {
    for (std::uint64_t v : shard_samples[s]) {
      shards[s].Record(v);
      pooled.Record(v);
    }
  }
  HistogramSnapshot merged = shards[0].Snapshot();
  ASSERT_TRUE(merged.MergeFrom(shards[1].Snapshot()));
  ASSERT_TRUE(merged.MergeFrom(shards[2].Snapshot()));

  const HistogramSnapshot want = pooled.Snapshot();
  EXPECT_EQ(merged.count, want.count);
  EXPECT_EQ(merged.sum, want.sum);
  EXPECT_EQ(merged.max, want.max);
  ASSERT_EQ(merged.counts, want.counts);
  for (std::uint64_t p : {50u, 95u, 99u, 100u}) {
    EXPECT_EQ(merged.Quantile(p), want.Quantile(p)) << "p" << p;
  }
  for (std::uint64_t pm : {500u, 990u, 999u}) {
    EXPECT_EQ(merged.QuantilePerMille(pm), want.QuantilePerMille(pm))
        << "p" << pm;
  }
}

TEST(HistogramTest, TailQuantilesFollowNearestRankAtSmallN) {
  // n = 1: every quantile, including p999, is the lone sample.
  {
    Histogram h;
    h.Record(32);
    const HistogramSnapshot s = h.Snapshot();
    EXPECT_EQ(s.Quantile(50), 32u);
    EXPECT_EQ(s.Quantile(99), 32u);
    EXPECT_EQ(s.QuantilePerMille(999), 32u);
  }
  // Distinct powers of two sit exactly on DefaultBounds, so the histogram
  // quantile must equal the exact nearest-rank value sorted[ceil(n*q)-1].
  // n = 19: p99 rank ceil(18.81) = 19 — already the max, one sample early.
  // n = 20: p99 rank ceil(19.8) = 20 and p999 rank ceil(19.98) = 20 — the
  // tail quantiles saturate at the max until n is large enough to shed it.
  for (std::size_t n : {std::size_t{19}, std::size_t{20}}) {
    Histogram h;
    for (std::size_t i = 0; i < n; ++i) h.Record(1ULL << i);
    const HistogramSnapshot s = h.Snapshot();
    const auto nearest = [n](std::uint64_t pm) {
      const std::size_t rank = (n * pm + 999) / 1000;  // ceil
      return 1ULL << (rank - 1);
    };
    EXPECT_EQ(s.Quantile(50), nearest(500)) << "n=" << n;
    EXPECT_EQ(s.Quantile(99), nearest(990)) << "n=" << n;
    EXPECT_EQ(s.QuantilePerMille(999), nearest(999)) << "n=" << n;
    EXPECT_EQ(s.QuantilePerMille(999), s.max) << "n=" << n;
  }
  // n = 100: p99 detaches from the max (rank 99 of 100) while p999 still
  // saturates (rank ceil(99.9) = 100).
  {
    Histogram h;
    std::vector<std::uint64_t> sorted;
    for (std::size_t i = 0; i < 100; ++i) {
      const std::uint64_t v = 1ULL << (i % 20);
      h.Record(v);
      sorted.push_back(v);
    }
    std::sort(sorted.begin(), sorted.end());
    const HistogramSnapshot s = h.Snapshot();
    EXPECT_EQ(s.Quantile(50), sorted[49]);
    EXPECT_EQ(s.Quantile(99), sorted[98]);
    EXPECT_EQ(s.QuantilePerMille(999), sorted[99]);
    EXPECT_EQ(s.QuantilePerMille(999), s.max);
  }
}

TEST(HistogramTest, MergeRejectsMismatchedBounds) {
  Histogram a({1, 2, 4});
  Histogram b({1, 3, 9});
  a.Record(2);
  b.Record(3);
  HistogramSnapshot sa = a.Snapshot();
  EXPECT_FALSE(sa.MergeFrom(b.Snapshot()));
  EXPECT_EQ(sa.count, 1u);  // untouched on failure
}

// ---------------------------------------------------------------------------
// Phase timers on the deterministic clock.
// ---------------------------------------------------------------------------

TEST(ScopedTimerTest, RecordsManualClockDelta) {
  obs::ManualClock clock(1000);
  Histogram h;
  {
    obs::ScopedTimer t(&h, &clock);
    clock.AdvanceNanos(640);
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 640u);
  EXPECT_EQ(snap.max, 640u);
}

TEST(ScopedTimerTest, StopIsIdempotentAndCancelDiscards) {
  obs::ManualClock clock;
  Histogram h;
  obs::ScopedTimer t(&h, &clock);
  clock.AdvanceNanos(5);
  t.Stop();
  clock.AdvanceNanos(50);
  t.Stop();  // no second sample
  obs::ScopedTimer cancelled(&h, &clock);
  cancelled.Cancel();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 5u);
}

TEST(ScopedTimerTest, NullHistogramNeverReadsClock) {
  // A poisoned clock proves the disabled path takes no time measurement.
  class PoisonClock final : public obs::Clock {
   public:
    std::uint64_t NowNanos() const override {
      ADD_FAILURE() << "clock read on disabled timer";
      return 0;
    }
  };
  PoisonClock clock;
  obs::ScopedTimer t(nullptr, &clock);
  t.Stop();
}

// ---------------------------------------------------------------------------
// Trace export: JSONL lines and the Chrome trace document.
// ---------------------------------------------------------------------------

obs::EngineEvent MakeEvent(obs::EventKind kind, std::uint64_t step) {
  obs::EngineEvent e;
  e.kind = kind;
  e.step = step;
  e.txn = TxnId(1);
  e.entity = EntityId(2);
  return e;
}

TEST(TraceExportTest, JsonLineShape) {
  obs::EngineEvent e;
  e.kind = obs::EventKind::kRollback;
  e.cause = obs::RollbackCause::kDeadlockVictim;
  e.step = 42;
  e.txn = TxnId(3);
  e.entity = EntityId();  // invalid -> null
  e.pc = 12;
  e.target = 8;
  e.cost = 4;
  EXPECT_EQ(obs::TraceJsonLine(e),
            "{\"kind\":\"rollback\",\"step\":42,\"txn\":3,\"entity\":null,"
            "\"pc\":12,\"target\":8,\"cost\":4,\"cause\":\"deadlock_victim\"}");
  // Only rollback lines carry a cause.
  EXPECT_EQ(obs::TraceJsonLine(MakeEvent(obs::EventKind::kBlock, 5)),
            "{\"kind\":\"block\",\"step\":5,\"txn\":1,\"entity\":2,"
            "\"pc\":0,\"target\":0,\"cost\":0}");
}

TEST(TraceExportTest, JsonlSkipsJournalOnlyKinds) {
  const std::vector<obs::EngineEvent> events = {
      MakeEvent(obs::EventKind::kGrant, 1),
      MakeEvent(obs::EventKind::kVictim, 2),
      MakeEvent(obs::EventKind::kHold, 2),
      MakeEvent(obs::EventKind::kRelease, 3),
      MakeEvent(obs::EventKind::kGrant, 4)};
  const std::string text = obs::TraceJsonl(events);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"kind\":\"grant\""), std::string::npos);
  EXPECT_EQ(text.find("victim"), std::string::npos);
}

TEST(TraceExportTest, ChromeTraceCarriesDeadlockInstant) {
  auto fig = sim::BuildFigure1({});
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  obs::EventLog trace;
  fig->runner->engine().set_trace(&trace);
  ASSERT_TRUE(fig->TriggerDeadlock().ok());

  const std::string json = obs::ChromeTraceJson(trace.events, "test");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process_name
  EXPECT_NE(json.find("\"cat\":\"deadlock\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"rollback\""), std::string::npos);
  // Balanced braces/brackets — cheap well-formedness proxy (the CI smoke
  // job json.load()s the real artifact).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// A prevention rollback (a wait-die death, an expired wait) is one trace
// entry: one JSONL line and one Chrome instant, carrying its cause, its
// target and the cost its journal record charges — no separate death or
// timeout entry beside it.
TEST(TraceExportTest, PreventionRollbacksCarryCauseAndJournalCost) {
  for (const core::DeadlockHandling handling :
       {core::DeadlockHandling::kWaitDie, core::DeadlockHandling::kTimeout}) {
    const bool wait_die = handling == core::DeadlockHandling::kWaitDie;
    storage::EntityStore store;
    store.CreateMany(6, 0);
    core::EngineOptions opt;
    opt.handling = handling;
    opt.wait_timeout_steps = 8;
    opt.scheduler = core::SchedulerKind::kRandom;
    opt.seed = 9;
    core::Engine engine(&store, opt);
    obs::DecisionJournal journal(obs::DecisionJournal::Options{0});
    obs::EventLog trace;
    engine.set_journal(&journal);
    engine.set_trace(&trace);
    sim::WorkloadOptions w;
    w.num_entities = 6;
    w.min_locks = 2;
    w.max_locks = 4;
    w.ops_per_entity = 2;
    sim::WorkloadGenerator gen(w, 9);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(engine.Spawn(gen.Next().value()).ok());
    }
    ASSERT_TRUE(engine.RunToCompletion().ok());

    std::vector<obs::EngineEvent> rollbacks;
    for (const obs::EngineEvent& e : trace.events) {
      if (e.kind == obs::EventKind::kRollback) rollbacks.push_back(e);
    }
    std::vector<obs::JournalRecord> records;
    for (const obs::JournalRecord& r : journal.RetainedRecords()) {
      if (r.kind == static_cast<std::uint8_t>(obs::EventKind::kRollback)) {
        records.push_back(r);
      }
    }
    ASSERT_GT(rollbacks.size(), 0u);
    ASSERT_EQ(rollbacks.size(), records.size());
    ASSERT_EQ(rollbacks.size(), engine.metrics().rollbacks);
    std::uint64_t charged = 0;
    for (std::size_t i = 0; i < rollbacks.size(); ++i) {
      EXPECT_EQ(rollbacks[i].cost, records[i].b) << i;
      EXPECT_EQ(rollbacks[i].target, records[i].a) << i;
      EXPECT_EQ(static_cast<std::uint8_t>(rollbacks[i].cause), records[i].aux);
      EXPECT_EQ(rollbacks[i].cause, wait_die ? obs::RollbackCause::kWaitDie
                                             : obs::RollbackCause::kTimeout);
      charged += rollbacks[i].cost;
    }
    EXPECT_EQ(charged, engine.metrics().wasted_ops);

    const std::string cause = wait_die ? "wait_die" : "timeout";
    std::istringstream jsonl(obs::TraceJsonl(trace.events));
    std::size_t rollback_lines = 0;
    for (std::string line; std::getline(jsonl, line);) {
      if (line.find("\"kind\":\"rollback\"") == std::string::npos) continue;
      ++rollback_lines;
      EXPECT_NE(line.find("\"cause\":\"" + cause + "\""), std::string::npos)
          << line;
    }
    EXPECT_EQ(rollback_lines, rollbacks.size());

    const std::string chrome = obs::ChromeTraceJson(trace.events, "prevention");
    std::size_t instants = 0;
    for (std::size_t at = chrome.find("\"cat\":\"rollback\"");
         at != std::string::npos;
         at = chrome.find("\"cat\":\"rollback\"", at + 1)) {
      ++instants;
    }
    EXPECT_EQ(instants, rollbacks.size());
    EXPECT_EQ(chrome.find("\"name\":\"death\""), std::string::npos);
    EXPECT_EQ(chrome.find("\"name\":\"timeout\""), std::string::npos);
    EXPECT_NE(chrome.find("\"cause\":\"" + cause + "\""), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Deadlock forensics on the paper's Figure 1.
// ---------------------------------------------------------------------------

core::EngineOptions MinCostOptions() {
  core::EngineOptions opt;
  opt.victim_policy = core::VictimPolicyKind::kMinCost;
  return opt;
}

TEST(ForensicsTest, Figure1DumpShowsCycleCostsAndMinCostVictim) {
  auto fig = sim::BuildFigure1(MinCostOptions());
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  ASSERT_TRUE(fig->TriggerDeadlock().ok());
  const obs::CollectingDeadlockSink& sink = fig->runner->deadlocks();

  ASSERT_EQ(sink.dumps().size(), 1u);
  EXPECT_EQ(sink.total_seen(), 1u);
  const obs::DeadlockDump& dump = sink.dumps()[0];
  EXPECT_EQ(dump.requester, fig->t2);
  EXPECT_EQ(dump.requested_entity, fig->e);
  EXPECT_EQ(dump.num_cycles, 1u);
  EXPECT_EQ(dump.policy, "min-cost");

  // The paper's costs: T2=4, T3=6, T4=5; victim T2 (also the requester).
  std::map<TxnId, const obs::DeadlockParticipant*> by_txn;
  for (const auto& p : dump.participants) by_txn[p.txn] = &p;
  ASSERT_EQ(by_txn.size(), 3u);
  EXPECT_EQ(by_txn.at(fig->t2)->cost, 4u);
  EXPECT_EQ(by_txn.at(fig->t3)->cost, 6u);
  EXPECT_EQ(by_txn.at(fig->t4)->cost, 5u);
  EXPECT_TRUE(by_txn.at(fig->t2)->is_requester);
  EXPECT_TRUE(by_txn.at(fig->t2)->is_victim);
  EXPECT_FALSE(by_txn.at(fig->t3)->is_victim);
  EXPECT_FALSE(by_txn.at(fig->t4)->is_victim);
  EXPECT_EQ(dump.victims, std::vector<TxnId>{fig->t2});

  // The cycle arrives intact (waiter -> holder): T2 waits for T4 on e,
  // T4 waits for T3 on c, T3 waits for T2 on b.
  ASSERT_EQ(dump.arcs.size(), 3u);
  std::map<TxnId, TxnId> waits_for;
  for (const auto& a : dump.arcs) waits_for.emplace(a.waiter, a.holder);
  EXPECT_EQ(waits_for.at(fig->t2), fig->t4);
  EXPECT_EQ(waits_for.at(fig->t4), fig->t3);
  EXPECT_EQ(waits_for.at(fig->t3), fig->t2);
}

TEST(ForensicsTest, Figure1DotRendering) {
  auto fig = sim::BuildFigure1(MinCostOptions());
  ASSERT_TRUE(fig.ok());
  ASSERT_TRUE(fig->TriggerDeadlock().ok());
  const obs::CollectingDeadlockSink& sink = fig->runner->deadlocks();
  ASSERT_EQ(sink.dumps().size(), 1u);

  const std::string dot = obs::DeadlockDumpToDot(sink.dumps()[0]);
  auto node = [&](TxnId t) { return "T" + std::to_string(t.value()); };
  EXPECT_NE(dot.find("digraph deadlock_step"), std::string::npos);
  // Per-participant costs.
  EXPECT_NE(dot.find("cost=4"), std::string::npos);
  EXPECT_NE(dot.find("cost=6"), std::string::npos);
  EXPECT_NE(dot.find("cost=5"), std::string::npos);
  // The chosen minimum-cost victim is highlighted.
  EXPECT_NE(dot.find(node(fig->t2) + " [shape=box,style=filled,"
                     "fillcolor=salmon"),
            std::string::npos);
  EXPECT_NE(dot.find("VICTIM"), std::string::npos);
  // The cycle's arcs, waiter -> holder, labeled with the entity.
  EXPECT_NE(dot.find(node(fig->t2) + " -> " + node(fig->t4)),
            std::string::npos);
  EXPECT_NE(dot.find(node(fig->t4) + " -> " + node(fig->t3)),
            std::string::npos);
  EXPECT_NE(dot.find(node(fig->t3) + " -> " + node(fig->t2)),
            std::string::npos);
  EXPECT_EQ(sink.dumps()[0].victims.size(), 1u);
}

// ---------------------------------------------------------------------------
// Engine probe + metrics export end to end on Figure 1.
// ---------------------------------------------------------------------------

TEST(EngineProbeTest, Figure1CountsLandInRegistry) {
  MetricsRegistry reg;
  obs::ManualClock clock;
  obs::EngineProbe probe = obs::MakeEngineProbe(&reg, {}, &clock);

  obs::TxnLifeBook book;
  book.AttachMetrics(&reg);
  auto fig = sim::BuildFigure1(MinCostOptions(), &book);
  ASSERT_TRUE(fig.ok());
  fig->runner->engine().set_probe(&probe);
  ASSERT_TRUE(fig->TriggerDeadlock().ok());
  core::EngineMetricsExporter().Export(fig->runner->engine(), &reg);

  RegistrySnapshot snap = reg.Snapshot();
  const MetricSnapshot* deadlocks = snap.Find("pardb_deadlocks_total");
  ASSERT_NE(deadlocks, nullptr);
  EXPECT_EQ(deadlocks->counter, 1u);
  // The min-cost victim was the requester itself: one self-rollback, no
  // preempted victim.
  auto Cause = [&snap](const char* cause) {
    const MetricSnapshot* m =
        snap.Find("pardb_rollback_cause_total", {{"cause", cause}});
    return m != nullptr ? m->counter : ~std::uint64_t{0};
  };
  EXPECT_EQ(Cause("self_rollback"), 1u);
  EXPECT_EQ(Cause("deadlock_victim") + Cause("omega_preemption"), 0u);
  // Rollback cost histogram carries the paper's cost-4 rollback.
  const MetricSnapshot* cost = snap.Find("pardb_rollback_cost_ops");
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->hist.count, 1u);
  EXPECT_EQ(cost->hist.sum, 4u);
  // The detection phase timer fired (ManualClock: zero-length but counted).
  EXPECT_GE(snap.Find("pardb_detection_ns")->hist.count, 1u);
  EXPECT_EQ(snap.Find("pardb_rollback_apply_ns")->hist.count, 1u);
}

// ---------------------------------------------------------------------------
// Engine live-set regression (satellite: StepAny scan set shrinks).
// ---------------------------------------------------------------------------

txn::Program TouchProgram(EntityId e) {
  ProgramBuilder b("touch", 1);
  auto p = b.LockExclusive(e)
               .Read(e, 0)
               .Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(1))
               .WriteVar(e, 0)
               .Commit()
               .Build();
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST(EngineLiveSetTest, CommittedTxnsLeaveTheScanSet) {
  storage::EntityStore store;
  auto ids = store.CreateMany(4, 100);
  core::Engine engine(&store, {});
  // Disjoint footprints: transactions commit one after another without
  // conflicts, so the live set must shrink monotonically.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Spawn(TouchProgram(ids[i])).ok());
  }
  EXPECT_EQ(engine.live_txn_count(), 4u);

  std::size_t prev = 4;
  while (!engine.AllCommitted()) {
    auto stepped = engine.StepAny();
    ASSERT_TRUE(stepped.ok());
    ASSERT_TRUE(stepped.value().has_value());
    const std::size_t live = engine.live_txn_count();
    EXPECT_LE(live, prev);
    prev = live;
  }
  EXPECT_EQ(engine.live_txn_count(), 0u);
  EXPECT_EQ(engine.metrics().commits, 4u);
  // AllCommitted is now a live-set check, not a full-map scan.
  EXPECT_TRUE(engine.AllCommitted());
}

TEST(EngineMetricsExporterTest, RepeatedDeltaExportsLandOnExactTotals) {
  // The stateful exporter is called mid-run at the hub snapshot cadence
  // and once at the end; counters must advance by deltas so the final
  // registry equals the engine totals, not a multiple of them.
  storage::EntityStore store;
  auto ids = store.CreateMany(4, 100);
  core::Engine engine(&store, {});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Spawn(TouchProgram(ids[i])).ok());
  }
  MetricsRegistry reg;
  core::EngineMetricsExporter exporter;
  while (!engine.AllCommitted()) {
    auto stepped = engine.StepAny();
    ASSERT_TRUE(stepped.ok());
    ASSERT_TRUE(stepped.value().has_value());
    exporter.Export(engine, &reg);  // export after *every* step
  }
  exporter.Export(engine, &reg);  // final export: must be a no-op delta
  RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Find("pardb_steps_total")->counter, engine.metrics().steps);
  EXPECT_EQ(snap.Find("pardb_commits_total")->counter,
            engine.metrics().commits);
  EXPECT_EQ(snap.Find("pardb_ops_executed_total")->counter,
            engine.metrics().ops_executed);
  const MetricSnapshot* cost = snap.Find("pardb_rollback_cost_ops");
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->hist.count, engine.rollback_cost_samples().size());
}

TEST(EngineMetricsExporterTest, ExportsTheRollbackLedgerWithEveryCause) {
  // The ledger series come from the engine alone: every {cause=...} series
  // exists from the first export (at 0 when no such rollback happened),
  // and the cause series sum to the engine's rollback and wasted totals.
  auto fig = sim::BuildFigure1(MinCostOptions());
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  core::Engine& engine = fig->runner->engine();
  MetricsRegistry reg;
  core::EngineMetricsExporter exporter;
  exporter.Export(engine, &reg);
  ASSERT_TRUE(fig->TriggerDeadlock().ok());
  exporter.Export(engine, &reg);
  const RegistrySnapshot snap = reg.Snapshot();
  std::size_t wasted_series = 0, cause_series = 0;
  std::uint64_t wasted = 0, rollbacks = 0;
  for (const MetricSnapshot& m : snap.metrics) {
    if (m.name == obs::kWastedStepsTotal) {
      ++wasted_series;
      wasted += m.counter;
    }
    if (m.name == obs::kRollbackCauseTotal) {
      ++cause_series;
      rollbacks += m.counter;
    }
  }
  EXPECT_EQ(wasted_series, obs::kNumRollbackCauses);
  EXPECT_EQ(cause_series, obs::kNumRollbackCauses);
  const core::EngineMetrics& m = engine.metrics();
  EXPECT_EQ(rollbacks, m.rollbacks);
  EXPECT_EQ(wasted, m.wasted_ops);
  EXPECT_EQ(snap.Find(obs::kRollbackCauseTotal, {{obs::kCauseLabel,
                                                  "self_rollback"}})
                ->counter,
            1u);
  EXPECT_EQ(snap.Find(obs::kWastedStepsTotal, {{obs::kCauseLabel,
                                                "self_rollback"}})
                ->counter,
            4u);
  EXPECT_EQ(snap.Find(obs::kLineageEventsTotal)->counter, 1u);
  EXPECT_EQ(snap.Find(obs::kOmegaInterventionsTotal)->counter, 0u);
  EXPECT_EQ(snap.Find(obs::kReworkRatioPpm)->gauge,
            static_cast<std::int64_t>(m.wasted_ops * 1'000'000 /
                                      (m.ops_executed - m.commits)));
}

// ---------------------------------------------------------------------------
// Live waits-for snapshots.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, Figure1SnapshotShowsWaitersLocksAndForestShape) {
  // Before the deadlock trigger: T1 and T3 wait for b (held by T2), T4
  // waits for c (held by T3). Acyclic, and with exclusive locks only the
  // graph is a forest (Theorem 1).
  auto fig = sim::BuildFigure1(MinCostOptions());
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  auto snap = fig->runner->engine().SnapshotWaitsFor();

  EXPECT_TRUE(snap.acyclic);
  EXPECT_TRUE(snap.forest);
  ASSERT_EQ(snap.txns.size(), 4u);
  std::map<TxnId, const obs::TxnSnapshot*> by_txn;
  for (const auto& t : snap.txns) by_txn[t.txn] = &t;
  EXPECT_EQ(by_txn.at(fig->t2)->status, "ready");
  EXPECT_EQ(by_txn.at(fig->t3)->status, "waiting");
  ASSERT_TRUE(by_txn.at(fig->t3)->has_request);
  EXPECT_EQ(by_txn.at(fig->t3)->requested.entity, fig->b);
  EXPECT_EQ(by_txn.at(fig->t3)->requested.mode, 'X');
  ASSERT_FALSE(by_txn.at(fig->t2)->held.empty());
  for (const auto& grant : by_txn.at(fig->t2)->held) {
    EXPECT_EQ(grant.mode, 'X');
  }

  std::map<TxnId, TxnId> waits;
  for (const auto& a : snap.arcs) waits[a.waiter] = a.holder;
  EXPECT_EQ(waits.at(fig->t1), fig->t2);
  EXPECT_EQ(waits.at(fig->t3), fig->t2);
  EXPECT_EQ(waits.at(fig->t4), fig->t3);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"acyclic\":true"), std::string::npos);
  EXPECT_NE(json.find("\"forest\":true"), std::string::npos);
  const std::string dot = snap.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("T" + std::to_string(fig->t2.value())),
            std::string::npos);
}

TEST(SnapshotTest, ChainLenSurfacesInSnapshotWhenLineageAttached) {
  // The ordered policy preempts T4 on the Figure 1 cycle; with a lineage
  // tracker attached the live snapshot reports T4's chain depth.
  core::EngineOptions opt;
  opt.victim_policy = core::VictimPolicyKind::kMinCostOrdered;
  auto fig = sim::BuildFigure1(opt);
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  obs::LineageTracker lineage;
  fig->runner->engine().set_lineage(&lineage);
  ASSERT_TRUE(fig->TriggerDeadlock().ok());

  auto snap = fig->runner->engine().SnapshotWaitsFor();
  std::map<TxnId, const obs::TxnSnapshot*> by_txn;
  for (const auto& t : snap.txns) by_txn[t.txn] = &t;
  ASSERT_TRUE(by_txn.count(fig->t4));
  EXPECT_EQ(by_txn.at(fig->t4)->chain_len, 1u);
  EXPECT_EQ(by_txn.at(fig->t4)->preemptions, 1u);
  EXPECT_EQ(by_txn.at(fig->t2)->chain_len, 0u);
}

}  // namespace
}  // namespace pardb
