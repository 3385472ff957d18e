#include "par/sharded_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "analysis/global_history.h"
#include "analysis/history.h"
#include "core/metrics_export.h"
#include "obs/lineage.h"
#include "obs/metric_names.h"
#include "par/fork_join.h"
#include "par/router.h"
#include "storage/entity_store.h"

namespace pardb::par {

namespace {

// Engine steps per shard per epoch. The step sequence does not depend on
// it (DESIGN D25); it sets the cadence of the coordinate phase, pruning
// and the hub's publications.
constexpr std::uint64_t kEpochSteps = 256;

// Consecutive multi-shard epochs in which no shard commits anything before
// the run fails as stalled. A wedged run steps nothing; a livelocked one
// keeps stepping and rolling back without a commit (about 35k such epochs
// per second on one core). Healthy runs go at most a few epochs without a
// commit (EXPERIMENTS E27).
constexpr std::uint64_t kMaxCommitFreeEpochs = 65536;

// splitmix64 finalizer: decorrelates the per-shard engine/workload streams
// from the top-level seed and from each other.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

core::EngineMetrics SumMetrics(const std::vector<ShardResult>& shards) {
  core::EngineMetrics m;
  for (const ShardResult& s : shards) {
    const core::EngineMetrics& a = s.metrics;
    m.steps += a.steps;
    m.ops_executed += a.ops_executed;
    m.commits += a.commits;
    m.lock_waits += a.lock_waits;
    m.deadlocks += a.deadlocks;
    m.rollbacks += a.rollbacks;
    m.partial_rollbacks += a.partial_rollbacks;
    m.total_rollbacks += a.total_rollbacks;
    m.wasted_ops += a.wasted_ops;
    m.ideal_wasted_ops += a.ideal_wasted_ops;
    for (std::size_t c = 0; c < obs::kNumRollbackCauses; ++c) {
      m.rollbacks_by_cause[c] += a.rollbacks_by_cause[c];
      m.wasted_by_cause[c] += a.wasted_by_cause[c];
    }
    m.omega_interventions += a.omega_interventions;
    m.cycles_found += a.cycles_found;
    m.periodic_scans += a.periodic_scans;
    m.max_entity_copies = std::max(m.max_entity_copies, a.max_entity_copies);
    m.max_var_copies = std::max(m.max_var_copies, a.max_var_copies);
  }
  return m;
}

std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(std::uint64_t nanos) {
  return static_cast<double>(nanos) * 1e-9;
}

// Per-shard state that persists across epochs: the engine and everything
// wired into it. An epoch runs at most one task per shard, and the
// fork-join returns only after all of its tasks finished, which orders
// their writes before the next coordinate phase — so this struct is only
// ever touched by one thread at a time even though tasks migrate between
// workers.
struct ShardExec {
  ShardExec(std::size_t max_dumps, obs::DeadlockDumpSink* hub_sink,
            obs::DecisionJournal::Options journal_options)
      : journal(journal_options),
        forensics(max_dumps),
        fanout(&forensics, hub_sink) {}

  storage::EntityStore store;
  analysis::HistoryRecorder recorder;
  obs::MetricsRegistry local_registry;
  obs::EngineProbe probe;
  obs::LineageTracker lineage;
  obs::TxnLifeBook txnlife;
  obs::DecisionJournal journal;
  obs::EventLog trace;
  obs::CollectingDeadlockSink forensics;
  obs::FanOutDeadlockSink fanout;
  std::unique_ptr<core::Engine> engine;
  obs::MetricsRegistry* registry = nullptr;  // hub-owned or &local_registry
  obs::Histogram* step_ns = nullptr;
  obs::LabelSet labels;
  // Delta exporter behind the interim (per-epoch, with a hub) and final
  // engine aggregate publications — repeated exports never double-count.
  core::EngineMetricsExporter exporter;

  std::uint64_t steps = 0;  // engine steps consumed (budget account)
};

struct ShardRun {
  // Streamed admission (DESIGN D23): the shard's local transactions the
  // plan walk has reached (`walked`) and admitted (`admitted`), in plan
  // order. Most are draws from the shard's own generator, made on the
  // thread that runs the shard; the few full-universe programs that routed
  // here wait in `parked` under their local index, as bookmarks that draw
  // them again.
  std::uint64_t walked = 0;
  std::uint64_t admitted = 0;
  std::deque<std::pair<std::uint64_t, sim::WorkloadGenerator>> parked;
  std::uint32_t concurrency = 1;
  Status status = Status::OK();
  ShardResult result;
  std::vector<std::uint32_t> cost_samples;
  obs::RegistrySnapshot metrics;  // labeled {{"shard","k"}}
  // Wall-clock cost of the shard's serializability verdict (the "certify"
  // phase gauge, beside the global merge); kept out of the report.
  std::uint64_t certify_ns = 0;
  // Wall-clock time the shard's own task spent admitting (local draws and
  // spawns, slice spawns, one-shard refills); part of generate_seconds.
  std::uint64_t admit_ns = 0;
  std::vector<obs::EngineEvent> trace_events;
  std::vector<obs::DeadlockDump> forensics;
  // Hub-owned registry when live introspection is on (so /metrics outlives
  // the run); null otherwise — the shard then uses its exec's local
  // registry.
  obs::MetricsRegistry* registry = nullptr;
  // Hub-owned ring sink, installed alongside any collecting sink.
  obs::DeadlockDumpSink* hub_sink = nullptr;
  std::unique_ptr<ShardExec> exec;
};

// Builds the shard's engine and telemetry wiring.
void InitShardExec(const ShardedOptions& options, std::uint32_t shard,
                   ShardRun& run) {
  run.result.shard = shard;
  // Recording mode (journal_out set) keeps every record so written files
  // are complete; otherwise a bounded ring with counted evictions.
  run.exec = std::make_unique<ShardExec>(
      options.max_forensics_dumps, run.hub_sink,
      obs::DecisionJournal::Options{
          options.journal_out.empty() ? std::size_t{65536} : std::size_t{0}});
  ShardExec& ex = *run.exec;
  ex.store.CreateMany(options.workload.num_entities, options.initial_value);
  core::EngineOptions eopt = options.engine;
  eopt.seed = DeriveShardSeed(options.seed, shard);
  ex.engine = std::make_unique<core::Engine>(
      &ex.store, eopt, options.check_serializability ? &ex.recorder : nullptr);
  core::Engine& engine = *ex.engine;
  // Pre-size the per-transaction rows for the shard's share of the
  // multiprogramming level: rows are recycled at commit (DESIGN D23), so
  // that — not the run length — is what admission needs. Cross-shard
  // slices add at most a few rows on demand.
  engine.ReserveTxns(run.concurrency);

  // Per-shard telemetry. Without a hub the registry is private to this
  // shard and merged after the run; with one it is hub-owned and
  // scraped live (its counters are lock-free atomics, so the serving thread
  // reads it safely while a worker writes).
  ex.labels = obs::LabelSet{{obs::kShardLabel, std::to_string(shard)}};
  const obs::LabelSet& labels = ex.labels;
  ex.registry = run.registry != nullptr ? run.registry : &ex.local_registry;
  if (options.instrument) {
    ex.probe = obs::MakeEngineProbe(ex.registry, labels);
    engine.set_probe(&ex.probe);
    ex.step_ns = ex.registry->GetHistogram(obs::kShardStepNs, labels);
    ex.lineage.AttachMetrics(ex.registry, labels);
    engine.set_lineage(&ex.lineage);
  }
  if (options.txnlife) {
    if (options.instrument) ex.txnlife.AttachMetrics(ex.registry, labels);
    engine.set_txnlife(&ex.txnlife);
  }
  if (options.journal) {
    ex.journal.set_perturb_epoch_for_test(options.journal_perturb_epoch);
    if (options.instrument) ex.journal.AttachMetrics(ex.registry, labels);
    engine.set_journal(&ex.journal);
  }
  if (options.collect_traces) engine.set_trace(&ex.trace);
  if (options.collect_forensics && run.hub_sink != nullptr) {
    engine.set_forensics(&ex.fanout);
  } else if (options.collect_forensics) {
    engine.set_forensics(&ex.forensics);
  } else if (run.hub_sink != nullptr) {
    engine.set_forensics(run.hub_sink);
  }
}

// Publishes the shard's lifecycle digest, with the engine's wasted ops as
// its wasted-steps total (the book keeps no ledger).
void PublishTxnLife(obs::LiveHub* hub, const ShardExec& ex,
                    std::uint32_t shard) {
  obs::TxnLifeDigest digest = ex.txnlife.Digest(shard);
  digest.wasted_steps = ex.engine->metrics().wasted_ops;
  hub->PublishTxnLife(std::move(digest));
}

// Finalizes the shard's slice of the report once it committed everything
// (or exhausted its step budget).
void FinishShard(const ShardedOptions& options, std::uint32_t shard,
                 ShardRun& run, bool completed) {
  ShardExec& ex = *run.exec;
  core::Engine& engine = *ex.engine;
  run.result.committed = engine.metrics().commits;
  run.result.completed = completed;
  if (options.check_serializability) {
    const std::uint64_t c0 = NowNanos();
    run.result.serializable = ex.recorder.IsConflictSerializable();
    run.certify_ns = NowNanos() - c0;
  }
  run.result.metrics = engine.metrics();
  run.result.footprint = {engine.txn_rows(), engine.lock_manager().txn_rows(),
                          ex.txnlife.rows(), ex.recorder.certifier_nodes()};
  run.result.rollback_costs = engine.RollbackCostDistribution();
  run.result.max_preemptions_single_txn = engine.MaxPreemptionCount();
  run.cost_samples = engine.rollback_cost_samples();
  if (options.txnlife && options.hub != nullptr) {
    PublishTxnLife(options.hub, ex, shard);
  }
  if (options.journal) {
    run.result.journal_chain = ex.journal.ChainValues();
    run.result.journal_records = ex.journal.total_records();
    run.result.journal_dropped = ex.journal.dropped_records();
    if (options.hub != nullptr) {
      options.hub->PublishJournal(ex.journal.Digest(shard));
    }
    if (!options.journal_out.empty() && run.status.ok()) {
      run.status = ex.journal.WriteFile(
          options.journal_out + ".shard" + std::to_string(shard) + ".jrnl",
          shard, options.seed);
    }
  }
  if (options.hub != nullptr) {
    // Final snapshot: the post-run server shows the end state (normally an
    // empty graph — every transaction committed).
    obs::WaitsForSnapshot snap = engine.SnapshotWaitsFor();
    snap.shard = shard;
    options.hub->PublishSnapshot(std::move(snap));
  }
  if (options.instrument) {
    const obs::LabelSet& labels = ex.labels;
    // Final delta on top of any interim (hub-cadence) exports: the
    // registry ends at exactly the engine's aggregates.
    ex.exporter.Export(engine, ex.registry, labels);
    ex.registry->GetCounter(obs::kCertifierInvariantViolationsTotal, labels)
        ->Inc(ex.recorder.invariant_violations());
    run.metrics = ex.registry->Snapshot();
  }
  if (options.collect_traces) run.trace_events = std::move(ex.trace.events);
  if (options.collect_forensics) run.forensics = ex.forensics.dumps();
}

// Deterministic makespan of greedy list scheduling: each job (one shard's
// quantum in an epoch) goes to the earliest-free virtual worker, in
// submission order. This is what the fork-join's claims converge to
// with one core per worker, so it models multi-core wall-clock while
// staying bit-identical across machines and runs.
std::uint64_t VirtualMakespanSteps(const std::vector<std::uint64_t>& costs,
                                   const std::vector<std::uint32_t>& order,
                                   std::size_t workers) {
  if (order.empty() || workers == 0) return 0;
  std::vector<std::uint64_t> busy(workers, 0);
  for (std::uint32_t job : order) {
    std::size_t w = 0;
    for (std::size_t i = 1; i < workers; ++i) {
      if (busy[i] < busy[w]) w = i;
    }
    busy[w] += costs[job];
  }
  return *std::max_element(busy.begin(), busy.end());
}

// Merged-history conflict-serializability (the global invariant): every
// shard's committed projection, renamed into one key space in which the
// slices of each global transaction fuse under its global sequence number
// and local transactions keep a shard-qualified key.
//
// One shard (no coordinator) is its own verdict: one store publishes no
// version twice and LocalKey(0, .) is a bijection, so the merge would
// rebuild the same graph. Otherwise the shards' online certifier graphs
// are unioned (DESIGN D17). The union is always exact here (DESIGN D23):
// a generated program publishes only inside its commit step, so every
// recorder is certifier_exact() at any step boundary, complete run or
// not, and every entity has one home shard. A refusal is therefore a
// fault in the driver, and fails the run.
Result<bool> CheckGlobalSerializability(const std::vector<ShardRun>& runs,
                                        const xshard::Coordinator* coord) {
  if (coord == nullptr) return runs[0].result.serializable;
  std::vector<const analysis::HistoryRecorder*> recorders;
  for (const ShardRun& run : runs) recorders.push_back(&run.exec->recorder);
  auto key_of = [coord](std::size_t shard, TxnId txn) {
    const auto s = static_cast<std::uint32_t>(shard);
    if (auto g = coord->GlobalOf(s, txn); g.has_value()) {
      return analysis::GlobalHistory::GlobalKey(*g);
    }
    return analysis::GlobalHistory::LocalKey(s, txn);
  };
  if (auto verdict = analysis::CertifyUnion(recorders, key_of)) {
    return *verdict;
  }
  return Status::Internal(
      "the shards' certifier graphs cannot be unioned: a recorder is "
      "inexact or two shards published one entity");
}

// Runs the global check and prices the whole verdict step — every shard's
// own verdict plus the merge — as pardb_phase_seconds{phase="certify"}.
Result<bool> CertifyRun(const ShardedOptions& options,
                        const std::vector<ShardRun>& runs,
                        const xshard::Coordinator* coord,
                        obs::MetricsRegistry* sched_registry) {
  if (!options.check_serializability) return true;
  const std::uint64_t c0 = NowNanos();
  const Result<bool> verdict = CheckGlobalSerializability(runs, coord);
  std::uint64_t nanos = NowNanos() - c0;
  for (const ShardRun& run : runs) nanos += run.certify_ns;
  if (sched_registry != nullptr) {
    sched_registry
        ->GetGauge(obs::kPhaseSeconds, {{obs::kPhaseLabel, "certify"}})
        ->Set(static_cast<std::int64_t>(Seconds(nanos) * 1000.0));
  }
  return verdict;
}

// Publishes the union-of-forests view for /debug/waits-for?scope=global:
// global transactions appear under their global sequence number, purely
// local transactions under a shard-tagged id (bit 63 set, shard in bits
// 48..62 — the xshard::LocalNode encoding).
void PublishGlobalWaitsFor(obs::LiveHub* hub, const xshard::Coordinator& coord,
                           std::uint64_t epoch) {
  std::vector<graph::Edge> arcs;
  coord.AppendUnionArcs(&arcs);
  obs::WaitsForSnapshot snap;
  snap.shard = 0;  // scope=global; the shard field is not meaningful here
  snap.step = epoch;
  snap.commits = coord.stats().global_commits;
  std::map<graph::VertexId, bool> waits;  // vertex -> has an incoming wait
  for (const graph::Edge& e : arcs) {
    snap.arcs.push_back(obs::WaitsForArc{TxnId(e.to), TxnId(e.from),
                                         xshard::EntityOfLabel(e.label)});
    waits.try_emplace(e.from, false);
    waits[e.to] = true;
  }
  for (const auto& [vertex, waiting] : waits) {
    obs::TxnSnapshot txn;
    txn.txn = TxnId(vertex);
    txn.entry = xshard::IsGlobalNode(vertex) ? vertex : 0;
    txn.status = waiting ? "waiting" : "ready";
    snap.txns.push_back(std::move(txn));
  }
  const graph::Shape shape = graph::ShapeOf(std::move(arcs));
  snap.acyclic = shape.acyclic;
  snap.forest = shape.forest;
  hub->PublishGlobalSnapshot(std::move(snap));
}

// Per-shard run slots, with the multiprogramming level split as evenly as
// possible over shards (every shard gets at least 1).
std::vector<ShardRun> MakeRuns(const ShardedOptions& options) {
  const std::uint32_t n = options.num_shards;
  std::vector<ShardRun> runs(n);
  const std::uint32_t base = options.concurrency / n;
  const std::uint32_t rem = options.concurrency % n;
  for (std::uint32_t s = 0; s < n; ++s) {
    runs[s].concurrency = std::max<std::uint32_t>(1, base + (s < rem ? 1 : 0));
  }
  return runs;
}

// Live introspection: hands each shard a hub-owned registry and a ring
// sink *before* any shard runs (hub registration is not safe mid-run), so
// the serving thread scrapes live counters while shards execute. Returns
// the registry for run-level series — hub-owned, else `local` — or null
// when !instrument.
obs::MetricsRegistry* AttachTelemetry(const ShardedOptions& options,
                                      std::vector<ShardRun>& runs,
                                      obs::MetricsRegistry* local) {
  obs::LiveHub* hub = options.hub;
  if (hub != nullptr) {
    for (std::uint32_t s = 0; s < runs.size(); ++s) {
      runs[s].hub_sink = hub->MakeDeadlockSink(s);
      if (options.instrument) {
        runs[s].registry =
            hub->AddOwnedRegistry(std::make_unique<obs::MetricsRegistry>());
      }
    }
  }
  if (!options.instrument) return nullptr;
  return hub != nullptr
             ? hub->AddOwnedRegistry(std::make_unique<obs::MetricsRegistry>())
             : local;
}

// Fills the wall-clock scheduler fields from per-worker busy time and
// publishes the run-level scheduler and phase series. Gauges are integral,
// so seconds and fractions are scaled by 1000.
void PublishRunStats(const std::vector<std::uint64_t>& busy_ns,
                     std::uint64_t uptime_ns, std::uint64_t steals,
                     obs::MetricsRegistry* registry, ShardedReport& report) {
  SchedulerStats& sched = report.scheduler;
  sched.num_workers = busy_ns.size();
  sched.steals = steals;
  if (uptime_ns > 0 && !busy_ns.empty()) {
    double sum = 0.0, lo = 1.0;
    for (std::uint64_t busy : busy_ns) {
      const double u =
          static_cast<double>(busy) / static_cast<double>(uptime_ns);
      sum += u;
      lo = std::min(lo, u);
    }
    sched.mean_worker_utilization = sum / static_cast<double>(busy_ns.size());
    sched.min_worker_utilization = lo;
  }
  if (registry == nullptr) return;
  registry->GetCounter(obs::kStealsTotal)->Inc(steals);
  for (std::size_t w = 0; w < busy_ns.size(); ++w) {
    registry
        ->GetGauge(obs::kWorkerUtilization,
                   {{obs::kWorkerLabel, std::to_string(w)}})
        ->Set(static_cast<std::int64_t>(busy_ns[w] / (uptime_ns / 1000 + 1)));
  }
  const AdmissionStats& adm = report.admission;
  auto PhaseGauge = [registry](const char* phase) {
    return registry->GetGauge(obs::kPhaseSeconds, {{obs::kPhaseLabel, phase}});
  };
  PhaseGauge("generate")
      ->Set(static_cast<std::int64_t>(adm.generate_seconds * 1000.0));
  PhaseGauge("execute")
      ->Set(static_cast<std::int64_t>(adm.execute_seconds * 1000.0));
}

// Folds the finished shards into the report — per-shard results, merged
// cost samples, traces, dumps and metrics — then runs the global verdict
// and derives the ratios. `coord` is null for one shard, whose xshard
// stats stay zero, so `committed` is then just the engine commits.
Status AssembleReport(const ShardedOptions& options,
                      std::vector<ShardRun>& runs,
                      const std::vector<std::uint64_t>& routed,
                      const xshard::Coordinator* coord,
                      obs::MetricsRegistry* sched_registry,
                      ShardedReport& report) {
  const std::uint64_t a0 = NowNanos();
  std::vector<std::uint32_t> merged_costs;
  for (std::uint32_t s = 0; s < runs.size(); ++s) {
    ShardRun& run = runs[s];
    if (!run.status.ok()) return run.status;
    run.result.assigned = routed[s];
    report.shards.push_back(run.result);
    merged_costs.insert(merged_costs.end(), run.cost_samples.begin(),
                        run.cost_samples.end());
    report.metrics.MergeFrom(run.metrics);
    if (options.collect_traces) {
      report.shard_traces.push_back(std::move(run.trace_events));
    }
    for (obs::DeadlockDump& d : run.forensics) {
      report.forensics.push_back(std::move(d));
    }
  }
  const std::uint64_t aggregate_ns = NowNanos() - a0;
  const Result<bool> verdict =
      CertifyRun(options, runs, coord, sched_registry);
  if (!verdict.ok()) return verdict.status();
  report.global_serializable = verdict.value();
  if (sched_registry != nullptr) {
    sched_registry
        ->GetGauge(obs::kPhaseSeconds, {{obs::kPhaseLabel, "aggregate"}})
        ->Set(static_cast<std::int64_t>(Seconds(aggregate_ns) * 1000.0));
    report.metrics.MergeFrom(sched_registry->Snapshot());
  }
  if (options.instrument) {
    report.merged_metrics = report.metrics.WithoutLabel("shard");
  }
  report.aggregate = SumMetrics(report.shards);
  report.wasted_by_cause = report.aggregate.wasted_by_cause;
  report.rollbacks_by_cause = report.aggregate.rollbacks_by_cause;
  report.rollback_costs =
      core::ComputeCostDistribution(std::move(merged_costs));
  // Whole transactions: a global's slices collapse into one commit.
  report.committed = report.aggregate.commits - report.xshard.sub_commits +
                     report.xshard.global_commits;
  for (const ShardResult& s : report.shards) {
    report.completed = report.completed && s.completed;
    report.serializable = report.serializable && s.serializable;
    report.max_preemptions_single_txn = std::max(
        report.max_preemptions_single_txn, s.max_preemptions_single_txn);
  }
  report.serializable = report.serializable && report.global_serializable;
  // Denominator: what routing actually processed, not the requested total
  // — the two differ when admission aborts early (abandoned queues).
  std::uint64_t routed_total = 0;
  for (std::uint64_t r : routed) routed_total += r;
  report.cross_shard_fraction =
      SafeRatio(report.cross_shard_txns, routed_total);
  report.wasted_fraction =
      SafeRatio(report.aggregate.wasted_ops, report.aggregate.ops_executed);
  report.goodput = SafeRatio(report.committed, report.aggregate.ops_executed);
  if (options.hub != nullptr) options.hub->SetPhase(obs::RunPhase::kDone);
  return Status::OK();
}

// Publishes one epoch to the live hub from the coordinate phase, where
// every engine (and its book and journal) is quiescent: the union view
// (several shards), each shard's waits-for snapshot, engine aggregates (as
// deltas, so the final export stays exact), lifecycle and journal
// digests, and the coordinator's journal digest.
void PublishEpoch(const ShardedOptions& options, std::vector<ShardRun>& runs,
                  const xshard::Coordinator* coord,
                  const obs::DecisionJournal* coord_journal,
                  std::uint64_t epoch) {
  obs::LiveHub* hub = options.hub;
  if (coord != nullptr) PublishGlobalWaitsFor(hub, *coord, epoch);
  for (std::uint32_t s = 0; s < runs.size(); ++s) {
    ShardExec& ex = *runs[s].exec;
    obs::WaitsForSnapshot snap = ex.engine->SnapshotWaitsFor();
    snap.shard = s;
    hub->PublishSnapshot(std::move(snap));
    if (options.instrument) {
      ex.exporter.Export(*ex.engine, ex.registry, ex.labels);
    }
    if (options.txnlife) PublishTxnLife(hub, ex, s);
    if (options.journal) hub->PublishJournal(ex.journal.Digest(s));
  }
  if (coord_journal != nullptr && options.journal) {
    hub->PublishJournal(coord_journal->Digest(runs.size()));
  }
}

// The driver (DESIGN D25, D29): each epoch is one coordinate phase on the
// calling thread — 2PC polling, union merge + distributed partial
// rollback, the 2PC stamp, then the plan walk and global admission, which
// queues each global's slices on their home shards — and one fork-join,
// in which shard s's task admits its local transactions, spawns its queued
// slices and steps one bounded quantum (DESIGN D12). A task touches only
// its own shard's engine, recorder and slice queue. Two things depend on
// the shard count. The coordinator, and with it the
// commit-free-epoch bound, exists only with several shards: one shard has
// nothing to coordinate. And the refill rule: several shards top their
// levels up at epoch start, while a lone shard, which waits on no
// coordinator, also refills after every commit inside its quantum — the
// paper's closed loop. Epoch content is a pure function of the options
// and each shard's deterministic state, so the report is bit-identical
// across runs and worker counts.
Result<ShardedReport> RunEpochs(const ShardedOptions& options) {
  const std::uint32_t n = options.num_shards;
  std::vector<ShardRun> runs = MakeRuns(options);
  ShardedReport report;
  report.num_shards = n;
  obs::MetricsRegistry sched_local;
  obs::MetricsRegistry* sched_registry =
      AttachTelemetry(options, runs, &sched_local);
  if (options.hub != nullptr) options.hub->SetPhase(obs::RunPhase::kRunning);

  // The fork-join behind every parallel part of the run; the calling
  // thread is its worker 0.
  ForkJoin fork_join(options.num_threads == 0 ? n : options.num_threads);

  // Shard engines, built up front on this thread (their seeds and state
  // never depend on construction order).
  for (std::uint32_t s = 0; s < n; ++s) InitShardExec(options, s, runs[s]);
  std::vector<core::Engine*> engines;
  engines.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    engines.push_back(runs[s].exec->engine.get());
  }
  // Walked-but-unadmitted local transactions per shard, set every
  // coordinate phase.
  std::vector<obs::Gauge*> queue_depth;
  if (sched_registry != nullptr) {
    for (std::uint32_t s = 0; s < n; ++s) {
      queue_depth.push_back(sched_registry->GetGauge(
          obs::kAdmissionQueueDepth, {{obs::kShardLabel, std::to_string(s)}}));
    }
  }

  // Coordinator decision journal: global admits, lock-point releases,
  // retires, global cycles and distributed-rollback victims, plus one
  // kTwoPC checksum stamp per merge round folding every shard's state
  // digest. Published to the hub as pseudo-shard n. Both exist only with
  // several shards.
  std::optional<obs::DecisionJournal> coord_journal;
  std::optional<xshard::Coordinator> coord;
  if (n > 1) {
    coord_journal.emplace(obs::DecisionJournal::Options{
        options.journal_out.empty() ? std::size_t{65536} : std::size_t{0}});
    if (options.journal && sched_registry != nullptr) {
      coord_journal->AttachMetrics(sched_registry,
                                   {{obs::kShardLabel, "coord"}});
    }
    xshard::Coordinator::Options copt;
    copt.num_shards = n;
    if (sched_registry != nullptr) {
      copt.prepare_ns = sched_registry->GetHistogram(obs::kXShardPrepareNs);
      copt.resolve_ns = sched_registry->GetHistogram(obs::kXShardResolveNs);
    }
    if (options.journal) copt.journal = &*coord_journal;
    if (options.check_serializability) {
      for (ShardRun& run : runs) copt.recorders.push_back(&run.exec->recorder);
    }
    coord.emplace(engines, copt);
  }

  // Admission streams (DESIGN D23): the plan is walked only as far as
  // admission needs, so every shard admits the same programs in the same
  // order as if the whole run had been generated up front, while no
  // program exists before its admission draws it. A full-universe draw is
  // routed at once and dropped: one that stays on a shard parks there, a
  // spanning one queues for global admission (in plan order — its ω
  // order), each as a bookmark that draws it again when it is admitted. A
  // shard slower than the walk, or a coordinator at its limit of globals
  // in flight, thus holds about 200 bytes per waiting program.
  RoutingStream stream(options);
  std::vector<std::uint64_t> routed(n, 0);
  std::deque<sim::WorkloadGenerator> globals;
  std::uint64_t generate_ns = 0;  // the coordinating thread's walk and stage
  auto walk_one = [&]() -> Status {
    const std::uint64_t t = stream.position();
    const std::uint32_t g = stream.Next();
    if (g != stream.global_generator()) {
      ++routed[g];
      ++runs[g].walked;
      return Status::OK();
    }
    sim::WorkloadGenerator mark = stream.Bookmark();
    auto program = stream.Draw(g);
    if (!program.ok()) return program.status();
    const Route route = RouteProgram(program.value(), n,
                                     options.coordinator_shard, t);
    ++routed[route.shard];
    if (route.cross_shard) {
      ++report.cross_shard_txns;
      globals.push_back(std::move(mark));
    } else {
      ShardRun& home = runs[route.shard];
      home.parked.emplace_back(home.walked++, std::move(mark));
    }
    std::uint64_t waiting = globals.size();
    for (const ShardRun& run : runs) waiting += run.parked.size();
    report.admission.peak_materialized_programs =
        std::max(report.admission.peak_materialized_programs, waiting);
    return Status::OK();
  };
  // Free slots of shard s's level, walking the plan until as many of its
  // local transactions are walked but unadmitted (or the plan ends); slice
  // commits are subtracted out, so subs never take local slots. One
  // thread walks at a time: the coordinating one, or a lone shard's own.
  auto room_for = [&](std::uint32_t s) -> Result<std::uint64_t> {
    ShardRun& run = runs[s];
    const std::uint64_t live_locals =
        run.admitted - (engines[s]->metrics().commits -
                        (coord ? coord->sub_commits_on(s) : 0));
    const std::uint64_t want =
        live_locals < run.concurrency ? run.concurrency - live_locals : 0;
    while (!stream.done() && run.walked - run.admitted < want) {
      PARDB_RETURN_IF_ERROR(walk_one());
    }
    return std::min(want, run.walked - run.admitted);
  };
  // Spawns shard s's next `room` local transactions in plan order, drawing
  // each on the calling thread (shard s's task).
  auto admit = [&](std::uint32_t s, std::uint64_t room) -> Status {
    ShardRun& run = runs[s];
    for (std::uint64_t k = 0; k < room; ++k) {
      const bool is_parked =
          !run.parked.empty() && run.parked.front().first == run.admitted;
      auto program =
          is_parked ? run.parked.front().second.Next() : stream.Draw(s);
      if (is_parked) run.parked.pop_front();
      if (!program.ok()) return program.status();
      auto id = engines[s]->Spawn(std::move(program).value());
      if (!id.ok()) return id.status();
      ++run.admitted;
    }
    return Status::OK();
  };

  std::uint64_t epoch = 0;
  std::uint64_t commits_seen = 0;
  std::uint64_t commit_free_epochs = 0;
  bool completed = true;
  Status run_status = Status::OK();

  const std::size_t threads = fork_join.num_threads();
  std::atomic<std::uint64_t> steals{0};
  std::vector<std::uint64_t> epoch_shard_steps(n, 0);
  std::vector<std::uint64_t> room(n, 0);  // local programs to admit
  std::vector<std::uint32_t> tasks;
  std::vector<std::uint32_t> submitted;
  std::vector<std::uint64_t> admitted_globals;
  const std::uint64_t e0 = NowNanos();
  for (;; ++epoch) {
    // ---- Coordinate (single-threaded; engines quiescent): 2PC polling,
    // then the union merge. The merge runs before this epoch's admission:
    // a transaction that has not stepped holds no lock and waits on none,
    // so it adds no arc (DESIGN D29) ----
    if (coord) {
      run_status = coord->Poll();
      if (!run_status.ok()) break;
      // Globals whose slices no future cycle can reach leave every
      // recorder together; each shard prunes its own transactions after
      // its quantum.
      if (options.check_serializability) coord->PruneRetired();
      // Union merge + distributed partial rollback, every epoch: a global
      // cycle is resolved at the first coordinate phase after it closes.
      run_status = coord->MergeAndResolve();
      if (!run_status.ok()) break;
      // 2PC-epoch checksum: every engine is quiescent in the coordinate
      // phase, so folding the shard state digests here is deterministic
      // (a pure function of the options and the epoch ordinal).
      if (options.journal) {
        std::uint64_t fold = obs::kFnvOffsetBasis;
        for (std::uint32_t s = 0; s < n; ++s) {
          fold = obs::FnvMix64(fold, engines[s]->StateDigest());
        }
        coord_journal->StampEpoch(epoch, fold, obs::EpochKind::kTwoPC);
      }
    }
    if (options.hub != nullptr) {
      PublishEpoch(options, runs, coord ? &*coord : nullptr,
                   coord_journal ? &*coord_journal : nullptr, epoch);
    }
    // ---- Coordinate: size each shard's local admission, walking the
    // plan as far as it needs, then global admission in ω order, walking
    // on to the next spanning program whenever the coordinator has room.
    // Admit only queues the slices; each shard spawns its own after its
    // local transactions, so every engine still assigns this epoch's local
    // ids and ω positions before its slices' ----
    const std::uint64_t w0 = NowNanos();
    for (std::uint32_t s = 0; s < n && run_status.ok(); ++s) {
      auto r = room_for(s);
      run_status = r.status();
      if (r.ok()) room[s] = r.value();
    }
    if (!run_status.ok()) break;
    for (std::uint32_t s = 0; s < queue_depth.size(); ++s) {
      queue_depth[s]->Set(static_cast<std::int64_t>(
          runs[s].walked - runs[s].admitted - room[s]));
    }
    admitted_globals.clear();
    while (coord && coord->CanAdmit()) {
      while (run_status.ok() && globals.empty() && !stream.done()) {
        run_status = walk_one();
      }
      if (!run_status.ok() || globals.empty()) break;
      auto program = globals.front().Next();
      globals.pop_front();
      if (!program.ok()) {
        run_status = program.status();
        break;
      }
      auto seq = coord->Admit(std::move(program).value());
      if (!seq.ok()) {
        run_status = seq.status();
        break;
      }
      admitted_globals.push_back(seq.value());
    }
    generate_ns += NowNanos() - w0;
    if (!run_status.ok()) break;
    // Termination: the plan walked and admitted, every global retired,
    // every engine drained.
    bool done =
        stream.done() && globals.empty() && (!coord || coord->AllDone());
    for (std::uint32_t s = 0; done && s < n; ++s) {
      done = runs[s].admitted == runs[s].walked &&
             engines[s]->live_txn_count() == 0;
    }
    if (done) break;
    // A shard out of steps with work left can finish none of it (even a
    // slice commits in its own step), so the run is stranded: it cannot
    // complete. The other shards run on until they are out of steps too
    // or have nothing they can step.
    bool budget_left = false;
    bool stranded = false;
    for (std::uint32_t s = 0; s < n; ++s) {
      const bool spent = runs[s].exec->steps >= options.max_steps_per_shard;
      budget_left = budget_left || !spent;
      stranded = stranded ||
                 (spent && (engines[s]->live_txn_count() > 0 ||
                            runs[s].admitted < runs[s].walked ||
                            (coord && coord->HasQueued(s))));
    }
    // ---- Shards (parallel): one task per shard with something to admit
    // or step. It admits, then steps one bounded quantum when the shard
    // has budget and work (admitting gives it work) ----
    tasks.clear();
    submitted.clear();
    for (std::uint32_t s = 0; s < n; ++s) {
      epoch_shard_steps[s] = 0;
      const bool admits = room[s] > 0 || (coord && coord->HasQueued(s));
      if (runs[s].exec->steps < options.max_steps_per_shard &&
          (admits || engines[s]->live_txn_count() > 0)) {
        submitted.push_back(s);
        tasks.push_back(s);
      } else if (admits) {
        tasks.push_back(s);
      }
    }
    fork_join.Run(tasks.size(), [&](std::size_t i, std::size_t worker) {
      const std::uint32_t s = tasks[i];
      ShardRun& run = runs[s];
      ShardExec& ex = *run.exec;
      const std::uint64_t a0 = NowNanos();
      run.status = admit(s, room[s]);
      if (run.status.ok() && coord) run.status = coord->SpawnQueued(s);
      run.admit_ns += NowNanos() - a0;
      if (!run.status.ok() || ex.steps >= options.max_steps_per_shard ||
          engines[s]->live_txn_count() == 0) {
        return;
      }
      // A quantum away from its home worker counts as a steal.
      if (worker != s % threads) steals.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t budget =
          std::min(kEpochSteps, options.max_steps_per_shard - ex.steps);
      // The refill rule: a lone shard stops at each commit and tops its
      // level up before the next step (it runs as the only task, so it
      // may walk the plan); several shards step their quanta through.
      // ran_dry just ends the quantum (with several shards, a shard whose
      // transactions all wait on another has nothing to do this epoch);
      // real stalls are caught by the stall guard below.
      const std::uint64_t t0 = NowNanos();
      std::uint64_t stepped = 0;
      for (;;) {
        auto q = engines[s]->StepQuantum(budget - stepped,
                                         /*stop_after_commit=*/!coord);
        if (!q.ok()) {
          run.status = q.status();
          return;
        }
        stepped += q.value().steps;
        if (!q.value().committed || stepped == budget) break;
        const std::uint64_t r0 = NowNanos();
        auto r = room_for(s);
        run.status = r.ok() ? admit(s, r.value()) : r.status();
        run.admit_ns += NowNanos() - r0;
        if (!run.status.ok()) return;
      }
      epoch_shard_steps[s] = stepped;
      ex.steps += stepped;
      if (options.check_serializability) ex.recorder.Prune();
      // One clock pair per quantum: its per-step mean feeds the
      // pardb_shard_step_ns histogram and the hub's skew EWMAs (wall clock:
      // never the deterministic report).
      if (stepped > 0) {
        const std::uint64_t per_step = (NowNanos() - t0) / stepped;
        if (ex.step_ns != nullptr) ex.step_ns->Record(per_step);
        if (options.hub != nullptr) options.hub->RecordShardStep(s, per_step);
      }
    });
    for (std::uint32_t s : tasks) {
      if (!runs[s].status.ok()) run_status = runs[s].status;
    }
    if (!run_status.ok()) break;
    if (coord) {
      coord->IndexSpawned();
      if (options.collect_traces) {
        for (std::uint64_t seq : admitted_globals) {
          for (const auto& [shard, txn] : coord->SlicesOf(seq)) {
            report.flow_slices.push_back(
                obs::GlobalSlice{seq, shard, txn.value()});
          }
        }
      }
    }
    // Every shard had spent its budget, so the tasks only admitted.
    if (!budget_left) {
      completed = false;
      break;
    }
    std::uint64_t commits = 0;
    std::uint64_t stepped = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      commits += engines[s]->metrics().commits;
      stepped += epoch_shard_steps[s];
    }
    report.scheduler.quanta += submitted.size();
    report.scheduler.virtual_makespan_steps +=
        VirtualMakespanSteps(epoch_shard_steps, submitted, threads);
    if (stranded && stepped == 0) {
      completed = false;
      break;
    }
    // Stall guard. Nothing outside a lone shard can wake it, so an epoch
    // in which it steps nothing is a stall at once, while a livelock that
    // keeps stepping spends the step budget and ends the run incomplete
    // (the requester-always ablation, EXPERIMENTS E11). With several
    // shards the coordinator may release a shard later; a cross-layer
    // livelock (ROADMAP item 1) fails after kMaxCommitFreeEpochs.
    if (!coord) {
      if (stepped > 0) continue;
      run_status = Status::Internal("shard 0 stalled:\n" +
                                    engines[0]->DumpState());
      break;
    }
    commit_free_epochs = commits == commits_seen ? commit_free_epochs + 1 : 0;
    commits_seen = commits;
    if (commit_free_epochs == kMaxCommitFreeEpochs) {
      std::ostringstream os;
      os << "xshard run stalled: no commit for " << kMaxCommitFreeEpochs
         << " epochs, at epoch " << epoch << "; globals in flight:";
      for (std::uint64_t seq : coord->active()) os << " G" << seq;
      for (std::uint32_t s = 0; s < n; ++s) {
        os << "\n--- shard " << s << " ---\n" << engines[s]->DumpState();
      }
      run_status = Status::Internal(os.str());
      break;
    }
  }
  // Observe the final slice commits (the loop may exit right after the
  // step phase that committed them).
  if (run_status.ok() && coord) run_status = coord->Poll();
  std::vector<std::uint64_t> busy_ns(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    busy_ns[w] = fork_join.busy_nanos(w);
  }
  const std::uint64_t uptime_ns = fork_join.uptime_nanos();
  report.admission.execute_seconds = Seconds(NowNanos() - e0);
  for (const ShardRun& run : runs) generate_ns += run.admit_ns;
  report.admission.generate_seconds = Seconds(generate_ns);
  if (!run_status.ok()) return run_status;
  if (options.hub != nullptr) {
    options.hub->SetPhase(obs::RunPhase::kAggregating);
  }
  PublishRunStats(busy_ns, uptime_ns, steals.load(std::memory_order_relaxed),
                  sched_registry, report);

  if (coord) {
    report.xshard = coord->stats();
    report.xshard.epochs = epoch;
    if (options.journal) {
      report.coord_journal_chain = coord_journal->ChainValues();
      if (options.hub != nullptr) {
        options.hub->PublishJournal(coord_journal->Digest(n));
      }
      if (!options.journal_out.empty()) {
        PARDB_RETURN_IF_ERROR(coord_journal->WriteFile(
            options.journal_out + ".coord.jrnl", n, options.seed));
      }
    }
    if (sched_registry != nullptr) {
      const xshard::XShardStats& xs = report.xshard;
      auto Set = [&](const char* name, std::uint64_t v) {
        sched_registry->GetCounter(name)->Inc(v);
      };
      Set(obs::kXShardGlobalTxnsTotal, xs.global_txns);
      Set(obs::kXShardSubTxnsTotal, xs.sub_txns);
      Set(obs::kXShardGlobalCommitsTotal, xs.global_commits);
      Set(obs::kXShardMergesTotal, xs.merges);
      Set(obs::kXShardGlobalCyclesTotal, xs.global_cycles);
      Set(obs::kXShardDistributedRollbacksTotal, xs.distributed_rollbacks);
      Set(obs::kXShardOmegaExclusionsTotal, xs.omega_exclusions);
      Set(obs::kXShardPreparesTotal, xs.prepares);
      Set(obs::kXShardResolvesTotal, xs.resolves);
      Set(obs::kXShardMessagesTotal, xs.messages);
      sched_registry->GetGauge(obs::kXShardEpochs)
          ->Set(static_cast<std::int64_t>(xs.epochs));
    }
  }

  for (std::uint32_t s = 0; s < n; ++s) {
    FinishShard(options, s, runs[s], completed);
  }
  // Slice index for the Chrome trace's flow arrows: one entry per slice
  // the coordinator ever spawned, under its global sequence number, in
  // (shard, local txn) order.
  std::sort(report.flow_slices.begin(), report.flow_slices.end(),
            [](const obs::GlobalSlice& a, const obs::GlobalSlice& b) {
              return a.pid != b.pid ? a.pid < b.pid : a.tid < b.tid;
            });
  PARDB_RETURN_IF_ERROR(AssembleReport(options, runs, routed,
                                       coord ? &*coord : nullptr,
                                       sched_registry, report));
  return report;
}

}  // namespace

std::uint64_t DeriveShardSeed(std::uint64_t seed, std::uint32_t shard) {
  return Mix(seed ^ Mix(0x5eed0000ULL + shard));
}

std::string ShardedReport::ToString() const {
  std::ostringstream os;
  os << "shards=" << num_shards << " committed=" << committed
     << (completed ? "" : " (INCOMPLETE)")
     << " cross_shard=" << cross_shard_txns
     << " (frac=" << cross_shard_fraction << ")"
     << " deadlocks=" << aggregate.deadlocks
     << " rollbacks=" << aggregate.rollbacks
     << " wasted=" << aggregate.wasted_ops
     << " wasted_frac=" << wasted_fraction << " goodput=" << goodput
     << " serializable=" << (serializable ? "yes" : "NO");
  return os.str();
}

Result<ShardedReport> RunSharded(const ShardedOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.coordinator_shard >= options.num_shards) {
    return Status::InvalidArgument("coordinator_shard out of range");
  }
  if (options.workload.num_entities == 0) {
    return Status::InvalidArgument("workload needs at least one entity");
  }
  // Distributed partial rollback rides on the detection machinery (the
  // union merge extends it across shards); the other handling modes have
  // no notion of an externally chosen victim.
  if (options.num_shards > 1 &&
      options.engine.handling != core::DeadlockHandling::kDetection) {
    return Status::InvalidArgument(
        "more than one shard requires engine.handling == kDetection");
  }
  return RunEpochs(options);
}

}  // namespace pardb::par
