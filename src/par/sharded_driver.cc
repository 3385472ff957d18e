#include "par/sharded_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "analysis/global_history.h"
#include "analysis/history.h"
#include "common/bits.h"
#include "common/random.h"
#include "core/metrics_export.h"
#include "dist/distributed.h"
#include "obs/lineage.h"
#include "obs/metric_names.h"
#include "par/admission_queue.h"
#include "par/router.h"
#include "par/stealing_pool.h"
#include "par/xshard/global_graph.h"
#include "storage/entity_store.h"

namespace pardb::par {

namespace {

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
    m.preemptions += a.preemptions;
    m.wounds += a.wounds;
    m.deaths += a.deaths;
    m.timeouts += a.timeouts;
    m.wasted_ops += a.wasted_ops;
    m.ideal_wasted_ops += a.ideal_wasted_ops;
    m.cycles_found += a.cycles_found;
    m.periodic_scans += a.periodic_scans;
    m.max_entity_copies = std::max(m.max_entity_copies, a.max_entity_copies);
    m.max_var_copies = std::max(m.max_var_copies, a.max_var_copies);
  }
  return m;
}

void SumLedgers(ShardedReport& report) {
  for (const ShardResult& s : report.shards) {
    for (std::size_t c = 0; c < obs::kNumRollbackCauses; ++c) {
      report.wasted_by_cause[c] += s.wasted_by_cause[c];
      report.rollbacks_by_cause[c] += s.rollbacks_by_cause[c];
    }
  }
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

// Materialized-but-unadmitted program accounting: the producer increments
// on generate, and each shard's AdmissionQueue decrements inside its pop
// critical section (set_materialized_counter) — so a freed slot is never
// visible to the producer before the decrement, and the high-water mark
// is bounded by num_shards * capacity + 1. The peak is a producer-side
// high-water mark: only the producer writes it, right after its own
// increment.
struct AdmissionShared {
  std::atomic<std::int64_t> materialized{0};
  std::atomic<std::int64_t> peak{0};
};

// Per-shard state that persists across quanta: the engine and everything
// wired into it. Exactly one quantum task per shard is ever in flight (the
// task is the shard's ready token), so although quanta migrate between
// workers, this struct is only ever touched by one thread at a time, and
// the pool's queue transfer orders each quantum's writes before the next
// quantum's reads.
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
  core::VectorTrace trace;
  obs::CollectingDeadlockSink forensics;
  obs::FanOutDeadlockSink fanout;
  std::unique_ptr<core::Engine> engine;
  obs::MetricsRegistry* registry = nullptr;  // hub-owned or &local_registry
  obs::Histogram* step_ns = nullptr;
  obs::LabelSet labels;
  // Delta exporter behind the interim (hub-cadence) and final engine
  // aggregate publications — repeated exports never double-count.
  core::EngineMetricsExporter exporter;

  std::uint64_t spawned = 0;
  std::uint64_t steps = 0;         // engine steps consumed (budget account)
  std::uint64_t next_snap_at = 0;  // steps threshold for next hub snapshot
  bool eos = false;  // pipelined: end-of-stream token observed
};

struct ShardRun {
  // Batch mode: the shard's routed programs, materialized up front.
  std::vector<txn::Program> programs;
  // Pipelined mode: programs stream through this queue instead (programs
  // stays empty); null in batch mode.
  std::unique_ptr<AdmissionQueue> queue;
  std::uint32_t concurrency = 1;
  Status status = Status::OK();
  ShardResult result;
  std::vector<std::uint32_t> cost_samples;
  obs::RegistrySnapshot metrics;  // labeled {{"shard","k"}}
  // Wall-clock cost of the shard's serializability verdict (the "certify"
  // phase gauge, beside the global merge); kept out of the report.
  std::uint64_t certify_ns = 0;
  std::vector<core::TraceEvent> trace_events;
  std::vector<obs::DeadlockDump> forensics;
  // Hub-owned registry when live introspection is on (so /metrics outlives
  // the run); null otherwise — the shard then uses its exec's local
  // registry.
  obs::MetricsRegistry* registry = nullptr;
  // Hub-owned ring sink, installed alongside any collecting sink.
  obs::DeadlockDumpSink* hub_sink = nullptr;
  std::unique_ptr<ShardExec> exec;
};

// Builds the shard's engine and telemetry wiring; runs on whichever worker
// executes the shard's first quantum.
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
  // Pre-size the txn-indexed tables with the whole run's upper bound so
  // shard admission never pays a rehash or reallocation mid-flight.
  engine.ReserveTxns(options.total_txns);

  // Per-shard telemetry. Without a hub the registry is private to this
  // shard and merged after the pool joins; with one it is hub-owned and
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
  // Rounded up so callers may pass any cadence (it used to be masked as
  // period-1 and silently misbehaved for non-powers-of-two).
  ex.next_snap_at = RoundUpPowerOfTwo(
      options.hub_snapshot_period == 0 ? 512 : options.hub_snapshot_period);
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
  run.result.rollback_costs = engine.RollbackCostDistribution();
  run.cost_samples = engine.rollback_cost_samples();
  if (options.txnlife) {
    run.result.wasted_by_cause = ex.txnlife.wasted_by_cause();
    run.result.rollbacks_by_cause = ex.txnlife.rollbacks_by_cause();
    if (options.hub != nullptr) {
      options.hub->PublishTxnLife(ex.txnlife.Digest(shard));
    }
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
    ex.registry->GetCounter(obs::kTraceDroppedTotal, labels)
        ->Inc(core::TraceDropped(options.collect_traces ? &ex.trace : nullptr));
    run.metrics = ex.registry->Snapshot();
  }
  if (options.collect_traces) run.trace_events = ex.trace.events();
  if (options.collect_forensics) run.forensics = ex.forensics.dumps();
}

// Shared scheduler state: the pool, the per-shard step-time EWMAs feeding
// adaptive quantum sizing, and the scheduler's own metrics. EWMA slots are
// written only by the owning shard's quantum (single writer) and read by
// every shard when sizing a quantum — hence atomics, relaxed.
struct SchedulerCtx {
  const ShardedOptions* options = nullptr;
  std::vector<ShardRun>* runs = nullptr;
  StealingPool* pool = nullptr;
  std::uint32_t num_shards = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> ewma_ns;

  obs::Histogram* quantum_hist = nullptr;  // null when !instrument
  obs::Counter* steals_counter = nullptr;
  std::vector<obs::Gauge*> util_gauges;
  std::atomic<std::uint64_t> steals_published{0};
  std::atomic<std::uint64_t> quanta{0};

  void UpdateEwma(std::uint32_t shard, std::uint64_t v) {
    std::atomic<std::uint64_t>& slot = ewma_ns[shard];
    const std::uint64_t old = slot.load(std::memory_order_relaxed);
    if (old == 0) {
      slot.store(std::max<std::uint64_t>(1, v), std::memory_order_relaxed);
      return;
    }
    const std::int64_t delta =
        (static_cast<std::int64_t>(v) - static_cast<std::int64_t>(old)) / 8;
    const std::int64_t next = static_cast<std::int64_t>(old) + delta;
    slot.store(next > 0 ? static_cast<std::uint64_t>(next) : 1,
               std::memory_order_relaxed);
  }

  // Quantum size for the shard's next slice. Hot shards (step EWMA above
  // the mean) get proportionally shorter quanta, so they come back to the
  // queue while there is still stealable work behind them; cold shards run
  // the full quantum.
  std::uint64_t QuantumFor(std::uint32_t shard) const {
    const ShardedOptions& o = *options;
    if (o.scheduler == ShardScheduler::kRunToCompletion) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    const std::uint64_t base = std::max<std::uint64_t>(1, o.quantum_steps);
    if (!o.adaptive_quantum) return base;
    const std::uint64_t own = ewma_ns[shard].load(std::memory_order_relaxed);
    if (own == 0) return base;
    std::uint64_t sum = 0, reporting = 0;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      const std::uint64_t v = ewma_ns[s].load(std::memory_order_relaxed);
      if (v > 0) {
        sum += v;
        ++reporting;
      }
    }
    if (reporting == 0) return base;
    const std::uint64_t mean = std::max<std::uint64_t>(1, sum / reporting);
    const std::uint64_t lo = std::min(
        std::max<std::uint64_t>(1, o.min_quantum_steps), base);
    return std::clamp(base * mean / own, lo, base);
  }

  // Publishes live scheduler metrics: the steal counter advances by the
  // delta since the last publication (CAS winner increments its range, so
  // concurrent refreshers never double-count) and per-worker utilization
  // gauges are recomputed as busy/wall, scaled by 1000.
  void RefreshSchedulerMetrics() {
    if (steals_counter != nullptr) {
      std::uint64_t cur = pool->steals();
      std::uint64_t prev = steals_published.load(std::memory_order_relaxed);
      while (prev < cur) {
        if (steals_published.compare_exchange_weak(
                prev, cur, std::memory_order_relaxed)) {
          steals_counter->Inc(cur - prev);
          break;
        }
      }
    }
    if (!util_gauges.empty()) {
      const std::uint64_t up = pool->uptime_nanos();
      if (up == 0) return;
      for (std::size_t w = 0; w < util_gauges.size(); ++w) {
        util_gauges[w]->Set(static_cast<std::int64_t>(
            pool->busy_nanos(w) / (up / 1000 + 1)));
      }
    }
  }
};

// What a quantum left behind: more work queued (reschedule), a yield
// (pipelined shard drained-but-open below its multiprogramming level —
// reschedule, but nothing useful could run), or done (finished or failed).
enum class QuantumOutcome { kMore, kYield, kDone };

// Advances shard by at most `max_q` engine steps. The step sequence this
// produces is identical for every chopping of the run into quanta:
// spawning tops the multiprogramming level up at exactly the points a
// per-step loop would (quantum start and after every commit — between
// commits the refill condition cannot change).
//
// The pipelined path preserves that sequence against a stream that
// materializes over time by one rule: the shard steps only when its level
// is topped up or the end-of-stream token arrived. Below level with the
// queue open-but-empty, the batch path would have admitted more programs
// before stepping — so the shard yields its quantum instead of stepping
// early, and the admission order plus every refill point land exactly
// where the batch run put them.
QuantumOutcome RunShardQuantum(const ShardedOptions& options,
                               std::uint32_t shard, ShardRun& run,
                               SchedulerCtx& ctx, std::uint64_t max_q) {
  if (run.exec == nullptr) InitShardExec(options, shard, run);
  ShardExec& ex = *run.exec;
  core::Engine& engine = *ex.engine;
  obs::LiveHub* hub = options.hub;
  AdmissionQueue* queue = run.queue.get();
  const std::uint64_t total = run.programs.size();  // batch mode only
  const std::uint64_t t0 = NowNanos();
  std::uint64_t q_steps = 0;
  bool completed = true;
  bool finished = false;
  bool yielded = false;
  auto fail = [&](Status status) {
    run.status = std::move(status);
    if (queue != nullptr) queue->Abandon();
    return QuantumOutcome::kDone;
  };
  while (q_steps < max_q) {
    // Terminal check: batch knows the shard's total up front; pipelined
    // knows it once the end-of-stream token has been observed.
    if (queue == nullptr ? engine.metrics().commits >= total
                         : (ex.eos && engine.metrics().commits >= ex.spawned)) {
      finished = true;
      break;
    }
    if (ex.steps >= options.max_steps_per_shard) {
      completed = false;
      finished = true;
      break;
    }
    if (queue == nullptr) {
      while (ex.spawned < total &&
             ex.spawned - engine.metrics().commits < run.concurrency) {
        auto id = engine.Spawn(std::move(run.programs[ex.spawned]));
        if (!id.ok()) return fail(id.status());
        ++ex.spawned;
      }
    } else {
      while (!ex.eos &&
             ex.spawned - engine.metrics().commits < run.concurrency) {
        txn::Program program;
        std::uint64_t queue_wait_ns = 0;
        AdmissionQueue::Pop r = queue->TryPop(&program, &queue_wait_ns);
        if (r == AdmissionQueue::Pop::kEmpty && q_steps == 0) {
          // Nothing ran this quantum yet: give the producer a moment
          // before yielding, so a starved shard doesn't cycle through the
          // scheduler at full speed doing nothing.
          r = queue->WaitPop(&program, std::chrono::microseconds(200),
                             &queue_wait_ns);
        }
        if (r == AdmissionQueue::Pop::kClosed) {
          ex.eos = true;
          break;
        }
        if (r == AdmissionQueue::Pop::kEmpty) {
          yielded = true;
          break;
        }
        // materialized was already decremented inside the pop — under the
        // queue mutex, so the producer can't refill the slot first and
        // push the high-water mark past num_shards * capacity + 1.
        auto id = engine.Spawn(std::move(program));
        if (!id.ok()) return fail(id.status());
        // Queue-wait stamp: measured by the queue under its own mutex,
        // carried to the book here on the shard thread (wall clock only —
        // never enters the deterministic report).
        if (options.txnlife) {
          ex.txnlife.RecordQueueWait(id.value(), queue_wait_ns);
        }
        ++ex.spawned;
      }
      if (yielded) break;
      if (ex.eos && engine.metrics().commits >= ex.spawned) {
        // The token arrived mid-refill with nothing left to run; the
        // batch loop exits at its terminal check without stepping here.
        finished = true;
        break;
      }
    }
    const std::uint64_t budget =
        std::min(max_q - q_steps, options.max_steps_per_shard - ex.steps);
    auto quantum = engine.StepQuantum(budget, /*stop_after_commit=*/true);
    if (!quantum.ok()) return fail(quantum.status());
    q_steps += quantum.value().steps;
    ex.steps += quantum.value().steps;
    // ran_dry: a step found no ready transaction. steps == 0 without a
    // commit: every live transaction terminated yet more remain. Both mean
    // the shard can make no further progress. (A yield never reaches this
    // point — the pipelined refill breaks out before stepping.)
    if (quantum.value().ran_dry ||
        (quantum.value().steps == 0 && !quantum.value().committed)) {
      return fail(Status::Internal("shard " + std::to_string(shard) +
                                   " stalled:\n" + engine.DumpState()));
    }
    if (hub != nullptr && ex.steps >= ex.next_snap_at) {
      obs::WaitsForSnapshot snap = engine.SnapshotWaitsFor();
      snap.shard = shard;
      hub->PublishSnapshot(std::move(snap));
      // Publish the engine aggregates (including any new rollback-cost
      // samples) at the same cadence, so /metrics histogram quantiles are
      // live during the run instead of end-of-run only. The exporter
      // advances by deltas; the final FinishShard export stays exact.
      if (options.instrument) {
        ex.exporter.Export(engine, ex.registry, ex.labels);
      }
      if (options.txnlife) hub->PublishTxnLife(ex.txnlife.Digest(shard));
      if (options.journal) hub->PublishJournal(ex.journal.Digest(shard));
      const std::uint64_t period = RoundUpPowerOfTwo(
          options.hub_snapshot_period == 0 ? 512
                                           : options.hub_snapshot_period);
      ex.next_snap_at = (ex.steps / period + 1) * period;
    }
  }
  // Quantum-granularity timing: one clock pair per quantum (cheaper than
  // the old 1-in-64 per-step sampling) whose per-step mean feeds the
  // pardb_shard_step_ns histogram, the hub's skew EWMAs, and the adaptive
  // quantum sizing.
  if (q_steps > 0) {
    const std::uint64_t per_step = (NowNanos() - t0) / q_steps;
    ctx.UpdateEwma(shard, per_step);
    if (ex.step_ns != nullptr) ex.step_ns->Record(per_step);
    if (hub != nullptr) hub->RecordShardStep(shard, per_step);
  }
  // Yield quanta stay out of the histogram: a starved shard would flood
  // the distribution with zeros that say nothing about quantum sizing.
  if (ctx.quantum_hist != nullptr && !yielded) ctx.quantum_hist->Record(q_steps);
  if (finished) {
    FinishShard(options, shard, run, completed);
    // Normally the queue is already drained+closed; on a step-budget
    // overrun it is not, and the producer must not block on it forever.
    if (queue != nullptr) queue->Abandon();
    return QuantumOutcome::kDone;
  }
  return yielded ? QuantumOutcome::kYield : QuantumOutcome::kMore;
}

// Deterministic makespan of greedy list scheduling: each job (a shard's
// whole step chain — chains are sequential and cannot be split across
// workers) goes to the earliest-free virtual worker, in submission order.
// This is what the pool's pull semantics converge to with one core per
// worker, so it models multi-core wall-clock while staying bit-identical
// across machines and runs.
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

// Phase 1: the deterministic generation + routing sweep, shared verbatim
// by the batch and pipelined paths — same seeded generators, same routing
// draws, same emission order, so the per-shard program streams are
// identical by construction and only *where* a program lands (the shard's
// materialized vector vs its admission queue) differs between modes.
// `cross_shard_txns` and `routed` are written only by the calling thread.
// Local transactions draw from one shard's entity pool; with probability
// cross_shard_fraction a transaction draws from the full universe. The
// authoritative routing decision is always the footprint hash. `emit`
// receives (shard, spans_shards, program); the xshard locks path diverts
// spanning programs to the global admission queue instead of a shard.
Status GenerateAndRoute(
    const ShardedOptions& options, std::uint32_t n,
    std::uint64_t* cross_shard_txns, std::vector<std::uint64_t>* routed,
    const std::function<void(std::uint32_t, bool, txn::Program)>& emit) {
  auto universes = ShardEntityUniverses(options.workload.num_entities, n);
  std::vector<std::uint32_t> populated;
  std::vector<std::unique_ptr<sim::WorkloadGenerator>> local(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (universes[s].empty()) continue;
    sim::WorkloadOptions w = options.workload;
    w.entity_universe = universes[s];
    local[s] = std::make_unique<sim::WorkloadGenerator>(
        w, DeriveShardSeed(options.seed, 0x10000u + s));
    populated.push_back(s);
  }
  sim::WorkloadGenerator global(options.workload,
                                DeriveShardSeed(options.seed, 0x20000u));
  Rng route_rng(DeriveShardSeed(options.seed, 0x30000u));
  // Hot-shard routing: home a local transaction where a global
  // Zipf-distributed entity draw lives, so load follows the hot keys'
  // placement instead of spreading uniformly.
  ZipfianGenerator home_zipf(options.workload.num_entities,
                             options.workload.zipf_theta);
  for (std::uint64_t t = 0; t < options.total_txns; ++t) {
    const bool want_cross = populated.empty() ||
                            route_rng.Bernoulli(options.cross_shard_fraction);
    sim::WorkloadGenerator* gen = &global;
    if (!want_cross) {
      std::uint32_t home = 0;
      if (options.hot_shard_routing) {
        home = dist::SiteOfEntity(EntityId(home_zipf.Next(route_rng)), n);
        if (local[home] == nullptr) {
          home = populated[route_rng.Uniform(populated.size())];
        }
      } else {
        home = populated[route_rng.Uniform(populated.size())];
      }
      gen = local[home].get();
    }
    auto program = gen->Next();
    if (!program.ok()) return program.status();
    const Route route =
        RouteProgram(program.value(), n, options.coordinator_shard, t);
    if (route.cross_shard) ++*cross_shard_txns;
    ++(*routed)[route.shard];
    emit(route.shard, route.cross_shard, std::move(program).value());
  }
  return Status::OK();
}

// Submits the shard's next quantum. The submitted task is the shard's
// ready token: a successor is only scheduled after the current quantum
// returns, so a shard can never run on two workers at once, while the
// task itself may be stolen onto any worker.
void ScheduleShard(SchedulerCtx* ctx, std::uint32_t shard,
                   bool yielded = false) {
  auto task = [ctx, shard] {
    const QuantumOutcome out = RunShardQuantum(*ctx->options, shard,
                                               (*ctx->runs)[shard], *ctx,
                                               ctx->QuantumFor(shard));
    const std::uint64_t q =
        ctx->quanta.fetch_add(1, std::memory_order_relaxed) + 1;
    if ((q & 31) == 0) ctx->RefreshSchedulerMetrics();
    if (out != QuantumOutcome::kDone) {
      ScheduleShard(ctx, shard, out == QuantumOutcome::kYield);
    }
  };
  // A yielded quantum made no progress and is waiting on the producer; it
  // must go to the global FIFO, not the worker's own LIFO deque, or the
  // worker would pop it right back and starve the sibling chains — one of
  // which may be the very shard the producer is blocked pushing to.
  if (yielded) {
    ctx->pool->SubmitGlobal(std::move(task));
  } else {
    ctx->pool->Submit(std::move(task));
  }
}

// Merged-history conflict-serializability (the global invariant): every
// shard's committed log, renamed into one key space. With a coordinator
// the slices of each global transaction fuse under its global sequence
// number; without one (the replica path) every transaction keeps a
// shard-qualified key and the check fails on replica divergence.
//
// One shard without a coordinator is its own verdict: one store publishes
// no version twice and LocalKey(0, .) is a bijection, so the merge would
// rebuild the same graph. Otherwise the shards' online certifier graphs
// are unioned (DESIGN D17); only when two shards touched one published
// entity (kReplica's divergence) does the merged event log get rebuilt.
bool CheckGlobalSerializability(const std::vector<ShardRun>& runs,
                                std::uint32_t n,
                                const xshard::Coordinator* coord) {
  if (n == 1 && coord == nullptr) return runs[0].result.serializable;
  std::vector<const analysis::HistoryRecorder*> recorders;
  std::vector<std::uint32_t> shard_of;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (runs[s].exec == nullptr) continue;
    recorders.push_back(&runs[s].exec->recorder);
    shard_of.push_back(s);
  }
  auto key_of = [&shard_of, coord](std::size_t i, TxnId txn) {
    const std::uint32_t s = shard_of[i];
    if (coord != nullptr) {
      if (auto g = coord->GlobalOf(s, txn); g.has_value()) {
        return analysis::GlobalHistory::GlobalKey(*g);
      }
    }
    return analysis::GlobalHistory::LocalKey(s, txn);
  };
  if (auto verdict = analysis::CertifyUnion(recorders, key_of)) {
    return *verdict;
  }
  analysis::GlobalHistory merged;
  for (std::size_t i = 0; i < recorders.size(); ++i) {
    for (const auto& c : recorders[i]->CommittedLog()) {
      merged.Add(key_of(i, c.txn), c.events);
    }
  }
  return merged.IsConflictSerializable();
}

// Runs the global check and prices the whole verdict step — every shard's
// own verdict plus the merge — as pardb_phase_seconds{phase="certify"}.
bool CertifyRun(const ShardedOptions& options,
                const std::vector<ShardRun>& runs, std::uint32_t n,
                const xshard::Coordinator* coord,
                obs::MetricsRegistry* sched_registry) {
  if (!options.check_serializability) return true;
  const std::uint64_t c0 = NowNanos();
  const bool verdict = CheckGlobalSerializability(runs, n, coord);
  std::uint64_t nanos = NowNanos() - c0;
  for (std::uint32_t s = 0; s < n; ++s) nanos += runs[s].certify_ns;
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
                           const std::vector<core::Engine*>& engines,
                           std::uint64_t epoch) {
  std::vector<const graph::Digraph*> graphs;
  graphs.reserve(engines.size());
  for (const core::Engine* e : engines) graphs.push_back(&e->waits_for());
  const xshard::MergedGraph merged = xshard::MergeWaitsFor(graphs, coord);
  obs::WaitsForSnapshot snap;
  snap.shard = 0;  // scope=global; the shard field is not meaningful here
  snap.step = epoch;
  snap.commits = coord.stats().global_commits;
  std::map<graph::VertexId, bool> waits;  // vertex -> has an incoming wait
  for (const xshard::MergedEdge& e : merged.edges) {
    snap.arcs.push_back(obs::WaitsForArc{TxnId(e.to), TxnId(e.from), e.entity});
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
  snap.acyclic = merged.graph.IsAcyclic();
  snap.forest = merged.graph.IsForest();
  hub->PublishGlobalSnapshot(std::move(snap));
}

// The kLocks execution path: epochs of a single-threaded coordinate phase
// (2PC polling, admission, union merge + distributed partial rollback)
// followed by one parallel quantum per shard. Epoch content is a pure
// function of the options and each shard's deterministic state, so the
// report is bit-identical across runs and worker counts.
Result<ShardedReport> RunShardedLocks(const ShardedOptions& options) {
  const std::uint32_t n = options.num_shards;
  std::vector<ShardRun> runs(n);
  ShardedReport report;
  report.num_shards = n;
  report.xshard_locks = true;
  // Phase 1 always runs in batch mode here: the coordinate phase admits
  // from materialized queues, which is what makes every epoch's admission
  // deterministic. (Streaming admission would tie epoch content to
  // producer timing.)
  report.admission.pipelined = false;
  report.admission.queue_capacity = 0;

  const std::uint32_t base = options.concurrency / n;
  const std::uint32_t rem = options.concurrency % n;
  for (std::uint32_t s = 0; s < n; ++s) {
    runs[s].concurrency = std::max<std::uint32_t>(1, base + (s < rem ? 1 : 0));
  }

  obs::MetricsRegistry sched_local;
  obs::MetricsRegistry* sched_registry = nullptr;
  if (options.hub != nullptr && options.instrument) {
    for (std::uint32_t s = 0; s < n; ++s) {
      runs[s].registry = options.hub->AddOwnedRegistry(
          std::make_unique<obs::MetricsRegistry>());
    }
    sched_registry = options.hub->AddOwnedRegistry(
        std::make_unique<obs::MetricsRegistry>());
  } else if (options.instrument) {
    sched_registry = &sched_local;
  }
  if (options.hub != nullptr) {
    for (std::uint32_t s = 0; s < n; ++s) {
      runs[s].hub_sink = options.hub->MakeDeadlockSink(s);
    }
    options.hub->SetPhase(obs::RunPhase::kGenerating);
  }

  // Phase 1: generation + routing, spanning programs diverted to the
  // global admission queue (in generation order — their ω order).
  std::vector<std::uint64_t> routed(n, 0);
  std::uint64_t cross_txns = 0;
  std::vector<txn::Program> globals;
  const std::uint64_t g0 = NowNanos();
  Status gen = GenerateAndRoute(
      options, n, &cross_txns, &routed,
      [&runs, &globals](std::uint32_t shard, bool cross,
                        txn::Program program) {
        if (cross) {
          globals.push_back(std::move(program));
        } else {
          runs[shard].programs.push_back(std::move(program));
        }
      });
  if (!gen.ok()) return gen;
  report.admission.generate_seconds = Seconds(NowNanos() - g0);
  report.admission.peak_materialized_programs = options.total_txns;
  report.cross_shard_txns = cross_txns;
  if (options.hub != nullptr) options.hub->SetPhase(obs::RunPhase::kRunning);

  // Shard engines, built up front on this thread (their seeds and state
  // never depend on construction order, but serial init keeps the hub
  // registration story identical to the replica path).
  for (std::uint32_t s = 0; s < n; ++s) InitShardExec(options, s, runs[s]);
  std::vector<core::Engine*> engines;
  engines.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    engines.push_back(runs[s].exec->engine.get());
  }

  // Coordinator decision journal: global admits, lock-point releases,
  // retires, global cycles and distributed-rollback victims, plus one
  // kTwoPC checksum stamp per merge round folding every shard's state
  // digest. Published to the hub as pseudo-shard n.
  obs::DecisionJournal coord_journal(obs::DecisionJournal::Options{
      options.journal_out.empty() ? std::size_t{65536} : std::size_t{0}});
  if (options.journal && sched_registry != nullptr) {
    coord_journal.AttachMetrics(sched_registry,
                                {{obs::kShardLabel, "coord"}});
  }

  xshard::Coordinator::Options copt;
  copt.num_shards = n;
  copt.max_active_globals =
      std::max<std::uint32_t>(1, options.xshard_max_active_globals);
  if (sched_registry != nullptr) {
    copt.prepare_ns = sched_registry->GetHistogram(obs::kXShardPrepareNs);
    copt.resolve_ns = sched_registry->GetHistogram(obs::kXShardResolveNs);
  }
  if (options.journal) copt.journal = &coord_journal;
  xshard::Coordinator coord(engines, copt);

  const std::uint64_t epoch_steps =
      std::max<std::uint64_t>(1, options.xshard_epoch_steps);
  const std::uint64_t merge_period =
      std::max<std::uint64_t>(1, options.xshard_merge_period);
  std::vector<std::uint64_t> next_local(n, 0);
  std::vector<std::uint64_t> spawned_local(n, 0);
  std::size_t next_global = 0;
  std::uint64_t epoch = 0;
  int zero_epochs = 0;
  bool completed = true;
  Status run_status = Status::OK();

  const std::size_t workers =
      options.num_threads == 0 ? n : options.num_threads;
  const std::uint64_t e0 = NowNanos();
  {
    StealingPool pool(workers);
    std::vector<std::uint64_t> epoch_shard_steps(n, 0);
    for (;; ++epoch) {
      // ---- Coordinate (single-threaded; every engine is quiescent) ----
      auto polled = coord.Poll();
      if (!polled.ok()) {
        run_status = polled.status();
        break;
      }
      std::uint64_t progress = polled.value();
      // Local admission: top each shard's level up from its queue. Slice
      // commits are subtracted out so subs never consume local slots.
      for (std::uint32_t s = 0; s < n && run_status.ok(); ++s) {
        const std::uint64_t local_commits =
            engines[s]->metrics().commits - coord.sub_commits_on(s);
        std::uint64_t live_locals = spawned_local[s] - local_commits;
        while (next_local[s] < runs[s].programs.size() &&
               live_locals < runs[s].concurrency) {
          auto id =
              engines[s]->Spawn(std::move(runs[s].programs[next_local[s]]));
          if (!id.ok()) {
            run_status = id.status();
            break;
          }
          ++next_local[s];
          ++spawned_local[s];
          ++live_locals;
          ++progress;
        }
      }
      if (!run_status.ok()) break;
      // Global admission, in ω order.
      while (next_global < globals.size() && coord.CanAdmit()) {
        auto seq = coord.Admit(std::move(globals[next_global]));
        if (!seq.ok()) {
          run_status = seq.status();
          break;
        }
        ++next_global;
        ++progress;
      }
      if (!run_status.ok()) break;
      // Union merge + distributed partial rollback: on the configured
      // cadence, and forced after a zero-progress epoch — the only benign
      // reason nothing moved is a global cycle awaiting the next merge.
      if (epoch % merge_period == 0 || zero_epochs > 0) {
        auto merged = coord.MergeAndResolve();
        if (!merged.ok()) {
          run_status = merged;
          break;
        }
        // 2PC-epoch checksum: every engine is quiescent in the coordinate
        // phase, so folding the shard state digests here is deterministic
        // (a pure function of the options and the epoch ordinal).
        if (options.journal) {
          std::uint64_t fold = obs::kFnvOffsetBasis;
          for (std::uint32_t s = 0; s < n; ++s) {
            fold = obs::FnvMix64(fold, engines[s]->StateDigest());
          }
          coord_journal.StampEpoch(epoch, fold, obs::EpochKind::kTwoPC);
        }
        if (options.hub != nullptr) {
          PublishGlobalWaitsFor(options.hub, coord, engines, epoch);
          for (std::uint32_t s = 0; s < n; ++s) {
            obs::WaitsForSnapshot snap = engines[s]->SnapshotWaitsFor();
            snap.shard = s;
            options.hub->PublishSnapshot(std::move(snap));
            // Coordinate phase: every engine (and its book) is quiescent,
            // so the single-threaded digest is safe here.
            if (options.txnlife) {
              options.hub->PublishTxnLife(runs[s].exec->txnlife.Digest(s));
            }
            if (options.journal) {
              options.hub->PublishJournal(runs[s].exec->journal.Digest(s));
            }
          }
          if (options.journal) {
            options.hub->PublishJournal(coord_journal.Digest(n));
          }
        }
      }
      // Termination: everything admitted, every global retired, every
      // engine drained.
      bool done = next_global == globals.size() && coord.AllDone();
      for (std::uint32_t s = 0; done && s < n; ++s) {
        done = next_local[s] == runs[s].programs.size() &&
               engines[s]->live_txn_count() == 0;
      }
      if (done) break;
      bool budget_left = false;
      for (std::uint32_t s = 0; s < n; ++s) {
        budget_left =
            budget_left || runs[s].exec->steps < options.max_steps_per_shard;
      }
      if (!budget_left) {
        completed = false;
        break;
      }
      // ---- Step (parallel): one bounded quantum per shard ----
      for (std::uint32_t s = 0; s < n; ++s) {
        epoch_shard_steps[s] = 0;
        ShardExec& ex = *runs[s].exec;
        if (ex.steps >= options.max_steps_per_shard ||
            engines[s]->live_txn_count() == 0) {
          continue;
        }
        const std::uint64_t budget = std::min(
            epoch_steps, options.max_steps_per_shard - ex.steps);
        obs::LiveHub* hub = options.hub;
        pool.Submit([s, budget, hub, &runs, &engines, &epoch_shard_steps] {
          // ran_dry is routine here (a shard whose transactions all wait
          // on another shard has nothing to do this epoch); real stalls
          // are caught by the zero-progress counter below.
          const std::uint64_t t0 = NowNanos();
          auto q = engines[s]->StepQuantum(budget, /*stop_after_commit=*/false);
          if (!q.ok()) {
            runs[s].status = q.status();
            return;
          }
          epoch_shard_steps[s] = q.value().steps;
          runs[s].exec->steps += q.value().steps;
          // Feed the hub's skew EWMAs (wall clock: gauges only, never the
          // deterministic report).
          if (hub != nullptr && q.value().steps > 0) {
            hub->RecordShardStep(s, (NowNanos() - t0) / q.value().steps);
          }
        });
      }
      pool.Wait();
      for (std::uint32_t s = 0; s < n; ++s) {
        if (!runs[s].status.ok()) run_status = runs[s].status;
        progress += epoch_shard_steps[s];
      }
      if (!run_status.ok()) break;
      if (progress == 0) {
        // One grace epoch: the first zero-progress epoch forces a merge
        // above; a second in a row means nothing can ever move again.
        if (++zero_epochs >= 2) {
          std::ostringstream os;
          os << "xshard run stalled at epoch " << epoch << " ("
             << coord.active() << " globals in flight)";
          for (std::uint32_t s = 0; s < n; ++s) {
            os << "\n--- shard " << s << " ---\n" << engines[s]->DumpState();
          }
          run_status = Status::Internal(os.str());
          break;
        }
      } else {
        zero_epochs = 0;
      }
    }
    if (run_status.ok()) {
      // Observe the final slice commits (the loop may exit right after the
      // step phase that committed them).
      auto polled = coord.Poll();
      if (!polled.ok()) run_status = polled.status();
    }
    report.scheduler.num_workers = pool.num_threads();
    report.scheduler.steals = pool.steals();
    report.scheduler.quanta = epoch * n;
    const std::uint64_t up = pool.uptime_nanos();
    if (up > 0) {
      double sum = 0.0, lo = 1.0;
      for (std::size_t w = 0; w < pool.num_threads(); ++w) {
        const double u =
            static_cast<double>(pool.busy_nanos(w)) / static_cast<double>(up);
        sum += u;
        lo = std::min(lo, u);
      }
      report.scheduler.mean_worker_utilization =
          sum / static_cast<double>(pool.num_threads());
      report.scheduler.min_worker_utilization = lo;
    }
  }
  report.admission.execute_seconds = Seconds(NowNanos() - e0);
  if (!run_status.ok()) return run_status;
  if (options.hub != nullptr) {
    options.hub->SetPhase(obs::RunPhase::kAggregating);
  }

  report.xshard = coord.stats();
  report.xshard.epochs = epoch;
  if (options.journal) {
    report.coord_journal_chain = coord_journal.ChainValues();
    if (options.hub != nullptr) {
      options.hub->PublishJournal(coord_journal.Digest(n));
    }
    if (!options.journal_out.empty()) {
      PARDB_RETURN_IF_ERROR(coord_journal.WriteFile(
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
    auto PhaseGauge = [&sched_registry](const char* phase) {
      return sched_registry->GetGauge(obs::kPhaseSeconds,
                                      {{obs::kPhaseLabel, phase}});
    };
    PhaseGauge("generate")->Set(static_cast<std::int64_t>(
        report.admission.generate_seconds * 1000.0));
    PhaseGauge("execute")->Set(static_cast<std::int64_t>(
        report.admission.execute_seconds * 1000.0));
  }

  std::vector<std::uint32_t> merged_costs;
  for (std::uint32_t s = 0; s < n; ++s) {
    FinishShard(options, s, runs[s], completed);
    if (!runs[s].status.ok()) return runs[s].status;
    runs[s].result.assigned = routed[s];
    report.shards.push_back(runs[s].result);
    merged_costs.insert(merged_costs.end(), runs[s].cost_samples.begin(),
                        runs[s].cost_samples.end());
    report.metrics.MergeFrom(runs[s].metrics);
    if (options.collect_traces) {
      report.shard_traces.push_back(std::move(runs[s].trace_events));
    }
    for (obs::DeadlockDump& d : runs[s].forensics) {
      report.forensics.push_back(std::move(d));
    }
  }
  if (options.collect_traces) {
    // Slice index for the Chrome trace's flow arrows: one entry per slice
    // the coordinator ever spawned, under its global sequence number.
    for (const auto& [key, seq] : coord.sub_index()) {
      report.flow_slices.push_back(
          core::GlobalSlice{seq, key.first, key.second});
    }
  }
  const bool global_serializable =
      CertifyRun(options, runs, n, &coord, sched_registry);
  if (sched_registry != nullptr) {
    report.metrics.MergeFrom(sched_registry->Snapshot());
  }
  if (options.instrument) {
    report.merged_metrics = report.metrics.WithoutLabel("shard");
  }
  report.aggregate = SumMetrics(report.shards);
  SumLedgers(report);
  report.rollback_costs =
      core::ComputeCostDistribution(std::move(merged_costs));
  // Whole transactions: a global's slices collapse into one commit.
  report.committed = report.aggregate.commits - report.xshard.sub_commits +
                     report.xshard.global_commits;
  for (const ShardResult& s : report.shards) {
    report.completed = report.completed && s.completed;
    report.serializable = report.serializable && s.serializable;
  }
  std::uint64_t routed_total = 0;
  for (std::uint64_t r : routed) routed_total += r;
  report.cross_shard_fraction = SafeRatio(report.cross_shard_txns, routed_total);
  report.wasted_fraction =
      SafeRatio(report.aggregate.wasted_ops, report.aggregate.ops_executed);
  report.goodput = SafeRatio(report.committed, report.aggregate.ops_executed);
  report.global_serializable = global_serializable;
  report.serializable = report.serializable && global_serializable;
  if (options.hub != nullptr) options.hub->SetPhase(obs::RunPhase::kDone);
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
  if (options.xshard == XShardMode::kLocks && options.num_shards > 1) {
    // Distributed partial rollback rides on the detection machinery (the
    // union merge extends it across shards); the other handling modes have
    // no notion of an externally chosen victim.
    if (options.engine.handling != core::DeadlockHandling::kDetection) {
      return Status::InvalidArgument(
          "xshard=locks requires engine.handling == kDetection");
    }
    return RunShardedLocks(options);
  }
  const std::uint32_t n = options.num_shards;

  std::vector<ShardRun> runs(n);
  ShardedReport report;
  report.num_shards = n;
  const std::size_t queue_capacity =
      std::max<std::size_t>(1, options.admission_queue_capacity);
  report.admission.pipelined = options.pipeline;
  report.admission.queue_capacity = options.pipeline ? queue_capacity : 0;

  // Multiprogramming level: split over shards, at least 1 each. Needed
  // before phase 1 now — pipelined consumers start while it runs.
  const std::uint32_t base = options.concurrency / n;
  const std::uint32_t rem = options.concurrency % n;
  for (std::uint32_t s = 0; s < n; ++s) {
    runs[s].concurrency = std::max<std::uint32_t>(1, base + (s < rem ? 1 : 0));
  }

  // Live introspection: hand each shard a hub-owned registry and a ring
  // sink *before* the pool starts (hub registration is not safe mid-run),
  // so the serving thread scrapes live counters while shards execute.
  obs::MetricsRegistry sched_local;
  obs::MetricsRegistry* sched_registry = nullptr;
  if (options.hub != nullptr && options.instrument) {
    for (std::uint32_t s = 0; s < n; ++s) {
      runs[s].registry =
          options.hub->AddOwnedRegistry(std::make_unique<obs::MetricsRegistry>());
    }
    sched_registry =
        options.hub->AddOwnedRegistry(std::make_unique<obs::MetricsRegistry>());
  } else if (options.instrument) {
    sched_registry = &sched_local;
  }
  if (options.hub != nullptr) {
    for (std::uint32_t s = 0; s < n; ++s) {
      runs[s].hub_sink = options.hub->MakeDeadlockSink(s);
    }
  }

  // Phase 1: generation + routing. Batch mode runs the sweep serially up
  // front (the legacy design the pipeline is measured against); pipelined
  // mode defers it to a producer thread that overlaps with phase 2,
  // feeding per-shard bounded queues created here.
  std::vector<std::uint64_t> routed(n, 0);
  std::uint64_t cross_txns = 0;
  AdmissionShared admission_shared;
  Status producer_status = Status::OK();
  double generate_seconds = 0.0;
  std::thread producer;
  if (!options.pipeline) {
    if (options.hub != nullptr) {
      options.hub->SetPhase(obs::RunPhase::kGenerating);
    }
    const std::uint64_t g0 = NowNanos();
    Status gen = GenerateAndRoute(
        options, n, &cross_txns, &routed,
        [&runs](std::uint32_t shard, bool, txn::Program program) {
          runs[shard].programs.push_back(std::move(program));
        });
    if (!gen.ok()) return gen;
    generate_seconds = Seconds(NowNanos() - g0);
    // Everything exists at once before any engine runs.
    report.admission.peak_materialized_programs = options.total_txns;
  } else {
    for (std::uint32_t s = 0; s < n; ++s) {
      runs[s].queue = std::make_unique<AdmissionQueue>(queue_capacity);
      runs[s].queue->set_materialized_counter(&admission_shared.materialized);
      if (sched_registry != nullptr) {
        runs[s].queue->set_depth_gauge(sched_registry->GetGauge(
            obs::kAdmissionQueueDepth,
            {{obs::kShardLabel, std::to_string(s)}}));
      }
    }
  }
  if (options.hub != nullptr) options.hub->SetPhase(obs::RunPhase::kRunning);

  // Phase 2 (parallel): each shard advances as a chain of quantum tasks on
  // a work-stealing pool (one chain link in flight per shard — the ready
  // token). Pool Wait gives the aggregation phase a happens-before edge
  // over every quantum.
  const std::size_t workers =
      options.num_threads == 0 ? n : options.num_threads;
  const std::uint64_t e0 = NowNanos();
  {
    StealingPool pool(workers);
    SchedulerCtx ctx;
    ctx.options = &options;
    ctx.runs = &runs;
    ctx.pool = &pool;
    ctx.num_shards = n;
    ctx.ewma_ns =
        std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::uint32_t s = 0; s < n; ++s) {
      ctx.ewma_ns[s].store(0, std::memory_order_relaxed);
    }
    if (sched_registry != nullptr) {
      ctx.quantum_hist = sched_registry->GetHistogram(obs::kQuantumSteps);
      ctx.steals_counter = sched_registry->GetCounter(obs::kStealsTotal);
      for (std::size_t w = 0; w < pool.num_threads(); ++w) {
        ctx.util_gauges.push_back(sched_registry->GetGauge(
            obs::kWorkerUtilization,
            {{obs::kWorkerLabel, std::to_string(w)}}));
      }
    }
    if (options.pipeline) {
      // The producer is phase 1, running concurrently with the pool. It
      // pushes every routed program in generation order (blocking on full
      // queues — backpressure) and then delivers the end-of-stream token
      // to every shard, on every exit path: a consumer waits for its token
      // even when generation failed, and a dead consumer's queue is
      // abandoned rather than blocking, so neither side can wedge the
      // other.
      producer = std::thread([&options, &runs, &routed, &cross_txns,
                              &admission_shared, &producer_status,
                              &generate_seconds, n] {
        const std::uint64_t g0 = NowNanos();
        Status gen = GenerateAndRoute(
            options, n, &cross_txns, &routed,
            [&runs, &admission_shared](std::uint32_t shard, bool,
                                       txn::Program program) {
              const std::int64_t now =
                  admission_shared.materialized.fetch_add(
                      1, std::memory_order_relaxed) +
                  1;
              if (now >
                  admission_shared.peak.load(std::memory_order_relaxed)) {
                admission_shared.peak.store(now, std::memory_order_relaxed);
              }
              runs[shard].queue->Push(std::move(program));
            });
        for (std::uint32_t s = 0; s < n; ++s) runs[s].queue->Close();
        producer_status = std::move(gen);
        generate_seconds = Seconds(NowNanos() - g0);
      });
    }
    // Submission order is the scheduler's list order. kRunToCompletion
    // keeps shard order (the legacy driver's semantics, and the skew
    // pathology: a heavy late shard starts only after a light wave).
    // Batch kTimeSlice submits longest-assigned-first — routing already
    // told us each shard's work, so this is LPT list scheduling, with
    // stealing absorbing whatever per-transaction variance LPT cannot see.
    // Pipelined mode cannot know assignments up front (programs is empty,
    // so the sort is a stable no-op and shards submit in shard order);
    // stealing plus time-slicing carries the load balancing alone. Order
    // never affects report contents, only wall-clock.
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t s = 0; s < n; ++s) order[s] = s;
    if (options.scheduler == ShardScheduler::kTimeSlice) {
      std::stable_sort(order.begin(), order.end(),
                       [&runs](std::uint32_t a, std::uint32_t b) {
                         return runs[a].programs.size() >
                                runs[b].programs.size();
                       });
    }
    for (std::uint32_t s : order) ScheduleShard(&ctx, s);
    pool.Wait();
    if (producer.joinable()) producer.join();
    ctx.RefreshSchedulerMetrics();

    std::vector<std::uint64_t> step_costs(n);
    for (std::uint32_t s = 0; s < n; ++s) {
      step_costs[s] = runs[s].result.metrics.steps;
    }
    report.scheduler.virtual_makespan_steps =
        VirtualMakespanSteps(step_costs, order, workers);
    report.scheduler.num_workers = pool.num_threads();
    report.scheduler.steals = pool.steals();
    report.scheduler.quanta = ctx.quanta.load(std::memory_order_relaxed);
    const std::uint64_t up = pool.uptime_nanos();
    if (up > 0) {
      double sum = 0.0, lo = 1.0;
      for (std::size_t w = 0; w < pool.num_threads(); ++w) {
        const double u =
            static_cast<double>(pool.busy_nanos(w)) / static_cast<double>(up);
        sum += u;
        lo = std::min(lo, u);
      }
      report.scheduler.mean_worker_utilization =
          sum / static_cast<double>(pool.num_threads());
      report.scheduler.min_worker_utilization = lo;
    }
  }
  const double execute_seconds = Seconds(NowNanos() - e0);
  if (!producer_status.ok()) return producer_status;
  if (options.hub != nullptr) {
    options.hub->SetPhase(obs::RunPhase::kAggregating);
  }

  report.cross_shard_txns = cross_txns;
  report.admission.generate_seconds = generate_seconds;
  report.admission.execute_seconds = execute_seconds;
  if (options.pipeline) {
    report.admission.peak_materialized_programs =
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, admission_shared.peak.load(std::memory_order_relaxed)));
    // Deterministic overlap lower bound: shard s's program j >= capacity
    // can only be pushed after program j - capacity was popped, i.e. after
    // execution on s began, so at least routed[s] - capacity of its
    // generation work overlapped with phase 2.
    std::uint64_t overlapped = 0;
    std::uint64_t blocked = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      overlapped +=
          routed[s] > queue_capacity ? routed[s] - queue_capacity : 0;
      blocked += runs[s].queue->blocked_pushes();
    }
    report.admission.producer_blocked_pushes = blocked;
    report.admission.overlap_fraction =
        SafeRatio(overlapped, options.total_txns);
  }
  if (sched_registry != nullptr) {
    auto PhaseGauge = [&sched_registry](const char* phase) {
      return sched_registry->GetGauge(obs::kPhaseSeconds,
                                      {{obs::kPhaseLabel, phase}});
    };
    // Gauges are integral, so seconds are scaled by 1000 (milliseconds) —
    // the pardb_worker_utilization convention.
    PhaseGauge("generate")
        ->Set(static_cast<std::int64_t>(generate_seconds * 1000.0));
    PhaseGauge("execute")
        ->Set(static_cast<std::int64_t>(execute_seconds * 1000.0));
    sched_registry->GetGauge(obs::kOverlapFraction)
        ->Set(static_cast<std::int64_t>(
            report.admission.overlap_fraction * 1000.0));
    sched_registry->GetCounter(obs::kAdmissionBlockedTotal)
        ->Inc(report.admission.producer_blocked_pushes);
  }

  const std::uint64_t a0 = NowNanos();
  std::vector<std::uint32_t> merged_costs;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!runs[s].status.ok()) return runs[s].status;
    runs[s].result.assigned = routed[s];
    report.shards.push_back(runs[s].result);
    merged_costs.insert(merged_costs.end(), runs[s].cost_samples.begin(),
                        runs[s].cost_samples.end());
    report.metrics.MergeFrom(runs[s].metrics);
    if (options.collect_traces) {
      report.shard_traces.push_back(std::move(runs[s].trace_events));
    }
    for (obs::DeadlockDump& d : runs[s].forensics) {
      report.forensics.push_back(std::move(d));
    }
  }
  const std::uint64_t aggregate_ns = NowNanos() - a0;
  report.global_serializable =
      CertifyRun(options, runs, n, /*coord=*/nullptr, sched_registry);
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
  SumLedgers(report);
  report.rollback_costs = core::ComputeCostDistribution(std::move(merged_costs));
  report.committed = report.aggregate.commits;
  for (const ShardResult& s : report.shards) {
    report.completed = report.completed && s.completed;
    report.serializable = report.serializable && s.serializable;
  }
  // Denominator: what routing actually processed, not the requested total
  // — the two differ when admission aborts early (abandoned queues).
  std::uint64_t routed_total = 0;
  for (std::uint64_t r : routed) routed_total += r;
  report.cross_shard_fraction = SafeRatio(report.cross_shard_txns, routed_total);
  report.wasted_fraction =
      SafeRatio(report.aggregate.wasted_ops, report.aggregate.ops_executed);
  report.goodput =
      SafeRatio(report.committed, report.aggregate.ops_executed);
  if (options.hub != nullptr) options.hub->SetPhase(obs::RunPhase::kDone);
  return report;
}

}  // namespace pardb::par
