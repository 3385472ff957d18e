#ifndef PARDB_PAR_SHARDED_DRIVER_H_
#define PARDB_PAR_SHARDED_DRIVER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/trace.h"
#include "core/trace_export.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/serve/hub.h"
#include "obs/txnlife.h"
#include "par/xshard/coordinator.h"
#include "sim/workload.h"

namespace pardb::par {

// Sharded parallel execution: the first step from the paper's
// single-threaded model toward multi-core execution. A generated workload
// is partitioned by entity-footprint hash (dist::SiteOfEntity) into N
// independent core::Engine shards; each shard is a complete engine —
// store, lock manager, waits-for graph, rollback machinery — that stays
// single-threaded and deterministic under its own derived seed, and the
// shards run concurrently as quantum chains on a work-stealing
// StealingPool. A transaction whose footprint spans shards is routed to
// one designated coordinator shard, so no engine is ever touched by two
// threads and no locking is added to the engine itself.
//
// The model matches §3.3's observation: conflicts confined to one site
// are cheap, and only cross-site transactions need coordination. How a
// cross-shard transaction is coordinated is XShardMode's choice: the
// default (kLocks) splits it into per-shard sub-transactions that really
// lock their slices on their home shards, with a union-of-forests merge
// detecting global deadlocks and removing them by distributed partial
// rollback (DESIGN D12) — serializability is then a *global* property,
// checked over the merged commit log. The legacy mode (kReplica) keeps
// the old shortcut — the coordinator executes cross-shard transactions
// against its own replica — which is measurably non-serializable across
// shards and is retained as the regression baseline.

// How shard work is laid onto worker threads.
enum class ShardScheduler {
  // One run-to-completion task per shard: a worker picks a shard and keeps
  // it until it finishes. Simple, but under load skew the hottest shard
  // pins one worker while the rest go idle once the light shards drain.
  kRunToCompletion,
  // Cooperative time-slicing on a work-stealing pool: each shard advances
  // in bounded quanta (at most quantum_steps engine steps), each quantum is
  // one task, and a shard's next quantum is submitted only after the
  // previous one returns — the in-flight task is the shard's ready token,
  // so no engine is ever touched by two threads. Idle workers steal queued
  // quanta, so shards migrate between workers and oversharding
  // (num_shards > num_threads) load-balances instead of queueing. Because
  // a shard's step sequence is independent of where its quanta run, the
  // report stays bit-identical to kRunToCompletion.
  kTimeSlice,
};

// How shard-spanning transactions execute.
enum class XShardMode {
  // Genuine distributed execution: per-shard sub-transactions under one
  // global ω position, global cycles removed by distributed partial
  // rollback. Requires engine.handling == kDetection, runs phase 1 in
  // batch mode (pipeline is ignored), and drives the shards in epochs —
  // a single-threaded coordinate step followed by a parallel quantum per
  // shard — so the report is bit-identical across worker counts.
  kLocks,
  // Legacy shortcut: the coordinator shard executes cross-shard
  // transactions against its own full replica. Fast, but globally
  // non-serializable (the replica's writes diverge from the home
  // shards'); kept for comparison and as the regression witness.
  kReplica,
};

struct ShardedOptions {
  std::uint32_t num_shards = 4;
  // Shard that executes cross-shard transactions (must be < num_shards).
  std::uint32_t coordinator_shard = 0;
  // Cross-shard execution mode (see XShardMode). With a single shard the
  // modes coincide and the driver uses the plain path.
  XShardMode xshard = XShardMode::kLocks;
  // kLocks epoch shape: engine steps per shard per epoch, union-merge
  // cadence in epochs, and the cap on globals concurrently in flight. All
  // three are part of the deterministic report's identity.
  std::uint64_t xshard_epoch_steps = 256;
  std::uint64_t xshard_merge_period = 1;
  std::uint32_t xshard_max_active_globals = 8;
  // Template for every shard's engine; engine.seed is overridden with
  // DeriveShardSeed(seed, shard).
  core::EngineOptions engine;
  sim::WorkloadOptions workload;
  // Fraction of generated transactions drawn from the full entity universe
  // (these typically span shards and land on the coordinator); the rest
  // draw their footprint from a single shard's entity pool. The *actual*
  // cross-shard fraction is measured by routing and reported.
  double cross_shard_fraction = 0.05;
  // Total multiprogramming level, split as evenly as possible over shards
  // (every shard gets at least 1).
  std::uint32_t concurrency = 16;
  std::uint64_t total_txns = 400;
  std::uint64_t max_steps_per_shard = 20'000'000;
  std::uint64_t seed = 1;
  // Worker threads; 0 means one per shard.
  std::size_t num_threads = 0;
  bool check_serializability = true;
  Value initial_value = 100;

  // Scheduling. None of these affect the report's contents (shard step
  // sequences are quantum-invariant) — only wall-clock behaviour.
  ShardScheduler scheduler = ShardScheduler::kTimeSlice;
  // kTimeSlice: upper bound on engine steps per quantum.
  std::uint64_t quantum_steps = 256;
  // kTimeSlice: scale each shard's quantum by mean/own of the online
  // per-shard step-time EWMAs, so hot shards (slow steps) run shorter
  // quanta and return to the queue while stealable work is still
  // available. Clamped to [min_quantum_steps, quantum_steps].
  bool adaptive_quantum = true;
  std::uint64_t min_quantum_steps = 32;

  // Streaming admission (pipelined phase 1): generation + routing run on a
  // producer thread that feeds per-shard bounded SPSC queues while shard
  // quanta execute, so the formerly-serial phase 1 overlaps with phase 2.
  // The producer blocks when a shard's queue is full (backpressure bounds
  // materialized-but-unadmitted programs to num_shards *
  // admission_queue_capacity) and closes every queue when the sweep ends
  // (the end-of-stream token); a shard whose queue is drained-but-open
  // yields its quantum instead of stepping, which is exactly what keeps
  // the report byte-identical to the batch path (see DESIGN D11): a shard
  // steps only when its multiprogramming level is topped up or the stream
  // has ended, the same rule the batch refill loop enforces.
  bool pipeline = true;
  std::size_t admission_queue_capacity = 32;  // clamped to >= 1

  // Workload skew: when true, a shard-local transaction's home shard is
  // the home of an entity drawn Zipf(workload.zipf_theta)-distributed from
  // the full universe, so traffic concentrates on the shards that own the
  // hot keys (the hot-key skew regime work stealing targets). When false
  // (default), local transactions spread uniformly over populated shards.
  // zipf_theta = 0 makes both modes uniform.
  bool hot_shard_routing = false;

  // Telemetry. With `instrument`, every shard engine runs fully probed
  // against a private registry labeled {{"shard","k"}}; the snapshots land
  // in ShardedReport::metrics (per-shard) and merged_metrics (labels folded
  // out). Timings never enter ShardedReportToJson, which determinism tests
  // compare byte-for-byte.
  bool instrument = true;
  // Per-transaction lifecycle timelines (DESIGN D13): one TxnLifeBook per
  // shard engine, stamped on the shard's own thread, digested to the hub at
  // snapshot cadence. Drives the per-cause wasted-work ledger, the latency
  // component histograms and the /debug/txn endpoints. Off only for
  // overhead measurements.
  bool txnlife = true;
  // Decision journal (DESIGN D14): one DecisionJournal per shard engine,
  // recording every schedule-relevant decision plus an epoch checksum
  // chain at engine.journal_epoch_steps cadence; the kLocks path adds a
  // coordinator journal with a 2PC-epoch stamp per merge round. Off only
  // for overhead measurements.
  bool journal = true;
  // Non-empty: record with unbounded rings and write each shard's journal
  // binary to "<journal_out>.shard<k>.jrnl" (kLocks adds
  // "<journal_out>.coord.jrnl") at the end — the `pardb journal` recording
  // mode.
  std::string journal_out;
  // Test hook: perturb every shard journal's state digest at this epoch
  // ordinal (~0 = off), simulating an ω-order drift for bisection tests.
  std::uint64_t journal_perturb_epoch = ~0ULL;
  // Retain each shard's full trace-event stream (for Chrome/JSONL export).
  bool collect_traces = false;
  // Keep deadlock forensic dumps, up to max_forensics_dumps per shard.
  bool collect_forensics = false;
  std::size_t max_forensics_dumps = 16;

  // Live introspection rendezvous (see obs::LiveHub; borrowed, must outlive
  // the run). When set and `instrument` is on, each shard's registry is
  // owned by the hub and registered before the pool starts, so an HTTP
  // server scraping the hub sees live counters while the run is in flight;
  // shards additionally publish waits-for snapshots at step boundaries
  // (every `hub_snapshot_period` steps and once at the end), feed the
  // per-shard step-time EWMAs behind pardb_shard_load_skew, and route
  // deadlock dumps into the hub's ring. nullptr: no live introspection, no
  // extra work on the step loop.
  obs::LiveHub* hub = nullptr;
  std::uint64_t hub_snapshot_period = 512;  // rounded up to a power of two
};

// Deterministic per-shard seed: shards must not share RNG streams, and the
// assignment must not depend on thread scheduling.
std::uint64_t DeriveShardSeed(std::uint64_t seed, std::uint32_t shard);

struct ShardResult {
  std::uint32_t shard = 0;
  std::uint64_t assigned = 0;  // transactions routed to this shard
  std::uint64_t committed = 0;
  bool completed = true;
  bool serializable = true;
  core::EngineMetrics metrics;
  core::CostDistribution rollback_costs;
  // Per-cause wasted-work ledger from the shard's lifecycle book (all zero
  // when ShardedOptions::txnlife is off). Excluded from ShardedReportToJson
  // — live visibility goes through pardb_wasted_steps_total{cause}.
  std::array<std::uint64_t, obs::kNumRollbackCauses> wasted_by_cause{};
  std::array<std::uint64_t, obs::kNumRollbackCauses> rollbacks_by_cause{};
  // Decision-journal epoch checksum chain and totals (empty/zero when
  // ShardedOptions::journal is off). Excluded from ShardedReportToJson —
  // the chain is what determinism tests compare across schedulers and
  // worker counts, never part of the byte-compared report.
  std::vector<std::uint64_t> journal_chain;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_dropped = 0;
};

// How the run was scheduled onto workers. Timing-dependent by nature, so
// it is excluded from ShardedReportToJson and ToString (which determinism
// tests byte-compare); it still lands in the metrics registry
// (pardb_steals_total, pardb_worker_utilization, pardb_quantum_steps).
struct SchedulerStats {
  std::size_t num_workers = 0;
  std::uint64_t steals = 0;   // quanta executed on a non-owning worker
  std::uint64_t quanta = 0;   // scheduling tasks executed in total
  // busy/wall per worker, then averaged / min'd over workers.
  double mean_worker_utilization = 0.0;
  double min_worker_utilization = 0.0;
  // Deterministic makespan model, in engine steps: greedy list-schedule of
  // the actual submission order over the realized per-shard step counts on
  // num_workers virtual workers (each shard is a sequential chain, so a
  // worker runs it start to finish; the next shard goes to the
  // earliest-free worker — exactly the pool's pull semantics with one real
  // core per worker). Unlike the wall-clock fields this is bit-reproducible
  // on any machine, so bench baselines pin scheduler comparisons on it.
  std::uint64_t virtual_makespan_steps = 0;
};

// How admission was pipelined. The wall-clock fields are timing-dependent
// and excluded from ShardedReportToJson / ToString (byte-compared by the
// determinism tests); overlap_fraction and peak_materialized_programs in
// *batch* mode are deterministic, and in pipelined mode overlap_fraction
// still is (it depends only on routing counts and the queue capacity).
struct AdmissionStats {
  bool pipelined = false;
  std::size_t queue_capacity = 0;
  double generate_seconds = 0.0;  // producer thread active (wall)
  double execute_seconds = 0.0;   // pool start to pool join (wall)
  // Deterministic lower bound on the fraction of generation work that
  // overlapped with execution: sum over shards of max(0, assigned -
  // capacity) / total. Program j >= capacity can only enter shard s's
  // queue after program j - capacity was popped, i.e. after s started
  // executing — so at least that much of the sweep ran concurrently with
  // phase 2. Batch mode: 0.
  double overlap_fraction = 0.0;
  // High-water mark of programs generated but not yet admitted to an
  // engine. Batch mode materializes everything: total_txns. Pipelined:
  // bounded by num_shards * queue_capacity (+1 in the producer's hand).
  std::uint64_t peak_materialized_programs = 0;
  // Producer pushes that found a full queue and waited (backpressure).
  std::uint64_t producer_blocked_pushes = 0;
};

struct ShardedReport {
  std::uint32_t num_shards = 1;
  std::vector<ShardResult> shards;

  // Sums over shards (max for the per-transaction space peaks).
  core::EngineMetrics aggregate;
  // Merged over every shard's bounded cost sample.
  core::CostDistribution rollback_costs;
  std::uint64_t committed = 0;
  bool completed = true;    // every shard finished within its step budget
  // Every shard's history is serializable. kLocks also folds
  // global_serializable in; the plain path (one shard, or kReplica) does
  // not, so a kReplica run can read serializable=true,
  // global_serializable=false.
  bool serializable = true;

  // Routing analysis — the execution analogue of
  // DistReport::multi_site_fraction: share of transactions whose footprint
  // spans more than one shard (they serialize through the coordinator).
  std::uint64_t cross_shard_txns = 0;
  double cross_shard_fraction = 0.0;

  // Cross-shard execution (see XShardMode / xshard::Coordinator). In
  // kLocks mode `committed` above counts whole transactions (a global
  // transaction counts once, not once per slice); per-shard
  // ShardResult::committed still counts engine commits, slices included.
  bool xshard_locks = false;
  xshard::XShardStats xshard;
  // kLocks only: the coordinator journal's 2PC-epoch checksum chain (one
  // link per merge round, folding every shard's state digest). Excluded
  // from ShardedReportToJson like the per-shard chains.
  std::vector<std::uint64_t> coord_journal_chain;
  // Conflict-serializability of the *merged* committed projection across
  // shards (analysis::GlobalHistory's verdict, computed from the shards'
  // online certifier graphs where exact — DESIGN D17); computed whenever
  // check_serializability is on. kLocks keeps it true; kReplica fails it
  // as soon as the coordinator's replica writes diverge from a home
  // shard's.
  bool global_serializable = true;

  double wasted_fraction = 0.0;
  double goodput = 0.0;

  // Summed per-cause wasted-work ledger over shards (see ShardResult).
  std::array<std::uint64_t, obs::kNumRollbackCauses> wasted_by_cause{};
  std::array<std::uint64_t, obs::kNumRollbackCauses> rollbacks_by_cause{};

  // Telemetry (populated per ShardedOptions::instrument/collect_*).
  // `metrics` carries every shard's registry snapshot side by side
  // (distinguished by the "shard" label); `merged_metrics` folds the shard
  // label out, summing counters and merging histograms bucket-wise.
  obs::RegistrySnapshot metrics;
  obs::RegistrySnapshot merged_metrics;
  // One event stream per shard, in shard order (empty without
  // collect_traces).
  std::vector<std::vector<core::TraceEvent>> shard_traces;
  // Cross-shard slice index for Chrome-trace flow arrows: every (global
  // seq, shard, local txn) slice the coordinator ever spawned. kLocks mode
  // with collect_traces only; empty otherwise.
  std::vector<core::GlobalSlice> flow_slices;
  // Deadlock dumps across shards, in shard order (empty without
  // collect_forensics).
  std::vector<obs::DeadlockDump> forensics;

  SchedulerStats scheduler;
  AdmissionStats admission;

  std::string ToString() const;
};

// Generates the workload, routes it, runs the shards concurrently and
// aggregates. The report is bit-identical across repeated runs with the
// same options (thread scheduling cannot affect it: shards share nothing
// and each is internally deterministic).
Result<ShardedReport> RunSharded(const ShardedOptions& options);

}  // namespace pardb::par

#endif  // PARDB_PAR_SHARDED_DRIVER_H_
