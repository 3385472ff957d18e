#ifndef PARDB_PAR_SHARDED_DRIVER_H_
#define PARDB_PAR_SHARDED_DRIVER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/event.h"
#include "obs/trace_export.h"
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
// single-threaded and deterministic under its own derived seed.
//
// The model matches §3.3's observation: conflicts confined to one site
// are cheap, and only cross-site transactions need coordination. With more
// than one shard, a shard-spanning transaction is split into per-shard
// sub-transactions that really lock their slices on their home shards,
// sharing one global ω position; a union-of-forests merge detects global
// deadlocks and removes them by distributed partial rollback (DESIGN D12).
// The shards advance in epochs on a fork-join whose calling thread is one
// of the workers (DESIGN D10, D29): 2PC polling, union merge, 2PC stamp
// and global admission (which queues each global's slices on their home
// shards) on the calling thread, then one fan-out in which each shard's
// task admits its local transactions, spawns its queued slices and steps
// one quantum. The fan-out joins before the next epoch, so no engine is
// ever touched by two threads, and serializability is a *global*
// property, checked over the union of the shards' certifier graphs.
// Generation is streamed into admission: the routing plan is walked as far
// as admission needs, and each shard draws its own programs on its own
// task (DESIGN D23).
//
// One shard runs through the same epochs (DESIGN D25). With nothing to
// coordinate there is no coordinator, and its quantum refills the level
// after every commit, so it runs the paper's closed loop: the only
// closed-loop driver (DESIGN D18). One shard with cross_shard_fraction = 0
// draws every program from one generator over the whole entity universe —
// the single-engine loop that every reproduction table, `pardb sim` and
// the tests run.

struct ShardedOptions {
  std::uint32_t num_shards = 4;
  // Shard that cross-shard transactions are routed to (must be <
  // num_shards); ShardResult::assigned counts them there.
  std::uint32_t coordinator_shard = 0;
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
  // Step budget of each shard; a run that cannot finish within it is
  // incomplete. With several shards, a shard that spends it with work left
  // ends the run at the first epoch in which no shard steps (whatever
  // still waits, waits on it).
  std::uint64_t max_steps_per_shard = 20'000'000;
  std::uint64_t seed = 1;
  // Threads of the fork-join, the calling thread included (so
  // num_threads - 1 helpers are spawned); 0 means one per shard.
  std::size_t num_threads = 0;
  bool check_serializability = true;
  Value initial_value = 100;

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
  // snapshot cadence. Drives the latency component histograms and the
  // /debug/txn endpoints; the per-cause rollback ledger is the engine's
  // and does not depend on it. Off only for overhead measurements.
  bool txnlife = true;
  // Decision journal (DESIGN D14): one DecisionJournal per shard engine,
  // recording every schedule-relevant decision plus an epoch checksum
  // chain at engine.journal_epoch_steps cadence; the multi-shard path adds
  // a coordinator journal with a 2PC-epoch stamp per merge round. Off only
  // for overhead measurements.
  bool journal = true;
  // Non-empty: record with unbounded rings and write each shard's journal
  // binary to "<journal_out>.shard<k>.jrnl" (multi-shard runs add
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
  // owned by the hub and registered before any shard runs, so an HTTP
  // server scraping the hub sees live counters while the run is in flight;
  // shards additionally publish waits-for snapshots, interim metric
  // exports and lifecycle and journal digests at every epoch boundary
  // (and once at the end), feed the per-shard step-time EWMAs behind
  // pardb_shard_load_skew, and route deadlock dumps into the hub's ring.
  // nullptr: no live introspection, no extra work on the step loop.
  obs::LiveHub* hub = nullptr;
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
  // Most times one of the shard's transactions was preempted (Figure 2's
  // repeated-preemption tail). Excluded from ShardedReportToJson.
  std::uint64_t max_preemptions_single_txn = 0;
  // Decision-journal epoch checksum chain and totals (empty/zero when
  // ShardedOptions::journal is off). Excluded from ShardedReportToJson —
  // the chain is what determinism tests compare across schedulers and
  // worker counts, never part of the byte-compared report.
  std::vector<std::uint64_t> journal_chain;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_dropped = 0;
  // Per-transaction rows the shard ever held at once (DESIGN D23): engine
  // contexts, lock-table rows, lifecycle-book rows and certifier nodes.
  // Each table reuses a finished transaction's row, so these follow the
  // live count, not the run length. Excluded from ShardedReportToJson.
  struct Footprint {
    std::size_t engine_rows = 0;
    std::size_t lock_rows = 0;
    std::size_t txnlife_rows = 0;
    std::size_t certifier_nodes = 0;
  };
  Footprint footprint;
};

// How the run was scheduled onto workers (the fork-join's, the calling
// thread being worker 0). Excluded from ShardedReportToJson and ToString
// (which determinism tests byte-compare); the wall-clock fields also land
// in the metrics registry (pardb_steals_total, pardb_worker_utilization).
struct SchedulerStats {
  std::size_t num_workers = 0;
  // Quanta executed away from their shard's home worker, shard % workers.
  std::uint64_t steals = 0;
  std::uint64_t quanta = 0;   // shard quanta actually executed
  // Time inside fork-join tasks / wall time since the fork-join started,
  // per worker, then averaged / min'd over workers.
  double mean_worker_utilization = 0.0;
  double min_worker_utilization = 0.0;
  // Deterministic makespan model, in engine steps. Each epoch's quanta are
  // greedily list-scheduled, in submission order, onto num_workers virtual
  // workers (the next quantum goes to the earliest-free worker — the
  // fork-join's claims with one real core per worker); the epoch
  // barrier runs epochs one after another, so the epoch makespans add up.
  // One shard: its step count. Unlike the wall-clock fields this is
  // bit-reproducible on any machine.
  std::uint64_t virtual_makespan_steps = 0;
};

// How admission ran (streamed from the routing plan, DESIGN D23). The
// wall-clock fields are timing-dependent and excluded from
// ShardedReportToJson / ToString (byte-compared by the determinism tests).
struct AdmissionStats {
  // Time spent admitting, summed over the threads that did it: the
  // coordinating thread's plan walk and global admission (split and
  // staging), plus each shard task's local draws and spawns, slice spawns
  // and a lone shard's refills after each commit. Shard tasks overlap, so
  // with several shards this is thread time, not elapsed wall time.
  double generate_seconds = 0.0;
  double execute_seconds = 0.0;   // execution start to end (wall)
  // High-water mark of programs generated but not yet admitted to an
  // engine. A shard draws its own programs as it admits them, so this
  // counts the full-universe programs the plan walk has passed and holds
  // as generator bookmarks until their admission draws them again.
  std::uint64_t peak_materialized_programs = 0;
  // Always 0: admission has no queue to block on. Kept for readers that
  // still sum it.
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
  // Every shard's history is serializable, and (several shards) so is the
  // merged history: global_serializable is folded in.
  bool serializable = true;

  // Routing analysis — the execution analogue of
  // dist::SiteAnalysis::multi_site_fraction: share of transactions whose
  // footprint spans more than one shard (they run as split global
  // transactions).
  std::uint64_t cross_shard_txns = 0;
  double cross_shard_fraction = 0.0;

  // Cross-shard execution (see xshard::Coordinator; all zero with one
  // shard). `committed` above counts whole transactions (a global
  // transaction counts once, not once per slice); per-shard
  // ShardResult::committed still counts engine commits, slices included.
  xshard::XShardStats xshard;
  // Several shards only: the coordinator journal's 2PC-epoch checksum
  // chain (one link per merge round, folding every shard's state digest).
  // Excluded from ShardedReportToJson like the per-shard chains.
  std::vector<std::uint64_t> coord_journal_chain;
  // Conflict-serializability of the *merged* committed projection across
  // shards (analysis::GlobalHistory's verdict, computed from the union of
  // the shards' online certifier graphs — DESIGN D17, D23); computed
  // whenever check_serializability is on. One shard: the shard's own
  // verdict.
  bool global_serializable = true;

  double wasted_fraction = 0.0;
  double goodput = 0.0;
  // Max over shards of ShardResult::max_preemptions_single_txn. Excluded
  // from ShardedReportToJson and ToString (byte-compared goldens).
  std::uint64_t max_preemptions_single_txn = 0;

  // The per-cause rollback ledger summed over shards: a copy of
  // aggregate.wasted_by_cause and aggregate.rollbacks_by_cause. Excluded
  // from ShardedReportToJson — live visibility goes through
  // pardb_wasted_steps_total{cause}.
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
  std::vector<std::vector<obs::EngineEvent>> shard_traces;
  // Cross-shard slice index for Chrome-trace flow arrows: every (global
  // seq, shard, local txn) slice the coordinator ever spawned. Several
  // shards with collect_traces only; empty otherwise.
  std::vector<obs::GlobalSlice> flow_slices;
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
