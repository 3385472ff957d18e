#ifndef PARDB_OBS_METRIC_NAMES_H_
#define PARDB_OBS_METRIC_NAMES_H_

namespace pardb::obs {

// Canonical pardb_* metric names. Every producer (probe registration,
// end-of-run export, the sharded driver, the live introspection hub) and
// every consumer (file writers, the HTTP /metrics endpoint, schemas and
// tests) must spell names through these constants so the Prometheus
// exposition cannot drift between the file export and the server.

// Engine aggregate counters (core::EngineMetricsExporter).
inline constexpr char kStepsTotal[] = "pardb_steps_total";
inline constexpr char kOpsExecutedTotal[] = "pardb_ops_executed_total";
inline constexpr char kCommitsTotal[] = "pardb_commits_total";
inline constexpr char kLockWaitsTotal[] = "pardb_lock_waits_total";
inline constexpr char kDeadlocksTotal[] = "pardb_deadlocks_total";
inline constexpr char kRollbacksTotal[] = "pardb_rollbacks_total";
inline constexpr char kPartialRollbacksTotal[] = "pardb_partial_rollbacks_total";
inline constexpr char kTotalRollbacksTotal[] = "pardb_total_rollbacks_total";
inline constexpr char kPreemptionsTotal[] = "pardb_preemptions_total";
inline constexpr char kWastedOpsTotal[] = "pardb_wasted_ops_total";
inline constexpr char kIdealWastedOpsTotal[] = "pardb_ideal_wasted_ops_total";
inline constexpr char kCyclesFoundTotal[] = "pardb_cycles_found_total";
inline constexpr char kPeriodicScansTotal[] = "pardb_periodic_scans_total";
// The engine's rollback ledger (DESIGN D13), every cause series exported
// even at 0. Ops executed and then rolled back, attributed to the decision
// that caused the loss (labeled {cause="deadlock_victim"|...}); their sum
// over causes is pardb_wasted_ops_total.
inline constexpr char kWastedStepsTotal[] = "pardb_wasted_steps_total";
// Rollbacks per cause (same label set; sums to pardb_rollbacks_total).
inline constexpr char kRollbackCauseTotal[] = "pardb_rollback_cause_total";
// wasted / executed ops (commits excluded), parts-per-million (gauge; the
// paper's "loss of progress" as a live ratio).
inline constexpr char kReworkRatioPpm[] = "pardb_rework_ratio_ppm";
// Times the Theorem 2 ω-ordered policy overrode the unconstrained min-cost
// victim choice (the cure for Figure 2's infinite mutual preemption).
inline constexpr char kOmegaInterventionsTotal[] =
    "pardb_omega_interventions_total";
// Rollbacks that extend a preemption lineage chain (obs::ExtendsLineage).
inline constexpr char kLineageEventsTotal[] = "pardb_lineage_events_total";
// Compiled-program admission (DESIGN D16): programs lowered to µop
// streams, admissions served from the compile cache, and µop bytes lowered
// (monotone; a program evicted and re-admitted is lowered and counted
// again). All three are deterministic functions of the admitted program
// sequence and are exported even at zero so dashboards can tell "cache
// never hits" from "series missing".
inline constexpr char kProgramCompileTotal[] = "pardb_program_compile_total";
inline constexpr char kProgramCacheHitsTotal[] =
    "pardb_program_cache_hits_total";
inline constexpr char kCompiledBytesTotal[] = "pardb_compiled_bytes_total";
// Compile-cache entries resident now (gauge; DESIGN D21): live programs
// plus at most peak-live idle ones.
inline constexpr char kCompileCacheResidentEntries[] =
    "pardb_compile_cache_resident_entries";

// Engine aggregate gauges.
inline constexpr char kMaxEntityCopies[] = "pardb_max_entity_copies";
inline constexpr char kMaxVarCopies[] = "pardb_max_var_copies";
inline constexpr char kLiveTxns[] = "pardb_live_txns";
inline constexpr char kWaitingTxns[] = "pardb_waiting_txns";

// Engine histograms.
inline constexpr char kRollbackCostOps[] = "pardb_rollback_cost_ops";

// Probe-registered live metrics (obs::MakeEngineProbe / MakeLockProbe).
inline constexpr char kDetectionNs[] = "pardb_detection_ns";
inline constexpr char kRollbackApplyNs[] = "pardb_rollback_apply_ns";
inline constexpr char kLockOpNs[] = "pardb_lock_op_ns";
inline constexpr char kLockWaitSteps[] = "pardb_lock_wait_steps";
inline constexpr char kLockRequestsTotal[] = "pardb_lock_requests_total";
inline constexpr char kLockGrantsImmediateTotal[] =
    "pardb_lock_grants_immediate_total";
inline constexpr char kLockQueuedTotal[] = "pardb_lock_queued_total";
inline constexpr char kLockGrantsOnReleaseTotal[] =
    "pardb_lock_grants_on_release_total";
inline constexpr char kLockCancelsTotal[] = "pardb_lock_cancels_total";
inline constexpr char kLockMaxQueueDepth[] = "pardb_lock_max_queue_depth";

// Sharded driver / live hub.
inline constexpr char kShardStepNs[] = "pardb_shard_step_ns";
// Per-shard EWMA of the sampled step time (gauge, nanoseconds).
inline constexpr char kShardStepEwmaNs[] = "pardb_shard_step_ewma_ns";
// max/mean of the per-shard step-time EWMAs, scaled by 1000 (gauge; 1000 =
// perfectly balanced). The ROADMAP work-stealing item's input signal.
inline constexpr char kShardLoadSkew[] = "pardb_shard_load_skew";

// Worker scheduling (par::RunSharded: the fork-join's workers — the calling
// thread is worker 0).
// Quanta executed on a worker other than their shard's home worker
// (shard % workers).
inline constexpr char kStealsTotal[] = "pardb_steals_total";
// Per-worker busy/wall fraction scaled by 1000 (gauge; labeled by worker).
inline constexpr char kWorkerUtilization[] = "pardb_worker_utilization";

// Streamed admission (par::RunSharded, DESIGN D23).
// Wall seconds per driver phase, scaled by 1000 (gauge; labeled
// {phase="generate"|"execute"|"certify"|"aggregate"}; generate lies
// inside execute).
inline constexpr char kPhaseSeconds[] = "pardb_phase_seconds";
// Local transactions walked but not yet admitted, per shard (gauge).
inline constexpr char kAdmissionQueueDepth[] = "pardb_admission_queue_depth";

// Preemption lineage (obs::LineageTracker).
// High-water mark of any live transaction's preemption chain depth.
inline constexpr char kPreemptionChainLen[] = "pardb_preemption_chain_len";

// Cross-shard coordination (multi-shard par::RunSharded; see DESIGN D12).
inline constexpr char kXShardGlobalTxnsTotal[] = "pardb_xshard_global_txns_total";
inline constexpr char kXShardSubTxnsTotal[] = "pardb_xshard_sub_txns_total";
inline constexpr char kXShardGlobalCommitsTotal[] =
    "pardb_xshard_global_commits_total";
// Union-of-forests merges, cycles found only in the union, and globals
// removed by distributed partial rollback.
inline constexpr char kXShardMergesTotal[] = "pardb_xshard_merges_total";
inline constexpr char kXShardGlobalCyclesTotal[] =
    "pardb_xshard_global_cycles_total";
inline constexpr char kXShardDistributedRollbacksTotal[] =
    "pardb_xshard_distributed_rollbacks_total";
inline constexpr char kXShardOmegaExclusionsTotal[] =
    "pardb_xshard_omega_exclusions_total";
// 2PC accounting: per-shard prepare/resolve exchanges, total simulated
// coordinator<->shard messages, and wall-clock phase timers (histograms,
// nanoseconds; never part of the deterministic report).
inline constexpr char kXShardPreparesTotal[] = "pardb_xshard_prepares_total";
inline constexpr char kXShardResolvesTotal[] = "pardb_xshard_resolves_total";
inline constexpr char kXShardMessagesTotal[] = "pardb_xshard_messages_total";
inline constexpr char kXShardPrepareNs[] = "pardb_xshard_prepare_ns";
inline constexpr char kXShardResolveNs[] = "pardb_xshard_resolve_ns";
// Driver epochs run (gauge).
inline constexpr char kXShardEpochs[] = "pardb_xshard_epochs";

// Rollbacks that erased a published write, as the serializability
// certifier saw them (analysis::HistoryRecorder::invariant_violations;
// two-phase locking rules them out, so CI asserts 0 per shard).
inline constexpr char kCertifierInvariantViolationsTotal[] =
    "pardb_certifier_invariant_violations_total";

// Transaction lifecycle timelines (obs::TxnLifeBook; see DESIGN D13).
// End-to-end latency components, recorded once per commit. Step-valued
// histograms except queue wait, which is wall nanoseconds sampled on the
// admission queue (wall data never enters the deterministic report).
inline constexpr char kTxnE2eSteps[] = "pardb_txn_e2e_steps";
inline constexpr char kTxnLockWaitSteps[] = "pardb_txn_lock_wait_steps";
inline constexpr char kTxnExecSteps[] = "pardb_txn_exec_steps";
inline constexpr char kTxnRedoSteps[] = "pardb_txn_redo_steps";
inline constexpr char kTxnQueueWaitNs[] = "pardb_txn_queue_wait_ns";
// Timeline events evicted from a book's bounded ring (asserted 0 in the CI
// observability smoke).
inline constexpr char kTxnlifeDroppedTotal[] = "pardb_txnlife_dropped_total";

// Decision journal (obs::DecisionJournal; see DESIGN D14).
// Decision records appended across all shards.
inline constexpr char kJournalRecordsTotal[] = "pardb_journal_records_total";
// Epoch checksum stamps taken (chain links).
inline constexpr char kJournalEpochsTotal[] = "pardb_journal_epochs_total";
// Records evicted from a journal's bounded ring (asserted 0 in the CI
// observability smoke).
inline constexpr char kJournalDroppedTotal[] = "pardb_journal_dropped_total";
// Bytes logged (records + epoch stamps).
inline constexpr char kJournalBytesTotal[] = "pardb_journal_bytes_total";

// Label keys.
inline constexpr char kShardLabel[] = "shard";
inline constexpr char kWorkerLabel[] = "worker";
inline constexpr char kPhaseLabel[] = "phase";
inline constexpr char kCauseLabel[] = "cause";

}  // namespace pardb::obs

#endif  // PARDB_OBS_METRIC_NAMES_H_
