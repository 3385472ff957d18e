#ifndef PARDB_CORE_ENGINE_H_
#define PARDB_CORE_ENGINE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/history.h"
#include "common/arena.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/event.h"
#include "obs/forensics.h"
#include "obs/journal.h"
#include "obs/lineage.h"
#include "obs/probe.h"
#include "obs/snapshot.h"
#include "obs/txnlife.h"
#include "core/victim_policy.h"
#include "graph/cycles_through.h"
#include "graph/digraph.h"
#include "lock/lock_manager.h"
#include "rollback/plan.h"
#include "storage/entity_store.h"
#include "txn/compiled.h"
#include "txn/program.h"

namespace pardb::core {

// How Run()/StepAny() pick the next ready transaction.
enum class SchedulerKind {
  kRoundRobin,  // rotate over ready transactions in id order
  kRandom,      // seeded uniform choice (deterministic per seed)
};

// How conflicts that cannot be granted are kept deadlock-free (§3.3). The
// paper's core machinery is kDetection — maintain the concurrency graph and
// intervene on cycles. Distributed systems often cannot afford the global
// graph; the classical alternative is timestamp-based *prevention*
// ([7,10]): decide wait-vs-rollback per conflict from entry timestamps
// alone. The paper notes these schemes "in no way invalidate the advantages
// of rolling a transaction back to the latest possible state" — both
// prevention modes here use the configured rollback strategy, so the
// classical abort becomes a partial rollback.
enum class DeadlockHandling {
  kDetection,  // waits-for graph + victim policy (centralized, §2/§3.1)
  // Wound-wait: a requester preempts ("wounds") every younger holder —
  // rolled back past its conflicting lock — and waits only for older ones.
  // Waits point young -> old only, so no cycle can form. Holders already in
  // their shrinking phase are never wounded (they cannot deadlock).
  kWoundWait,
  // Wait-die: a requester younger than any blocker "dies" — it is rolled
  // back to the latest lock state at which it holds nothing an *older*
  // transaction currently waits for (often a zero-cost cancel-and-retry),
  // and retries. Only the locally known wait queues are consulted: no
  // global information is needed.
  kWaitDie,
  // The crudest classical baseline: no graph at all; a transaction whose
  // wait exceeds EngineOptions::wait_timeout_steps engine steps is rolled
  // back (to the latest lock state at which it holds nothing anyone is
  // queued for) and retries. Breaks deadlocks eventually but also fires on
  // long waits that are not deadlocks. Timeouts are checked by StepAny()/
  // RunToCompletion(); purely manual StepTxn() driving never expires them.
  kTimeout,
};

std::string_view DeadlockHandlingName(DeadlockHandling handling);

// When the cycle detector runs (kDetection only). Continuous detection —
// the paper's model — checks at every wait response, exploiting that all
// new cycles pass through the requester. Periodic detection amortises the
// check over many steps at the price of transactions sitting in undetected
// deadlocks between scans.
enum class DetectionMode {
  kContinuous,
  kPeriodic,
};

struct EngineOptions {
  // Which rollback plan preset admitted programs are compiled with
  // (rollback/plan.h). Under kDetection every plan applies the §5 seal: a
  // transaction past its last lock request never waits again, so it can
  // never be a rollback victim and its later writes keep no history. The
  // prevention schemes wound running holders, so there is no seal.
  rollback::StrategyKind strategy = rollback::StrategyKind::kMcs;
  DeadlockHandling handling = DeadlockHandling::kDetection;
  VictimPolicyKind victim_policy = VictimPolicyKind::kMinCostOrdered;
  SchedulerKind scheduler = SchedulerKind::kRoundRobin;
  std::uint64_t seed = 42;
  // Default: strict FIFO lock queues, which also draw waits-for arcs from
  // the waiters queued ahead. The paper's own grant rule (compatibility
  // with holders only, §2) lets a rolled-back victim's re-acquired shared
  // locks bypass a queued writer forever — writer starvation that presents
  // as unbounded deadlock recurrence (measured in bench_fig3_shared). The
  // paper leaves fairness out of scope; set fifo_fairness = false to
  // reproduce its exact model (the figure scenarios do).
  lock::LockManager::Options lock_options{/*fifo_fairness=*/true};
  // When true and several cycles exist (shared locks), cost-based policies
  // choose between the requester and a minimum-cost vertex cut (§3.2,
  // DESIGN D19). When false, multi-cycle deadlocks always roll back the
  // requester.
  bool optimize_vertex_cut = true;
  // kTimeout only: a wait older than this many engine steps is expired.
  std::uint64_t wait_timeout_steps = 64;
  // kDetection only: continuous (at every wait) or periodic scans.
  DetectionMode detection_mode = DetectionMode::kContinuous;
  // kPeriodic only: scan cadence in engine steps (StepAny also scans
  // whenever every transaction is blocked).
  std::uint64_t detection_period = 32;
  // Decision-journal epoch cadence: with a journal installed, an epoch
  // checksum (StateDigest over lock table, live set and ω-order) is
  // stamped whenever the step counter crosses a multiple of this period
  // (rounded up to a power of two). Stamping is keyed to the engine's own
  // deterministic step count — never to scheduler quanta or wall time — so
  // the chain is invariant to quantum chopping, worker count and
  // scheduler. 0 disables engine-driven stamps.
  std::uint64_t journal_epoch_steps = 1024;
  // Test hook (determinism-forensics CI): when nonzero, the Nth *flippable*
  // single-cycle resolution (one cycle, >= 2 candidates) trades the victim
  // pick for another candidate, injecting exactly one divergent decision so
  // diff tooling can be exercised against a controlled break. Counted per
  // engine over flip opportunities — not raw deadlocks, which may route
  // through multi-cycle branches where no alternate pick exists. Never set
  // in production.
  std::uint64_t debug_flip_victim_deadlock = 0;
};

struct EngineMetrics {
  std::uint64_t steps = 0;          // StepTxn calls that did work
  std::uint64_t ops_executed = 0;   // ops completed (incl. re-execution)
  std::uint64_t commits = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t rollbacks = 0;          // victims rolled back
  std::uint64_t partial_rollbacks = 0;  // target lock state > 0
  std::uint64_t total_rollbacks = 0;    // target lock state == 0
  std::uint64_t wasted_ops = 0;         // sum of actual rollback costs
  std::uint64_t ideal_wasted_ops = 0;   // sum of ideal rollback costs
  // The rollback ledger, indexed by obs::RollbackCause: each rollback and
  // the ops it discarded, counted once, when RollbackTxn applies it.
  std::array<std::uint64_t, obs::kNumRollbackCauses> rollbacks_by_cause{};
  std::array<std::uint64_t, obs::kNumRollbackCauses> wasted_by_cause{};
  // Single-cycle victim picks the ω-ordered policy moved off plain
  // min-cost (Theorem 2 actively intervening).
  std::uint64_t omega_interventions = 0;
  std::uint64_t cycles_found = 0;
  std::uint64_t periodic_scans = 0;  // kPeriodic graph sweeps performed
  // Detections that swept the requester's component: the rest stopped at
  // the lock table's "nobody waits for the requester" (DESIGN D28). Not
  // serialized in reports.
  std::uint64_t component_loads = 0;
  // Lowering telemetry (deterministic: a pure function of the admitted
  // program sequence, never of wall time). Excluded from report
  // serialization so pre-compilation goldens stay byte-identical.
  std::uint64_t programs_compiled = 0;    // admissions lowered
  std::uint64_t compiled_bytes = 0;       // µop bytes lowered (monotone)
  // Space accounting sampled at every rollback and commit.
  std::size_t max_entity_copies = 0;  // max per-transaction peak
  std::size_t max_var_copies = 0;

  std::uint64_t RollbacksOf(obs::RollbackCause cause) const {
    return rollbacks_by_cause[static_cast<std::size_t>(cause)];
  }
  // Rollbacks of a victim other than the requester (obs::IsPreemption).
  std::uint64_t Preemptions() const;
  // Rollbacks that extend a preemption lineage (obs::ExtendsLineage).
  std::uint64_t LineageEvents() const;

  friend bool operator==(const EngineMetrics&,
                         const EngineMetrics&) = default;
};

// Percentiles over the recorded per-rollback costs (lost state-index
// progress). Empty when no rollback happened.
struct CostDistribution {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
};

// Nearest-rank percentiles over a cost sample (the percentile-P value is
// sorted[ceil(n*P/100) - 1]). Shared by Engine::RollbackCostDistribution
// and by aggregators that merge samples from several engines.
CostDistribution ComputeCostDistribution(std::vector<std::uint32_t> costs);

// uint8-backed so a TxnContext status read touches one byte of the hot
// cache line (digests cast to uint64 — the values are unchanged).
enum class TxnStatus : std::uint8_t { kReady, kWaiting, kCommitted };

// What one StepQuantum call did and why it returned (see StepQuantum).
struct QuantumResult {
  std::uint64_t steps = 0;  // StepAny calls that stepped a transaction
  bool ran_dry = false;     // stopped early: no transaction was ready
  bool committed = false;   // stopped early: a step committed a transaction
                            // (only with stop_after_commit)
};

// What one StepTxn performed.
enum class StepOutcome {
  kExecuted,    // one op completed
  kBlocked,     // lock request queued; transaction now waits
  kRolledBack,  // lock request triggered a deadlock resolved against self
  kCommitted,   // transaction finished
  kIdle,        // transaction is waiting (or committed); nothing done
};

// The database engine of the paper's model: a two-phase-locking scheduler
// with continuous deadlock detection on the concurrency graph and partial
// rollback as the deadlock intervention (§2 response rules 1-3).
//
// Deterministic: given the same programs, spawn order, options and seed,
// every run produces the identical interleaving, deadlocks and metrics.
// Single-threaded by design — the paper's concurrency is the logical
// interleaving of transaction steps, which Run() drives.
class Engine {
 public:
  Engine(storage::EntityStore* store, EngineOptions options,
         analysis::HistoryRecorder* recorder = nullptr);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Admits a transaction (an execution instance of `program`). Entry order
  // defines the Theorem 2 ordering. Late admission is first-class: Spawn
  // may be called at any point between steps — mid-run admissions join the
  // StepAny/StepQuantum live set exactly as if present from the start,
  // which is what lets drivers stream arrivals in (closed-loop refill,
  // pipelined admission) without a pre-materialized workload.
  Result<TxnId> Spawn(txn::Program program);
  Result<TxnId> Spawn(std::shared_ptr<const txn::Program> program);

  // Cross-shard sub-transactions -------------------------------------------
  //
  // A shard-spanning transaction executes as one sub-transaction per home
  // shard, each an ordinary local transaction except for a *hold point*: the
  // program position (= its lock-acquisition count) at which it parks until
  // an external coordinator releases it. While parked the scheduler skips it
  // (it holds its locks but never runs), so the coordinator can line up the
  // global lock point across shards. A held sub might still be rolled back
  // by a *global* cycle, which the §5 seal allows: the hold point follows
  // the sub's last lock request and precedes its first write, so no write
  // the seal covers runs before ReleaseHold().

  // Spawns `program` as a sub-transaction that parks at pc == hold_pc.
  Result<TxnId> SpawnSub(txn::Program program, std::size_t hold_pc);

  // True iff txn is parked at its hold point (ready, pc >= hold_pc).
  bool AtHold(TxnId txn) const;

  // Clears the hold point, letting the scheduler run txn to completion
  // (under detection the sub can no longer be a rollback victim once the
  // coordinator commits to the global order).
  Status ReleaseHold(TxnId txn);

  // Prices rolling txn back far enough to stop conflicting over `conflicts`
  // (the §3.1 candidate computation, exposed for a global victim search
  // across shards). Does not mutate anything. A committed transaction has
  // no rollback plan left and fails with FailedPrecondition.
  Result<VictimCandidate> PlanConflictRelease(
      TxnId txn,
      const std::vector<std::pair<EntityId, lock::LockMode>>& conflicts) const;

  // Executes a partial rollback decided by an external coordinator (the
  // distributed analogue of a detection victim): rolls txn back to lock
  // state `target` and accounts it as a preemption, charged the ops the
  // rewind discards now (and, as ideal cost, what returning to
  // `ideal_target` would discard). The victim may be parked at a hold
  // point (not waiting) — its pending request, if any, is cancelled like a
  // local victim's. A target beyond txn's granted requests or one its
  // rollback plan cannot restore fails with InvalidArgument before
  // anything is accounted, logged or changed.
  Status ApplyExternalRollback(TxnId txn, LockIndex target,
                               LockIndex ideal_target);

  // Parks (`on`) or unparks a ready transaction without touching its locks:
  // while backed off the scheduler skips it, so it cannot re-request what a
  // rollback just released. The coordinator backs a distributed-rollback
  // victim off for one epoch so the cycle's beneficiaries make durable
  // progress before the victim re-contends (otherwise the coordinator and a
  // shard's local detection can re-create the identical cycle forever — the
  // cross-layer analogue of Figure 2's infinite mutual preemption).
  Status SetBackoff(TxnId txn, bool on);

  // Executes the next operation of `txn` (granting its pending lock counts
  // as progress only via HandleGrant on a release; a waiting transaction
  // returns kIdle).
  Result<StepOutcome> StepTxn(TxnId txn);

  // Steps one ready transaction chosen by the scheduler. Returns the
  // transaction stepped, or nullopt when none is ready.
  Result<std::optional<TxnId>> StepAny();

  // Runs up to `max_steps` scheduler steps (StepAny) as one bounded
  // quantum. Stops early when every spawned transaction has committed,
  // when no transaction is ready (`ran_dry` — a stall for a self-contained
  // engine), or, with `stop_after_commit`, right after any step that
  // commits a transaction (so a driver can refill its multiprogramming
  // level at exactly the points a per-step loop would). The engine keeps
  // no per-quantum state: chopping a run into quanta of any sizes yields
  // the identical step sequence as one unbounded quantum, which is what
  // lets the sharded driver cut a run into quanta (epochs, or one shard's
  // quantum loop) without disturbing per-shard determinism.
  Result<QuantumResult> StepQuantum(std::uint64_t max_steps,
                                    bool stop_after_commit = false);

  // Runs until every spawned transaction commits; fails with
  // ResourceExhausted after max_steps or Internal if no transaction is
  // ready while some are unfinished.
  Status RunToCompletion(std::uint64_t max_steps = 100'000'000);

  bool AllCommitted() const;

  // Introspection ------------------------------------------------------------

  TxnStatus StatusOf(TxnId txn) const;
  // Current state index (program counter) — the paper's state numbering.
  StateIndex StateIndexOf(TxnId txn) const;
  // Number of granted lock requests (current lock index).
  LockIndex LockCountOf(TxnId txn) const;
  Timestamp EntryOf(TxnId txn) const;
  // Current value of a live transaction's local variable (0 once
  // committed: its value slots are freed).
  Value VarValueOf(TxnId txn, txn::VarId var) const;
  // Value of `entity` as a live transaction reads it: its own latest write,
  // else the global value (0 once committed: its plan is released).
  Value EntityValueOf(TxnId txn, EntityId entity) const;

  // The paper's labeled concurrency graph G_L(T) (§3.0) at this instant,
  // derived from the lock table (DESIGN D27): every live transaction is a
  // vertex, and each waiting one has an arc from each of its blockers,
  // labeled with the entity it waits for.
  graph::Digraph WaitsFor() const;
  // Appends the same arcs to *out, sorted as Digraph::Edges() sorts them,
  // without building a graph (the cross-shard merge reads these).
  void AppendWaitsFor(std::vector<graph::Edge>* out) const;
  const lock::LockManager& lock_manager() const { return locks_; }
  const storage::EntityStore& store() const { return *store_; }
  const EngineMetrics& metrics() const { return metrics_; }
  // Distribution of individual rollback costs (bounded sample: the first
  // 64k rollbacks).
  CostDistribution RollbackCostDistribution() const;
  // The raw bounded sample behind RollbackCostDistribution, for aggregators
  // that merge several engines' costs into one distribution.
  const std::vector<std::uint32_t>& rollback_cost_samples() const {
    return rollback_costs_;
  }
  const EngineOptions& options() const { return options_; }

  // Installs a trace sink (nullptr to detach): it receives every emitted
  // EngineEvent, in emission order, at the moment of its decision
  // (obs::EventLog collects them for the trace exporters). Not owned; must
  // outlive the engine or be detached first.
  void set_trace(obs::EventSink* sink) { trace_ = sink; }

  // Installs telemetry probes (nullptr to detach). The probe (and the
  // metrics behind it) must outlive the engine or be detached first. Also
  // hands the embedded lock probe to the lock manager.
  void set_probe(const obs::EngineProbe* probe) {
    probe_ = probe;
    locks_.set_probe(probe != nullptr ? &probe->lock : nullptr);
  }

  // Installs a deadlock forensics sink (nullptr to detach): one
  // DeadlockDump per resolved deadlock, emitted after victim selection and
  // before any rollback mutates the cycle. The dump is the engine's only
  // per-deadlock record; with no sink installed none is built.
  void set_forensics(obs::DeadlockDumpSink* sink) { forensics_ = sink; }

  // The trace sink above and the journal, lifecycle book and lineage
  // tracker below all receive the same event stream: each decision is
  // emitted once, as one obs::EngineEvent, to every attached observer
  // (DESIGN D22).

  // Installs a rollback-lineage tracker (nullptr to detach): it chains the
  // preemption rollbacks (detection victims, self-rollbacks and wounds)
  // and retires a transaction at commit. Not owned; must outlive the
  // engine or be detached first.
  void set_lineage(obs::LineageTracker* lineage) { lineage_ = lineage; }

  // Installs a transaction-lifecycle book (nullptr to detach): stamped at
  // admit, every executed op, block/wake, cause-tagged rollback and commit.
  // Not owned; must outlive the engine or be detached first. Like lineage,
  // written only from the thread stepping this engine.
  void set_txnlife(obs::TxnLifeBook* book) { txnlife_ = book; }

  // Installs a decision journal (nullptr to detach): one compact record
  // per schedule-relevant decision plus an epoch checksum chain stamped at
  // deterministic step boundaries (see EngineOptions::journal_epoch_steps
  // and DESIGN D14). Observation-only — installing a journal never alters
  // any scheduling or victim decision. Not owned; must outlive the engine
  // or be detached first; written only from the thread stepping this
  // engine.
  void set_journal(obs::DecisionJournal* journal) { journal_ = journal; }

  // Deterministic FNV digest of the schedule-relevant engine state: the
  // live set in ω-order (entry, pc, status, granted-lock count per
  // transaction) folded with the lock manager's table digest. Two runs at
  // the same step with equal digests are in the same scheduling state.
  std::uint64_t StateDigest() const;

  // Materializes the full waits-for state at this instant: every live
  // transaction (status, ω position, state/lock indices, held and
  // requested locks, preemption lineage), every waits-for arc, and the
  // Theorem 1 structure flags. Called between steps — the engine is
  // single-threaded, so the snapshot is internally consistent; callers on
  // other threads receive a published copy (see obs::LiveHub), never this
  // engine.
  obs::WaitsForSnapshot SnapshotWaitsFor() const;

  // Transactions spawned but not yet committed — the scan set StepAny
  // schedules from.
  std::size_t live_txn_count() const { return live_count_; }

  // Capacity hint: pre-sizes the per-transaction rows (and the lock
  // manager's) for `n` transactions live at once — the multiprogramming
  // level, not the run length: a committed transaction's row is reused by
  // a later one (DESIGN D23). Purely an optimisation; the rows grow on
  // demand regardless.
  void ReserveTxns(std::size_t n);

  // Per-transaction rows held: the most transactions ever live at once.
  std::size_t txn_rows() const { return txns_.size(); }

  // Pushes locally batched telemetry (lock-probe counter deltas) into the
  // shared atomic registry. Called automatically at quantum boundaries and
  // commits; drivers call it before exporting a metrics snapshot. Flushed
  // totals are identical to what per-operation atomic updates would have
  // produced (DESIGN D15).
  void FlushProbes() { locks_.FlushProbe(); }

  // Per-transaction counters for preemption analysis (Figure 2): how many
  // times a live txn was rolled back as a victim of another's conflict (0
  // once it committed).
  std::uint64_t PreemptionCountOf(TxnId txn) const;
  // The largest PreemptionCountOf over every transaction ever spawned:
  // Figure 2's repeated-preemption tail.
  std::uint64_t MaxPreemptionCount() const { return max_preempted_; }

  // The live transactions, the lock table and the waits-for graph, for
  // stall diagnostics.
  std::string DumpState() const;

 private:
  static constexpr std::size_t kNoHold = static_cast<std::size_t>(-1);

  struct LockRecord {
    EntityId entity;
    lock::LockMode mode;
    bool is_upgrade;
    std::size_t op_index;  // state index of this request's lock state
  };

  // Hot per-transaction state: everything the step/readiness path touches,
  // packed so it fills the first cache line (59 bytes before `granted`).
  // Ownership and cold forensics fields live in the parallel TxnCold side
  // array (same row), so a readiness scan or an op execution never
  // drags telemetry-only bytes through the cache.
  struct TxnContext {
    TxnId id;
    // Compiled µop stream cursor base (uops[pc] is the next op), owned by
    // the row's TxnCold while the transaction is live; null once it
    // commits.
    const txn::MicroOp* uops = nullptr;
    // The program's rollback plan (in the row's TxnCold; null once
    // committed) and the transaction's value slots laid out by it (an
    // engine-arena block, freed at commit). This is all the rollback state
    // a transaction has: rolling back resets pc and undoes locks, and
    // copies no value.
    const rollback::RollbackPlan* plan = nullptr;
    Value* slots = nullptr;
    std::uint32_t pc = 0;
    std::uint32_t size = 0;  // program size (pc >= size <=> finished)
    Timestamp entry = 0;
    // Engine step at which the current wait began (kTimeout bookkeeping).
    std::uint64_t wait_since = 0;
    TxnStatus status = TxnStatus::kReady;
    bool in_shrinking_phase = false;
    // Coordinator-imposed backoff (SetBackoff): the scheduler skips the
    // transaction so it cannot re-request the locks it just released.
    bool backoff = false;
    // granted[k] <-> lock state k. Inline capacity covers typical
    // workload programs; longer ones spill into the engine arena.
    SmallVec<LockRecord, 8> granted;
  };

  // Cold per-transaction state, indexed by the same row as txns_:
  // ownership handles plus fields only introspection, rollback planning or
  // the cross-shard protocol touch.
  struct TxnCold {
    // The program and its one lowering (DESIGN D26): built at Spawn,
    // released at commit. TxnContext::uops and ::plan point into them.
    std::shared_ptr<const txn::Program> program;
    std::unique_ptr<const txn::CompiledProgram> compiled;
    rollback::RollbackPlan plan;
    std::uint64_t preempted = 0;
    // Cross-shard sub-transaction state (see SpawnSub): park at this pc
    // until ReleaseHold; kNoHold for ordinary transactions.
    std::size_t hold_pc = kNoHold;
  };

  // Op execution ------------------------------------------------------------

  Result<StepOutcome> ExecuteOp(TxnContext& ctx);
  Result<StepOutcome> ExecuteLock(TxnContext& ctx, EntityId entity,
                                  lock::LockMode mode);
  // Publishes and releases what the unlock or commit at ctx.pc releases,
  // in the plan's (ascending entity) order.
  Status ExecuteReleases(TxnContext& ctx);
  Status ExecuteCommit(TxnContext& ctx);
  // Value of `entity` for ctx: its plan source slot, or the global store.
  Result<Value> EntityValue(const TxnContext& ctx, EntityId entity,
                            std::uint32_t source) const;

  // Called when the lock manager granted `g` during a release/cancel.
  Status HandleGrant(const lock::Grant& g);
  // Registers a granted lock in ctx.
  Status RegisterGrant(TxnContext& ctx, EntityId entity, lock::LockMode mode,
                       bool is_upgrade);

  // Deadlock machinery --------------------------------------------------------

  // Loads cycles_ with root's strongly connected component of the
  // waits-for graph, reading each transaction's in-arcs off the lock table
  // (DESIGN D27). False when root is on no cycle.
  bool LoadCyclesThrough(TxnId root);
  // Detects and resolves any deadlock created by `requester`'s wait.
  // Returns true when the requester itself was rolled back.
  Result<bool> DetectAndResolve(TxnContext& requester, EntityId entity);
  // §3.3 prevention schemes, applied when the requester must wait.
  Status HandleWoundWait(TxnContext& requester, EntityId entity,
                         lock::LockMode mode);
  Result<bool> HandleWaitDie(TxnContext& requester);
  // kTimeout: rolls back every transaction whose wait has expired.
  Status ExpireTimeouts();
  // kPeriodic: sweeps the whole waits-for graph and resolves every cycle.
  Status PeriodicScan();
  // Self-rollback candidate releasing everything a (conflicting) queued
  // transaction selected by `relevant` currently waits for. Only prices:
  // RollbackTxn charges the cost.
  Result<VictimCandidate> SelfRollbackTarget(
      const TxnContext& txn,
      const std::function<bool(const TxnContext&)>& relevant) const;
  // Builds the §3.1 candidate entry for cycle member `txn` that must stop
  // conflicting over the entities in `entities` with the given waiter
  // modes.
  Result<VictimCandidate> MakeCandidate(
      const TxnContext& member,
      const std::vector<std::pair<EntityId, lock::LockMode>>& conflicts,
      bool is_requester) const;
  // The §3.1 cost of returning txn to lock state `target` now: the ops
  // between that lock state and txn's pc (0 at or past its granted count).
  static std::uint64_t OpsLost(const TxnContext& txn, LockIndex target);
  // OK when `victim` may be rolled back to lock state `target`: it is not
  // shrinking, and target is within its granted requests and restorable
  // by its plan at its pc. Checked before anything is mutated.
  Status CheckRollbackTarget(const TxnContext& victim, LockIndex target) const;
  // One rollback decision: the lock state to return to and why. It is
  // priced when applied, not here.
  struct RollbackDecision {
    LockIndex target = 0;        // what the victim's plan restores
    LockIndex ideal_target = 0;  // what exact restoration would return to
    obs::RollbackCause cause = obs::RollbackCause::kDeadlockVictim;
    TxnId causing{};  // whose conflict; invalid when unknown
    // Detection victims only: the deadlock's ordinal, the candidates priced
    // (nonzero adds the victim event) and whether the ω order moved the
    // pick off plain min-cost.
    std::uint64_t cycle = 0;
    std::size_t candidates = 0;
    bool omega = false;
  };
  static RollbackDecision Decide(const VictimCandidate& c,
                                 obs::RollbackCause cause, TxnId causing);
  // The one rollback path. Validates the target (nothing changes when it
  // is not restorable), prices it from the victim's pc and granted locks
  // as they are now — the §3.1 cost is exactly the ops the rewind
  // discards — and charges that wasted and ideal cost to the cause's
  // ledger, emits the victim and rollback events, then rolls `victim`
  // back: releases/downgrades undone locks, cancels its wait, rewinds the
  // recorder and resets the program counter; the value slots need no
  // restore (DESIGN D20).
  Status RollbackTxn(TxnContext& victim, const RollbackDecision& d);

  void SampleSpace(const TxnContext& ctx);
  // Stamps the step and hands the event to every attached observer.
  void Emit(obs::EngineEvent event);

  // Stamps a journal epoch checksum when the step counter sits on a
  // journal_epoch_steps boundary (called once per counted step).
  void MaybeStampJournalEpoch();

  // The live transaction's context, or nullptr once it committed (or when
  // it was never spawned).
  TxnContext* Find(TxnId txn);
  const TxnContext* Find(TxnId txn) const;
  // True for an id this engine handed out: with Find == nullptr, one that
  // committed.
  bool Spawned(TxnId txn) const { return txn.value() < next_txn_; }

  storage::EntityStore* store_;
  EngineOptions options_;
  analysis::HistoryRecorder* recorder_;       // may be null
  obs::EventSink* trace_ = nullptr;           // may be null
  const obs::EngineProbe* probe_ = nullptr;   // may be null
  obs::DeadlockDumpSink* forensics_ = nullptr;  // may be null
  obs::LineageTracker* lineage_ = nullptr;      // may be null
  obs::TxnLifeBook* txnlife_ = nullptr;         // may be null
  obs::DecisionJournal* journal_ = nullptr;     // may be null
  lock::LockManager locks_;
  // Spill storage for per-transaction granted-lock records (DESIGN D15).
  // Declared before txns_ so it outlives every SmallVec pointing into it.
  Arena txn_arena_;
  // One row per live transaction (DESIGN D23): Spawn gives the new id a
  // row, reusing the row of a committed one (free_rows_), and commit
  // retires the id, so the arrays are as long as the peak live count and a
  // committed id finds no row. The live list below keeps the scheduler
  // scan O(live).
  std::vector<TxnContext> txns_;
  std::vector<std::uint32_t> free_rows_;
  // Cold side array parallel to txns_ (same row). A deque, so the plan a
  // context points to stays in place as rows are added.
  std::deque<TxnCold> cold_;
  std::size_t RowOf(const TxnContext& ctx) const {
    return static_cast<std::size_t>(&ctx - txns_.data());
  }
  TxnCold& ColdOf(const TxnContext& ctx) { return cold_[RowOf(ctx)]; }
  const TxnCold& ColdOf(const TxnContext& ctx) const {
    return cold_[RowOf(ctx)];
  }
  // Builds each admitted program's rollback plan under options_.strategy.
  rollback::RollbackPlanner planner_;
  // Uncommitted transactions as an intrusive doubly-linked list over rows
  // (SoA; replaces std::set<TxnId>). Spawn appends at the tail and ids
  // increase monotonically, so traversal from live_head_ enumerates the
  // live set in id order — the same order the set gave — with O(1)
  // removal at commit.
  static constexpr std::uint64_t kNoneIdx = ~std::uint64_t{0};
  std::vector<std::uint64_t> live_next_;
  std::vector<std::uint64_t> live_prev_;
  std::uint64_t live_head_ = kNoneIdx;
  std::uint64_t live_tail_ = kNoneIdx;
  std::size_t live_count_ = 0;
  // Most preemptions of one transaction (MaxPreemptionCount).
  std::uint64_t max_preempted_ = 0;

  void LiveInsert(std::uint64_t v);
  void LiveRemove(std::uint64_t v);

  // Scratch buffers reused across steps so the grant/release/rollback fast
  // path performs no heap allocation at steady state. Each is cleared at
  // its single point of use; the call trees below them never touch the
  // same buffer reentrantly.
  std::vector<TxnId> scratch_ready_;        // StepAny candidate set
  // Readiness is tracked as a bitmap over transaction ids, maintained at
  // every transition (spawn, block, grant, commit, rollback, backoff). The
  // live list holds monotonically increasing ids and never reorders, so
  // ascending bit order is exactly the live-list scan order the scheduler
  // always used — picking the k-th set bit yields the identical candidate.
  // Steps that merely advance a ready transaction's pc touch nothing.
  // Debug holds gate on pc, so any active hold falls back to a full scan
  // into scratch_ready_ (holds_active_ counts hold_pc assignments,
  // conservatively).
  //
  // The id window: ready_bits_ word w covers ids [64 (ready_base_ + w),
  // +64), and row_window_[i] is the row of id 64 ready_base_ + i (kNoRow
  // once committed), up to the newest id. Everything below the oldest
  // live id is committed, so TrimReadyWindow drops it as that id
  // advances: the window spans the live ids, not the run, and Find is one
  // index.
  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};
  std::vector<std::uint64_t> ready_bits_;
  std::vector<std::uint32_t> row_window_;
  std::uint64_t ready_base_ = 0;
  std::size_t ready_count_ = 0;
  std::size_t ready_lo_ = 0;  // first possibly-nonzero word (monotone hint)
  std::uint64_t holds_active_ = 0;
  void MarkReadyDirty(const TxnContext& ctx);
  // The id of the k-th ready transaction in id order.
  std::uint64_t SelectKthReady(std::size_t k);
  void TrimReadyWindow();
  std::vector<lock::Grant> scratch_grants_;  // release/cancel grant batches
  std::vector<TxnId> scratch_blockers_;      // one waiter's blockers
  std::vector<graph::Arc> scratch_arcs_;     // ... as in-arcs (cycles_)
  std::vector<LockRecord> scratch_undone_;   // RollbackTxn undo tail
  std::vector<EntityId> scratch_handled_;    // RollbackTxn entity dedup
  std::vector<TxnId> scratch_expired_;       // ExpireTimeouts collection
  // Deadlock resolution (DetectAndResolve): the requester's component and
  // the victim choice over it, reused so a warm engine allocates nothing
  // to detect or cut (DESIGN D19).
  graph::CyclesThrough cycles_;
  graph::Cycle deadlock_cycle_;  // representative cycle of this deadlock
  graph::Cycle scratch_cycle_;   // non-cost policies: next uncovered cycle
  std::vector<lock::LockMode> scratch_pending_modes_;  // per member
  std::vector<std::pair<EntityId, lock::LockMode>> scratch_conflicts_;
  std::vector<VictimCandidate> scratch_candidates_;  // one per member
  std::vector<VictimCandidate> scratch_cycle_members_;
  std::vector<std::uint64_t> scratch_capacity_;  // cut price per member
  std::vector<char> scratch_excluded_;           // members already chosen
  std::vector<std::size_t> scratch_victims_;     // candidate indices
  std::uint64_t lock_op_counter_ = 0;  // 1-in-16 sampling for lock_op_ns
  // journal_epoch_steps rounded up to a power of two, minus one (mask);
  // ~0 when engine-driven stamping is disabled.
  std::uint64_t journal_epoch_mask_ = ~0ULL;
  // Flippable single-cycle resolutions seen so far; compared against
  // EngineOptions::debug_flip_victim_deadlock (test hook).
  std::uint64_t debug_flip_opportunities_ = 0;
  EngineMetrics metrics_;
  static constexpr std::size_t kRollbackCostSamples = 65536;
  std::vector<std::uint32_t> rollback_costs_;  // bounded sample
  Rng rng_;
  std::uint64_t next_txn_ = 0;
  Timestamp clock_ = 0;
  std::uint64_t rr_cursor_ = 0;  // round-robin position
  // Memoized division-free reduction per scheduler bound: the ready count
  // cycles through a handful of small values, so each bound's magic
  // constants are computed once and the per-step divide disappears (the
  // draws stay bit-identical — see common/random.h FastMod). Entry n is
  // the reducer for bound n; n == 0 in a slot means not yet initialized.
  std::vector<FastMod> fastmod_;
  const FastMod& FastModFor(std::size_t bound);
};

}  // namespace pardb::core

#endif  // PARDB_CORE_ENGINE_H_
