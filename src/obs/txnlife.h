#ifndef PARDB_OBS_TXNLIFE_H_
#define PARDB_OBS_TXNLIFE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/id_slots.h"
#include "common/types.h"
#include "obs/clock.h"
#include "obs/event.h"
#include "obs/metrics.h"

namespace pardb::obs {

// ---------------------------------------------------------------------------
// Per-transaction lifecycle timelines (DESIGN D13).
//
// Every transaction carries a compact timeline record stamped at admit,
// first step, each block/wake, each rollback (tagged with the decision that
// caused the loss and the causing transaction/cycle) and commit — in
// virtual step time always, in wall time on a sampled subset of events.
// The records power the end-to-end latency histograms (lock wait /
// execution / rollback-redo components, p50/p99/p999) and the live
// /debug/txn and /debug/slowest endpoints. The run's per-cause rollback
// ledger is the engine's (EngineMetrics); the book keeps only what each
// transaction went through.
//
// The book renders the engine's event stream (DESIGN D22) plus one
// per-op OnStep. Timeline data NEVER enters the deterministic
// byte-compared reports: everything it publishes flows through the metrics
// registry or the LiveHub.
// ---------------------------------------------------------------------------

// One timeline event. `wall_ns` is 0 unless the event was wall-sampled
// (admit/commit always are; interior events every wall_sample_period-th).
struct TxnLifeEvent {
  enum class Kind : std::uint8_t {
    kAdmit,
    kFirstStep,
    kBlock,
    kWake,
    kRollback,
    kCommit,
  };

  Kind kind = Kind::kAdmit;
  RollbackCause cause = RollbackCause::kDeadlockVictim;  // kRollback only
  std::uint64_t txn = 0;      // local TxnId value
  std::uint64_t step = 0;     // engine step counter at emission
  std::uint64_t wall_ns = 0;  // sampled wall clock, 0 = not sampled
  std::uint64_t detail = 0;   // entity (block), cost (rollback), pc (commit)
  std::uint64_t causing = 0;  // causing TxnId value + 1, 0 = none
  std::uint64_t cycle = 0;    // deadlock ordinal + 1, 0 = none
};

std::string_view TxnLifeEventKindName(TxnLifeEvent::Kind kind);

// Timeline summary of one transaction, the unit the hub publishes and the
// debug endpoints serialize. `events` holds the ring-retained window for
// this transaction (possibly empty once evicted).
struct TxnTimelineRecord {
  static constexpr std::uint64_t kUnset = ~0ULL;

  std::uint64_t txn = 0;
  std::uint32_t shard = 0;
  bool committed = false;
  std::uint64_t admit_step = kUnset;
  std::uint64_t first_step = kUnset;
  std::uint64_t commit_step = kUnset;
  std::uint64_t admit_ns = 0;
  std::uint64_t commit_ns = 0;
  std::uint64_t lock_wait_steps = 0;
  std::uint64_t exec_steps = 0;  // ops executed, redo included
  std::uint64_t redo_steps = 0;  // sum of rollback costs (lost then redone)
  std::uint64_t blocks = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t e2e_steps = 0;  // commit_step - admit_step, 0 while open
  std::vector<TxnLifeEvent> events;
};

// What a shard publishes to the LiveHub at snapshot cadence: the book's
// totals plus a bounded set of full records (top-k slowest committed and
// the most recently admitted), with per-record events recovered from the
// ring in one pass.
struct TxnLifeDigest {
  std::uint32_t shard = 0;
  std::uint64_t txns = 0;       // records in the book
  std::uint64_t committed = 0;  // of which committed
  // The shard engine's wasted ops (EngineMetrics::wasted_ops), filled in
  // by the publisher: the book does not count them.
  std::uint64_t wasted_steps = 0;
  std::uint64_t dropped_events = 0;
  std::vector<TxnTimelineRecord> slowest;  // descending e2e_steps
  std::vector<TxnTimelineRecord> recent;   // ascending txn id
};

// Per-engine lifecycle book. Single-threaded by design, like the engine
// that feeds it (the same discipline as LineageTracker): one book per
// engine/shard, written only by that shard's thread. Live visibility goes
// through attached metrics (lock-free registry objects) and through
// Digest(), which the shard thread materializes and hands to the hub.
//
// Storage is one row per transaction still worth publishing (DESIGN D23):
// the live ones, plus the committed ones among the kRecent most recently
// admitted (Digest's `recent` set). A committed row otherwise folds into
// the latency histograms and, when it ranks, into the bounded top-kSlowest
// set — so the book is O(live) however long the run. One bounded event
// ring is shared by all transactions; ring eviction is counted.
class TxnLifeBook {
 public:
  struct Options {
    std::size_t ring_capacity = 4096;      // timeline events retained
    std::uint64_t wall_sample_period = 64; // interior-event wall sampling
    const Clock* clock = nullptr;          // null = monotonic wall clock
  };

  TxnLifeBook() : TxnLifeBook(Options{}) {}
  explicit TxnLifeBook(Options options);

  // Engine hooks -----------------------------------------------------------

  // Stamps admit, block, wake (a grant that ended a wait), rollback and
  // commit; a grant also counts as one executed op. Other kinds are
  // ignored.
  void OnEvent(const EngineEvent& event);
  // Called once per executed non-lock op; stamps the first step and counts
  // the transaction's work.
  void OnStep(TxnId txn, std::uint64_t step);

  // Registers the book's metric set in `registry` (the latency component
  // histograms and the dropped-events counter). Updates happen inline at
  // stamp time; there is no separate export step. The registry must
  // outlive the book.
  void AttachMetrics(MetricsRegistry* registry, const LabelSet& labels = {});

  // Introspection ----------------------------------------------------------

  std::uint64_t txns() const { return admitted_; }
  std::uint64_t committed() const { return committed_; }
  std::uint64_t total_events() const { return total_events_; }
  // Events evicted from the ring because it was full.
  std::uint64_t dropped_events() const { return dropped_events_; }

  // Rows retained, live or not: at most the live count plus kRecent.
  std::size_t rows() const { return rows_.size(); }

  // Timeline materialization (shard thread only) ---------------------------

  // Committed transactions answer while they are among the kRecent most
  // recently admitted or the kSlowest slowest; older ones are folded away.
  bool Has(TxnId txn) const;
  // Full record with its ring-retained events (an empty record when the
  // book no longer has the transaction).
  TxnTimelineRecord RecordOf(TxnId txn, std::uint32_t shard = 0) const;
  // `top_k` and `recent` are clamped to kSlowest and kRecent.
  TxnLifeDigest Digest(std::uint32_t shard, std::size_t top_k = kSlowest,
                       std::size_t recent = kRecent) const;

  static constexpr std::size_t kSlowest = 64;
  static constexpr std::size_t kRecent = 128;

 private:
  // One transaction's columns.
  struct Row {
    std::uint64_t txn = 0;
    std::uint64_t ordinal = 0;  // admissions before this one
    std::uint64_t admit_step = TxnTimelineRecord::kUnset;
    std::uint64_t first_step = TxnTimelineRecord::kUnset;
    std::uint64_t commit_step = TxnTimelineRecord::kUnset;
    std::uint64_t admit_ns = 0;
    std::uint64_t commit_ns = 0;
    std::uint64_t lock_wait_steps = 0;
    std::uint64_t block_since = TxnTimelineRecord::kUnset;  // not blocked
    std::uint64_t exec_steps = 0;
    std::uint64_t redo_steps = 0;
    std::uint32_t blocks = 0;
    std::uint32_t rollbacks = 0;
  };

  Row* Find(TxnId txn);
  const Row* Find(TxnId txn) const;
  // Drops txn's row once it is committed and out of the recent window.
  void MaybeRetire(std::uint64_t txn);
  void Admit(TxnId txn, std::uint64_t step);
  void Block(TxnId txn, std::uint64_t step, EntityId entity);
  void Wake(TxnId txn, std::uint64_t step);
  void Rollback(const EngineEvent& event);
  void Commit(TxnId txn, std::uint64_t step, StateIndex pc);
  void PushEvent(TxnLifeEvent event, bool always_wall);
  std::uint64_t SampledWall(bool always) const;
  static TxnTimelineRecord SummaryOf(const Row& row, std::uint32_t shard);
  // Digest's ranking: more end-to-end steps first, then the lower id.
  static bool Slower(const Row& a, const Row& b);

  Options options_;
  const Clock* clock_;
  IdSlots row_of_;         // txn id -> index into rows_
  std::vector<Row> rows_;  // reused after MaybeRetire
  // Ids of the kRecent most recently admitted transactions (ring, oldest
  // at admitted_ % kRecent once full).
  std::vector<std::uint64_t> recent_;
  // The kSlowest slowest committed rows, a heap with the fastest on top.
  std::vector<Row> slowest_;

  // Bounded event ring (oldest evicted first).
  std::vector<TxnLifeEvent> ring_;
  std::size_t ring_head_ = 0;  // index of the oldest retained event
  std::uint64_t total_events_ = 0;
  std::uint64_t dropped_events_ = 0;

  std::uint64_t admitted_ = 0;
  std::uint64_t committed_ = 0;

  // Attached registry objects (all may be null).
  Counter* dropped_counter_ = nullptr;
  Histogram* e2e_steps_hist_ = nullptr;
  Histogram* lock_wait_hist_ = nullptr;
  Histogram* exec_hist_ = nullptr;
  Histogram* redo_hist_ = nullptr;
};

// JSON rendering for the live endpoints -------------------------------------

// One record as a JSON object (timeline events included). Pinned by
// tools/txnlife_schema.json.
std::string TxnTimelineToJson(const TxnTimelineRecord& record);

// /debug/slowest?k= : top-k committed transactions by end-to-end steps
// across all published shard digests, slowest first.
std::string SlowestTxnsJson(const std::vector<TxnLifeDigest>& digests,
                            std::size_t k);

// /debug/txn?id= : every published record whose local txn id equals `id`
// (one per shard at most), plus the totals of each owning shard.
std::string TxnByIdJson(const std::vector<TxnLifeDigest>& digests,
                        std::uint64_t id);

}  // namespace pardb::obs

#endif  // PARDB_OBS_TXNLIFE_H_
