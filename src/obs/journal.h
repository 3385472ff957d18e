#ifndef PARDB_OBS_JOURNAL_H_
#define PARDB_OBS_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/event.h"

namespace pardb::obs {

// ---------------------------------------------------------------------------
// Deterministic decision journal (DESIGN D14).
//
// A per-engine flight recorder: a compact, allocation-light binary log of
// every schedule-relevant decision (admit, grant, block, cycle detected,
// victim chosen with its §3.1 cost, rollback span, sub-txn hold/release,
// commit) plus an FNV-1a-chained sequence of *epoch checksums* — digests of
// lock-table state, live set and ω-order stamped at deterministic step
// boundaries (and at 2PC epochs on the cross-shard coordinator). Two runs
// of the same seed must produce byte-identical journals; when they do not,
// checksum bisection narrows the break to the first divergent epoch and a
// record-level diff pins the exact first divergent decision.
//
// The journal is one renderer of the engine's event stream (DESIGN D22):
// it packs each EngineEvent into one record. Journal data NEVER enters the
// deterministic byte-compared reports; everything it publishes flows
// through the metrics registry, the LiveHub, or side files.
// ---------------------------------------------------------------------------

// FNV-1a 64-bit, the chain primitive. Folding a 64-bit word mixes each of
// its 8 bytes (little-endian) so the digest matches a byte-wise FNV-1a over
// the serialized record stream.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t FnvMix64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

// One decision record: 32 bytes, fixed layout, trivially copyable — the
// unit of both the in-memory ring and the on-disk journal file. Per kind:
//   grant    a = entity; aux bit0 exclusive, bit1 upgrade
//   block    a = entity
//   cycle    txn = requester, a = entity, b = deadlock ordinal
//   victim   a = rollback target, b = cost; aux bit0 when the ω order moved
//            the pick off plain min-cost, bit1 when the victim is the
//            requester; aux2 = candidate count
//   rollback a = target, b = cost, aux = RollbackCause, aux2 = 1 if total
//   hold     a = hold point;  commit  a = final pc
struct JournalRecord {
  std::uint32_t txn = 0;   // local TxnId value (truncated; ids are dense)
  std::uint8_t kind = 0;   // EventKind
  std::uint8_t aux = 0;    // kind-specific flag byte
  std::uint16_t aux2 = 0;  // kind-specific small count
  std::uint64_t step = 0;  // engine step counter at the decision
  std::uint64_t a = 0;     // kind-specific (entity / target / pc)
  std::uint64_t b = 0;     // kind-specific (cost / ordinal)

  friend bool operator==(const JournalRecord& x, const JournalRecord& y) {
    return x.txn == y.txn && x.kind == y.kind && x.aux == y.aux &&
           x.aux2 == y.aux2 && x.step == y.step && x.a == y.a && x.b == y.b;
  }
  friend bool operator!=(const JournalRecord& x, const JournalRecord& y) {
    return !(x == y);
  }
};
static_assert(sizeof(JournalRecord) == 32, "journal record layout drifted");

// Why an epoch checksum was stamped.
enum class EpochKind : std::uint8_t {
  kStep = 0,  // engine step counter crossed a period boundary
  kTwoPC,     // cross-shard coordinator global lock point (2PC epoch)
};

// One link of the checksum chain. `chain` folds the previous link, the
// state digest and the digest of all records appended since the previous
// stamp — so the first index where two runs' chains differ IS the first
// divergent epoch, and equality at any index certifies the whole prefix.
struct EpochStamp {
  std::uint64_t epoch = 0;          // ordinal in this journal (0-based)
  std::uint64_t step = 0;           // engine step at the stamp
  std::uint64_t state_digest = 0;   // lock table + live set + ω-order
  std::uint64_t record_digest = 0;  // records since the previous stamp
  std::uint64_t chain = 0;          // FNV(prev chain, kind, state, records)
  std::uint64_t record_count = 0;   // cumulative records at stamp time
  std::uint8_t kind = 0;            // EpochKind
  std::uint8_t pad[7] = {};

  friend bool operator==(const EpochStamp& x, const EpochStamp& y) {
    return x.epoch == y.epoch && x.step == y.step &&
           x.state_digest == y.state_digest &&
           x.record_digest == y.record_digest && x.chain == y.chain &&
           x.record_count == y.record_count && x.kind == y.kind;
  }
};
static_assert(sizeof(EpochStamp) == 56, "epoch stamp layout drifted");

// What a shard publishes to the LiveHub at snapshot cadence: totals, the
// chain head, a bounded tail of recent records and recent stamps — enough
// for /debug/journal without copying the whole ring.
struct JournalDigest {
  std::uint32_t shard = 0;
  std::uint64_t records = 0;  // total appended
  std::uint64_t dropped = 0;  // evicted from the bounded ring
  std::uint64_t bytes = 0;    // bytes logged (records + stamps)
  std::uint64_t epochs = 0;   // stamps taken
  std::uint64_t chain = kFnvOffsetBasis;  // latest chain value
  std::vector<JournalRecord> tail;        // newest-last
  std::vector<EpochStamp> recent_stamps;  // newest-last
};

// Per-engine decision journal. Single-threaded by design, like the engine
// that feeds it (the TxnLifeBook discipline): one journal per engine/shard,
// written only by that shard's thread. Appends are branch-light stores into
// a preallocated ring; the chain is updated only at epoch stamps.
class DecisionJournal {
 public:
  struct Options {
    // Records retained in memory. 0 = unbounded (recording mode — the CLI
    // uses this so journal files are complete); bounded rings count
    // evictions in dropped_records().
    std::size_t ring_capacity = 65536;
  };

  DecisionJournal() : DecisionJournal(Options{}) {}
  explicit DecisionJournal(Options options);

  DecisionJournal(const DecisionJournal&) = delete;
  DecisionJournal& operator=(const DecisionJournal&) = delete;

  // Appends the event's record: kind and txn as emitted; `a`, `b`, `aux`
  // and `aux2` packed per kind (see JournalRecord).
  void OnEvent(const EngineEvent& event);

  // Epoch checksum stamp. `state_digest` is the caller's deterministic
  // digest of lock-table state, live set and ω-order (Engine::StateDigest,
  // or the fold of every shard's digest for 2PC epochs). Extends the chain
  // by one link.
  void StampEpoch(std::uint64_t step, std::uint64_t state_digest,
                  EpochKind kind = EpochKind::kStep);

  // Test hook: XOR a constant into the state digest of epoch ordinal
  // `epoch` (simulating a perturbed ω-order) so the chain — and every later
  // link — flips at exactly that epoch. ~0 disables.
  void set_perturb_epoch_for_test(std::uint64_t epoch) {
    perturb_epoch_ = epoch;
  }

  // Registers pardb_journal_* series in `registry` (records, epochs,
  // dropped, bytes). Updates happen inline at append time; the registry
  // must outlive the journal.
  void AttachMetrics(MetricsRegistry* registry, const LabelSet& labels = {});

  // Introspection ----------------------------------------------------------

  std::uint64_t total_records() const { return total_records_; }
  std::uint64_t dropped_records() const { return dropped_records_; }
  std::uint64_t bytes_logged() const { return bytes_; }
  std::uint64_t chain() const { return chain_; }
  const std::vector<EpochStamp>& stamps() const { return stamps_; }
  // Chain values only, in epoch order (what determinism tests compare).
  std::vector<std::uint64_t> ChainValues() const;
  // Retained records, oldest first. Copies out of the ring.
  std::vector<JournalRecord> RetainedRecords() const;

  JournalDigest Digest(std::uint32_t shard, std::size_t tail = 64,
                       std::size_t recent_stamps = 8) const;

  // Writes the journal (header, stamps, retained records) to `path`.
  Status WriteFile(const std::string& path, std::uint32_t shard,
                   std::uint64_t seed) const;

 private:
  void Append(const JournalRecord& r);

  Options options_;
  std::vector<JournalRecord> ring_;
  std::size_t ring_head_ = 0;  // oldest retained record when ring is full
  std::uint64_t total_records_ = 0;
  std::uint64_t dropped_records_ = 0;
  std::uint64_t bytes_ = 0;

  std::vector<EpochStamp> stamps_;
  std::uint64_t chain_ = kFnvOffsetBasis;
  std::uint64_t pending_digest_ = kFnvOffsetBasis;  // records since stamp
  std::uint64_t perturb_epoch_ = ~0ULL;

  Counter* records_counter_ = nullptr;
  Counter* epochs_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  Counter* bytes_counter_ = nullptr;
};

// On-disk journal, as loaded back for diffing -------------------------------

struct JournalData {
  std::uint32_t shard = 0;
  std::uint64_t seed = 0;
  // Global ordinal of the first retained record (> 0 when the ring dropped).
  std::uint64_t base_ordinal = 0;
  std::uint64_t total_records = 0;
  std::uint64_t dropped = 0;
  std::vector<EpochStamp> stamps;
  std::vector<JournalRecord> records;  // retained, oldest first
};

Result<JournalData> ReadJournalFile(const std::string& path);

// First-divergence diagnosis ------------------------------------------------

inline constexpr std::size_t kNoDivergence = ~static_cast<std::size_t>(0);

// Binary search for the first index where the two chains differ. Valid
// because chains are cumulative: links equal at i certify the prefix, links
// unequal at i stay unequal at every j > i. Returns kNoDivergence when one
// chain is a prefix of the other and `min(size)` indices all match — unless
// the sizes differ, in which case the shorter length is returned (the first
// epoch present on one side only).
std::size_t FirstDivergentEpoch(const std::vector<EpochStamp>& a,
                                const std::vector<EpochStamp>& b);

struct DivergenceReport {
  bool diverged = false;
  bool state_only = false;  // digests differ but retained records match
  bool truncated = false;   // divergent range partly evicted from a ring
  std::uint64_t epoch = 0;  // first divergent epoch ordinal
  std::uint64_t step_a = 0;
  std::uint64_t step_b = 0;
  std::uint64_t record_ordinal = 0;  // global ordinal of the first
                                     // divergent record (when !state_only)
  bool has_record_a = false;
  bool has_record_b = false;
  JournalRecord record_a;
  JournalRecord record_b;
  std::vector<JournalRecord> context;  // shared records just before the break
  std::uint64_t state_a = 0;
  std::uint64_t state_b = 0;
  std::uint64_t chain_a = 0;
  std::uint64_t chain_b = 0;
};

// Chain bisection to the first divergent epoch, then record-level diff
// inside it. `a` and `b` must come from runs of the same workload.
DivergenceReport DiffJournals(const JournalData& a, const JournalData& b);

// Rendering -----------------------------------------------------------------

// One record, human-readable: "step 412 T9 victim target=3 cost=4 ...".
std::string RenderJournalRecord(const JournalRecord& record);

// Human-readable first-divergence report (epoch, shard, txn, event, both
// sides' context). `label_a`/`label_b` name the two runs.
std::string RenderDivergence(const DivergenceReport& report,
                             std::uint32_t shard, const std::string& label_a,
                             const std::string& label_b);

// One-paragraph per-journal summary for `pardb journal` / diff headers.
std::string SummarizeJournal(const JournalData& data,
                             const std::string& label);

// /debug/journal?shard= payload: totals, chain head, record tail and
// recent stamps of one shard's published digest.
std::string JournalTailJson(const JournalDigest& digest);

}  // namespace pardb::obs

#endif  // PARDB_OBS_JOURNAL_H_
