#ifndef PARDB_OBS_SERVE_HUB_H_
#define PARDB_OBS_SERVE_HUB_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"
#include "obs/forensics.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/txnlife.h"

namespace pardb::obs {

// Coarse run phase for /healthz.
enum class RunPhase { kIdle, kGenerating, kRunning, kAggregating, kDone };
std::string_view RunPhaseName(RunPhase phase);

// Static run metadata surfaced by /healthz: what is this process running?
// Set once by the driver before the run starts (safe concurrently with the
// server thread only through the hub's SetRunInfo/GetRunInfo).
struct RunInfo {
  std::string build_id;    // compiler + build date, or a caller override
  std::uint64_t seed = 0;
  std::uint32_t shards = 0;
  std::string scheduler;   // "epochs" (the one driver)
  std::string mode;        // the pardb subcommand: "sim" / "parallel" / ...
};

// Rendezvous between an in-flight run and the introspection server.
//
// Producers (each shard of the sharded driver, at its own step
// boundaries) push point-in-time state in; the HTTP handlers, running on the
// server thread, read it out. Every cross-thread structure is either
// internally synchronized (MetricsRegistry, atomics) or guarded by the
// hub mutex (snapshots, the deadlock ring). Shard engines are never
// touched from the serving thread — they publish copies at their own step
// boundaries, which is what keeps snapshots consistent without a global
// stop.
class LiveHub {
 public:
  explicit LiveHub(const Clock* clock = nullptr,
                   std::size_t max_deadlocks = 32);

  // Run lifecycle ----------------------------------------------------------

  void SetPhase(RunPhase phase);
  RunPhase phase() const;
  // Seconds since construction (the serving process's uptime).
  double UptimeSeconds() const;

  // Metrics ----------------------------------------------------------------

  // Registers a live registry (one per shard; also the hub's own). Borrowed:
  // must outlive the hub or the hub must be discarded with the run. Safe
  // only between runs (before the pool starts / after it joins).
  void AddRegistry(const MetricsRegistry* registry);
  // Same, but the hub takes ownership: the registry lives as long as the
  // hub, so /metrics keeps serving a finished run's final values after the
  // driver's own state is gone. Returns the registry for the run to write.
  MetricsRegistry* AddOwnedRegistry(std::unique_ptr<MetricsRegistry> registry);
  void ClearRegistries();

  // Snapshot of every registered registry merged into one document (shard
  // labels preserved), plus the hub's own gauges (load skew, per-shard step
  // EWMAs) refreshed at call time. This is the /metrics body.
  RegistrySnapshot MergedMetrics() const;

  // Waits-for snapshots ----------------------------------------------------

  // Publishes `snap` as shard `snap.shard`'s latest state (replacing any
  // previous one). Called from the owning shard's thread.
  void PublishSnapshot(WaitsForSnapshot snap);
  // Latest snapshot of every shard that published one, in shard order.
  std::vector<WaitsForSnapshot> Snapshots() const;

  // The cross-shard union view (/debug/waits-for?scope=global): the merged
  // waits-for graph the xshard coordinator detects global cycles on.
  // Published from the driver's coordinate phase at merge cadence.
  void PublishGlobalSnapshot(WaitsForSnapshot snap);
  // Latest published union view; has_value() only when a locks-mode run
  // has published one.
  std::optional<WaitsForSnapshot> GlobalSnapshot() const;

  // Transaction-lifecycle digests ------------------------------------------

  // Publishes `digest` as shard `digest.shard`'s latest lifecycle digest
  // (replacing any previous one). Called from the owning shard's thread at
  // snapshot cadence; powers /debug/txn and /debug/slowest.
  void PublishTxnLife(TxnLifeDigest digest);
  // Latest digest of every shard that published one, in shard order.
  std::vector<TxnLifeDigest> TxnLifeDigests() const;

  // Decision-journal digests ------------------------------------------------

  // Publishes `digest` as shard `digest.shard`'s latest journal digest
  // (replacing any previous one). Called from the owning shard's thread at
  // snapshot cadence; powers /debug/journal.
  void PublishJournal(JournalDigest digest);
  // Latest digest of every shard that published one, in shard order.
  std::vector<JournalDigest> JournalDigests() const;

  // Run metadata for /healthz (build id, seed, shard count, scheduler).
  void SetRunInfo(RunInfo info);
  RunInfo GetRunInfo() const;

  // Monotonic counter bumped on every waits-for or lifecycle publish. The
  // SSE stream polls it to detect fresh state without holding the hub lock.
  std::uint64_t snapshot_version() const {
    return snapshot_version_.load(std::memory_order_acquire);
  }

  // Deadlock ring ----------------------------------------------------------

  // A DeadlockDumpSink that records into this hub's ring, tagged with
  // `shard`. The returned sink is owned by the hub and thread-safe (each
  // shard installs its own wrapper; the ring is shared).
  DeadlockDumpSink* MakeDeadlockSink(std::uint32_t shard);
  // Last `max_deadlocks` dumps across all shards, oldest first.
  std::vector<ShardDeadlockDump> RecentDeadlocks() const;
  std::uint64_t deadlocks_seen() const {
    return deadlocks_seen_.load(std::memory_order_relaxed);
  }

  // Load skew --------------------------------------------------------------

  // Feeds one sampled step duration for `shard` into its EWMA (alpha=1/8;
  // the first sample initializes). Called from the shard's own thread;
  // slots are per-shard atomics.
  void RecordShardStep(std::uint32_t shard, std::uint64_t ns);
  // max/mean over the per-shard step-time EWMAs; 0 while fewer than one
  // shard has reported, 1.0 = perfectly balanced.
  double LoadSkew() const;
  // EWMA of `shard`, 0 when it has not reported.
  std::uint64_t ShardStepEwmaNs(std::uint32_t shard) const;
  std::size_t num_shard_slots() const { return kMaxShards; }

  // The hub's own registry (skew gauges live here; also handy for callers
  // that want run-level metrics served without a shard registry).
  MetricsRegistry* hub_registry() { return &hub_registry_; }

 private:
  class RingSink final : public DeadlockDumpSink {
   public:
    RingSink(LiveHub* hub, std::uint32_t shard) : hub_(hub), shard_(shard) {}
    void OnDeadlock(const DeadlockDump& dump) override;

   private:
    LiveHub* hub_;
    std::uint32_t shard_;
  };

  static constexpr std::size_t kMaxShards = 64;

  void RecordDeadlock(std::uint32_t shard, const DeadlockDump& dump);
  void RefreshSkewGauges() const;

  const Clock* clock_;
  std::uint64_t start_nanos_;
  std::size_t max_deadlocks_;
  std::atomic<int> phase_{static_cast<int>(RunPhase::kIdle)};

  mutable std::mutex mu_;
  std::vector<const MetricsRegistry*> registries_;
  std::vector<std::unique_ptr<MetricsRegistry>> owned_registries_;
  std::vector<WaitsForSnapshot> snapshots_;  // latest per shard, shard order
  std::optional<WaitsForSnapshot> global_snapshot_;  // latest union view
  std::vector<TxnLifeDigest> txnlife_;       // latest per shard, shard order
  std::vector<JournalDigest> journals_;      // latest per shard, shard order
  RunInfo run_info_;
  std::atomic<std::uint64_t> snapshot_version_{0};
  std::deque<ShardDeadlockDump> deadlocks_;
  std::vector<std::unique_ptr<RingSink>> sinks_;
  std::atomic<std::uint64_t> deadlocks_seen_{0};

  std::atomic<std::uint64_t> step_ewma_ns_[kMaxShards] = {};

  mutable MetricsRegistry hub_registry_;
};

}  // namespace pardb::obs

#endif  // PARDB_OBS_SERVE_HUB_H_
