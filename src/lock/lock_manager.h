#ifndef PARDB_LOCK_LOCK_MANAGER_H_
#define PARDB_LOCK_LOCK_MANAGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/id_slots.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "lock/lock_mode.h"
#include "obs/probe.h"

namespace pardb::lock {

// The answer to a lock request (paper §2 rules 1-2: grant when available,
// otherwise make the requester wait). Rule 3 — deadlock intervention — is
// the Engine's job: it reads the waits-for arcs off this table on demand
// (AppendBlockersOf; DESIGN D27).
struct RequestOutcome {
  bool granted = false;
  // When not granted: the transactions this request now waits for. In the
  // paper model these are the incompatible holders; with fifo_fairness
  // every waiter queued ahead of the request is included as well.
  std::vector<TxnId> blockers;
  // True when the request upgrades a held shared lock to exclusive.
  bool is_upgrade = false;
};

// The allocation-free answer of LockManager::TryRequest: the grant/wait
// decision without the blocker list (which the hot path never reads).
struct RequestResult {
  bool granted = false;
  bool is_upgrade = false;
};

// A lock grant performed while processing a release; the Engine resumes
// these transactions.
struct Grant {
  TxnId txn;
  EntityId entity;
  LockMode mode;
  bool was_upgrade = false;
};

// The pending request of a waiting transaction.
struct PendingRequest {
  EntityId entity;
  LockMode mode;
  bool is_upgrade = false;
};

// Table of entity locks with FIFO wait queues.
//
// Grant discipline:
//  * a request is granted immediately iff it is compatible with every
//    current holder and may pass the queue: with fifo_fairness nothing
//    passes a waiter; in the paper model an exclusive request passes
//    nobody, and a shared one passes queued exclusive requests but keeps
//    its place behind a queued shared one (which waits only while an
//    exclusive lock is held, so it could not be granted either);
//  * an upgrade (X requested while holding S) is granted immediately iff
//    the requester is the sole holder; otherwise it waits at the front of
//    the queue;
//  * on release, the queue head is granted while grantable (a run of
//    compatible shared requests is granted together).
//
// The manager is a passive table: it never sleeps or spins. Blocking is
// represented by queue membership; the Engine owns scheduling.
//
// Layout (DESIGN D15): entity ids index a flat slot vector through a
// dense-id remap assigned at first touch, with an intrusive free list
// recycling slots whose holder set and queue are both empty; holder and
// waiter lists are inline-capacity vectors spilling into a per-manager
// arena, so steady-state lock operations perform no hashing and no heap
// allocation. Holder lists are kept in grant order internally; every
// snapshot/export site (Holders, HeldBy, StateDigest, ToString) sorts at
// emission, which is what keeps DOT/JSON/digest output byte-identical to
// the ordered-map layout this replaced.
class LockManager {
 public:
  struct Options {
    // false (paper model): a shared request compatible with all holders is
    // granted even when exclusive requests wait in the queue (writers can
    // starve; the paper explicitly leaves fairness out of scope).
    // true: strict FIFO — nothing bypasses the queue.
    //
    // The queue discipline also fixes the waits-for arcs. The paper model
    // draws arcs from incompatible holders only — its concurrency graph
    // G(T) (§3.0), complete because a compatible request never waits
    // behind the queue. Under FIFO a request also waits for every waiter
    // queued ahead, so those arcs are drawn too; without them detection
    // would miss cycles through the queue.
    bool fifo_fairness = false;
  };

  LockManager() : LockManager(Options{}) {}
  explicit LockManager(Options options) : options_(options) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  const Options& options() const { return options_; }

  // Installs telemetry counters (nullptr to detach). Not owned; must
  // outlive the manager or be detached first. Counter updates are
  // accumulated locally and pushed by FlushProbe — detaching flushes.
  void set_probe(const obs::LockProbe* probe) {
    if (probe == nullptr) FlushProbe();
    probe_ = probe;
  }

  // Pushes the locally batched counter deltas into the probe's atomics.
  // The engine calls this at quantum boundaries; totals observed after a
  // flush are identical to what per-operation updates would have produced.
  void FlushProbe();

  // Pre-sizes the entity-slot remap for `n` dense entity ids (capacity
  // hint only; the table grows on first touch regardless).
  void ReserveEntities(std::size_t n);
  // Pre-sizes per-transaction state for `n` transactions at once (capacity
  // hint only; rows are created on first use regardless).
  void ReserveTxns(std::size_t n);

  // Retires txn's row once it holds nothing and waits for nothing (the
  // engine calls it at commit), so the next transaction reuses it (DESIGN
  // D23). A no-op otherwise. Later queries on txn answer as for a
  // transaction that never locked anything.
  void ForgetTxn(TxnId txn);
  // Per-transaction rows held: the most transactions ever known at once.
  std::size_t txn_rows() const { return txn_state_.size(); }

  // Requests `mode` on `entity` for `txn`. Errors:
  //  * FailedPrecondition — txn is already waiting for some entity;
  //  * ProtocolViolation — txn already holds an equal-or-stronger lock.
  Result<RequestOutcome> Request(TxnId txn, EntityId entity, LockMode mode);

  // Hot-path variant of Request: identical state transition, but the
  // blocker list is not materialized (no allocation on the wait path).
  // Callers that need the blockers read them afterwards via
  // AppendBlockersOf, which reproduces the same sorted-unique list.
  Result<RequestResult> TryRequest(TxnId txn, EntityId entity, LockMode mode);

  // Removes txn's pending wait (victim rollback cancels its request).
  // NotFound when txn is not waiting for `entity`. Cancelling can unblock
  // requests queued behind the cancelled one; they are granted and
  // appended to *out.
  Status CancelWaitInto(TxnId txn, EntityId entity, std::vector<Grant>* out);
  Result<std::vector<Grant>> CancelWait(TxnId txn, EntityId entity);

  // Releases txn's held lock on `entity` and appends newly grantable
  // waiters to *out. NotFound when the lock is not held.
  Status ReleaseInto(TxnId txn, EntityId entity, std::vector<Grant>* out);
  Result<std::vector<Grant>> Release(TxnId txn, EntityId entity);

  // Downgrades txn's exclusive lock on `entity` to shared (a rollback that
  // undoes an S->X upgrade but keeps the original shared request). Grants
  // newly compatible waiters. NotFound when no exclusive lock is held.
  Status DowngradeInto(TxnId txn, EntityId entity, std::vector<Grant>* out);
  Result<std::vector<Grant>> Downgrade(TxnId txn, EntityId entity);

  // Releases every lock txn holds (commit or total removal) and cancels
  // its pending wait if any. Returns all grants performed.
  std::vector<Grant> ReleaseAll(TxnId txn);

  // Introspection -----------------------------------------------------------

  // Current holders of entity with their modes, ordered by txn id.
  std::vector<std::pair<TxnId, LockMode>> Holders(EntityId entity) const;
  // Waiting transactions on entity in queue order.
  std::vector<std::pair<TxnId, LockMode>> WaitQueue(EntityId entity) const;
  std::optional<LockMode> HeldMode(TxnId txn, EntityId entity) const;
  bool IsWaiting(TxnId txn) const;
  std::optional<PendingRequest> Waiting(TxnId txn) const;
  // Entities txn currently holds, with modes, ordered by entity id.
  std::vector<std::pair<EntityId, LockMode>> HeldBy(TxnId txn) const;
  std::size_t HeldCount(TxnId txn) const;
  // Transactions currently blocked in some wait queue (the live gauge
  // pardb_waiting_txns reads this).
  std::size_t WaitingCount() const { return waiting_count_; }

  // Appends the blockers of txn's pending request under the queue
  // discipline (see Options::fifo_fairness) to *out, sorted and
  // deduplicated, without allocating when out has capacity, and returns
  // the entity it waits for. These are txn's waits-for in-arcs, each
  // labeled with that entity. Appends nothing and returns an invalid id
  // when txn is not waiting; appends nothing in the paper model when txn
  // waits purely on queue order.
  EntityId AppendBlockersOf(TxnId txn, std::vector<TxnId>* out) const;

  // False only when no waiter lists txn among its blockers: AppendBlockersOf
  // draws no arc out of txn. True when an entity txn holds has a waiter
  // other than txn, or, under fifo_fairness, when someone is queued behind
  // txn's own pending request — a superset of those arcs (DESIGN D28).
  // O(held locks + 1). A wait by a transaction this answers false for
  // cannot close a cycle.
  bool MayBlockWaiters(TxnId txn) const;

  // Appends every entity txn holds to *out (unsorted; callers needing the
  // HeldBy order sort the appended range by entity id).
  void AppendHeldEntities(TxnId txn, std::vector<EntityId>* out) const;

  // Deterministic FNV digest of the whole lock table: holders (with modes,
  // in txn order) and wait queues (in queue order) of every entity.
  // Per-entity digests are XOR-combined so slot order cannot leak into
  // the result. Feeds the decision journal's epoch checksums (DESIGN D14).
  std::uint64_t StateDigest() const;

  // Debug dump of the whole lock table.
  std::string ToString() const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct HolderEntry {
    TxnId txn;
    LockMode mode;
  };

  struct Waiter {
    TxnId txn;
    LockMode mode;
    bool is_upgrade;
  };

  struct EntityState {
    EntityId entity;  // back-pointer; invalid while the slot is free
    std::uint32_t next_free = kNoSlot;  // intrusive free-list link
    SmallVec<HolderEntry, 4> holders;   // grant order; sorted at emission
    SmallVec<Waiter, 4> queue;          // FIFO order

    const HolderEntry* FindHolder(TxnId txn) const {
      for (const HolderEntry& h : holders) {
        if (h.txn == txn) return &h;
      }
      return nullptr;
    }
    HolderEntry* FindHolder(TxnId txn) {
      for (HolderEntry& h : holders) {
        if (h.txn == txn) return &h;
      }
      return nullptr;
    }
  };

  struct HeldEntry {
    EntityId entity;
    LockMode mode;
  };

  // Per-transaction lock state, one row per transaction known to the table
  // (see txn_rows_).
  struct TxnState {
    SmallVec<HeldEntry, 8> held;  // grant order; sorted at emission
    EntityId waiting_for;         // invalid when not waiting

    const HeldEntry* FindHeld(EntityId entity) const {
      for (const HeldEntry& h : held) {
        if (h.entity == entity) return &h;
      }
      return nullptr;
    }
    HeldEntry* FindHeld(EntityId entity) {
      for (HeldEntry& h : held) {
        if (h.entity == entity) return &h;
      }
      return nullptr;
    }
  };

  // Slot accessors: SlotFor returns nullptr when the entity has no live
  // slot; EnsureSlot admits the entity into the dense remap (recycling a
  // free slot when one exists).
  const EntityState* SlotFor(EntityId entity) const {
    const std::uint64_t v = entity.value();
    if (v >= slot_of_.size() || slot_of_[v] == kNoSlot) return nullptr;
    return &slots_[slot_of_[v]];
  }
  EntityState* SlotFor(EntityId entity) {
    const std::uint64_t v = entity.value();
    if (v >= slot_of_.size() || slot_of_[v] == kNoSlot) return nullptr;
    return &slots_[slot_of_[v]];
  }
  EntityState& EnsureSlot(EntityId entity);
  // Returns es's slot to the free list when it holds nothing and nobody
  // waits (keeping allocated spill capacity for reuse).
  void MaybeFreeSlot(EntityState& es);

  const TxnState* StateFor(TxnId txn) const {
    const std::uint32_t row = txn_rows_.Find(txn.value());
    return row == IdSlots::kNone ? nullptr : &txn_state_[row];
  }
  TxnState* StateFor(TxnId txn) {
    const std::uint32_t row = txn_rows_.Find(txn.value());
    return row == IdSlots::kNone ? nullptr : &txn_state_[row];
  }
  TxnState& EnsureTxn(TxnId txn);

  // Sets holder `txn` to `mode`, inserting or overwriting (an upgrade
  // rewrites the shared entry in place, preserving grant order).
  static void UpsertHolder(EntityState& es, TxnId txn, LockMode mode);
  static void UpsertHeld(TxnState& ts, EntityId entity, LockMode mode);
  void EraseHeld(TxnId txn, EntityId entity);

  // True when `w` can be granted right now given holders and the queue
  // segment ahead of it. `position` is w's index in the queue (or the
  // would-be index for a new request = queue size).
  bool Grantable(const EntityState& es, const Waiter& w,
                 std::size_t position) const;

  // Grants the longest grantable prefix of the queue; appends to out.
  void ProcessQueue(EntityState& es, std::vector<Grant>* out);

  // Appends blockers (sorted, deduplicated) to *out.
  void AppendBlockers(const EntityState& es, const Waiter& w,
                      std::size_t position, std::vector<TxnId>* out) const;

  Options options_;
  const obs::LockProbe* probe_ = nullptr;  // may be null

  // Locally batched probe counters, pushed by FlushProbe (tentpole (d):
  // no atomic ops on the per-step path).
  struct ProbeDelta {
    std::uint64_t requests = 0;
    std::uint64_t grants_immediate = 0;
    std::uint64_t queued = 0;
    std::uint64_t grants_on_release = 0;
    std::uint64_t cancels = 0;
    std::int64_t max_queue_depth = 0;  // local high-water mark
  };
  ProbeDelta delta_;

  Arena arena_;
  std::vector<EntityState> slots_;
  std::vector<std::uint32_t> slot_of_;  // entity id -> slot index
  std::uint32_t free_head_ = kNoSlot;
  IdSlots txn_rows_;                 // txn id -> row of txn_state_
  std::vector<TxnState> txn_state_;  // by row; reused after ForgetTxn
  std::size_t waiting_count_ = 0;
};

}  // namespace pardb::lock

#endif  // PARDB_LOCK_LOCK_MANAGER_H_
