#include "lock/lock_manager.h"

#include <algorithm>
#include <sstream>

#include "obs/journal.h"

namespace pardb::lock {

namespace {

std::string Describe(TxnId txn, EntityId entity) {
  std::ostringstream os;
  os << txn << "/" << entity;
  return os.str();
}

}  // namespace

void LockManager::FlushProbe() {
  if (probe_ == nullptr) return;
  if (probe_->requests != nullptr && delta_.requests != 0) {
    probe_->requests->Inc(delta_.requests);
  }
  if (probe_->grants_immediate != nullptr && delta_.grants_immediate != 0) {
    probe_->grants_immediate->Inc(delta_.grants_immediate);
  }
  if (probe_->queued != nullptr && delta_.queued != 0) {
    probe_->queued->Inc(delta_.queued);
  }
  if (probe_->grants_on_release != nullptr &&
      delta_.grants_on_release != 0) {
    probe_->grants_on_release->Inc(delta_.grants_on_release);
  }
  if (probe_->cancels != nullptr && delta_.cancels != 0) {
    probe_->cancels->Inc(delta_.cancels);
  }
  if (probe_->max_queue_depth != nullptr && delta_.max_queue_depth != 0) {
    // The local value is a monotone high-water mark; SetMax is idempotent,
    // so re-pushing it every flush is correct.
    probe_->max_queue_depth->SetMax(delta_.max_queue_depth);
  }
  delta_.requests = 0;
  delta_.grants_immediate = 0;
  delta_.queued = 0;
  delta_.grants_on_release = 0;
  delta_.cancels = 0;
}

void LockManager::ReserveEntities(std::size_t n) {
  if (slot_of_.size() < n) slot_of_.resize(n, kNoSlot);
  slots_.reserve(n);
}

void LockManager::ReserveTxns(std::size_t n) {
  txn_rows_.Reserve(n);
  txn_state_.reserve(n);
}

void LockManager::ForgetTxn(TxnId txn) {
  const TxnState* ts = StateFor(txn);
  if (ts == nullptr || !ts->held.empty() || ts->waiting_for.valid()) return;
  txn_rows_.Erase(txn.value());
}

LockManager::EntityState& LockManager::EnsureSlot(EntityId entity) {
  const std::uint64_t v = entity.value();
  if (v >= slot_of_.size()) slot_of_.resize(v + 1, kNoSlot);
  std::uint32_t s = slot_of_[v];
  if (s != kNoSlot) return slots_[s];
  if (free_head_ != kNoSlot) {
    s = free_head_;
    free_head_ = slots_[s].next_free;
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_[s].holders.set_arena(&arena_);
    slots_[s].queue.set_arena(&arena_);
  }
  slots_[s].entity = entity;
  slots_[s].next_free = kNoSlot;
  slot_of_[v] = s;
  return slots_[s];
}

void LockManager::MaybeFreeSlot(EntityState& es) {
  if (!es.holders.empty() || !es.queue.empty()) return;
  const std::uint32_t s =
      static_cast<std::uint32_t>(&es - slots_.data());
  slot_of_[es.entity.value()] = kNoSlot;
  es.entity = EntityId();
  es.next_free = free_head_;
  free_head_ = s;
}

LockManager::TxnState& LockManager::EnsureTxn(TxnId txn) {
  if (TxnState* ts = StateFor(txn)) return *ts;
  const std::uint32_t row = txn_rows_.Insert(txn.value());
  if (row == txn_state_.size()) {
    txn_state_.emplace_back();
    txn_state_.back().held.set_arena(&arena_);
  }
  // A retired row held nothing and waited for nothing.
  return txn_state_[row];
}

void LockManager::UpsertHolder(EntityState& es, TxnId txn, LockMode mode) {
  if (HolderEntry* h = es.FindHolder(txn)) {
    h->mode = mode;
    return;
  }
  es.holders.push_back(HolderEntry{txn, mode});
}

void LockManager::UpsertHeld(TxnState& ts, EntityId entity, LockMode mode) {
  if (HeldEntry* h = ts.FindHeld(entity)) {
    h->mode = mode;
    return;
  }
  ts.held.push_back(HeldEntry{entity, mode});
}

void LockManager::EraseHeld(TxnId txn, EntityId entity) {
  TxnState* ts = StateFor(txn);
  if (ts == nullptr) return;
  for (std::size_t i = 0; i < ts->held.size(); ++i) {
    if (ts->held[i].entity == entity) {
      ts->held.erase_at(i);
      return;
    }
  }
}

bool LockManager::Grantable(const EntityState& es, const Waiter& w,
                            std::size_t position) const {
  // Upgrades are grantable iff the requester is the sole holder.
  if (w.is_upgrade) {
    return es.holders.size() == 1 && es.holders[0].txn == w.txn;
  }
  for (const HolderEntry& h : es.holders) {
    if (h.txn == w.txn) continue;  // cannot happen for non-upgrades
    if (!Compatible(h.mode, w.mode)) return false;
  }
  // Queue discipline: under fifo_fairness nothing passes a waiter; in the
  // paper model a compatible request passes waiting incompatible ones.
  const std::size_t ahead = std::min(position, es.queue.size());
  for (std::size_t i = 0; i < ahead; ++i) {
    const Waiter& q = es.queue[i];
    if (options_.fifo_fairness) return false;
    // Shared bypass: S may pass X waiters; but an X request never passes
    // anyone (it is incompatible with whatever the waiter ahead wants or
    // holds ambitions for).
    if (w.mode == LockMode::kExclusive) return false;
    if (q.mode == LockMode::kShared) {
      // Two shared requests queued: if the one ahead is not grantable the
      // entity has an X holder, so neither is this one; conservatively
      // keep order.
      return false;
    }
    // q wants X, w wants S: bypass allowed in the paper model.
  }
  return true;
}

void LockManager::AppendBlockers(const EntityState& es, const Waiter& w,
                                 std::size_t position,
                                 std::vector<TxnId>* out) const {
  const std::size_t base = out->size();
  for (const HolderEntry& h : es.holders) {
    if (h.txn == w.txn) continue;
    if (w.is_upgrade || !Compatible(h.mode, w.mode)) out->push_back(h.txn);
  }
  if (options_.fifo_fairness) {
    // Nothing passes a queued waiter, so each one ahead is a blocker.
    const std::size_t ahead = std::min(position, es.queue.size());
    for (std::size_t i = 0; i < ahead; ++i) {
      if (es.queue[i].txn != w.txn) out->push_back(es.queue[i].txn);
    }
  }
  std::sort(out->begin() + base, out->end());
  out->erase(std::unique(out->begin() + base, out->end()), out->end());
}

Result<RequestOutcome> LockManager::Request(TxnId txn, EntityId entity,
                                            LockMode mode) {
  auto r = TryRequest(txn, entity, mode);
  if (!r.ok()) return r.status();
  RequestOutcome out;
  out.granted = r.value().granted;
  out.is_upgrade = r.value().is_upgrade;
  if (!out.granted) AppendBlockersOf(txn, &out.blockers);
  return out;
}

Result<RequestResult> LockManager::TryRequest(TxnId txn, EntityId entity,
                                              LockMode mode) {
  TxnState* ts = StateFor(txn);
  if (ts != nullptr && ts->waiting_for.valid()) {
    return Status::FailedPrecondition(
        "transaction already waiting; one pending request at a time (" +
        Describe(txn, entity) + ")");
  }
  EntityState& es = EnsureSlot(entity);
  bool is_upgrade = false;
  if (const HolderEntry* h = es.FindHolder(txn)) {
    if (h->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return Status::ProtocolViolation(
          "lock already held in equal or stronger mode (" +
          Describe(txn, entity) + ")");
    }
    is_upgrade = true;  // holds S, wants X
  }

  if (probe_ != nullptr) ++delta_.requests;
  Waiter w{txn, mode, is_upgrade};
  if (Grantable(es, w, es.queue.size())) {
    UpsertHolder(es, txn, mode);
    UpsertHeld(ts != nullptr ? *ts : EnsureTxn(txn), entity, mode);
    if (probe_ != nullptr) ++delta_.grants_immediate;
    return RequestResult{true, is_upgrade};
  }

  // Enqueue: upgrades go to the front so the shrinking holder set reaches
  // them first; everything else is FIFO.
  if (is_upgrade) {
    es.queue.insert_at(0, w);
  } else {
    es.queue.push_back(w);
  }
  (ts != nullptr ? *ts : EnsureTxn(txn)).waiting_for = entity;
  ++waiting_count_;
  if (probe_ != nullptr) {
    ++delta_.queued;
    delta_.max_queue_depth = std::max(
        delta_.max_queue_depth, static_cast<std::int64_t>(es.queue.size()));
  }
  return RequestResult{false, is_upgrade};
}

Status LockManager::CancelWaitInto(TxnId txn, EntityId entity,
                                   std::vector<Grant>* out) {
  TxnState* ts = StateFor(txn);
  if (ts == nullptr || ts->waiting_for != entity) {
    return Status::NotFound("transaction is not waiting for entity (" +
                            Describe(txn, entity) + ")");
  }
  EntityState* es = SlotFor(entity);
  std::size_t qpos = es == nullptr ? 0 : es->queue.size();
  if (es != nullptr) {
    for (std::size_t i = 0; i < es->queue.size(); ++i) {
      if (es->queue[i].txn == txn) {
        qpos = i;
        break;
      }
    }
  }
  if (es == nullptr || qpos == es->queue.size()) {
    return Status::Internal("waiting_ and queue out of sync for " +
                            Describe(txn, entity));
  }
  es->queue.erase_at(qpos);
  ts->waiting_for = EntityId();
  --waiting_count_;
  if (probe_ != nullptr) ++delta_.cancels;
  ProcessQueue(*es, out);
  MaybeFreeSlot(*es);
  return Status::OK();
}

Result<std::vector<Grant>> LockManager::CancelWait(TxnId txn,
                                                   EntityId entity) {
  std::vector<Grant> grants;
  PARDB_RETURN_IF_ERROR(CancelWaitInto(txn, entity, &grants));
  return grants;
}

Status LockManager::ReleaseInto(TxnId txn, EntityId entity,
                                std::vector<Grant>* out) {
  EntityState* es = SlotFor(entity);
  if (es == nullptr) {
    return Status::NotFound("lock not held (" + Describe(txn, entity) + ")");
  }
  bool erased = false;
  for (std::size_t i = 0; i < es->holders.size(); ++i) {
    if (es->holders[i].txn == txn) {
      es->holders.erase_at(i);
      erased = true;
      break;
    }
  }
  if (!erased) {
    return Status::NotFound("lock not held (" + Describe(txn, entity) + ")");
  }
  EraseHeld(txn, entity);
  // If txn released the shared lock backing its own queued upgrade, the
  // upgrade degenerates to a plain request (otherwise it could never be
  // granted: upgrades require being the sole holder).
  for (Waiter& w : es->queue) {
    if (w.txn == txn && w.is_upgrade) w.is_upgrade = false;
  }
  ProcessQueue(*es, out);
  MaybeFreeSlot(*es);
  return Status::OK();
}

Result<std::vector<Grant>> LockManager::Release(TxnId txn, EntityId entity) {
  std::vector<Grant> grants;
  PARDB_RETURN_IF_ERROR(ReleaseInto(txn, entity, &grants));
  return grants;
}

Status LockManager::DowngradeInto(TxnId txn, EntityId entity,
                                  std::vector<Grant>* out) {
  EntityState* es = SlotFor(entity);
  if (es == nullptr) {
    return Status::NotFound("lock not held (" + Describe(txn, entity) + ")");
  }
  HolderEntry* h = es->FindHolder(txn);
  if (h == nullptr || h->mode != LockMode::kExclusive) {
    return Status::NotFound("exclusive lock not held (" +
                            Describe(txn, entity) + ")");
  }
  h->mode = LockMode::kShared;
  UpsertHeld(EnsureTxn(txn), entity, LockMode::kShared);
  ProcessQueue(*es, out);
  return Status::OK();
}

Result<std::vector<Grant>> LockManager::Downgrade(TxnId txn,
                                                  EntityId entity) {
  std::vector<Grant> grants;
  PARDB_RETURN_IF_ERROR(DowngradeInto(txn, entity, &grants));
  return grants;
}

std::vector<Grant> LockManager::ReleaseAll(TxnId txn) {
  std::vector<Grant> grants;
  // Copy up front: releases mutate the per-transaction state (and granting
  // a waiter can grow txn_state_, invalidating pointers into it).
  EntityId pending;
  std::vector<EntityId> entities;
  if (const TxnState* ts = StateFor(txn)) {
    pending = ts->waiting_for;
    entities.reserve(ts->held.size());
    for (const HeldEntry& h : ts->held) entities.push_back(h.entity);
  }
  if (pending.valid()) {
    (void)CancelWaitInto(txn, pending, &grants);
  }
  // Entity-id order, matching the ordered-map layout this replaced.
  std::sort(entities.begin(), entities.end());
  for (EntityId e : entities) {
    (void)ReleaseInto(txn, e, &grants);
  }
  return grants;
}

void LockManager::ProcessQueue(EntityState& es, std::vector<Grant>* out) {
  const std::size_t before = out->size();
  const EntityId entity = es.entity;
  bool progressed = true;
  while (progressed && !es.queue.empty()) {
    progressed = false;
    Waiter head = es.queue[0];
    if (Grantable(es, head, 0)) {
      es.queue.erase_at(0);
      TxnState& ts = *StateFor(head.txn);
      ts.waiting_for = EntityId();
      --waiting_count_;
      UpsertHolder(es, head.txn, head.mode);
      UpsertHeld(ts, entity, head.mode);
      out->push_back(Grant{head.txn, entity, head.mode, head.is_upgrade});
      progressed = true;
      continue;
    }
    // Paper model: a shared request deeper in the queue may bypass a
    // blocked exclusive head.
    if (!options_.fifo_fairness) {
      for (std::size_t i = 1; i < es.queue.size(); ++i) {
        Waiter w = es.queue[i];
        if (w.mode == LockMode::kShared && !w.is_upgrade &&
            Grantable(es, w, i)) {
          es.queue.erase_at(i);
          TxnState& ts = *StateFor(w.txn);
          ts.waiting_for = EntityId();
          --waiting_count_;
          UpsertHolder(es, w.txn, w.mode);
          UpsertHeld(ts, entity, w.mode);
          out->push_back(Grant{w.txn, entity, w.mode, false});
          progressed = true;
          break;
        }
      }
    }
  }
  if (probe_ != nullptr && out->size() > before) {
    delta_.grants_on_release += out->size() - before;
  }
}

std::vector<std::pair<TxnId, LockMode>> LockManager::Holders(
    EntityId entity) const {
  std::vector<std::pair<TxnId, LockMode>> out;
  const EntityState* es = SlotFor(entity);
  if (es == nullptr) return out;
  out.reserve(es->holders.size());
  for (const HolderEntry& h : es->holders) out.emplace_back(h.txn, h.mode);
  // Holders live in grant order internally; the public contract (and every
  // DOT/JSON consumer) is txn-id order, applied here at the emission site.
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<std::pair<TxnId, LockMode>> LockManager::WaitQueue(
    EntityId entity) const {
  std::vector<std::pair<TxnId, LockMode>> out;
  const EntityState* es = SlotFor(entity);
  if (es == nullptr) return out;
  out.reserve(es->queue.size());
  for (const Waiter& w : es->queue) out.emplace_back(w.txn, w.mode);
  return out;
}

std::optional<LockMode> LockManager::HeldMode(TxnId txn,
                                              EntityId entity) const {
  const EntityState* es = SlotFor(entity);
  if (es == nullptr) return std::nullopt;
  const HolderEntry* h = es->FindHolder(txn);
  if (h == nullptr) return std::nullopt;
  return h->mode;
}

bool LockManager::IsWaiting(TxnId txn) const {
  const TxnState* ts = StateFor(txn);
  return ts != nullptr && ts->waiting_for.valid();
}

std::optional<PendingRequest> LockManager::Waiting(TxnId txn) const {
  const TxnState* ts = StateFor(txn);
  if (ts == nullptr || !ts->waiting_for.valid()) return std::nullopt;
  const EntityState* es = SlotFor(ts->waiting_for);
  if (es == nullptr) return std::nullopt;
  for (const Waiter& w : es->queue) {
    if (w.txn == txn) {
      return PendingRequest{ts->waiting_for, w.mode, w.is_upgrade};
    }
  }
  return std::nullopt;
}

std::vector<std::pair<EntityId, LockMode>> LockManager::HeldBy(
    TxnId txn) const {
  std::vector<std::pair<EntityId, LockMode>> out;
  const TxnState* ts = StateFor(txn);
  if (ts == nullptr) return out;
  out.reserve(ts->held.size());
  for (const HeldEntry& h : ts->held) out.emplace_back(h.entity, h.mode);
  // Entity-id order at the emission site (see Holders).
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::size_t LockManager::HeldCount(TxnId txn) const {
  const TxnState* ts = StateFor(txn);
  return ts == nullptr ? 0 : ts->held.size();
}

void LockManager::AppendHeldEntities(TxnId txn,
                                     std::vector<EntityId>* out) const {
  const TxnState* ts = StateFor(txn);
  if (ts == nullptr) return;
  for (const HeldEntry& h : ts->held) out->push_back(h.entity);
}

EntityId LockManager::AppendBlockersOf(TxnId txn,
                                       std::vector<TxnId>* out) const {
  const TxnState* ts = StateFor(txn);
  if (ts == nullptr || !ts->waiting_for.valid()) return EntityId();
  const EntityState* es = SlotFor(ts->waiting_for);
  if (es == nullptr) return EntityId();
  for (std::size_t i = 0; i < es->queue.size(); ++i) {
    if (es->queue[i].txn == txn) {
      AppendBlockers(*es, es->queue[i], i, out);
      return ts->waiting_for;
    }
  }
  return EntityId();
}

bool LockManager::MayBlockWaiters(TxnId txn) const {
  const TxnState* ts = StateFor(txn);
  if (ts == nullptr) return false;
  // A holder is listed only by waiters on the entities it holds. txn has
  // at most one pending request, so a queue of two has someone else.
  for (const HeldEntry& h : ts->held) {
    const EntityState* es = SlotFor(h.entity);
    if (es->queue.size() > 1 ||
        (es->queue.size() == 1 && es->queue[0].txn != txn)) {
      return true;
    }
  }
  // A waiter is listed only under FIFO, by those queued behind it.
  if (options_.fifo_fairness && ts->waiting_for.valid()) {
    const EntityState* es = SlotFor(ts->waiting_for);
    return es->queue.back().txn != txn;
  }
  return false;
}

std::uint64_t LockManager::StateDigest() const {
  // Per-entity digests are order-independent-combined with XOR, so neither
  // slot order nor the internal grant-order holder layout can leak into
  // the result: holders are digested in txn order (sorted at this emission
  // site) and the queue in FIFO order, exactly as the ordered-map layout
  // digested them.
  std::uint64_t digest = 0;
  std::vector<HolderEntry> sorted;
  for (const EntityState& es : slots_) {
    if (!es.entity.valid()) continue;  // free slot
    if (es.holders.empty() && es.queue.empty()) continue;
    std::uint64_t h = obs::FnvMix64(obs::kFnvOffsetBasis, es.entity.value());
    sorted.assign(es.holders.begin(), es.holders.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const HolderEntry& a, const HolderEntry& b) {
                return a.txn < b.txn;
              });
    for (const HolderEntry& he : sorted) {
      h = obs::FnvMix64(h, he.txn.value());
      h = obs::FnvMix64(h, static_cast<std::uint64_t>(he.mode) + 1);
    }
    h = obs::FnvMix64(h, 0x51);  // holders/queue separator
    for (const Waiter& w : es.queue) {
      h = obs::FnvMix64(h, w.txn.value());
      h = obs::FnvMix64(h, (static_cast<std::uint64_t>(w.mode) << 1) |
                               (w.is_upgrade ? 1 : 0));
    }
    digest ^= h;
  }
  return digest;
}

std::string LockManager::ToString() const {
  std::ostringstream os;
  // Deterministic dump: sort entities.
  std::vector<const EntityState*> live;
  live.reserve(slots_.size());
  for (const EntityState& es : slots_) {
    if (!es.entity.valid()) continue;
    if (es.holders.empty() && es.queue.empty()) continue;
    live.push_back(&es);
  }
  std::sort(live.begin(), live.end(),
            [](const EntityState* a, const EntityState* b) {
              return a->entity < b->entity;
            });
  std::vector<std::pair<TxnId, LockMode>> holders;
  for (const EntityState* es : live) {
    holders.clear();
    for (const HolderEntry& h : es->holders) {
      holders.emplace_back(h.txn, h.mode);
    }
    std::sort(holders.begin(), holders.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    os << es->entity << ": holders{";
    bool first = true;
    for (const auto& [t, m] : holders) {
      if (!first) os << ", ";
      first = false;
      os << t << ":" << m;
    }
    os << "} queue[";
    first = true;
    for (const Waiter& w : es->queue) {
      if (!first) os << ", ";
      first = false;
      os << w.txn << ":" << w.mode << (w.is_upgrade ? "^" : "");
    }
    os << "]\n";
  }
  return os.str();
}

}  // namespace pardb::lock
