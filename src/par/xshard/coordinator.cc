#include "par/xshard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <set>

namespace pardb::par::xshard {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Records wall time into `hist` when the caller registered one; the
// deterministic report never includes these samples.
class PhaseTimer {
 public:
  explicit PhaseTimer(obs::Histogram* hist)
      : hist_(hist), start_(hist ? NowNs() : 0) {}
  ~PhaseTimer() {
    if (hist_ != nullptr) hist_->Record(NowNs() - start_);
  }

 private:
  obs::Histogram* hist_;
  std::uint64_t start_;
};

}  // namespace

Coordinator::Coordinator(std::vector<core::Engine*> engines, Options options)
    : engines_(std::move(engines)),
      options_(options),
      sub_commits_by_shard_(options.num_shards, 0),
      queued_(options.num_shards),
      arcs_(engines_.size()) {}

Result<std::uint64_t> Coordinator::Admit(txn::Program program) {
  auto subs = SplitProgram(program, options_.num_shards);
  if (!subs.ok()) return subs.status();
  const std::uint64_t seq = next_seq_++;
  GlobalTxn g;
  g.seq = seq;
  g.participants.reserve(subs.value().size());
  for (SubProgram& sub : subs.value()) {
    queued_[sub.shard].push_back({seq, g.participants.size(),
                                  std::move(sub.program), sub.hold_pc,
                                  TxnId()});
    g.participants.push_back({sub.shard, TxnId(), false});
  }
  stats_.global_txns += 1;
  stats_.sub_txns += g.participants.size();
  // Dispatch round: one request + ack per participating shard.
  stats_.messages += 2 * g.participants.size();
  if (options_.journal != nullptr) {
    options_.journal->OnEvent({.kind = obs::EventKind::kAdmit,
                               .step = decision_seq_++,
                               .txn = TxnId(seq)});
  }
  active_.push_back(seq);
  txns_.emplace(seq, std::move(g));
  return seq;
}

Status Coordinator::SpawnQueued(std::uint32_t shard) {
  for (QueuedSlice& q : queued_[shard]) {
    auto id = engines_[shard]->SpawnSub(std::move(q.program), q.hold_pc);
    if (!id.ok()) return id.status();
    q.txn = id.value();
    if (!options_.recorders.empty()) options_.recorders[shard]->Pin(q.txn);
  }
  return Status::OK();
}

void Coordinator::IndexSpawned() {
  for (std::uint32_t s = 0; s < queued_.size(); ++s) {
    for (const QueuedSlice& q : queued_[s]) {
      txns_.at(q.seq).participants[q.participant].txn = q.txn;
      sub_index_[{s, q.txn.value()}] = q.seq;
    }
    queued_[s].clear();
  }
}

std::vector<std::pair<std::uint32_t, TxnId>> Coordinator::SlicesOf(
    std::uint64_t seq) const {
  std::vector<std::pair<std::uint32_t, TxnId>> out;
  auto it = txns_.find(seq);
  if (it == txns_.end()) return out;
  for (const Participant& p : it->second.participants) {
    out.emplace_back(p.shard, p.txn);
  }
  return out;
}

void Coordinator::Forget(const GlobalTxn& g) {
  for (const Participant& p : g.participants) {
    sub_index_.erase({p.shard, p.txn.value()});
  }
}

std::size_t Coordinator::PruneRetired() {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < retired_.size(); ++i) {
    const GlobalTxn& g = retired_[i];
    bool prunable = true;
    for (const Participant& p : g.participants) {
      prunable = prunable && options_.recorders[p.shard]->Prunable(p.txn);
    }
    if (!prunable) {
      if (kept != i) retired_[kept] = std::move(retired_[i]);
      ++kept;
      continue;
    }
    for (const Participant& p : g.participants) {
      options_.recorders[p.shard]->PruneTxn(p.txn);
    }
    Forget(g);
  }
  const std::size_t pruned = retired_.size() - kept;
  retired_.resize(kept);
  return pruned;
}

Status Coordinator::Poll() {
  still_active_.clear();
  for (std::uint64_t seq : active_) {
    GlobalTxn& g = txns_.at(seq);
    if (g.phase == Phase::kAcquiring) {
      bool all_hold = true;
      {
        PhaseTimer timer(options_.prepare_ns);
        for (const Participant& p : g.participants) {
          if (!engines_[p.shard]->AtHold(p.txn)) {
            all_hold = false;
            break;
          }
        }
      }
      if (all_hold) {
        // Global lock point: every slice holds all its locks. Prepare
        // (unanimous hold votes) then resolve by releasing the holds —
        // past this point the global transaction cannot be rolled back
        // (the distributed analogue of the §5 last-lock declaration, and
        // exactly when each slice's seal is applied).
        stats_.prepares += g.participants.size();
        stats_.messages += 2 * g.participants.size();
        {
          PhaseTimer timer(options_.resolve_ns);
          for (const Participant& p : g.participants) {
            auto st = engines_[p.shard]->ReleaseHold(p.txn);
            if (!st.ok()) return st;
          }
        }
        stats_.resolves += g.participants.size();
        stats_.messages += 2 * g.participants.size();
        // The global lock point is the 2PC epoch boundary the coordinator
        // journal stamps on; the release record marks it in the stream.
        if (options_.journal != nullptr) {
          options_.journal->OnEvent({.kind = obs::EventKind::kRelease,
                                     .step = decision_seq_++,
                                     .txn = TxnId(seq)});
        }
        g.phase = Phase::kReleased;
      }
    }
    if (g.phase == Phase::kReleased) {
      bool all_committed = true;
      for (Participant& p : g.participants) {
        if (!p.committed &&
            engines_[p.shard]->StatusOf(p.txn) == core::TxnStatus::kCommitted) {
          p.committed = true;
          ++stats_.sub_commits;
          ++sub_commits_by_shard_[p.shard];
        }
        all_committed = all_committed && p.committed;
      }
      if (all_committed) {
        ++stats_.global_commits;
        stats_.messages += 2 * g.participants.size();  // commit-ack round
        if (options_.journal != nullptr) {
          // pc = the number of slices that committed.
          options_.journal->OnEvent({.kind = obs::EventKind::kCommit,
                                     .step = decision_seq_++,
                                     .txn = TxnId(seq),
                                     .pc = g.participants.size()});
        }
        // Retired: drop from the active list; keep it for PruneRetired
        // while a recorder may still hold its slices.
        if (options_.recorders.empty()) {
          Forget(g);
        } else {
          retired_.push_back(std::move(g));
        }
        txns_.erase(seq);
        continue;
      }
    }
    still_active_.push_back(seq);
  }
  active_.swap(still_active_);
  return Status::OK();
}

bool Coordinator::AnySliceWaiting() const {
  for (const auto& [seq, g] : txns_) {
    for (const Participant& p : g.participants) {
      if (engines_[p.shard]->lock_manager().IsWaiting(p.txn)) return true;
    }
  }
  return false;
}

std::optional<std::uint64_t> Coordinator::GlobalOf(std::uint32_t shard,
                                                   TxnId txn) const {
  auto it = sub_index_.find({shard, txn.value()});
  if (it == sub_index_.end()) return std::nullopt;
  return it->second;
}

Status Coordinator::ResolveComponent(
    const MergedGraph& merged, const std::vector<graph::VertexId>& component,
    bool* resolved) {
  *resolved = false;
  std::vector<std::uint64_t> globals;
  for (graph::VertexId v : component) {
    if (IsGlobalNode(v)) globals.push_back(v);
  }
  if (globals.empty()) return Status::OK();  // a shard-local matter
  ++stats_.global_cycles;
  if (options_.journal != nullptr) {
    // requester = the ω-senior global in the component.
    options_.journal->OnEvent({.kind = obs::EventKind::kCycle,
                               .step = decision_seq_++,
                               .txn = TxnId(globals.front()),
                               .entity = EntityId(0),
                               .cycle = stats_.global_cycles});
  }

  const std::set<graph::VertexId> members(component.begin(), component.end());

  // Cost every global member: the distributed partial rollback that would
  // release, on each shard where the global blocks a cycle member, exactly
  // those conflicts (paper §3.1's candidate construction, summed over the
  // participating shards).
  struct ShardPlan {
    std::uint32_t shard;
    TxnId txn;
    core::VictimCandidate plan;
  };
  struct GlobalCandidate {
    std::uint64_t seq = 0;
    std::uint64_t total_cost = 0;
    std::vector<ShardPlan> plans;
  };
  std::vector<GlobalCandidate> candidates;
  {
    PhaseTimer timer(options_.prepare_ns);
    for (std::uint64_t seq : globals) {
      std::map<std::uint32_t,
               std::vector<std::pair<EntityId, lock::LockMode>>>
          conflicts;
      for (const MergedEdge& e : merged.edges) {
        if (e.from != GlobalNode(seq) || members.count(e.to) == 0) continue;
        auto pending = engines_[e.shard]->lock_manager().Waiting(e.waiter);
        if (!pending.has_value()) {
          return Status::Internal(
              "xshard: merged wait edge without a pending request");
        }
        conflicts[e.shard].push_back({e.entity, pending->mode});
      }
      if (conflicts.empty()) continue;
      GlobalCandidate cand;
      cand.seq = seq;
      for (const auto& [shard, entries] : conflicts) {
        const GlobalTxn& g = txns_.at(seq);
        auto part = std::find_if(
            g.participants.begin(), g.participants.end(),
            [shard = shard](const Participant& p) { return p.shard == shard; });
        if (part == g.participants.end()) {
          return Status::Internal("xshard: conflict on a non-participant shard");
        }
        auto plan = engines_[shard]->PlanConflictRelease(part->txn, entries);
        if (!plan.ok()) return plan.status();
        cand.total_cost += plan.value().cost;
        cand.plans.push_back({shard, part->txn, plan.value()});
      }
      candidates.push_back(std::move(cand));
    }
  }
  if (candidates.empty()) {
    return Status::Internal("xshard: global cycle with no rollback candidate");
  }

  // Theorem 2: the ω-senior global (least admission sequence — `globals`
  // and `candidates` are ascending) is exempt from preemption so some
  // transaction always finishes. Pick the cheapest of the rest; fall back
  // to the senior only when it is the sole candidate.
  auto best = [](const GlobalCandidate* a, const GlobalCandidate* b) {
    if (b == nullptr) return a;
    if (a == nullptr) return b;
    if (a->total_cost != b->total_cost) {
      return a->total_cost < b->total_cost ? a : b;
    }
    return a->seq < b->seq ? a : b;
  };
  const GlobalCandidate* chosen = nullptr;
  const GlobalCandidate* unconstrained = nullptr;
  for (const GlobalCandidate& cand : candidates) {
    unconstrained = best(&cand, unconstrained);
    if (cand.seq != candidates.front().seq || candidates.size() == 1) {
      chosen = best(&cand, chosen);
    }
  }
  if (unconstrained->total_cost < chosen->total_cost) {
    ++stats_.omega_exclusions;
  }
  if (options_.journal != nullptr) {
    // target = the number of shards the rollback spans.
    options_.journal->OnEvent(
        {.kind = obs::EventKind::kVictim,
         .flags = unconstrained->total_cost < chosen->total_cost
                      ? obs::kEventOmega
                      : std::uint8_t{0},
         .candidates = static_cast<std::uint32_t>(candidates.size()),
         .step = decision_seq_++,
         .txn = TxnId(chosen->seq),
         .target = chosen->plans.size(),
         .cost = chosen->total_cost});
  }
  // Distributed partial rollback: prepare (ship the per-shard targets) and
  // resolve (apply + ack) on every conflicted shard. The victim's slices
  // then back off until the next merge — released locks flow to the cycle's
  // other members, and the victim cannot instantly re-request them and
  // re-create the same cycle (Figure 2's mutual preemption, replayed
  // between this coordinator and a shard's local detection).
  stats_.prepares += chosen->plans.size();
  stats_.resolves += chosen->plans.size();
  stats_.messages += 4 * chosen->plans.size();
  {
    PhaseTimer timer(options_.resolve_ns);
    for (const ShardPlan& sp : chosen->plans) {
      auto st = engines_[sp.shard]->ApplyExternalRollback(
          sp.txn, sp.plan.actual_target, sp.plan.ideal_target);
      if (!st.ok()) return st;
      st = engines_[sp.shard]->SetBackoff(sp.txn, true);
      if (!st.ok()) return st;
      backed_off_.push_back({sp.shard, sp.txn});
    }
  }
  ++stats_.distributed_rollbacks;
  *resolved = true;
  return Status::OK();
}

Status Coordinator::MergeAndResolve() {
  ++stats_.merges;
  // Victims backed off by the previous merge have had a full epoch of
  // uncontended progress behind them; let them re-contend.
  for (const auto& [shard, txn] : backed_off_) {
    auto st = engines_[shard]->SetBackoff(txn, false);
    if (!st.ok()) return st;
  }
  backed_off_.clear();
  // One status exchange per shard to collect the wait graphs.
  stats_.messages += 2 * engines_.size();
  // A cycle through a global node uses an arc into it, and only a waiting
  // slice draws one; resolution skips cycles of local nodes alone.
  if (!AnySliceWaiting()) return Status::OK();
  // A resolved cycle can unblock waiters everywhere (grant cascades), so
  // re-read every shard's arcs and re-merge after each rollback instead of
  // resolving a stale snapshot.
  for (int round = 0; round < 64; ++round) {
    for (std::size_t s = 0; s < engines_.size(); ++s) {
      arcs_[s].clear();
      engines_[s]->AppendWaitsFor(&arcs_[s]);
    }
    MergedGraph merged = MergeWaitsFor(arcs_, *this);
    bool resolved_any = false;
    for (const auto& component : merged.graph.CyclicComponents()) {
      bool resolved = false;
      auto st = ResolveComponent(merged, component, &resolved);
      if (!st.ok()) return st;
      if (resolved) {
        resolved_any = true;
        break;
      }
    }
    if (!resolved_any) return Status::OK();
  }
  return Status::Internal("xshard: global cycle resolution did not converge");
}

}  // namespace pardb::par::xshard
