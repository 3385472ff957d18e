#include "core/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>
#include <span>
#include <sstream>
#include <string>

#include "common/bits.h"
#include "common/logging.h"
#include "obs/phase_timer.h"

namespace pardb::core {

std::string_view DeadlockHandlingName(DeadlockHandling handling) {
  switch (handling) {
    case DeadlockHandling::kDetection:
      return "detection";
    case DeadlockHandling::kWoundWait:
      return "wound-wait";
    case DeadlockHandling::kWaitDie:
      return "wait-die";
    case DeadlockHandling::kTimeout:
      return "timeout";
  }
  return "unknown";
}

Engine::Engine(storage::EntityStore* store, EngineOptions options,
               analysis::HistoryRecorder* recorder)
    : store_(store),
      options_(options),
      recorder_(recorder),
      locks_(options.lock_options),
      rng_(options.seed) {
  if (options_.journal_epoch_steps != 0) {
    journal_epoch_mask_ = RoundUpPowerOfTwo(options_.journal_epoch_steps) - 1;
  }
  // Entities are known up front (stores are populated before engines run);
  // pre-sizing the slot remap keeps first-touch admission off the fast
  // path.
  locks_.ReserveEntities(store_->size());
}

void Engine::ReserveTxns(std::size_t n) {
  free_rows_.reserve(n);
  txns_.reserve(n);
  live_next_.reserve(n);
  live_prev_.reserve(n);
  locks_.ReserveTxns(n);
}

const FastMod& Engine::FastModFor(std::size_t bound) {
  if (bound >= fastmod_.size()) fastmod_.resize(bound + 1);
  FastMod& fm = fastmod_[bound];
  if (fm.n == 0) fm.Init(bound);
  return fm;
}

void Engine::MarkReadyDirty(const TxnContext& ctx) {
  const std::uint64_t v = ctx.id.value();
  const std::size_t w = static_cast<std::size_t>((v >> 6) - ready_base_);
  if (w >= ready_bits_.size()) ready_bits_.resize(w + 1, 0);
  const std::uint64_t mask = std::uint64_t{1} << (v & 63);
  const bool want = ctx.status == TxnStatus::kReady && !ctx.backoff;
  if (want != ((ready_bits_[w] & mask) != 0)) {
    ready_bits_[w] ^= mask;
    if (want) {
      ++ready_count_;
      if (w < ready_lo_) ready_lo_ = w;
    } else {
      --ready_count_;
    }
  }
}

std::uint64_t Engine::SelectKthReady(std::size_t k) {
  while (ready_lo_ < ready_bits_.size() && ready_bits_[ready_lo_] == 0) {
    ++ready_lo_;
  }
  for (std::size_t w = ready_lo_; w < ready_bits_.size(); ++w) {
    std::uint64_t word = ready_bits_[w];
    const std::size_t pc = static_cast<std::size_t>(std::popcount(word));
    if (k >= pc) {
      k -= pc;
      continue;
    }
    while (k--) word &= word - 1;  // drop the k lowest set bits
    return ((ready_base_ + static_cast<std::uint64_t>(w)) << 6) +
           static_cast<std::uint64_t>(std::countr_zero(word));
  }
  assert(false && "SelectKthReady past population");
  return kNoneIdx;
}

void Engine::TrimReadyWindow() {
  // Every id below the oldest live one is committed: its bits are zero and
  // its row entry kNoRow. Dropping those words once they are at least half
  // the window keeps the erase amortized O(1) per commit and
  // allocation-free.
  const std::uint64_t oldest =
      live_head_ == kNoneIdx ? next_txn_ : txns_[live_head_].id.value();
  const auto dead = static_cast<std::size_t>((oldest >> 6) - ready_base_);
  if (dead < 64 || 2 * 64 * dead < row_window_.size()) return;
  const auto words =
      static_cast<std::ptrdiff_t>(std::min(dead, ready_bits_.size()));
  const auto ids = static_cast<std::ptrdiff_t>(64 * dead);
  ready_bits_.erase(ready_bits_.begin(), ready_bits_.begin() + words);
  row_window_.erase(row_window_.begin(), row_window_.begin() + ids);
  ready_base_ += dead;
  ready_lo_ = ready_lo_ > dead ? ready_lo_ - dead : 0;
}

void Engine::LiveInsert(std::uint64_t v) {
  if (live_next_.size() <= v) {
    live_next_.resize(v + 1, kNoneIdx);
    live_prev_.resize(v + 1, kNoneIdx);
  }
  live_next_[v] = kNoneIdx;
  live_prev_[v] = live_tail_;
  if (live_tail_ != kNoneIdx) {
    live_next_[live_tail_] = v;
  } else {
    live_head_ = v;
  }
  live_tail_ = v;
  ++live_count_;
}

void Engine::LiveRemove(std::uint64_t v) {
  const std::uint64_t prev = live_prev_[v];
  const std::uint64_t next = live_next_[v];
  if (prev != kNoneIdx) {
    live_next_[prev] = next;
  } else {
    live_head_ = next;
  }
  if (next != kNoneIdx) {
    live_prev_[next] = prev;
  } else {
    live_tail_ = prev;
  }
  live_next_[v] = kNoneIdx;
  live_prev_[v] = kNoneIdx;
  --live_count_;
}

Result<TxnId> Engine::Spawn(txn::Program program) {
  return Spawn(std::make_shared<const txn::Program>(std::move(program)));
}

Result<TxnId> Engine::Spawn(std::shared_ptr<const txn::Program> program) {
  if (program == nullptr) {
    return Status::InvalidArgument("null program");
  }
  // Every entity the program touches must exist. Dense stores answer this
  // with one comparison against the program's statically known id bound;
  // only programs reaching past the dense prefix pay the per-op scan.
  if (program->MaxEntityBound() > store_->contiguous_prefix()) {
    for (const txn::Op& op : program->ops()) {
      switch (op.code) {
        case txn::OpCode::kLockShared:
        case txn::OpCode::kLockExclusive:
        case txn::OpCode::kUnlock:
        case txn::OpCode::kRead:
        case txn::OpCode::kWrite:
          if (!store_->Contains(op.entity)) {
            return Status::NotFound("program \"" + program->name() +
                                    "\" references a nonexistent entity");
          }
          break;
        default:
          break;
      }
    }
  }
  TxnId id(next_txn_++);
  std::uint32_t row;
  if (free_rows_.empty()) {
    row = static_cast<std::uint32_t>(txns_.size());
    txns_.emplace_back();
    cold_.emplace_back();
    txns_.back().granted.set_arena(&txn_arena_);
  } else {
    row = free_rows_.back();
    free_rows_.pop_back();
  }
  row_window_.push_back(row);  // ids are handed out in order
  // A reused row keeps its granted list's spill capacity.
  TxnContext& ctx = txns_[row];
  ctx.id = id;
  ctx.entry = clock_++;
  ctx.wait_since = 0;
  ctx.status = TxnStatus::kReady;
  ctx.in_shrinking_phase = false;
  ctx.backoff = false;
  ctx.pc = 0;
  ctx.granted.clear();
  // Lower the program once, into the row (DESIGN D26): the µop stream and
  // the rollback plan belong to this transaction until it commits.
  TxnCold& cold = cold_[row];
  cold.compiled = txn::CompiledProgram::Compile(*program);
  cold.plan = planner_.Build(
      *program, options_.strategy,
      /*seal=*/options_.handling == DeadlockHandling::kDetection);
  ++metrics_.programs_compiled;
  metrics_.compiled_bytes += cold.compiled->byte_size();
  ctx.uops = cold.compiled->uops();
  ctx.size = static_cast<std::uint32_t>(program->size());
  ctx.plan = &cold.plan;
  // Slots [0, num_vars) seed the initial variable values; every other slot
  // is written before any op reads it.
  const std::size_t slot_bytes = ctx.plan->num_slots() * sizeof(Value);
  ctx.slots = static_cast<Value*>(txn_arena_.TryAllocate(slot_bytes));
  if (ctx.slots == nullptr) throw std::bad_alloc();
  const std::vector<Value>& init = program->initial_vars();
  std::copy(init.begin(), init.end(), ctx.slots);
  std::fill(ctx.slots + init.size(), ctx.slots + ctx.plan->num_slots(),
            Value{0});
  cold.program = std::move(program);
  cold.preempted = 0;
  cold.hold_pc = kNoHold;
  if (recorder_ != nullptr) recorder_->OnBegin(id, ctx.entry);
  LiveInsert(row);
  MarkReadyDirty(ctx);
  Emit({.kind = obs::EventKind::kAdmit, .txn = id});
  return id;
}

Result<TxnId> Engine::SpawnSub(txn::Program program, std::size_t hold_pc) {
  auto id = Spawn(std::move(program));
  if (!id.ok()) return id.status();
  TxnContext* ctx = Find(id.value());
  ColdOf(*ctx).hold_pc = hold_pc;
  ++holds_active_;
  MarkReadyDirty(*ctx);
  Emit({.kind = obs::EventKind::kHold, .txn = ctx->id, .pc = hold_pc});
  return id;
}

bool Engine::AtHold(TxnId txn) const {
  const TxnContext* ctx = Find(txn);
  if (ctx == nullptr || ctx->status != TxnStatus::kReady) return false;
  const std::size_t hold_pc = ColdOf(*ctx).hold_pc;
  return hold_pc != kNoHold && ctx->pc >= hold_pc;
}

Status Engine::ReleaseHold(TxnId txn) {
  TxnContext* ctx = Find(txn);
  if (ctx == nullptr) return Status::NotFound("unknown transaction");
  TxnCold& cold = ColdOf(*ctx);
  if (cold.hold_pc != kNoHold && holds_active_ > 0) --holds_active_;
  cold.hold_pc = kNoHold;
  MarkReadyDirty(*ctx);
  Emit({.kind = obs::EventKind::kRelease, .txn = ctx->id, .pc = ctx->pc});
  return Status::OK();
}

Result<VictimCandidate> Engine::PlanConflictRelease(
    TxnId txn,
    const std::vector<std::pair<EntityId, lock::LockMode>>& conflicts) const {
  const TxnContext* ctx = Find(txn);
  if (ctx == nullptr && Spawned(txn)) {
    return Status::FailedPrecondition(
        "cannot plan a rollback of a committed transaction");
  }
  if (ctx == nullptr) return Status::NotFound("unknown transaction");
  return MakeCandidate(*ctx, conflicts, /*is_requester=*/false);
}

Status Engine::ApplyExternalRollback(TxnId txn, LockIndex target,
                                     LockIndex ideal_target) {
  TxnContext* victim = Find(txn);
  if (victim == nullptr && Spawned(txn)) {
    return Status::FailedPrecondition(
        "cannot roll back a committed transaction");
  }
  if (victim == nullptr) return Status::NotFound("unknown transaction");
  // The coordinator's victim decision resolves a *global* cycle this shard
  // cannot see; the causing transaction is unknown here.
  return RollbackTxn(*victim, {.target = target,
                               .ideal_target = ideal_target,
                               .cause = obs::RollbackCause::kTwoPCAbort});
}

Status Engine::SetBackoff(TxnId txn, bool on) {
  TxnContext* ctx = Find(txn);
  if (ctx == nullptr && Spawned(txn)) {
    // Nothing to unpark once committed.
    return on ? Status::FailedPrecondition(
                    "cannot back off a committed transaction")
              : Status::OK();
  }
  if (ctx == nullptr) return Status::NotFound("unknown transaction");
  ctx->backoff = on;
  MarkReadyDirty(*ctx);
  return Status::OK();
}

Engine::TxnContext* Engine::Find(TxnId txn) {
  const std::uint64_t i = txn.value() - (ready_base_ << 6);  // wraps below
  const std::uint32_t row = i < row_window_.size() ? row_window_[i] : kNoRow;
  return row == kNoRow ? nullptr : &txns_[row];
}

const Engine::TxnContext* Engine::Find(TxnId txn) const {
  const std::uint64_t i = txn.value() - (ready_base_ << 6);  // wraps below
  const std::uint32_t row = i < row_window_.size() ? row_window_[i] : kNoRow;
  return row == kNoRow ? nullptr : &txns_[row];
}

Result<Value> Engine::EntityValue(const TxnContext& ctx, EntityId entity,
                                  std::uint32_t source) const {
  if (source != rollback::RollbackPlan::kGlobal) return ctx.slots[source];
  auto global = store_->Get(entity);
  if (!global.ok()) return global.status();
  return global.value().value;
}

Result<StepOutcome> Engine::StepTxn(TxnId txn) {
  TxnContext* ctx = Find(txn);
  if (ctx == nullptr) {
    if (Spawned(txn)) return StepOutcome::kIdle;  // committed
    return Status::NotFound("unknown transaction");
  }
  if (ctx->status != TxnStatus::kReady) return StepOutcome::kIdle;
  ++metrics_.steps;
  MaybeStampJournalEpoch();
  return ExecuteOp(*ctx);
}

Result<StepOutcome> Engine::ExecuteOp(TxnContext& ctx) {
  if (ctx.pc >= ctx.size) {
    // Implicit commit for programs without a kCommit op.
    PARDB_RETURN_IF_ERROR(ExecuteCommit(ctx));
    return StepOutcome::kCommitted;
  }
  // One fused dispatch per op: the µop carries the pre-resolved entity and
  // folded immediates, the plan the slot every value comes from and goes
  // to.
  const txn::MicroOp& u = ctx.uops[ctx.pc];
  const rollback::RollbackPlan::Op& s = ctx.plan->op(ctx.pc);
  switch (static_cast<txn::MicroOpCode>(u.code)) {
    case txn::MicroOpCode::kLockShared:
      return ExecuteLock(ctx, EntityId(u.entity), lock::LockMode::kShared);
    case txn::MicroOpCode::kLockExclusive:
      return ExecuteLock(ctx, EntityId(u.entity), lock::LockMode::kExclusive);
    case txn::MicroOpCode::kRead: {
      const EntityId entity(u.entity);
      auto v = EntityValue(ctx, entity, s.a);
      if (!v.ok()) return v.status();
      if (recorder_ != nullptr) {
        auto global = store_->Get(entity);
        if (!global.ok()) return global.status();
        recorder_->OnRead(ctx.id, entity, global.value().version, ctx.pc);
      }
      ctx.slots[s.dst] = v.value();
      break;
    }
    case txn::MicroOpCode::kWrite:
      ctx.slots[s.dst] =
          (u.flags & txn::kMicroFlagAVar) != 0 ? ctx.slots[s.a] : u.a;
      break;
    case txn::MicroOpCode::kComputeAdd:
    case txn::MicroOpCode::kComputeSub:
    case txn::MicroOpCode::kComputeMul: {
      const Value a =
          (u.flags & txn::kMicroFlagAVar) != 0 ? ctx.slots[s.a] : u.a;
      const Value b =
          (u.flags & txn::kMicroFlagBVar) != 0 ? ctx.slots[s.b] : u.b;
      Value v;
      switch (static_cast<txn::MicroOpCode>(u.code)) {
        case txn::MicroOpCode::kComputeSub:
          v = a - b;
          break;
        case txn::MicroOpCode::kComputeMul:
          v = a * b;
          break;
        default:
          v = a + b;
          break;
      }
      ctx.slots[s.dst] = v;
      break;
    }
    case txn::MicroOpCode::kLoadImm:
      ctx.slots[s.dst] = u.a;
      break;
    case txn::MicroOpCode::kUnlock:
      PARDB_RETURN_IF_ERROR(ExecuteReleases(ctx));
      ctx.in_shrinking_phase = true;
      break;
    case txn::MicroOpCode::kCommit:
      PARDB_RETURN_IF_ERROR(ExecuteCommit(ctx));
      return StepOutcome::kCommitted;
  }
  ++ctx.pc;
  ++metrics_.ops_executed;
  if (txnlife_ != nullptr) txnlife_->OnStep(ctx.id, metrics_.steps);
  return StepOutcome::kExecuted;
}

Result<StepOutcome> Engine::ExecuteLock(TxnContext& ctx, EntityId entity,
                                        lock::LockMode mode) {
  // Sampled lock-op timing (1 in 16): frequent enough for a stable
  // distribution, rare enough that clock reads stay off the hot path.
  const bool time_op = probe_ != nullptr && probe_->lock_op_ns != nullptr &&
                       (lock_op_counter_++ & 0xF) == 0;
  const std::uint64_t op_start =
      time_op ? probe_->EffectiveClock()->NowNanos() : 0;
  auto outcome = locks_.TryRequest(ctx.id, entity, mode);
  if (time_op) {
    probe_->lock_op_ns->Record(probe_->EffectiveClock()->NowNanos() -
                               op_start);
  }
  if (!outcome.ok()) return outcome.status();
  if (outcome.value().granted) {
    PARDB_RETURN_IF_ERROR(
        RegisterGrant(ctx, entity, mode, outcome.value().is_upgrade));
    return StepOutcome::kExecuted;
  }
  // Wait response (§2 rule 2): the lock table now holds the new arcs
  // (DESIGN D27); keep the system deadlock-free (§2 rule 3) by the
  // configured means.
  ctx.status = TxnStatus::kWaiting;
  MarkReadyDirty(ctx);
  ctx.wait_since = metrics_.steps;
  ++metrics_.lock_waits;
  Emit({.kind = obs::EventKind::kBlock,
        .txn = ctx.id,
        .entity = entity,
        .pc = ctx.pc});
  switch (options_.handling) {
    case DeadlockHandling::kDetection: {
      if (options_.detection_mode == DetectionMode::kPeriodic) {
        break;  // cycles accumulate until the next PeriodicScan
      }
      auto self_rolled = DetectAndResolve(ctx, entity);
      if (!self_rolled.ok()) return self_rolled.status();
      if (self_rolled.value()) return StepOutcome::kRolledBack;
      break;
    }
    case DeadlockHandling::kWoundWait: {
      PARDB_RETURN_IF_ERROR(HandleWoundWait(ctx, entity, mode));
      break;
    }
    case DeadlockHandling::kWaitDie: {
      auto died = HandleWaitDie(ctx);
      if (!died.ok()) return died.status();
      if (died.value()) return StepOutcome::kRolledBack;
      break;
    }
    case DeadlockHandling::kTimeout:
      break;  // nothing now; StepAny expires stale waits
  }
  if (ctx.status == TxnStatus::kReady) {
    // A victim's released locks were granted to this requester during
    // resolution; the lock op completed after all.
    return StepOutcome::kExecuted;
  }
  return StepOutcome::kBlocked;
}

Status Engine::RegisterGrant(TxnContext& ctx, EntityId entity,
                             lock::LockMode mode, bool is_upgrade) {
  const bool woke = ctx.status == TxnStatus::kWaiting;
  if (woke && probe_ != nullptr && probe_->lock_wait_steps != nullptr) {
    // Wait duration in engine steps — deterministic, unlike wall time.
    probe_->lock_wait_steps->Record(metrics_.steps - ctx.wait_since);
  }
  ctx.granted.push_back(LockRecord{entity, mode, is_upgrade, ctx.pc});
  ++ctx.pc;
  ctx.status = TxnStatus::kReady;
  MarkReadyDirty(ctx);
  ++metrics_.ops_executed;
  Emit({.kind = obs::EventKind::kGrant,
        .flags = static_cast<std::uint8_t>(
            (mode == lock::LockMode::kExclusive ? obs::kEventExclusive : 0) |
            (is_upgrade ? obs::kEventUpgrade : 0) |
            (woke ? obs::kEventWoke : 0)),
        .txn = ctx.id,
        .entity = entity,
        .pc = ctx.pc});
  return Status::OK();
}

Status Engine::HandleGrant(const lock::Grant& g) {
  TxnContext* ctx = Find(g.txn);
  if (ctx == nullptr) {
    return Status::Internal("grant for unknown transaction");
  }
  return RegisterGrant(*ctx, g.entity, g.mode, g.was_upgrade);
}

Status Engine::ExecuteReleases(TxnContext& ctx) {
  for (const rollback::RollbackPlan::Release& r : ctx.plan->releases(ctx.pc)) {
    if (r.source != rollback::RollbackPlan::kNone) {
      // An exclusive lock publishes the final value (the global one when
      // the transaction never wrote the entity).
      auto value = EntityValue(ctx, r.entity, r.source);
      if (!value.ok()) return value.status();
      auto version = store_->Publish(r.entity, value.value());
      if (!version.ok()) return version.status();
      if (recorder_ != nullptr) {
        recorder_->OnPublish(ctx.id, r.entity, version.value(), ctx.pc);
      }
    }
    scratch_grants_.clear();
    PARDB_RETURN_IF_ERROR(
        locks_.ReleaseInto(ctx.id, r.entity, &scratch_grants_));
    for (const lock::Grant& g : scratch_grants_) {
      PARDB_RETURN_IF_ERROR(HandleGrant(g));
    }
  }
  return Status::OK();
}

Status Engine::ExecuteCommit(TxnContext& ctx) {
  SampleSpace(ctx);
  // Release everything still held (publishing X-held final values), in
  // entity order for determinism.
  PARDB_RETURN_IF_ERROR(ExecuteReleases(ctx));
  txn_arena_.FreeBlock(ctx.slots, ctx.plan->num_slots() * sizeof(Value));
  ctx.slots = nullptr;
  // A committed transaction needs no rollback state (DESIGN D26): drop its
  // program, stream and plan.
  ctx.uops = nullptr;
  ctx.plan = nullptr;
  TxnCold& cold = ColdOf(ctx);
  cold.program.reset();
  cold.compiled.reset();
  cold.plan = rollback::RollbackPlan();
  ctx.status = TxnStatus::kCommitted;
  MarkReadyDirty(ctx);
  ctx.pc = ctx.size;
  LiveRemove(RowOf(ctx));
  if (recorder_ != nullptr) recorder_->OnCommit(ctx.id);
  Emit({.kind = obs::EventKind::kCommit, .txn = ctx.id, .pc = ctx.pc});
  ++metrics_.commits;
  ++metrics_.ops_executed;  // the commit itself
  // Retire the id (DESIGN D23): its row and lock-table row go to the next
  // admission, and every later query on it answers as for a committed
  // transaction.
  locks_.ForgetTxn(ctx.id);
  row_window_[ctx.id.value() - (ready_base_ << 6)] = kNoRow;
  free_rows_.push_back(static_cast<std::uint32_t>(RowOf(ctx)));
  TrimReadyWindow();
  // Commits are the natural flush cadence for batched telemetry: rare
  // enough to stay off the per-step path, frequent enough that registry
  // readers are never more than one transaction behind.
  FlushProbes();
  return Status::OK();
}

bool Engine::LoadCyclesThrough(TxnId root) {
  // A waiting transaction's in-arcs are its blockers, labeled with the
  // entity it waits for (DESIGN D27); everyone else has none.
  return cycles_.Load(root.value(), [this](graph::VertexId v) {
    scratch_blockers_.clear();
    const EntityId entity =
        locks_.AppendBlockersOf(TxnId(v), &scratch_blockers_);
    scratch_arcs_.clear();
    for (TxnId b : scratch_blockers_) {
      scratch_arcs_.push_back(graph::Arc{b.value(), entity.value()});
    }
    return std::span<const graph::Arc>(scratch_arcs_);
  });
}

void Engine::AppendWaitsFor(std::vector<graph::Edge>* out) const {
  const std::size_t base = out->size();
  std::vector<TxnId> blockers;
  for (std::uint64_t v = live_head_; v != kNoneIdx; v = live_next_[v]) {
    const TxnId waiter = txns_[v].id;
    blockers.clear();
    const EntityId entity = locks_.AppendBlockersOf(waiter, &blockers);
    for (TxnId b : blockers) {
      out->push_back(graph::Edge{b.value(), waiter.value(), entity.value()});
    }
  }
  std::sort(out->begin() + base, out->end());
}

std::vector<std::vector<graph::VertexId>> Engine::CyclicGroups() {
  // Every cyclic component is the component of each of its members, and
  // each member waits (it has an in-arc). The live list runs in spawn
  // order, so in ascending ids a component is first met at its smallest
  // member, which keeps the list ordered by smallest member.
  std::vector<std::vector<graph::VertexId>> groups;
  std::vector<graph::VertexId> covered;  // members found so far, ascending
  for (std::uint64_t v = live_head_; v != kNoneIdx; v = live_next_[v]) {
    const TxnId id = txns_[v].id;
    if (!locks_.IsWaiting(id) ||
        std::binary_search(covered.begin(), covered.end(), id.value()) ||
        !LoadCyclesThrough(id)) {
      continue;
    }
    std::vector<graph::VertexId>& group = groups.emplace_back();
    for (std::size_t i = 0; i < cycles_.size(); ++i) {
      group.push_back(cycles_.member(i));
    }
    covered.insert(covered.end(), group.begin(), group.end());
    std::sort(covered.begin(), covered.end());
  }
  return groups;
}

Result<VictimCandidate> Engine::MakeCandidate(
    const TxnContext& member,
    const std::vector<std::pair<EntityId, lock::LockMode>>& conflicts,
    bool is_requester) const {
  VictimCandidate c;
  c.txn = member.id;
  c.entry = member.entry;
  c.is_requester = is_requester;
  // §3.1: the rollback target is the state of highest index in which the
  // member holds no lock that conflicts with another deadlocked
  // transaction. Holding lock state k means requests 1..k survive, so the
  // target is the minimum lock state over first-conflicting requests.
  //
  // Under FIFO queues an arc can also represent queue order (the member
  // is a *waiter* queued ahead of the blocked transaction without holding
  // the entity). Such conflicts impose no lock-state constraint:
  // cancelling the member's pending request (which every rollback does —
  // it re-queues at the tail afterwards) already removes the arc. A candidate whose conflicts are all queue arcs therefore has
  // target == granted.size() and cost 0.
  LockIndex ideal = member.granted.size();
  for (const auto& [entity, waiter_mode] : conflicts) {
    for (LockIndex k = 0; k < member.granted.size(); ++k) {
      const LockRecord& r = member.granted[k];
      if (r.entity != entity) continue;
      const bool conflicting = r.mode == lock::LockMode::kExclusive ||
                               waiter_mode == lock::LockMode::kExclusive;
      if (conflicting) {
        ideal = std::min(ideal, k);
        break;
      }
    }
  }
  c.ideal_target = ideal;
  c.actual_target = member.plan->LatestRestorableAtOrBefore(ideal, member.pc);
  c.cost = OpsLost(member, c.actual_target);
  c.ideal_cost = OpsLost(member, c.ideal_target);
  return c;
}

std::uint64_t Engine::OpsLost(const TxnContext& txn, LockIndex target) {
  return target < txn.granted.size() ? txn.pc - txn.granted[target].op_index
                                     : 0;
}

Result<bool> Engine::DetectAndResolve(TxnContext& requester,
                                      EntityId entity) {
  // Every cycle this wait closed passes through the requester (§3.2), so
  // the requester's strongly connected component holds them all: one
  // sweep, no enumeration (DESIGN D19). A requester nobody waits for is on
  // no cycle, and the lock table says so without a sweep (DESIGN D28).
  std::uint64_t num_cycles = 0;
  {
    obs::ScopedTimer detect_timer(
        probe_ != nullptr ? probe_->detection_ns : nullptr,
        probe_ != nullptr ? probe_->clock : nullptr);
    if (!locks_.MayBlockWaiters(requester.id)) return false;
    ++metrics_.component_loads;
    if (!LoadCyclesThrough(requester.id)) return false;
    num_cycles = cycles_.CountCycles();
    cycles_.FirstCycle(&deadlock_cycle_);
  }
  ++metrics_.deadlocks;
  metrics_.cycles_found += num_cycles;
  Emit({.kind = obs::EventKind::kCycle,
        .txn = requester.id,
        .entity = entity,
        .pc = requester.pc,
        .cycle = metrics_.deadlocks});

  // One candidate per member, in ascending id order. Its conflicts are the
  // entities on its out-arcs inside the component — exactly the arcs on
  // cycles through the requester — with the pending mode of the waiter,
  // read once per member: every member heads an arc, so every one waits.
  const std::size_t k = cycles_.size();
  const std::size_t r = cycles_.root_index();
  scratch_pending_modes_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    auto pending = locks_.Waiting(TxnId(cycles_.member(i)));
    if (!pending.has_value()) {
      return Status::Internal("cycle contains a non-waiting transaction");
    }
    scratch_pending_modes_.push_back(pending->mode);
  }
  scratch_candidates_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    const TxnContext* member = Find(TxnId(cycles_.member(i)));
    if (member == nullptr) {
      return Status::Internal("cycle contains an unknown transaction");
    }
    scratch_conflicts_.clear();
    for (const auto& arc : cycles_.OutArcs(i)) {
      scratch_conflicts_.emplace_back(EntityId(arc.label),
                                      scratch_pending_modes_[arc.head]);
    }
    auto cand = MakeCandidate(*member, scratch_conflicts_, i == r);
    if (!cand.ok()) return cand.status();
    scratch_candidates_.push_back(cand.value());
  }
  const std::vector<VictimCandidate>& candidates = scratch_candidates_;

  // Choose victims, as indices into `candidates` (ascending).
  std::vector<std::size_t>& victims = scratch_victims_;
  victims.clear();
  bool omega_intervened = false;
  if (cycles_.arc_count() == k) {
    // One simple cycle: every member breaks it.
    const VictimCandidate& pick =
        ChooseVictim(options_.victim_policy, candidates, requester.entry);
    if (options_.victim_policy == VictimPolicyKind::kMinCostOrdered) {
      // Theorem 2 actively intervening: the ω-ordered policy rejected the
      // transaction pure min-cost would have sacrificed. Reported on the
      // victim and rollback events; it never alters the pick.
      omega_intervened =
          ChooseVictim(VictimPolicyKind::kMinCost, candidates,
                       requester.entry)
              .txn != pick.txn;
      if (omega_intervened) ++metrics_.omega_interventions;
    }
    std::size_t chosen = static_cast<std::size_t>(&pick - candidates.data());
    if (options_.debug_flip_victim_deadlock != 0 && k > 1 &&
        ++debug_flip_opportunities_ == options_.debug_flip_victim_deadlock) {
      // Test-only divergence injection: trade the pick for any other
      // candidate so exactly one decision differs from a clean run. The
      // ordinal counts *flippable* single-cycle deadlocks (>= 2
      // candidates), not raw deadlocks — multi-cycle resolutions take the
      // branches below, and firing on a deadlock that lands there would
      // silently inject nothing.
      chosen = chosen == 0 ? 1 : 0;
    }
    victims.push_back(chosen);
  } else if (options_.victim_policy == VictimPolicyKind::kRequester ||
             !options_.optimize_vertex_cut) {
    // The requester lies on every cycle closed by its own wait (§3.2), so
    // rolling it back is always a complete, if unoptimised, resolution.
    victims.push_back(r);
  } else if (options_.victim_policy == VictimPolicyKind::kMinCost ||
             options_.victim_policy == VictimPolicyKind::kMinCostOrdered) {
    // §3.2: the cheapest member set meeting every cycle is a minimum
    // vertex cut between the requester's successors and its predecessors.
    // Under Theorem 2 only members that entered after the requester may
    // be cut; when no finite cut exists the requester is the victim, and
    // unordered min-cost also takes it when it is no dearer than the cut.
    scratch_capacity_.clear();
    for (const VictimCandidate& c : candidates) {
      const bool eligible =
          options_.victim_policy == VictimPolicyKind::kMinCost ||
          c.entry > requester.entry;
      scratch_capacity_.push_back(eligible ? c.cost
                                           : graph::CyclesThrough::kInfinite);
    }
    const std::uint64_t cut =
        cycles_.MinVertexCut(scratch_capacity_, &victims);
    if (cut == graph::CyclesThrough::kInfinite ||
        (options_.victim_policy == VictimPolicyKind::kMinCost &&
         candidates[r].cost <= cut)) {
      victims.assign(1, r);
    }
  } else {
    // Other policies: apply the policy to the first cycle no victim breaks
    // yet, until none is left (at most one pick per member).
    scratch_excluded_.assign(k, 0);
    while (cycles_.FirstCycle(&scratch_cycle_, &scratch_excluded_)) {
      scratch_cycle_members_.clear();
      for (graph::VertexId v : scratch_cycle_.vertices) {
        scratch_cycle_members_.push_back(candidates[cycles_.IndexOf(v)]);
      }
      const std::size_t chosen = cycles_.IndexOf(
          ChooseVictim(options_.victim_policy, scratch_cycle_members_,
                       requester.entry)
              .txn.value());
      victims.push_back(chosen);
      if (chosen == r) break;  // the requester is on every cycle
      scratch_excluded_[chosen] = 1;
    }
    std::sort(victims.begin(), victims.end());
  }

  if (victims.empty()) {
    return Status::Internal("deadlock resolution chose no victim");
  }

  // Forensics: full dump of the cycle before any rollback mutates it.
  if (forensics_ != nullptr) {
    obs::DeadlockDump dump;
    dump.step = metrics_.steps;
    dump.requester = requester.id;
    dump.requested_entity = entity;
    dump.num_cycles = num_cycles;
    dump.policy = std::string(VictimPolicyKindName(options_.victim_policy));
    for (const graph::Edge& e : deadlock_cycle_.edges) {
      // Edge e: blocker (from) -> waiter (to); the forensic arc reads
      // "waiter waits for holder".
      dump.arcs.push_back(
          obs::WaitsForArc{TxnId(e.to), TxnId(e.from), EntityId(e.label)});
    }
    for (const VictimCandidate& c : candidates) {
      obs::DeadlockParticipant p;
      p.txn = c.txn;
      p.entry = c.entry;
      p.cost = c.cost;
      p.ideal_cost = c.ideal_cost;
      p.target = c.actual_target;
      p.is_requester = c.is_requester;
      dump.participants.push_back(std::move(p));
    }
    for (std::size_t v : victims) {
      dump.participants[v].is_victim = true;
      dump.victims.push_back(candidates[v].txn);
    }
    forensics_->OnDeadlock(dump);
  }

  bool requester_rolled_back = false;
  for (std::size_t index : victims) {
    const VictimCandidate& v = candidates[index];
    TxnContext* victim = Find(v.txn);
    if (victim == nullptr) {
      return Status::Internal("victim vanished");
    }
    // Whose conflict knocked this victim out: the requester for a
    // preemption; for a requester self-rollback, the holder it waited on.
    // A self-rollback is still a preemption in the Figure 2 sense:
    // recording that holder as the aggressor lets the lineage chain keep
    // growing across the paper's mutual T2/T3 alternation, which is
    // self-rollbacks all the way down.
    TxnId causing = requester.id;
    if (v.is_requester) {
      requester_rolled_back = true;
      for (const graph::Edge& e : deadlock_cycle_.edges) {
        if (TxnId(e.to) == requester.id) {
          causing = TxnId(e.from);
          break;
        }
      }
    }
    RollbackDecision d = Decide(
        v,
        v.is_requester     ? obs::RollbackCause::kSelfRollback
        : omega_intervened ? obs::RollbackCause::kOmegaPreemption
                           : obs::RollbackCause::kDeadlockVictim,
        causing);
    // metrics_.deadlocks is the 1-based ordinal of this deadlock.
    d.cycle = metrics_.deadlocks;
    d.candidates = candidates.size();
    d.omega = omega_intervened;
    PARDB_RETURN_IF_ERROR(RollbackTxn(*victim, d));
  }
  // Postcondition replacing a retry loop: the resolution broke every cycle
  // through the requester. Victims stop waiting, so they leave every cycle,
  // and a rollback adds arcs only out of newly granted transactions, which
  // wait for nothing (DESIGN D19).
  if (!requester_rolled_back && LoadCyclesThrough(requester.id)) {
    return Status::Internal(
        "deadlock resolution left a cycle through the requester");
  }
  return requester_rolled_back;
}

Status Engine::HandleWoundWait(TxnContext& requester, EntityId entity,
                               lock::LockMode mode) {
  // Preempt every younger blocker still in its growing phase; afterwards
  // the requester waits only for older (or shrinking) transactions, so
  // waits-for arcs point from younger to older only and cycles cannot
  // form. Re-check the blocker set after each wound: rollbacks shift the
  // queue.
  for (int guard = 0; guard < 1024; ++guard) {
    if (!locks_.IsWaiting(requester.id)) return Status::OK();  // granted
    TxnContext* victim = nullptr;
    scratch_blockers_.clear();
    locks_.AppendBlockersOf(requester.id, &scratch_blockers_);
    for (TxnId b : scratch_blockers_) {
      TxnContext* blocker = Find(b);
      if (blocker == nullptr) {
        return Status::Internal("unknown blocker in wound-wait");
      }
      if (blocker->entry > requester.entry &&
          !blocker->in_shrinking_phase) {
        victim = blocker;
        break;
      }
    }
    if (victim == nullptr) return Status::OK();  // wait for elders only
    auto cand = MakeCandidate(*victim, {{entity, mode}}, false);
    if (!cand.ok()) return cand.status();
    PARDB_RETURN_IF_ERROR(RollbackTxn(
        *victim,
        Decide(cand.value(), obs::RollbackCause::kWoundWait, requester.id)));
  }
  return Status::Internal("wound-wait did not converge");
}

Result<VictimCandidate> Engine::SelfRollbackTarget(
    const TxnContext& txn,
    const std::function<bool(const TxnContext&)>& relevant) const {
  std::vector<std::pair<EntityId, lock::LockMode>> conflicts;
  for (const auto& [held_entity, held_mode] : locks_.HeldBy(txn.id)) {
    (void)held_mode;
    for (const auto& [waiter, wmode] : locks_.WaitQueue(held_entity)) {
      const TxnContext* w = Find(waiter);
      if (w == nullptr || !relevant(*w)) continue;
      conflicts.emplace_back(held_entity, wmode);
    }
  }
  return MakeCandidate(txn, conflicts, true);
}

Result<bool> Engine::HandleWaitDie(TxnContext& requester) {
  // The requester waits only if it is the oldest among its blockers;
  // otherwise it dies: it is rolled back to the latest lock state at which
  // it holds no lock that an *older* transaction is currently queued for —
  // locally available information only — and retries from there.
  TxnId older_blocker;
  scratch_blockers_.clear();
  locks_.AppendBlockersOf(requester.id, &scratch_blockers_);
  for (TxnId b : scratch_blockers_) {
    const TxnContext* blocker = Find(b);
    if (blocker != nullptr && blocker->entry < requester.entry) {
      older_blocker = b;
      break;
    }
  }
  if (!older_blocker.valid()) return false;  // wait (old waits for young only)

  const Timestamp entry = requester.entry;
  auto cand = SelfRollbackTarget(
      requester, [entry](const TxnContext& w) { return w.entry < entry; });
  if (!cand.ok()) return cand.status();
  PARDB_RETURN_IF_ERROR(RollbackTxn(
      requester,
      Decide(cand.value(), obs::RollbackCause::kWaitDie, older_blocker)));
  return true;
}

Status Engine::ExpireTimeouts() {
  // Collect first: rollbacks mutate the transactions' wait states.
  scratch_expired_.clear();
  for (std::uint64_t v = live_head_; v != kNoneIdx; v = live_next_[v]) {
    const TxnContext& ctx = txns_[v];
    if (ctx.status == TxnStatus::kWaiting &&
        metrics_.steps - ctx.wait_since > options_.wait_timeout_steps) {
      scratch_expired_.push_back(ctx.id);
    }
  }
  for (TxnId id : scratch_expired_) {
    TxnContext* ctx = Find(id);
    if (ctx == nullptr || ctx->status != TxnStatus::kWaiting) continue;
    auto cand = SelfRollbackTarget(
        *ctx, [](const TxnContext&) { return true; });
    if (!cand.ok()) return cand.status();
    PARDB_RETURN_IF_ERROR(RollbackTxn(
        *ctx, Decide(cand.value(), obs::RollbackCause::kTimeout, TxnId())));
  }
  return Status::OK();
}

Status Engine::PeriodicScan() {
  ++metrics_.periodic_scans;
  // One sweep finds every deadlocked group at once (each cyclic strongly
  // connected component). Each group is handed to the standard
  // resolver with its youngest member as the pseudo-requester (the
  // transaction whose wait most recently could have closed the cycle), so
  // every victim policy keeps its meaning. Resolving one group can very
  // occasionally re-arrange another (grants shift queues), hence the outer
  // loop until acyclic.
  for (int guard = 0; guard < 4096; ++guard) {
    // Collect every group, then resolve: resolving reloads cycles_.
    const auto groups = CyclicGroups();
    if (groups.empty()) return Status::OK();
    for (const auto& group : groups) {
      TxnContext* pseudo = nullptr;
      for (graph::VertexId v : group) {
        TxnContext* member = Find(TxnId(v));
        if (member == nullptr) {
          return Status::Internal("cycle contains unknown transaction");
        }
        if (member->status != TxnStatus::kWaiting) {
          pseudo = nullptr;  // stale group: resolved by a previous round
          break;
        }
        if (pseudo == nullptr || member->entry > pseudo->entry) {
          pseudo = member;
        }
      }
      if (pseudo == nullptr) continue;
      auto pending = locks_.Waiting(pseudo->id);
      if (!pending.has_value()) {
        return Status::Internal("cycle member without a pending request");
      }
      PARDB_RETURN_IF_ERROR(
          DetectAndResolve(*pseudo, pending->entity).status());
    }
  }
  return Status::Internal("periodic scan did not converge");
}

Status Engine::CheckRollbackTarget(const TxnContext& victim,
                                   LockIndex target) const {
  if (victim.in_shrinking_phase) {
    return Status::FailedPrecondition(
        "rollback after unlock is not permitted (two-phase rule)");
  }
  if (target > victim.granted.size() ||
      !victim.plan->IsRestorable(target, victim.pc)) {
    return Status::InvalidArgument(
        "lock state " + std::to_string(target) + " of " +
        std::to_string(victim.id.value()) + " is not restorable under " +
        std::string(rollback::StrategyKindName(options_.strategy)) +
        " at state index " + std::to_string(victim.pc));
  }
  return Status::OK();
}

Engine::RollbackDecision Engine::Decide(const VictimCandidate& c,
                                       obs::RollbackCause cause,
                                       TxnId causing) {
  return {.target = c.actual_target,
          .ideal_target = c.ideal_target,
          .cause = cause,
          .causing = causing};
}

Status Engine::RollbackTxn(TxnContext& victim, const RollbackDecision& d) {
  const LockIndex target = d.target;
  PARDB_RETURN_IF_ERROR(CheckRollbackTarget(victim, target));
  // Priced now, not when the victim was chosen: an earlier victim of the
  // same resolution may since have granted this one its pending lock.
  const std::uint64_t cost = OpsLost(victim, target);
  const std::uint64_t ideal_cost = OpsLost(victim, d.ideal_target);
  metrics_.wasted_ops += cost;
  metrics_.ideal_wasted_ops += ideal_cost;
  const auto c = static_cast<std::size_t>(d.cause);
  ++metrics_.rollbacks_by_cause[c];
  metrics_.wasted_by_cause[c] += cost;
  if (obs::IsPreemption(d.cause)) {
    max_preempted_ = std::max(max_preempted_, ++ColdOf(victim).preempted);
  }
  if (d.candidates != 0) {
    Emit({.kind = obs::EventKind::kVictim,
          .flags = static_cast<std::uint8_t>(
              (d.omega ? obs::kEventOmega : 0) |
              (d.cause == obs::RollbackCause::kSelfRollback
                   ? obs::kEventRequester
                   : 0)),
          .candidates = static_cast<std::uint32_t>(d.candidates),
          .txn = victim.id,
          .pc = victim.pc,
          .target = target,
          .cost = cost});
  }
  Emit({.kind = obs::EventKind::kRollback,
        .cause = d.cause,
        .txn = victim.id,
        .pc = victim.pc,
        .target = target,
        .cost = cost,
        .causing = d.causing,
        .cycle = d.cycle});
  obs::ScopedTimer rollback_timer(
      probe_ != nullptr ? probe_->rollback_apply_ns : nullptr,
      probe_ != nullptr ? probe_->clock : nullptr);
  if (rollback_costs_.size() < kRollbackCostSamples) {
    // Sized once, at the first rollback, so sampling never reallocates on
    // the rollback path.
    if (rollback_costs_.empty()) rollback_costs_.reserve(kRollbackCostSamples);
    rollback_costs_.push_back(static_cast<std::uint32_t>(cost));
  }
  ++metrics_.rollbacks;
  if (target == 0) {
    ++metrics_.total_rollbacks;
  } else {
    ++metrics_.partial_rollbacks;
  }
  SampleSpace(victim);

  // Cancel the victim's pending request (every victim is waiting).
  if (auto pending = locks_.Waiting(victim.id)) {
    scratch_grants_.clear();
    PARDB_RETURN_IF_ERROR(
        locks_.CancelWaitInto(victim.id, pending->entity, &scratch_grants_));
    for (const lock::Grant& g : scratch_grants_) {
      PARDB_RETURN_IF_ERROR(HandleGrant(g));
    }
  }

  // Undo lock requests with lock state >= target. The value slots need no
  // restore: the plan made target restorable exactly because every slot a
  // later read resolves to still holds its value at that state.
  scratch_undone_.assign(victim.granted.begin() + target,
                         victim.granted.end());
  victim.granted.truncate(target);
  scratch_handled_.clear();
  for (auto it = scratch_undone_.rbegin(); it != scratch_undone_.rend();
       ++it) {
    const LockRecord& r = *it;
    if (std::find(scratch_handled_.begin(), scratch_handled_.end(),
                  r.entity) != scratch_handled_.end()) {
      continue;
    }
    scratch_handled_.push_back(r.entity);
    bool base_shared_kept = false;
    if (r.is_upgrade) {
      for (const LockRecord& kept : victim.granted) {
        if (kept.entity == r.entity) {
          base_shared_kept = true;
          break;
        }
      }
    }
    scratch_grants_.clear();
    PARDB_RETURN_IF_ERROR(
        base_shared_kept
            ? locks_.DowngradeInto(victim.id, r.entity, &scratch_grants_)
            : locks_.ReleaseInto(victim.id, r.entity, &scratch_grants_));
    for (const lock::Grant& g : scratch_grants_) {
      PARDB_RETURN_IF_ERROR(HandleGrant(g));
    }
  }

  // Reset the program counter to re-execute from lock request target+1.
  const std::size_t new_pc = scratch_undone_.empty()
                                 ? victim.pc
                                 : scratch_undone_.front().op_index;
  if (recorder_ != nullptr) recorder_->OnRollback(victim.id, new_pc);
  victim.pc = static_cast<std::uint32_t>(new_pc);
  victim.status = TxnStatus::kReady;
  MarkReadyDirty(victim);
  return Status::OK();
}

void Engine::Emit(obs::EngineEvent event) {
  event.step = metrics_.steps;
  if (journal_ != nullptr) journal_->OnEvent(event);
  if (txnlife_ != nullptr) txnlife_->OnEvent(event);
  if (lineage_ != nullptr) lineage_->OnEvent(event);
  if (trace_ != nullptr) trace_->OnEvent(event);
}

void Engine::MaybeStampJournalEpoch() {
  if (journal_ == nullptr || (metrics_.steps & journal_epoch_mask_) != 0) {
    return;
  }
  // Keyed to the engine's own step counter, which StepQuantum keeps
  // invariant to quantum chopping — so the chain is identical across
  // schedulers, worker counts and quantum sizes.
  journal_->StampEpoch(metrics_.steps, StateDigest());
}

std::uint64_t Engine::StateDigest() const {
  // Every iteration source here is deterministic: live_ is id-ordered (and
  // entry carries each transaction's ω position), granted counts come from
  // per-context vectors, and the lock manager XOR-combines per-entity
  // digests so its hash-order iteration cannot leak through.
  std::uint64_t h = obs::kFnvOffsetBasis;
  for (std::uint64_t v = live_head_; v != kNoneIdx; v = live_next_[v]) {
    const TxnContext& ctx = txns_[v];
    h = obs::FnvMix64(h, ctx.id.value());
    h = obs::FnvMix64(h, ctx.entry);
    h = obs::FnvMix64(h, ctx.pc);
    h = obs::FnvMix64(h, static_cast<std::uint64_t>(ctx.status));
    h = obs::FnvMix64(h, ctx.granted.size());
  }
  h = obs::FnvMix64(h, locks_.StateDigest());
  return h;
}

void Engine::SampleSpace(const TxnContext& ctx) {
  // Copies are a function of the position, and a transaction revisits only
  // positions below the ones sampled at its earlier rollbacks, so the peak
  // over [0, pc] is its peak over its whole history.
  const rollback::CopyCounts peak = ctx.plan->PeakCopiesAt(ctx.pc);
  metrics_.max_entity_copies =
      std::max<std::size_t>(metrics_.max_entity_copies, peak.entity);
  metrics_.max_var_copies =
      std::max<std::size_t>(metrics_.max_var_copies, peak.var);
}

Result<std::optional<TxnId>> Engine::StepAny() {
  if (options_.handling == DeadlockHandling::kTimeout) {
    PARDB_RETURN_IF_ERROR(ExpireTimeouts());
  }
  const bool periodic =
      options_.handling == DeadlockHandling::kDetection &&
      options_.detection_mode == DetectionMode::kPeriodic;
  if (periodic && options_.detection_period > 0 &&
      metrics_.steps % options_.detection_period == 0) {
    PARDB_RETURN_IF_ERROR(PeriodicScan());
  }
  // With no holds active, ready_bits_ is authoritative: the live list
  // appends monotonically increasing indices and never reorders, so
  // ascending bit order is exactly the live-list scan order — the k-th set
  // bit is the same candidate the scan would have produced. Holds gate on
  // pc, which changes every step, so any active hold falls back to a full
  // scan into scratch_ready_ (in live order, like the bits).
  const bool use_bits = holds_active_ == 0;
  auto CollectReady = [this, use_bits]() {
    if (use_bits) return;
    scratch_ready_.clear();
    for (std::uint64_t v = live_head_; v != kNoneIdx; v = live_next_[v]) {
      const TxnContext& ctx = txns_[v];
      if (ctx.status != TxnStatus::kReady || ctx.backoff) continue;
      const std::size_t hold_pc = cold_[v].hold_pc;
      if (hold_pc != kNoHold && ctx.pc >= hold_pc) continue;
      scratch_ready_.push_back(ctx.id);
    }
  };
  auto ReadyCount = [this, use_bits]() {
    return use_bits ? ready_count_ : scratch_ready_.size();
  };
  CollectReady();
  if (ReadyCount() == 0 && periodic) {
    // Everyone is blocked: scan immediately instead of waiting out the
    // period (also the only way forward when the whole system deadlocks).
    PARDB_RETURN_IF_ERROR(PeriodicScan());
    CollectReady();
  }
  if (ReadyCount() == 0 &&
      options_.handling == DeadlockHandling::kTimeout) {
    // Everyone is blocked (e.g. an undetected deadlock): fast-forward the
    // logical clock with idle ticks until some wait expires and its owner
    // becomes runnable again.
    auto AnyWaiting = [this]() {
      for (std::uint64_t v = live_head_; v != kNoneIdx; v = live_next_[v]) {
        if (txns_[v].status == TxnStatus::kWaiting) return true;
      }
      return false;
    };
    for (std::uint64_t tick = 0;
         ReadyCount() == 0 && AnyWaiting() &&
         tick <= options_.wait_timeout_steps + 1;
         ++tick) {
      ++metrics_.steps;
      MaybeStampJournalEpoch();
      PARDB_RETURN_IF_ERROR(ExpireTimeouts());
      CollectReady();
    }
  }
  const std::size_t ready_n = ReadyCount();
  if (ready_n == 0) return std::optional<TxnId>();
  // Both draws go through the memoized division-free reducer: round-robin
  // is exactly `rr_cursor_ % ready_n`, and the kRandom draw replays
  // Rng::Uniform's rejection walk bit-for-bit (same threshold, same
  // remainder), so schedules — and therefore journal chains — are
  // unchanged while the per-step divides disappear.
  std::size_t at = 0;
  switch (options_.scheduler) {
    case SchedulerKind::kRoundRobin:
      at = static_cast<std::size_t>(FastModFor(ready_n).Mod(rr_cursor_++));
      break;
    case SchedulerKind::kRandom:
      at = static_cast<std::size_t>(rng_.UniformFast(FastModFor(ready_n)));
      break;
  }
  const TxnId pick =
      use_bits ? TxnId(SelectKthReady(at)) : scratch_ready_[at];
  auto outcome = StepTxn(pick);
  if (!outcome.ok()) return outcome.status();
  return std::optional<TxnId>(pick);
}

Result<QuantumResult> Engine::StepQuantum(std::uint64_t max_steps,
                                          bool stop_after_commit) {
  QuantumResult qr;
  while (qr.steps < max_steps && live_count_ != 0) {
    const std::uint64_t commits_before = metrics_.commits;
    auto stepped = StepAny();
    if (!stepped.ok()) return stepped.status();
    if (!stepped.value().has_value()) {
      qr.ran_dry = true;
      FlushProbes();
      return qr;
    }
    ++qr.steps;
    if (stop_after_commit && metrics_.commits > commits_before) {
      qr.committed = true;
      FlushProbes();
      return qr;
    }
  }
  FlushProbes();
  return qr;
}

Status Engine::RunToCompletion(std::uint64_t max_steps) {
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    if (AllCommitted()) {
      FlushProbes();
      return Status::OK();
    }
    auto stepped = StepAny();
    if (!stepped.ok()) return stepped.status();
    if (!stepped.value().has_value()) {
      if (options_.handling == DeadlockHandling::kTimeout) {
        bool any_waiting = false;
        for (std::uint64_t v = live_head_; v != kNoneIdx;
             v = live_next_[v]) {
          if (txns_[v].status == TxnStatus::kWaiting) {
            any_waiting = true;
            break;
          }
        }
        if (any_waiting) continue;  // idle ticks age the waits to expiry
      }
      FlushProbes();
      return Status::Internal(
          "no transaction is ready but not all have committed — lost wakeup "
          "or undetected deadlock:\n" +
          DumpState());
    }
  }
  FlushProbes();
  return Status::ResourceExhausted("max_steps exceeded");
}

bool Engine::AllCommitted() const {
  // The live list holds exactly the uncommitted transactions.
  return live_count_ == 0;
}

TxnStatus Engine::StatusOf(TxnId txn) const {
  const TxnContext* ctx = Find(txn);
  return ctx == nullptr ? TxnStatus::kCommitted : ctx->status;
}

StateIndex Engine::StateIndexOf(TxnId txn) const {
  const TxnContext* ctx = Find(txn);
  return ctx == nullptr ? 0 : ctx->pc;
}

LockIndex Engine::LockCountOf(TxnId txn) const {
  const TxnContext* ctx = Find(txn);
  return ctx == nullptr ? 0 : ctx->granted.size();
}

Timestamp Engine::EntryOf(TxnId txn) const {
  const TxnContext* ctx = Find(txn);
  return ctx == nullptr ? 0 : ctx->entry;
}

Value Engine::VarValueOf(TxnId txn, txn::VarId var) const {
  const TxnContext* ctx = Find(txn);
  if (ctx == nullptr || ctx->slots == nullptr) return 0;
  const txn::Program& program = *ColdOf(*ctx).program;
  if (var >= program.num_vars()) return 0;
  return ctx->slots[ctx->plan->VarSlotAt(program, var, ctx->pc)];
}

Value Engine::EntityValueOf(TxnId txn, EntityId entity) const {
  const TxnContext* ctx = Find(txn);
  if (ctx == nullptr || ctx->slots == nullptr) return 0;
  auto v = EntityValue(
      *ctx, entity,
      ctx->plan->EntitySlotAt(*ColdOf(*ctx).program, entity, ctx->pc));
  return v.ok() ? v.value() : 0;
}

std::uint64_t Engine::PreemptionCountOf(TxnId txn) const {
  const TxnContext* ctx = Find(txn);
  return ctx == nullptr ? 0 : ColdOf(*ctx).preempted;
}

obs::WaitsForSnapshot Engine::SnapshotWaitsFor() const {
  obs::WaitsForSnapshot snap;
  snap.step = metrics_.steps;
  snap.commits = metrics_.commits;
  for (std::uint64_t v = live_head_; v != kNoneIdx; v = live_next_[v]) {
    const TxnContext* ctx = &txns_[v];
    const TxnId id = ctx->id;
    obs::TxnSnapshot t;
    t.txn = id;
    t.entry = ctx->entry;
    switch (ctx->status) {
      case TxnStatus::kReady:
        t.status = "ready";
        break;
      case TxnStatus::kWaiting:
        t.status = "waiting";
        break;
      case TxnStatus::kCommitted:
        t.status = "committed";
        break;
    }
    t.state_index = ctx->pc;
    t.lock_count = ctx->granted.size();
    t.preemptions = ColdOf(*ctx).preempted;
    t.chain_len = lineage_ != nullptr ? lineage_->ChainLenOf(id) : 0;
    for (const auto& [e, m] : locks_.HeldBy(id)) {
      t.held.push_back(obs::LockGrantRef{e, lock::LockModeName(m)[0]});
    }
    const std::optional<lock::PendingRequest> pending = locks_.Waiting(id);
    if (pending.has_value()) {
      t.has_request = true;
      t.requested = obs::LockGrantRef{pending->entity,
                                      lock::LockModeName(pending->mode)[0]};
    }
    snap.txns.push_back(std::move(t));
  }
  std::vector<graph::Edge> arcs;
  AppendWaitsFor(&arcs);
  for (const graph::Edge& e : arcs) {
    // Edge: holder (from) -> waiter (to); the snapshot arc reads "waiter
    // waits for holder", matching the forensic dump's orientation.
    snap.arcs.push_back(
        obs::WaitsForArc{TxnId(e.to), TxnId(e.from), EntityId(e.label)});
  }
  const graph::Shape shape = graph::ShapeOf(std::move(arcs));
  snap.acyclic = shape.acyclic;
  snap.forest = shape.forest;
  return snap;
}

namespace {

// Rollbacks summed over the causes `family` selects.
std::uint64_t RollbacksWhere(
    const std::array<std::uint64_t, obs::kNumRollbackCauses>& by_cause,
    bool (*family)(obs::RollbackCause)) {
  std::uint64_t n = 0;
  for (std::size_t c = 0; c < obs::kNumRollbackCauses; ++c) {
    if (family(static_cast<obs::RollbackCause>(c))) n += by_cause[c];
  }
  return n;
}

}  // namespace

std::uint64_t EngineMetrics::Preemptions() const {
  return RollbacksWhere(rollbacks_by_cause, obs::IsPreemption);
}

std::uint64_t EngineMetrics::LineageEvents() const {
  return RollbacksWhere(rollbacks_by_cause, obs::ExtendsLineage);
}

CostDistribution ComputeCostDistribution(std::vector<std::uint32_t> costs) {
  CostDistribution d;
  if (costs.empty()) return d;
  std::sort(costs.begin(), costs.end());
  const std::uint64_t n = costs.size();
  // Nearest-rank: percentile P is sorted[ceil(n*P/100) - 1]. The old
  // `(n*95)/100 == n` guard was dead code (true only for n == 0), which
  // made p95 the 95.0th *floor* rank — one element short for n < 20 and
  // never the max even when P says it should be.
  auto Rank = [n, &costs](std::uint64_t p) {
    return costs[std::min<std::uint64_t>(n - 1, (n * p + 99) / 100 - 1)];
  };
  d.count = n;
  d.p50 = Rank(50);
  d.p95 = Rank(95);
  d.max = costs.back();
  std::uint64_t sum = 0;
  for (std::uint32_t c : costs) sum += c;
  d.mean = static_cast<double>(sum) / static_cast<double>(n);
  return d;
}

CostDistribution Engine::RollbackCostDistribution() const {
  return ComputeCostDistribution(rollback_costs_);
}

std::string Engine::DumpState() const {
  std::ostringstream os;
  os << "engine state (" << live_count_ << " live of " << next_txn_
     << " txns):\n";
  for (std::uint64_t v = live_head_; v != kNoneIdx; v = live_next_[v]) {
    const TxnContext& ctx = txns_[v];
    os << "  " << ctx.id << " pc=" << ctx.pc << "/" << ctx.size
       << " locks=" << ctx.granted.size() << " status="
       << (ctx.status == TxnStatus::kReady ? "ready" : "waiting") << "\n";
  }
  os << "lock table:\n" << locks_.ToString();
  os << "waits-for:\ndigraph G {\n";
  for (std::uint64_t v = live_head_; v != kNoneIdx; v = live_next_[v]) {
    os << "  \"v" << txns_[v].id.value() << "\";\n";
  }
  std::vector<graph::Edge> arcs;
  AppendWaitsFor(&arcs);
  for (const graph::Edge& e : arcs) {
    os << "  \"v" << e.from << "\" -> \"v" << e.to << "\" [label=\""
       << e.label << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace pardb::core
