#include "rollback/plan.h"

#include <algorithm>
#include <memory>
#include <new>

namespace pardb::rollback {

namespace {

constexpr std::uint32_t kAlways = ~std::uint32_t{0};
constexpr LockIndex kUnwritten = ~LockIndex{0};

// Objects are numbered densely per program: every locked entity
// (ascending id), then every local variable. Only locked entities are
// read, written or released (the builder's protocol validation), so the
// entity lookup always hits; programs lock a handful of entities, where a
// scan beats a binary search.
void IndexEntities(const txn::Program& program,
                   std::vector<EntityId>* entities) {
  entities->clear();
  for (std::size_t pos : program.LockRequestPositions()) {
    entities->push_back(program.op(pos).entity);
  }
  std::sort(entities->begin(), entities->end());
  entities->erase(std::unique(entities->begin(), entities->end()),
                  entities->end());
}

std::uint32_t EntityObject(const std::vector<EntityId>& entities, EntityId e) {
  std::uint32_t i = 0;
  while (entities[i] < e) ++i;
  return i;
}

std::uint32_t VarObject(const std::vector<EntityId>& entities,
                        txn::VarId v) {
  return static_cast<std::uint32_t>(entities.size() + v);
}

// Calls fn(WriteChord) for every write op of `program`, in program order:
// the one definition of the state-dependency graph's chords.
template <typename Fn>
void ForEachWriteChord(const txn::Program& program,
                       const std::vector<EntityId>& entities,
                       std::vector<LockIndex>* first_write, Fn&& fn) {
  first_write->assign(entities.size() + program.num_vars(), kUnwritten);
  LockIndex m = 0;
  for (std::size_t pc = 0; pc < program.size(); ++pc) {
    const txn::Op& op = program.op(pc);
    std::uint32_t object = 0;
    switch (op.code) {
      case txn::OpCode::kLockShared:
      case txn::OpCode::kLockExclusive:
        ++m;
        continue;
      case txn::OpCode::kWrite:
        object = EntityObject(entities, op.entity);
        break;
      case txn::OpCode::kRead:
      case txn::OpCode::kCompute:
        object = VarObject(entities, op.dst);
        break;
      default:
        continue;
    }
    LockIndex& first = (*first_write)[object];
    if (first == kUnwritten) first = m;
    fn(WriteChord{pc, first == 0 ? 0 : first - 1, m});
  }
}

// Carves typed arrays out of one allocation, each aligned for its type.
class BlockLayout {
 public:
  template <typename T>
  std::size_t Reserve(std::size_t n) {
    bytes_ = (bytes_ + alignof(T) - 1) / alignof(T) * alignof(T);
    const std::size_t at = bytes_;
    bytes_ += n * sizeof(T);
    return at;
  }
  std::size_t bytes() const { return bytes_; }

 private:
  std::size_t bytes_ = 0;
};

// Default-constructs n objects of type T at byte offset `at` of block.
template <typename T>
std::span<T> Carve(std::byte* block, std::size_t at, std::size_t n) {
  if (n == 0) return {};
  std::uninitialized_default_construct_n(reinterpret_cast<T*>(block + at), n);
  return {std::launder(reinterpret_cast<T*>(block + at)), n};
}

}  // namespace

std::string_view StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kTotalRestart:
      return "total-restart";
    case StrategyKind::kMcs:
      return "mcs";
    case StrategyKind::kSdg:
      return "sdg";
  }
  return "unknown";
}

std::vector<WriteChord> WriteChords(const txn::Program& program) {
  std::vector<EntityId> entities;
  std::vector<LockIndex> first_write;
  std::vector<WriteChord> chords;
  IndexEntities(program, &entities);
  ForEachWriteChord(program, entities, &first_write,
                    [&chords](const WriteChord& c) { chords.push_back(c); });
  return chords;
}

LockIndex RollbackPlan::LatestRestorableAtOrBefore(LockIndex target,
                                                   std::size_t pc) const {
  for (LockIndex q = target; q > 0; --q) {
    if (IsRestorable(q, pc)) return q;
  }
  return 0;
}

template <typename Pred>
std::uint32_t RollbackPlan::LatestWriteSlot(const txn::Program& program,
                                            std::size_t pc, Pred writes,
                                            std::uint32_t otherwise) const {
  for (std::size_t i = std::min(pc, program.size()); i-- > 0;) {
    if (writes(program.op(i))) return ops_[i].dst;
  }
  return otherwise;
}

std::uint32_t RollbackPlan::VarSlotAt(const txn::Program& program,
                                      txn::VarId var, std::size_t pc) const {
  return LatestWriteSlot(
      program, pc,
      [var](const txn::Op& op) {
        return (op.code == txn::OpCode::kRead ||
                op.code == txn::OpCode::kCompute) &&
               op.dst == var;
      },
      var);
}

std::uint32_t RollbackPlan::EntitySlotAt(const txn::Program& program,
                                         EntityId e, std::size_t pc) const {
  return LatestWriteSlot(
      program, pc,
      [e](const txn::Op& op) {
        return op.code == txn::OpCode::kWrite && op.entity == e;
      },
      kGlobal);
}

RollbackPlan RollbackPlanner::Build(const txn::Program& program,
                                    StrategyKind kind, bool seal) {
  const std::size_t size = program.size();
  const LockIndex num_locks = program.NumLockRequests();
  const bool mcs = kind == StrategyKind::kMcs;
  IndexEntities(program, &entities_);
  const std::size_t num_entities = entities_.size();

  RollbackPlan plan;
  plan.num_slots_ = program.num_vars();
  BlockLayout layout;
  const std::size_t releases_at =
      layout.Reserve<RollbackPlan::Release>(num_entities);
  const std::size_t ops_at = layout.Reserve<RollbackPlan::Op>(size + 1);
  const std::size_t restorable_at =
      layout.Reserve<std::uint32_t>(num_locks + 1);
  const std::size_t peaks_at = layout.Reserve<CopyCounts>(size + 1);
  plan.block_ = std::make_unique_for_overwrite<std::byte[]>(layout.bytes());
  std::byte* block = plan.block_.get();
  std::span<RollbackPlan::Op> ops =
      Carve<RollbackPlan::Op>(block, ops_at, size + 1);
  std::span<std::uint32_t> restorable =
      Carve<std::uint32_t>(block, restorable_at, num_locks + 1);
  std::span<CopyCounts> peaks = Carve<CopyCounts>(block, peaks_at, size + 1);
  std::span<RollbackPlan::Release> releases =
      Carve<RollbackPlan::Release>(block, releases_at, num_entities);
  std::size_t num_releases = 0;

  std::fill(restorable.begin(), restorable.end(),
            kind == StrategyKind::kTotalRestart ? 0 : kAlways);
  restorable[0] = kAlways;
  // Lowers lock states [from, to) to unrestorable once position pc runs.
  auto Destroy = [&restorable](LockIndex from, LockIndex to, std::size_t pc) {
    for (LockIndex q = from; q < to; ++q) {
      restorable[q] =
          std::min(restorable[q], static_cast<std::uint32_t>(pc));
    }
  };
  if (kind == StrategyKind::kSdg) {
    // Theorem 4: a write destroys the lock states its chord straddles.
    ForEachWriteChord(program, entities_, &first_write_,
                      [&Destroy](const WriteChord& c) {
                        Destroy(c.u + 1, c.m, c.pc);
                      });
  }

  objects_.assign(num_entities + program.num_vars(), Object{});
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    objects_[i].slot = i < num_entities
                           ? RollbackPlan::kGlobal
                           : static_cast<std::uint32_t>(i - num_entities);
  }

  CopyCounts cur{0, program.num_vars()};
  CopyCounts peak = cur;
  LockIndex m = 0;
  bool seal_crossed = false;

  // The slot a write at lock index m to object o lands in.
  auto Write = [&](std::uint32_t o, std::size_t pc) -> std::uint32_t {
    Object& x = objects_[o];
    const bool sealed = seal && m == num_locks;
    if (mcs && !sealed && m > x.top) {  // a new MCS stack element
      x.top = m;
      ++x.depth;
      ++(o < num_entities ? cur.entity : cur.var);
    }
    if (!x.written || (mcs && !sealed && x.last_write != m)) {
      x.slot = plan.num_slots_++;
    }
    if (sealed && !seal_crossed) {
      // §5: no rollback crosses the seal, so the slots it overwrites in
      // place (the MCS stack tops) need not survive. Lock state 0 stays
      // restorable: a restart rewrites every slot before reading it.
      seal_crossed = true;
      Destroy(1, num_locks, pc);
    }
    x.last_write = m;
    x.written = true;
    return x.slot;
  };
  auto VarSlot = [&](const txn::Operand& operand) {
    return operand.kind == txn::Operand::Kind::kVar
               ? objects_[VarObject(entities_, operand.var)].slot
               : RollbackPlan::kNone;
  };
  auto Release = [&](std::uint32_t o) {
    Object& x = objects_[o];
    const bool exclusive = x.held == Held::kExclusive;
    releases[num_releases++] = RollbackPlan::Release{
        entities_[o], exclusive ? x.slot : RollbackPlan::kNone};
    if (exclusive) cur.entity -= mcs ? x.depth : 1;
    x.held = Held::kNo;
  };
  // Everything still held, in ascending entity order.
  auto ReleaseAll = [&](RollbackPlan::Op& op) {
    op.a = static_cast<std::uint32_t>(num_releases);
    for (std::uint32_t o = 0; o < num_entities; ++o) {
      if (objects_[o].held != Held::kNo) Release(o);
    }
    op.b = static_cast<std::uint32_t>(num_releases);
  };

  bool committed = false;
  for (std::size_t pc = 0; pc < size; ++pc) {
    peak.entity = std::max(peak.entity, cur.entity);
    peak.var = std::max(peak.var, cur.var);
    peaks[pc] = peak;
    const txn::Op& op = program.op(pc);
    RollbackPlan::Op& out = ops[pc];
    switch (op.code) {
      case txn::OpCode::kLockShared:
      case txn::OpCode::kLockExclusive: {
        Object& x = objects_[EntityObject(entities_, op.entity)];
        if (op.code == txn::OpCode::kLockExclusive) {
          // One copy per exclusive lock, upgrades included: the MCS stack's
          // saved global value, or the single working copy.
          x.held = Held::kExclusive;
          x.top = m;
          x.depth = 1;
          ++cur.entity;
        } else {
          x.held = Held::kShared;
        }
        ++m;
        break;
      }
      case txn::OpCode::kRead:
        out.a = objects_[EntityObject(entities_, op.entity)].slot;
        out.dst = Write(VarObject(entities_, op.dst), pc);
        break;
      case txn::OpCode::kWrite:
        out.a = VarSlot(op.a);
        out.dst = Write(EntityObject(entities_, op.entity), pc);
        break;
      case txn::OpCode::kCompute:
        out.a = VarSlot(op.a);
        out.b = VarSlot(op.b);
        out.dst = Write(VarObject(entities_, op.dst), pc);
        break;
      case txn::OpCode::kUnlock:
        out.a = static_cast<std::uint32_t>(num_releases);
        Release(EntityObject(entities_, op.entity));
        out.b = static_cast<std::uint32_t>(num_releases);
        break;
      case txn::OpCode::kCommit:
        ReleaseAll(out);
        committed = true;
        break;
    }
  }
  peak.entity = std::max(peak.entity, cur.entity);
  peak.var = std::max(peak.var, cur.var);
  peaks[size] = peak;
  if (!committed) ReleaseAll(ops[size]);

  plan.releases_ = releases.first(num_releases);
  plan.ops_ = ops;
  plan.restorable_until_ = restorable;
  plan.peak_copies_ = peaks;
  return plan;
}

}  // namespace pardb::rollback
