#ifndef PARDB_ROLLBACK_PLAN_H_
#define PARDB_ROLLBACK_PLAN_H_

// Static rollback plans: Theorem 4 compiled into the program (DESIGN D20).
//
// Programs are straight-line (txn/program.h: the state index is the pc),
// so where each write lands, which lock states it destroys (§4, Theorem 4)
// and how many copies a strategy holds (Theorem 3) are facts of the
// program, not of the run. A RollbackPlan computes them once per program;
// a running transaction keeps only a flat array of value slots laid out by
// the plan. Rollback to a restorable lock state is then "reset the pc,
// undo the locks": no value is copied back, because the slots every later
// read resolves to still hold their values at that state.
//
// The three strategies of the paper are presets of this one mechanism:
//   * kMcs — one slot per (object, lock index of its writes): exactly the
//     multi-lock copy strategy's stack elements; every lock state is
//     restorable (Theorem 3 bounds the copies);
//   * kSdg — one slot per object; the restorable states are those no write
//     executed so far destroyed (the well-defined states of Theorem 4);
//   * kTotalRestart — one slot per object; only lock state 0.
//
// Lock-state indexing (see DESIGN.md): the k-th lock request (k = 1, 2,
// ...) creates lock state k-1, the state immediately before it. An op
// between requests k and k+1 has lock index k. Rolling back to lock state
// q undoes every request with lock state >= q and resumes at request q+1.

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "txn/program.h"

namespace pardb::rollback {

// Which preset an Engine plans its transactions' rollback with.
enum class StrategyKind {
  kTotalRestart,  // baseline: remove-and-restart (roll back to state 0)
  kMcs,           // multi-lock copy strategy (§4, Theorem 3)
  kSdg,           // state-dependency graph, single copy per object (§4)
};

std::string_view StrategyKindName(StrategyKind kind);

// One chord of the paper's state-dependency graph (§4): the write op at
// position `pc`, executed at lock index `m`, to an object whose index of
// restorability is `u` — the last lock state at which the object's value
// before its first write was intact (u = first write's lock index - 1).
// The write destroys every lock state q with u < q < m.
struct WriteChord {
  std::size_t pc;
  LockIndex u;
  LockIndex m;
};

// One chord per write op of `program` (kWrite to its entity, kRead and
// kCompute to their destination variable), in program order. The single
// source of chords for both StateDependencyGraph (Figures 4 and 5) and the
// kSdg restorable rule.
std::vector<WriteChord> WriteChords(const txn::Program& program);

// Copies of values a strategy holds (Theorem 3 accounting): entity copies
// are MCS stack elements (the saved global value included) or one copy per
// exclusively held entity; var copies are MCS var stack elements (the
// initial value included) or the saved initial values.
struct CopyCounts {
  std::uint32_t entity = 0;
  std::uint32_t var = 0;
};

class RollbackPlan {
 public:
  // Source markers in Op and Release.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::uint32_t kGlobal = kNone - 1;  // the global store

  // Slot assignment of one program position. Slots [0, num_vars) hold the
  // initial variable values and are never written.
  struct Op {
    // Slot the op writes (kWrite, kRead, kCompute); kNone otherwise.
    std::uint32_t dst = kNone;
    // kRead: the entity's source slot or kGlobal; kCompute/kWrite: the slot
    // of variable operand a. kUnlock/kCommit: first release.
    std::uint32_t a = kNone;
    // kCompute: the slot of variable operand b. kUnlock/kCommit: one past
    // the last release.
    std::uint32_t b = kNone;
  };

  // One entity an unlock or commit releases, in ascending entity order.
  // `source` is the slot or kGlobal to publish for an exclusive lock, and
  // kNone for a shared one (release only).
  struct Release {
    EntityId entity;
    std::uint32_t source = kNone;
  };

  std::uint32_t num_slots() const { return num_slots_; }

  // Position pc in [0, program size]; pc == size is the implicit commit of
  // a program without a kCommit op.
  const Op& op(std::size_t pc) const { return ops_[pc]; }

  // What the unlock or commit at pc releases and publishes.
  std::span<const Release> releases(std::size_t pc) const {
    const Op& o = ops_[pc];
    if (o.a == kNone) return {};
    return releases_.subspan(o.a, o.b - o.a);
  }

  // Whether lock state q can be restored exactly from a transaction about
  // to execute position pc. The caller guarantees q <= the lock count at
  // pc (the transaction's granted requests).
  bool IsRestorable(LockIndex q, std::size_t pc) const {
    return q < restorable_until_.size() && pc <= restorable_until_[q];
  }

  // Greatest restorable lock state <= target at pc. Lock state 0 is always
  // restorable, so the result is always valid.
  LockIndex LatestRestorableAtOrBefore(LockIndex target,
                                       std::size_t pc) const;

  // Peak copies over positions [0, pc]: what a transaction that has
  // reached pc has held at most (its state before each executed op).
  CopyCounts PeakCopiesAt(std::size_t pc) const { return peak_copies_[pc]; }

  // The slot holding variable var's value before op pc executes: its
  // latest write's, else its initial slot (var).
  std::uint32_t VarSlotAt(const txn::Program& program, txn::VarId var,
                          std::size_t pc) const;
  // The slot holding entity e's value before op pc executes: its latest
  // write's, else kGlobal.
  std::uint32_t EntitySlotAt(const txn::Program& program, EntityId e,
                             std::size_t pc) const;

 private:
  friend class RollbackPlanner;

  // dst of the latest op before pc that `writes` matches, or `otherwise`.
  template <typename Pred>
  std::uint32_t LatestWriteSlot(const txn::Program& program, std::size_t pc,
                                Pred writes, std::uint32_t otherwise) const;

  std::uint32_t num_slots_ = 0;
  // Every array below lives in this one block: a plan is built once per
  // program with a single allocation and read on every step.
  std::unique_ptr<std::byte[]> block_;
  std::span<Release> releases_;  // at most one per locked entity
  std::span<Op> ops_;            // program size + 1
  // restorable_until_[q]: position of the first op whose execution makes
  // lock state q unrestorable (the first write destroying it); q stays
  // restorable while pc <= that position. One per lock state.
  std::span<std::uint32_t> restorable_until_;
  std::span<CopyCounts> peak_copies_;  // program size + 1
};

// Builds rollback plans (the engine keeps one per engine). Under `seal`
// (§5, applied under detection) a transaction can never be rolled back once
// its last lock request is granted, so writes past it reuse the object's
// previous slot — the MCS stack top — and hold no further copies. The
// planner keeps its scratch between builds, so a warm planner's only
// allocation per plan is the plan's block.
class RollbackPlanner {
 public:
  RollbackPlan Build(const txn::Program& program, StrategyKind kind,
                     bool seal);

 private:
  enum class Held : std::uint8_t { kNo, kShared, kExclusive };
  // Build-time state of one locked entity or local variable.
  struct Object {
    std::uint32_t slot = 0;  // latest write's; initial or kGlobal before
    LockIndex last_write = 0;
    bool written = false;
    Held held = Held::kNo;
    // MCS stack shape: lock index of the top element and element count.
    LockIndex top = 0;
    std::uint32_t depth = 0;
  };

  std::vector<EntityId> entities_;  // sorted distinct locked entities
  std::vector<Object> objects_;     // entities_, then variables
  std::vector<LockIndex> first_write_;
};

}  // namespace pardb::rollback

#endif  // PARDB_ROLLBACK_PLAN_H_
