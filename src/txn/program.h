#ifndef PARDB_TXN_PROGRAM_H_
#define PARDB_TXN_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "lock/lock_mode.h"

namespace pardb::txn {

// Index of a local variable within a transaction's frame (paper §2: each
// transaction has local variables L_i with value ranges).
using VarId = std::uint32_t;

// Atomic operations of the transaction model (§2). Programs are
// straight-line: a transaction is exactly the paper's "sequence of atomic
// operations", so the state index of a running transaction equals its
// program counter and rollback is a program-counter reset plus value
// restoration.
enum class OpCode : std::uint8_t {
  kLockShared,     // LS(entity)
  kLockExclusive,  // LX(entity); on an entity held in S this is an upgrade
  kUnlock,         // publish (if X) and release; enters the shrinking phase
  kRead,           // var <- entity  (requires S or X lock)
  kWrite,          // entity <- operand (requires X lock)
  kCompute,        // var <- operand (arith) operand
  kCommit,         // publish + release everything; must be the last op
};

std::string_view OpCodeName(OpCode code);

// A value source: immediate constant or local variable. Fields run from
// widest to narrowest so an operand packs into 16 bytes.
struct Operand {
  enum class Kind : std::uint8_t { kImm, kVar };
  Value imm = 0;
  VarId var = 0;
  Kind kind = Kind::kImm;

  static Operand Imm(Value v) { return Operand{v, 0, Kind::kImm}; }
  static Operand Var(VarId v) { return Operand{0, v, Kind::kVar}; }
};

enum class ArithOp : std::uint8_t { kAdd, kSub, kMul };

// Widest fields first: every generated program stores a vector of these.
struct Op {
  EntityId entity;  // lock/unlock/read/write target
  Operand a;        // kWrite source; kCompute left operand
  Operand b;        // kCompute right operand
  VarId dst = 0;    // kRead / kCompute destination
  OpCode code;
  ArithOp arith = ArithOp::kAdd;

  std::string ToString() const;
};
static_assert(sizeof(Op) == 48, "Op must stay packed to 48 bytes");

// An immutable, validated transaction program. Build with ProgramBuilder,
// which checks the protocol rules, or, for programs valid by construction,
// with Program::Trusted.
class Program {
 public:
  Program() = default;

  // Trusted construction: takes the final arrays as they are, with no
  // checks in release builds. The caller guarantees the program passes the
  // protocol rules ProgramBuilder lists, that `initial_vars` has `num_vars`
  // entries, and that `lock_positions` and `max_entity_bound` are what
  // Build would derive; debug builds assert all of it. The workload
  // generator draws every program through here.
  static Program Trusted(std::string name, std::vector<Op> ops,
                         std::uint32_t num_vars,
                         std::vector<Value> initial_vars,
                         std::vector<std::size_t> lock_positions,
                         std::uint64_t max_entity_bound);

  const std::string& name() const { return name_; }
  std::size_t size() const { return ops_.size(); }
  const Op& op(std::size_t i) const { return ops_[i]; }
  const std::vector<Op>& ops() const { return ops_; }
  std::uint32_t num_vars() const { return num_vars_; }
  const std::vector<Value>& initial_vars() const { return initial_vars_; }

  // Program positions of lock requests, in order. Lock request k+1 sits at
  // LockRequestPositions()[k]; the paper's lock state with lock index k is
  // the transaction state immediately before executing it, so the *state
  // index* of lock state k is LockRequestPositions()[k].
  const std::vector<std::size_t>& LockRequestPositions() const {
    return lock_positions_;
  }
  std::size_t NumLockRequests() const { return lock_positions_.size(); }

  // Structure metrics (paper §5) -------------------------------------------

  // Total over entities and local variables of (lock index of last write -
  // lock index of first write). 0 means perfectly clustered writes — the
  // paper's recommendation; large values mean writes straddle many lock
  // states and destroy them for single-copy rollback.
  std::uint64_t WriteSpreadScore() const;

  // True when the program has the paper's three distinct phases: all lock
  // requests first (acquisition), then reads/writes/computes (update), then
  // unlocks/commit (release).
  bool IsThreePhase() const;

  std::size_t CountOps(OpCode code) const;

  // One past the largest entity id any op references (0 for entity-free
  // programs). Computed once at Build time so admission can validate
  // "every referenced entity exists" against a dense store prefix with a
  // single comparison instead of a per-op lookup.
  std::uint64_t MaxEntityBound() const { return max_entity_bound_; }

  std::string ToString() const;

 private:
  friend class ProgramBuilder;

  // The one statement of the protocol rules: checks ops_ against them and
  // derives the lock request positions and entity bound. The error names
  // the first offending op.
  Status CheckProtocol(std::vector<std::size_t>* lock_positions,
                       std::uint64_t* max_entity_bound) const;

  std::string name_;
  std::vector<Op> ops_;
  std::uint32_t num_vars_ = 0;
  std::vector<Value> initial_vars_;
  std::vector<std::size_t> lock_positions_;
  std::uint64_t max_entity_bound_ = 0;
};

// Builder with full static validation of the paper's protocol rules:
//  * two-phase: no lock request after the first unlock;
//  * reads need a held S or X lock, writes a held X lock;
//  * re-locking a held entity is only legal as an S->X upgrade;
//  * no write (entity or local variable) before the first lock request
//    (paper §4 convenience assumption);
//  * kCommit, if present, must be the final op. Programs without kCommit
//    are implicitly committed by the engine after the last op.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name, std::uint32_t num_vars = 0);

  // Declares local variables with initial values (var ids are dense from 0).
  ProgramBuilder& InitVar(VarId var, Value initial);

  ProgramBuilder& LockShared(EntityId e);
  ProgramBuilder& LockExclusive(EntityId e);
  ProgramBuilder& Unlock(EntityId e);
  ProgramBuilder& Read(EntityId e, VarId dst);
  ProgramBuilder& Write(EntityId e, Operand src);
  ProgramBuilder& WriteImm(EntityId e, Value v) {
    return Write(e, Operand::Imm(v));
  }
  ProgramBuilder& WriteVar(EntityId e, VarId v) {
    return Write(e, Operand::Var(v));
  }
  ProgramBuilder& Compute(VarId dst, Operand a, ArithOp op, Operand b);
  ProgramBuilder& Commit();

  // Validates and produces the program.
  Result<Program> Build();

 private:
  std::string name_;
  std::uint32_t num_vars_;
  std::vector<Value> initial_vars_;
  std::vector<Op> ops_;
};

}  // namespace pardb::txn

#endif  // PARDB_TXN_PROGRAM_H_
