#ifndef PARDB_TXN_COMPILED_H_
#define PARDB_TXN_COMPILED_H_

// Ahead-of-time compiled transaction programs (DESIGN D16).
//
// The engine used to re-decode the AoS `Op` vector on every step: an OpCode
// switch, two Operand kind branches, an ArithOp switch, a lock-position
// vector walk for the §5 last-lock check, and a granted-count read to name
// the current lock index. Programs are straight-line (§2: the state index
// IS the program counter, rollback is a pc reset), so every one of those
// decisions is static: at admission each program is lowered exactly once
// into a flat array of 32-byte µops with
//   * a single fused opcode byte (arith folded into the opcode, both-imm
//     computes folded into a load of the precomputed result),
//   * pre-resolved raw entity ids and pre-folded immediates,
//   * the upgrade flag precomputed on lock ops.
// Where each op's values come from and go to is the rollback plan's
// business (rollback/plan.h), which the engine builds beside the µops.
//
// Nothing is shared between transactions: the engine lowers every admitted
// program once into state owned by its transaction and frees it at commit
// (DESIGN D26), so no rollback state outlives the transaction it serves.

#include <cstdint>
#include <memory>
#include <vector>

#include "txn/program.h"

namespace pardb::txn {

// Fused opcodes: ArithOp is folded into the code byte and constant
// computes are folded away entirely, so the executor switches exactly once
// per op with no secondary decode.
enum class MicroOpCode : std::uint8_t {
  kLockShared = 0,
  kLockExclusive,
  kUnlock,
  kRead,
  kWrite,
  kComputeAdd,
  kComputeSub,
  kComputeMul,
  kLoadImm,  // var <- precomputed constant (both-imm compute, folded)
  kCommit,
};

// MicroOp::flags bits.
inline constexpr std::uint8_t kMicroFlagAVar = 1;      // a is a VarId
inline constexpr std::uint8_t kMicroFlagBVar = 2;      // b is a VarId
inline constexpr std::uint8_t kMicroFlagUpgrade = 4;   // lock op: S->X upgrade

// One decoded op, packed to 32 bytes so two µops share a cache line and a
// typical workload program (6-20 ops) spans 3-10 lines fetched linearly.
// Destinations are not here: every op's value slots (destination and var
// operands alike) are 32-bit positions in the rollback plan, so a µop
// carries no var-frame width limit.
struct MicroOp {
  std::uint8_t code;        // MicroOpCode
  std::uint8_t flags;       // kMicroFlag*
  std::uint64_t entity;     // raw entity id (lock/unlock/read/write)
  std::int64_t a;           // immediate value or VarId (kMicroFlagAVar)
  std::int64_t b;           // immediate value or VarId (kMicroFlagBVar)
};
static_assert(sizeof(MicroOp) == 32, "MicroOp must stay cache-line packed");

// An immutable compiled program: the µop stream. Owned by the one
// transaction it was lowered for; never mutated after Compile.
class CompiledProgram {
 public:
  // Lowers `program`. Total: every built program has a µop stream.
  static std::unique_ptr<const CompiledProgram> Compile(
      const Program& program);

  const MicroOp* uops() const { return uops_.data(); }
  std::size_t size() const { return uops_.size(); }
  std::size_t byte_size() const { return uops_.size() * sizeof(MicroOp); }

 private:
  CompiledProgram() = default;

  std::vector<MicroOp> uops_;
};

}  // namespace pardb::txn

#endif  // PARDB_TXN_COMPILED_H_
