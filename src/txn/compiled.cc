#include "txn/compiled.h"

#include <algorithm>

namespace pardb::txn {

namespace {

// Lowers one operand into the packed (value, flag) form.
std::int64_t LowerOperand(const Operand& o, std::uint8_t var_flag,
                          std::uint8_t* flags) {
  if (o.kind == Operand::Kind::kVar) {
    *flags |= var_flag;
    return static_cast<std::int64_t>(o.var);
  }
  return o.imm;
}

}  // namespace

std::unique_ptr<const CompiledProgram> CompiledProgram::Compile(
    const Program& program) {
  std::unique_ptr<CompiledProgram> compiled(new CompiledProgram());
  compiled->uops_.reserve(program.size());

  // Entities with an earlier shared lock: a later LX on one of them is the
  // S->X upgrade (the builder's protocol validation makes this the only
  // legal re-lock, and two-phase means no lock follows an unlock — so the
  // flag computed here matches what the lock manager reports at runtime in
  // every interleaving, including re-execution after partial rollback).
  std::vector<std::uint64_t> shared_held;

  for (std::size_t i = 0; i < program.size(); ++i) {
    const Op& op = program.op(i);
    MicroOp u{};
    switch (op.code) {
      case OpCode::kLockShared:
      case OpCode::kLockExclusive: {
        const bool exclusive = op.code == OpCode::kLockExclusive;
        u.code = static_cast<std::uint8_t>(exclusive
                                               ? MicroOpCode::kLockExclusive
                                               : MicroOpCode::kLockShared);
        u.entity = op.entity.value();
        if (exclusive &&
            std::find(shared_held.begin(), shared_held.end(),
                      op.entity.value()) != shared_held.end()) {
          u.flags |= kMicroFlagUpgrade;
        }
        if (!exclusive) shared_held.push_back(op.entity.value());
        break;
      }
      case OpCode::kUnlock:
        u.code = static_cast<std::uint8_t>(MicroOpCode::kUnlock);
        u.entity = op.entity.value();
        break;
      case OpCode::kRead:
        u.code = static_cast<std::uint8_t>(MicroOpCode::kRead);
        u.entity = op.entity.value();
        break;
      case OpCode::kWrite:
        u.code = static_cast<std::uint8_t>(MicroOpCode::kWrite);
        u.entity = op.entity.value();
        u.a = LowerOperand(op.a, kMicroFlagAVar, &u.flags);
        break;
      case OpCode::kCompute: {
        if (op.a.kind == Operand::Kind::kImm &&
            op.b.kind == Operand::Kind::kImm) {
          // Constant fold: the result is known now; emit a plain load.
          Value v = 0;
          switch (op.arith) {
            case ArithOp::kAdd:
              v = op.a.imm + op.b.imm;
              break;
            case ArithOp::kSub:
              v = op.a.imm - op.b.imm;
              break;
            case ArithOp::kMul:
              v = op.a.imm * op.b.imm;
              break;
          }
          u.code = static_cast<std::uint8_t>(MicroOpCode::kLoadImm);
          u.a = v;
          break;
        }
        switch (op.arith) {
          case ArithOp::kAdd:
            u.code = static_cast<std::uint8_t>(MicroOpCode::kComputeAdd);
            break;
          case ArithOp::kSub:
            u.code = static_cast<std::uint8_t>(MicroOpCode::kComputeSub);
            break;
          case ArithOp::kMul:
            u.code = static_cast<std::uint8_t>(MicroOpCode::kComputeMul);
            break;
        }
        u.a = LowerOperand(op.a, kMicroFlagAVar, &u.flags);
        u.b = LowerOperand(op.b, kMicroFlagBVar, &u.flags);
        break;
      }
      case OpCode::kCommit:
        u.code = static_cast<std::uint8_t>(MicroOpCode::kCommit);
        break;
    }
    compiled->uops_.push_back(u);
  }
  return compiled;
}

}  // namespace pardb::txn
