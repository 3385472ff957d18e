#ifndef PARDB_TESTS_SERIAL_ORACLE_H_
#define PARDB_TESTS_SERIAL_ORACLE_H_

// Test oracle: programs replayed over plain txn::Op semantics, with no
// engine, µop stream or rollback plan. A straight-line program's state at
// position pc is a function of the entity values it reads (§2), so one
// program replayed alone says what the engine must hold at any pc, and a
// run's committed programs replayed one after another, in a serial order
// its history admits, say what the engine's final store must be.

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "analysis/history.h"
#include "common/result.h"
#include "common/types.h"
#include "txn/program.h"

namespace pardb::txn {

struct SerialState {
  std::vector<Value> vars;
  std::map<EntityId, Value> written;  // entities written so far
};

// Replays ops [0, pc) of `p` alone. A read sees the program's own last
// write of the entity, else `base(entity)`.
template <typename Base>
SerialState ReplayTo(const Program& p, std::size_t pc, const Base& base) {
  SerialState s;
  s.vars = p.initial_vars();
  auto Eval = [&s](const Operand& o) {
    return o.kind == Operand::Kind::kImm ? o.imm : s.vars[o.var];
  };
  for (std::size_t i = 0; i < pc; ++i) {
    const Op& op = p.op(i);
    switch (op.code) {
      case OpCode::kRead: {
        auto it = s.written.find(op.entity);
        s.vars[op.dst] = it != s.written.end() ? it->second : base(op.entity);
        break;
      }
      case OpCode::kWrite:
        s.written[op.entity] = Eval(op.a);
        break;
      case OpCode::kCompute: {
        const Value a = Eval(op.a);
        const Value b = Eval(op.b);
        s.vars[op.dst] = op.arith == ArithOp::kAdd   ? a + b
                         : op.arith == ArithOp::kSub ? a - b
                                                     : a * b;
        break;
      }
      default:
        break;
    }
  }
  return s;
}

// The final entity values of the run `recorder` watched, replayed serially:
// the committed programs (programs[k] ran as transaction k) one after
// another in recorder.SerialOrder(), starting from `values` (entity e's
// initial value at index e).
inline Result<std::vector<Value>> ReplaySerialOrder(
    const analysis::HistoryRecorder& recorder,
    const std::vector<std::shared_ptr<const Program>>& programs,
    std::vector<Value> values) {
  auto order = recorder.SerialOrder();
  if (!order.ok()) return order.status();
  for (TxnId t : order.value()) {
    const Program& p = *programs[t.value()];
    const SerialState s = ReplayTo(
        p, p.size(), [&values](EntityId e) { return values[e.value()]; });
    for (const auto& [e, v] : s.written) values[e.value()] = v;
  }
  return values;
}

}  // namespace pardb::txn

#endif  // PARDB_TESTS_SERIAL_ORACLE_H_
