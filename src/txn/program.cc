#include "txn/program.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_map>

namespace pardb::txn {

std::string_view OpCodeName(OpCode code) {
  switch (code) {
    case OpCode::kLockShared:
      return "LS";
    case OpCode::kLockExclusive:
      return "LX";
    case OpCode::kUnlock:
      return "UN";
    case OpCode::kRead:
      return "RD";
    case OpCode::kWrite:
      return "WR";
    case OpCode::kCompute:
      return "CP";
    case OpCode::kCommit:
      return "CM";
  }
  return "??";
}

namespace {

std::string OperandString(const Operand& o) {
  if (o.kind == Operand::Kind::kImm) return std::to_string(o.imm);
  return "v" + std::to_string(o.var);
}

char ArithChar(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return '+';
    case ArithOp::kSub:
      return '-';
    case ArithOp::kMul:
      return '*';
  }
  return '?';
}

}  // namespace

std::string Op::ToString() const {
  std::ostringstream os;
  os << OpCodeName(code);
  switch (code) {
    case OpCode::kLockShared:
    case OpCode::kLockExclusive:
    case OpCode::kUnlock:
      os << " " << entity;
      break;
    case OpCode::kRead:
      os << " v" << dst << " <- " << entity;
      break;
    case OpCode::kWrite:
      os << " " << entity << " <- " << OperandString(a);
      break;
    case OpCode::kCompute:
      os << " v" << dst << " <- " << OperandString(a) << " " << ArithChar(arith)
         << " " << OperandString(b);
      break;
    case OpCode::kCommit:
      break;
  }
  return os.str();
}

std::uint64_t Program::WriteSpreadScore() const {
  // Lock index of each op = number of lock requests strictly before it.
  std::uint64_t score = 0;
  std::unordered_map<std::uint64_t, std::pair<LockIndex, LockIndex>> spans;
  LockIndex lock_index = 0;
  for (const Op& op : ops_) {
    if (op.code == OpCode::kLockShared || op.code == OpCode::kLockExclusive) {
      ++lock_index;
      continue;
    }
    std::uint64_t key;
    if (op.code == OpCode::kWrite) {
      key = op.entity.value() << 1;
    } else if (op.code == OpCode::kCompute) {
      key = (static_cast<std::uint64_t>(op.dst) << 1) | 1;
    } else {
      continue;
    }
    auto [it, inserted] = spans.emplace(key, std::make_pair(lock_index, lock_index));
    if (!inserted) it->second.second = lock_index;
  }
  for (const auto& [key, span] : spans) {
    (void)key;
    score += span.second - span.first;
  }
  return score;
}

bool Program::IsThreePhase() const {
  // Phases: 0 = acquisition (locks + anything non-write before first lock),
  // 1 = update, 2 = release.
  int phase = 0;
  for (const Op& op : ops_) {
    switch (op.code) {
      case OpCode::kLockShared:
      case OpCode::kLockExclusive:
        if (phase != 0) return false;
        break;
      case OpCode::kRead:
      case OpCode::kWrite:
      case OpCode::kCompute:
        if (phase == 2) return false;
        phase = 1;
        break;
      case OpCode::kUnlock:
      case OpCode::kCommit:
        phase = 2;
        break;
    }
  }
  return true;
}

std::size_t Program::CountOps(OpCode code) const {
  return static_cast<std::size_t>(
      std::count_if(ops_.begin(), ops_.end(),
                    [code](const Op& op) { return op.code == code; }));
}

std::string Program::ToString() const {
  std::ostringstream os;
  os << "program \"" << name_ << "\" (" << ops_.size() << " ops, "
     << lock_positions_.size() << " lock requests)\n";
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    os << "  [" << i << "] " << ops_[i].ToString() << "\n";
  }
  return os.str();
}

ProgramBuilder::ProgramBuilder(std::string name, std::uint32_t num_vars)
    : name_(std::move(name)),
      num_vars_(num_vars),
      initial_vars_(num_vars, 0) {
  // Typical generated programs run a few dozen ops; one up-front block
  // avoids the doubling-realloc ladder on every Build.
  ops_.reserve(32);
}

ProgramBuilder& ProgramBuilder::InitVar(VarId var, Value initial) {
  if (var >= num_vars_) {
    num_vars_ = var + 1;
    initial_vars_.resize(num_vars_, 0);
  }
  initial_vars_[var] = initial;
  return *this;
}

ProgramBuilder& ProgramBuilder::LockShared(EntityId e) {
  ops_.push_back(Op{e, {}, {}, 0, OpCode::kLockShared, ArithOp::kAdd});
  return *this;
}

ProgramBuilder& ProgramBuilder::LockExclusive(EntityId e) {
  ops_.push_back(Op{e, {}, {}, 0, OpCode::kLockExclusive, ArithOp::kAdd});
  return *this;
}

ProgramBuilder& ProgramBuilder::Unlock(EntityId e) {
  ops_.push_back(Op{e, {}, {}, 0, OpCode::kUnlock, ArithOp::kAdd});
  return *this;
}

ProgramBuilder& ProgramBuilder::Read(EntityId e, VarId dst) {
  ops_.push_back(Op{e, {}, {}, dst, OpCode::kRead, ArithOp::kAdd});
  return *this;
}

ProgramBuilder& ProgramBuilder::Write(EntityId e, Operand src) {
  ops_.push_back(Op{e, src, {}, 0, OpCode::kWrite, ArithOp::kAdd});
  return *this;
}

ProgramBuilder& ProgramBuilder::Compute(VarId dst, Operand a, ArithOp op,
                                        Operand b) {
  ops_.push_back(Op{EntityId(), a, b, dst, OpCode::kCompute, op});
  return *this;
}

ProgramBuilder& ProgramBuilder::Commit() {
  ops_.push_back(Op{EntityId(), {}, {}, 0, OpCode::kCommit, ArithOp::kAdd});
  return *this;
}

Program Program::Trusted(std::string name, std::vector<Op> ops,
                         std::uint32_t num_vars,
                         std::vector<Value> initial_vars,
                         std::vector<std::size_t> lock_positions,
                         std::uint64_t max_entity_bound) {
  Program p;
  p.name_ = std::move(name);
  p.ops_ = std::move(ops);
  p.num_vars_ = num_vars;
  p.initial_vars_ = std::move(initial_vars);
  p.lock_positions_ = std::move(lock_positions);
  p.max_entity_bound_ = max_entity_bound;
#ifndef NDEBUG
  std::vector<std::size_t> positions;
  std::uint64_t bound = 0;
  const Status checked = p.CheckProtocol(&positions, &bound);
  assert(checked.ok());
  assert(positions == p.lock_positions_);
  assert(bound == p.max_entity_bound_);
  assert(p.initial_vars_.size() == p.num_vars_);
#endif
  return p;
}

Status Program::CheckProtocol(std::vector<std::size_t>* lock_positions,
                              std::uint64_t* max_entity_bound) const {
  // Held modes in a flat table: the program's distinct lock targets,
  // sorted, each with the mode it holds at the current op. A handful of
  // entries for real programs; binary search keeps long ones O(n log n).
  enum class Held : std::uint8_t { kNone, kShared, kExclusive };
  struct Slot {
    EntityId entity;
    Held held;
  };
  auto IsLock = [](const Op& op) {
    return op.code == OpCode::kLockShared || op.code == OpCode::kLockExclusive;
  };
  const auto num_locks = static_cast<std::size_t>(
      std::count_if(ops_.begin(), ops_.end(), IsLock));
  std::vector<Slot> table;
  table.reserve(num_locks);
  for (const Op& op : ops_) {
    if (IsLock(op)) table.push_back(Slot{op.entity, Held::kNone});
  }
  auto by_entity = [](const Slot& a, const Slot& b) {
    return a.entity < b.entity;
  };
  lock_positions->clear();
  lock_positions->reserve(num_locks);
  std::sort(table.begin(), table.end(), by_entity);
  table.erase(std::unique(table.begin(), table.end(),
                          [](const Slot& a, const Slot& b) {
                            return a.entity == b.entity;
                          }),
              table.end());
  // Null for an entity the program never locks: it is never held.
  auto Find = [&](EntityId e) -> Held* {
    auto it = std::lower_bound(table.begin(), table.end(),
                               Slot{e, Held::kNone}, by_entity);
    return it != table.end() && it->entity == e ? &it->held : nullptr;
  };
  auto HeldOf = [&](EntityId e) {
    const Held* h = Find(e);
    return h == nullptr ? Held::kNone : *h;
  };

  bool unlocked_any = false;
  bool saw_lock = false;
  bool committed = false;
  *max_entity_bound = 0;

  auto CheckVar = [this](VarId v) { return v < num_vars_; };
  auto CheckOperand = [&](const Operand& o) {
    return o.kind == Operand::Kind::kImm || CheckVar(o.var);
  };

  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    // Built lazily: the happy path validates millions of ops and must not
    // pay for error-message formatting.
    auto where = [&]() {
      return " at op " + std::to_string(i) + " (" + op.ToString() + ") in \"" +
             name_ + "\"";
    };
    if (committed) {
      return Status::InvalidArgument("operation after commit" + where());
    }
    switch (op.code) {
      case OpCode::kLockShared:
      case OpCode::kLockExclusive:
      case OpCode::kUnlock:
      case OpCode::kRead:
      case OpCode::kWrite:
        *max_entity_bound = std::max(*max_entity_bound, op.entity.value() + 1);
        break;
      default:
        break;
    }
    switch (op.code) {
      case OpCode::kLockShared:
      case OpCode::kLockExclusive: {
        if (unlocked_any) {
          return Status::ProtocolViolation(
              "two-phase rule violated: lock request after unlock" + where());
        }
        Held& held = *Find(op.entity);  // every lock target has an entry
        if (held != Held::kNone) {
          const bool upgrade = held == Held::kShared &&
                               op.code == OpCode::kLockExclusive;
          if (!upgrade) {
            return Status::ProtocolViolation(
                "entity already locked in equal or stronger mode" + where());
          }
        }
        held = op.code == OpCode::kLockShared ? Held::kShared
                                              : Held::kExclusive;
        lock_positions->push_back(i);
        saw_lock = true;
        break;
      }
      case OpCode::kUnlock: {
        if (HeldOf(op.entity) == Held::kNone) {
          return Status::ProtocolViolation("unlock of entity not held" +
                                           where());
        }
        *Find(op.entity) = Held::kNone;
        unlocked_any = true;
        break;
      }
      case OpCode::kRead: {
        if (HeldOf(op.entity) == Held::kNone) {
          return Status::ProtocolViolation("read without a lock" + where());
        }
        if (!CheckVar(op.dst)) {
          return Status::InvalidArgument("read destination var out of range" +
                                         where());
        }
        break;
      }
      case OpCode::kWrite: {
        if (HeldOf(op.entity) != Held::kExclusive) {
          return Status::ProtocolViolation(
              "write without an exclusive lock" + where());
        }
        if (!saw_lock) {
          return Status::ProtocolViolation(
              "write before the first lock request" + where());
        }
        if (!CheckOperand(op.a)) {
          return Status::InvalidArgument("write operand var out of range" +
                                         where());
        }
        break;
      }
      case OpCode::kCompute: {
        if (!saw_lock) {
          return Status::ProtocolViolation(
              "local-variable write before the first lock request" + where());
        }
        if (!CheckVar(op.dst) || !CheckOperand(op.a) || !CheckOperand(op.b)) {
          return Status::InvalidArgument("compute var out of range" + where());
        }
        break;
      }
      case OpCode::kCommit: {
        committed = true;
        break;
      }
    }
  }
  return Status::OK();
}

Result<Program> ProgramBuilder::Build() {
  Program p;
  p.name_ = std::move(name_);
  p.ops_ = std::move(ops_);
  p.num_vars_ = num_vars_;
  p.initial_vars_ = std::move(initial_vars_);
  PARDB_RETURN_IF_ERROR(
      p.CheckProtocol(&p.lock_positions_, &p.max_entity_bound_));
  return p;
}

}  // namespace pardb::txn
