#include "txn/program_io.h"

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string_view>
#include <vector>

namespace pardb::txn {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;  // comment until end of line
    tokens.push_back(tok);
  }
  return tokens;
}

Status LineError(std::size_t lineno, const std::string& msg) {
  return Status::InvalidArgument("line " + std::to_string(lineno) + ": " +
                                 msg);
}

// The whole token as a decimal T: std::from_chars takes no '+', no
// whitespace and a '-' only for a signed T, and reports overflow.
template <typename T>
bool ParseDecimal(std::string_view s, T* out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && end == s.data() + s.size();
}

// The largest uint64 is the invalid-id sentinel, not an entity.
bool ParseEntity(const std::string& s, EntityId* out) {
  if (s.size() < 2 || (s[0] != 'E' && s[0] != 'e')) return false;
  std::uint64_t v;
  if (!ParseDecimal(std::string_view(s).substr(1), &v) ||
      v == EntityId::Invalid().value()) {
    return false;
  }
  *out = EntityId(v);
  return true;
}

// Var ids stay below the VarId maximum so the frame width (largest id + 1)
// fits in a VarId too.
bool ParseVar(const std::string& s, VarId* out) {
  if (s.size() < 2 || (s[0] != 'v' && s[0] != 'V')) return false;
  VarId v;
  if (!ParseDecimal(std::string_view(s).substr(1), &v) ||
      v == std::numeric_limits<VarId>::max()) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseOperand(const std::string& s, Operand* out) {
  VarId var;
  if (ParseVar(s, &var)) {
    *out = Operand::Var(var);
    return true;
  }
  std::int64_t imm;
  if (!ParseDecimal(s, &imm)) return false;
  *out = Operand::Imm(imm);
  return true;
}

}  // namespace

Result<Program> ParseProgram(std::string_view text) {
  std::string name = "program";
  std::map<VarId, Value> initials;
  VarId max_var = 0;
  bool any_var = false;

  struct PendingOp {
    std::string keyword;
    std::vector<std::string> args;
    std::size_t lineno;
  };
  std::vector<PendingOp> pending;

  auto NoteVar = [&](VarId v) {
    max_var = std::max(max_var, v);
    any_var = true;
  };

  std::istringstream input{std::string(text)};
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(input, line)) {
    ++lineno;
    auto tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string op = tokens[0];
    std::vector<std::string> args(tokens.begin() + 1, tokens.end());
    if (op == "program") {
      if (args.size() != 1) return LineError(lineno, "program expects a name");
      name = args[0];
      continue;
    }
    if (op == "var") {
      // var v0 = 10   |   var v0 10
      if (args.size() == 3 && args[1] == "=") args.erase(args.begin() + 1);
      if (args.size() != 2) {
        return LineError(lineno, "var expects: var vN [=] value");
      }
      VarId v;
      if (!ParseVar(args[0], &v)) {
        return LineError(lineno, "bad variable \"" + args[0] + "\"");
      }
      std::int64_t init;
      if (!ParseDecimal(args[1], &init)) {
        return LineError(lineno, "bad initial value \"" + args[1] + "\"");
      }
      initials[v] = init;
      NoteVar(v);
      continue;
    }
    // Remember ops; vars must be sized before building.
    for (const std::string& a : args) {
      VarId v;
      if (ParseVar(a, &v)) NoteVar(v);
    }
    pending.push_back(PendingOp{op, std::move(args), lineno});
  }

  ProgramBuilder b(name, any_var ? max_var + 1 : 0);
  for (const auto& [v, init] : initials) b.InitVar(v, init);

  for (const PendingOp& p : pending) {
    const auto n = p.args.size();
    EntityId entity;
    VarId var;
    Operand a, bb;
    if (p.keyword == "lockx" || p.keyword == "locks" ||
        p.keyword == "unlock") {
      if (n != 1 || !ParseEntity(p.args[0], &entity)) {
        return LineError(p.lineno, p.keyword + " expects an entity (E<N>)");
      }
      if (p.keyword == "lockx") {
        b.LockExclusive(entity);
      } else if (p.keyword == "locks") {
        b.LockShared(entity);
      } else {
        b.Unlock(entity);
      }
    } else if (p.keyword == "read") {
      if (n != 2 || !ParseEntity(p.args[0], &entity) ||
          !ParseVar(p.args[1], &var)) {
        return LineError(p.lineno, "read expects: read E<N> v<N>");
      }
      b.Read(entity, var);
    } else if (p.keyword == "write") {
      if (n != 2 || !ParseEntity(p.args[0], &entity) ||
          !ParseOperand(p.args[1], &a)) {
        return LineError(p.lineno, "write expects: write E<N> (v<N>|imm)");
      }
      b.Write(entity, a);
    } else if (p.keyword == "add" || p.keyword == "sub" ||
               p.keyword == "mul") {
      if (n != 3 || !ParseVar(p.args[0], &var) ||
          !ParseOperand(p.args[1], &a) || !ParseOperand(p.args[2], &bb)) {
        return LineError(p.lineno,
                         p.keyword + " expects: " + p.keyword +
                             " v<N> (v<N>|imm) (v<N>|imm)");
      }
      const ArithOp arith = p.keyword == "add"   ? ArithOp::kAdd
                            : p.keyword == "sub" ? ArithOp::kSub
                                                 : ArithOp::kMul;
      b.Compute(var, a, arith, bb);
    } else if (p.keyword == "commit") {
      if (n != 0) return LineError(p.lineno, "commit takes no arguments");
      b.Commit();
    } else {
      return LineError(p.lineno, "unknown operation \"" + p.keyword + "\"");
    }
  }
  return b.Build();
}

std::string FormatProgram(const Program& program) {
  std::ostringstream os;
  os << "program " << program.name() << "\n";
  const auto& init = program.initial_vars();
  for (VarId v = 0; v < program.num_vars(); ++v) {
    os << "var v" << v << " = " << init[v] << "\n";
  }
  auto OperandText = [](const Operand& o) {
    if (o.kind == Operand::Kind::kVar) return "v" + std::to_string(o.var);
    return std::to_string(o.imm);
  };
  for (const Op& op : program.ops()) {
    switch (op.code) {
      case OpCode::kLockExclusive:
        os << "lockx E" << op.entity.value() << "\n";
        break;
      case OpCode::kLockShared:
        os << "locks E" << op.entity.value() << "\n";
        break;
      case OpCode::kUnlock:
        os << "unlock E" << op.entity.value() << "\n";
        break;
      case OpCode::kRead:
        os << "read E" << op.entity.value() << " v" << op.dst << "\n";
        break;
      case OpCode::kWrite:
        os << "write E" << op.entity.value() << " " << OperandText(op.a)
           << "\n";
        break;
      case OpCode::kCompute: {
        const char* kw = op.arith == ArithOp::kAdd   ? "add"
                         : op.arith == ArithOp::kSub ? "sub"
                                                     : "mul";
        os << kw << " v" << op.dst << " " << OperandText(op.a) << " "
           << OperandText(op.b) << "\n";
        break;
      }
      case OpCode::kCommit:
        os << "commit\n";
        break;
    }
  }
  return os.str();
}

}  // namespace pardb::txn
