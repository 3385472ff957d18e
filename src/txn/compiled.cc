#include "txn/compiled.h"

#include <algorithm>

namespace pardb::txn {

namespace {

// 64-bit multiply-fold mix (wyhash-style): one 128-bit multiply per block
// instead of FNV's byte-at-a-time dependency chain — the admission path
// hashes a whole program in a few dozen cycles.
std::uint64_t MixHash(std::uint64_t h, std::uint64_t v) {
  const unsigned __int128 m =
      static_cast<unsigned __int128>(h ^ v) * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::uint64_t>(m) ^ static_cast<std::uint64_t>(m >> 64);
}

// The active payload of an operand: the var id or the immediate, selected
// by the kind (which is hashed/compared separately, so the inactive field
// never influences identity).
std::uint64_t OperandWord(const Operand& o) {
  return o.kind == Operand::Kind::kVar ? o.var
                                       : static_cast<std::uint64_t>(o.imm);
}

// Content hash of the executable part of a program: the op sequence plus
// the var-frame width. Names and initial var values are excluded —
// initial values seed each instance's value slots (copied per instance
// from the Program), never the µop stream.
std::uint64_t HashProgram(const Program& p) {
  std::uint64_t h = MixHash(0x243f6a8885a308d3ULL, p.num_vars());
  for (const Op& op : p.ops()) {
    const std::uint64_t packed =
        static_cast<std::uint64_t>(op.code) |
        (static_cast<std::uint64_t>(op.a.kind) << 8) |
        (static_cast<std::uint64_t>(op.b.kind) << 16) |
        (static_cast<std::uint64_t>(op.arith) << 24) |
        (static_cast<std::uint64_t>(op.dst) << 32);
    h = MixHash(h, packed);
    h = MixHash(h, op.entity.value());
    h = MixHash(h, OperandWord(op.a));
    h = MixHash(h, OperandWord(op.b));
  }
  return h;
}

bool SameOperand(const Operand& x, const Operand& y) {
  return x.kind == y.kind && OperandWord(x) == OperandWord(y);
}

// Executable-content equality, the collision guard behind HashProgram:
// exactly the fields the hash consumes.
bool SameExecutableContent(const Program& a, const Program& b) {
  if (a.num_vars() != b.num_vars() || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Op& x = a.op(i);
    const Op& y = b.op(i);
    if (x.code != y.code || x.entity != y.entity || x.dst != y.dst ||
        x.arith != y.arith || !SameOperand(x.a, y.a) ||
        !SameOperand(x.b, y.b)) {
      return false;
    }
  }
  return true;
}

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

std::shared_ptr<const CompiledProgram> CompiledProgram::Compile(
    const Program& program) {
  auto compiled = std::make_shared<CompiledProgram>(Private{});
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

void CompileCache::GrowTable() {
  const std::size_t new_size = slots_.empty() ? 64 : slots_.size() * 2;
  std::vector<Slot> fresh(new_size);
  const std::size_t mask = new_size - 1;
  for (const Slot& s : slots_) {
    if (s.entry == kNoEntry) continue;
    std::size_t i = s.hash & mask;
    while (fresh[i].entry != kNoEntry) i = (i + 1) & mask;
    fresh[i] = s;
  }
  slots_ = std::move(fresh);
}

const CompiledProgram& CompileCache::Get(
    const std::shared_ptr<const Program>& program, std::size_t* entry) {
  // Grow at 3/4 load, before probing, so the insert below always finds an
  // empty slot.
  if ((resident_ + 1) * 4 > slots_.size() * 3) GrowTable();
  const std::uint64_t h = HashProgram(*program);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = h & mask;
  while (slots_[i].entry != kNoEntry) {
    const std::size_t e = slots_[i].entry;
    Entry& x = entries_[e];
    if (slots_[i].hash == h && SameExecutableContent(*x.src, *program)) {
      ++stats_.hits;
      if (x.live++ == 0) UnlinkIdle(e);
      if (entry != nullptr) *entry = e;
      return *x.compiled;
    }
    i = (i + 1) & mask;
  }
  ++stats_.compiles;
  std::size_t e;
  if (!free_.empty()) {
    e = free_.back();
    free_.pop_back();
  } else {
    e = entries_.size();
    entries_.emplace_back();
    free_.reserve(entries_.capacity());
  }
  Entry& x = entries_[e];
  x.hash = h;
  x.src = program;
  x.compiled = CompiledProgram::Compile(*program);
  x.live = 1;
  slots_[i] = Slot{h, e};
  ++resident_;
  stats_.compiled_bytes += x.compiled->byte_size();
  if (entry != nullptr) *entry = e;
  return *x.compiled;
}

std::size_t CompileCache::Release(std::size_t e, std::size_t idle_window) {
  Entry& x = entries_[e];
  if (--x.live != 0) return kNoEntry;
  x.idle_prev = idle_tail_;
  x.idle_next = kNoEntry;
  if (idle_tail_ != kNoEntry) {
    entries_[idle_tail_].idle_next = e;
  } else {
    idle_head_ = e;
  }
  idle_tail_ = e;
  if (++idle_count_ <= idle_window) return kNoEntry;
  const std::size_t oldest = idle_head_;
  Evict(oldest);
  return oldest;
}

void CompileCache::UnlinkIdle(std::size_t e) {
  Entry& x = entries_[e];
  if (x.idle_prev != kNoEntry) {
    entries_[x.idle_prev].idle_next = x.idle_next;
  } else {
    idle_head_ = x.idle_next;
  }
  if (x.idle_next != kNoEntry) {
    entries_[x.idle_next].idle_prev = x.idle_prev;
  } else {
    idle_tail_ = x.idle_prev;
  }
  --idle_count_;
}

void CompileCache::Evict(std::size_t e) {
  UnlinkIdle(e);
  Entry& x = entries_[e];
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = x.hash & mask;
  while (slots_[hole].entry != e) hole = (hole + 1) & mask;
  // Backward-shift deletion: a later member of the probe run moves into the
  // hole when the hole lies on its path from its home slot, so every
  // remaining entry stays reachable without tombstones.
  for (std::size_t j = (hole + 1) & mask; slots_[j].entry != kNoEntry;
       j = (j + 1) & mask) {
    const std::size_t home = slots_[j].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  x.src.reset();
  x.compiled.reset();
  free_.push_back(e);
  --resident_;
}

}  // namespace pardb::txn
