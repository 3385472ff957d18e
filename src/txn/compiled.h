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
// business (rollback/plan.h), which the engine caches per entry beside
// the µops.
//
// A CompileCache keyed by the executable op content (names excluded: two
// programs with identical op sequences execute identically) makes repeated
// workload templates compile once and share one immutable µop stream. Its
// entries are reference-counted by live instances, so an engine keeps a
// program's source, µops and plan while some instance of it runs plus a
// bounded idle window, not for the whole run (DESIGN D21).

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

// An immutable compiled program: the µop stream. Owned by the compile cache;
// running instances point into its stream, which stays resident while any
// of them runs. Never mutated after Compile.
class CompiledProgram {
 public:
  // Passkey: construction goes through Compile, but make_shared needs a
  // public constructor to fold object and control block into one block.
  struct Private {
    explicit Private() = default;
  };
  explicit CompiledProgram(Private) {}

  // Lowers `program`. Total: every built program has a µop stream.
  static std::shared_ptr<const CompiledProgram> Compile(
      const Program& program);

  const MicroOp* uops() const { return uops_.data(); }
  std::size_t size() const { return uops_.size(); }
  std::size_t byte_size() const { return uops_.size() * sizeof(MicroOp); }

 private:
  std::vector<MicroOp> uops_;
};

// Per-engine compile cache (engines are single-threaded; no locking).
// Keyed by the executable content of the op sequence — program names are
// deliberately excluded, so a workload emitting "txn-0", "txn-1", ... over
// repeated templates still hits. Initial var values are also excluded:
// they seed each instance's value slots, never the µop stream or the
// rollback plan, so programs differing only in seed values share one
// compilation.
//
// Open-addressed flat table probed by a block-mixed hash of the op fields;
// a lookup materializes no key bytes, so the admission path costs one
// pass over the ops plus a probe — no allocation on hit, and on miss only
// the compiled program itself (plus amortized table growth).
//
// Residency (DESIGN D21): every Get counts one live instance on its entry
// and Release ends one. An entry whose count reaches 0 joins a FIFO of
// idle entries; a hit on an idle entry revives it under the same entry
// number. When the FIFO holds more entries than the caller's idle window,
// the oldest idle entry is evicted: its source program and µop stream are
// dropped, its table slot is deleted by backward shift (no tombstones, so
// probe chains do not grow under churn) and its number goes on a free list
// for the next new program, so per-entry arrays stay sized to the resident
// set. A cache nobody releases never evicts.
class CompileCache {
 public:
  // No entry: the empty-slot marker, and Release's "nothing evicted".
  static constexpr std::size_t kNoEntry = ~std::size_t{0};

  struct Stats {
    std::uint64_t compiles = 0;      // lowerings, re-lowerings included
    std::uint64_t hits = 0;          // admissions served from the cache
    std::uint64_t compiled_bytes = 0;  // µop bytes lowered (monotone)
  };

  // Returns the compiled form of `program`, compiling on first sight, and
  // counts one live instance on its entry. The stream stays in place
  // (growth moves only the handle) until the entry is evicted, which
  // needs every instance released first. The entry retains `program` as
  // the collision guard for its slot while it is resident. `entry`
  // (optional) receives the program's entry number — 0, 1, 2, ... in
  // first-sight order, or a recycled evictee's number — so a caller can
  // keep its own per-program products (the engine's rollback plans) under
  // the same content key.
  const CompiledProgram& Get(const std::shared_ptr<const Program>& program,
                             std::size_t* entry = nullptr);

  // Ends one live instance of `entry` (a number Get returned). When that
  // was its last, the entry goes idle; if more than `idle_window` entries
  // are then idle, the oldest is evicted and its number returned, so the
  // caller can drop its products under that number. Otherwise kNoEntry.
  // Allocates nothing.
  std::size_t Release(std::size_t entry, std::size_t idle_window);

  // Entries holding a source program and µop stream (live or idle).
  std::size_t resident() const { return resident_; }

  const Stats& stats() const { return stats_; }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::size_t entry = kNoEntry;  // kNoEntry marks an empty slot
  };
  struct Entry {
    std::shared_ptr<const Program> src;  // nullptr: a free number
    std::shared_ptr<const CompiledProgram> compiled;
    std::uint64_t hash = 0;
    std::uint64_t live = 0;  // instances admitted and not yet released
    // Idle FIFO links, oldest first; meaningful only while live == 0.
    std::size_t idle_prev = kNoEntry;
    std::size_t idle_next = kNoEntry;
  };

  void GrowTable();
  void UnlinkIdle(std::size_t e);
  void Evict(std::size_t e);

  std::vector<Slot> slots_;  // power-of-two size; linear probing
  std::vector<Entry> entries_;
  // Evicted entry numbers; capacity tracks entries_ so Release never
  // allocates.
  std::vector<std::size_t> free_;
  std::size_t resident_ = 0;
  std::size_t idle_head_ = kNoEntry;
  std::size_t idle_tail_ = kNoEntry;
  std::size_t idle_count_ = 0;
  Stats stats_;
};

}  // namespace pardb::txn

#endif  // PARDB_TXN_COMPILED_H_
