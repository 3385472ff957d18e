#include "sim/workload.h"

#include <algorithm>

namespace pardb::sim {

std::string_view WritePatternName(WritePattern p) {
  switch (p) {
    case WritePattern::kScattered:
      return "scattered";
    case WritePattern::kClustered:
      return "clustered";
    case WritePattern::kThreePhase:
      return "three-phase";
  }
  return "unknown";
}

namespace {

// Working buffer of one Next call: on the stack for the programs
// workloads usually draw, on the heap past kInline entries, so any
// max_locks or ops_per_entity stays correct. Never a generator member: a
// copy of the generator is a bookmark and carries no buffers.
template <typename T, std::size_t kInline>
class DrawBuffer {
 public:
  explicit DrawBuffer(std::size_t n) {
    if (n > kInline) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  DrawBuffer(const DrawBuffer&) = delete;
  DrawBuffer& operator=(const DrawBuffer&) = delete;

  T& operator[](std::size_t i) { return data_[i]; }
  T* data() { return data_; }

 private:
  T inline_[kInline] = {};
  T* data_ = inline_;
  std::vector<T> heap_;
};

}  // namespace

WorkloadGenerator::WorkloadGenerator(const WorkloadOptions& options,
                                     std::uint64_t seed)
    : options_(options),
      rng_(seed),
      zipf_(options.entity_universe.empty() ? options.num_entities
                                            : options.entity_universe.size(),
            options.zipf_theta) {}

Result<txn::Program> WorkloadGenerator::Next() {
  using txn::ArithOp;
  using txn::Op;
  using txn::OpCode;
  using txn::Operand;
  const WorkloadOptions& o = options_;
  if (o.min_locks == 0 || o.max_locks < o.min_locks) {
    return Status::InvalidArgument("invalid lock count range");
  }
  // Template mode: once the pool is full, stamp renamed instances instead
  // of drawing from the rng (see WorkloadOptions::num_templates).
  if (o.num_templates > 0 && sequence_ >= o.num_templates) {
    const txn::Program& t = (*templates_)[sequence_ % o.num_templates];
    return t.WithName("txn-" + std::to_string(sequence_++));
  }
  const bool pooled = !o.entity_universe.empty();
  const std::uint64_t universe =
      pooled ? o.entity_universe.size() : o.num_entities;
  const std::uint32_t k = static_cast<std::uint32_t>(
      o.min_locks + rng_.Uniform(o.max_locks - o.min_locks + 1));
  // Draws stop at k entities or when the universe is used up.
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(k, universe));

  // Distinct entities (Zipfian with rejection of duplicates), found by a
  // linear scan over the few drawn so far. Distinct pool entries make
  // equal entities equal indices; a pool listing one entity twice would
  // lock it twice, so it is refused.
  struct Drawn {
    std::uint64_t index;
    std::uint64_t entity;
    bool shared;
  };
  DrawBuffer<Drawn, 16> drawn(n);
  for (std::size_t got = 0; got < n;) {
    const std::uint64_t e = zipf_.Next(rng_);
    const std::uint64_t entity = pooled ? o.entity_universe[e].value() : e;
    bool fresh = true;
    for (std::size_t j = 0; j < got && fresh; ++j) {
      if (drawn[j].entity != entity) continue;
      if (drawn[j].index != e) {
        return Status::InvalidArgument("entity_universe lists entity " +
                                       std::to_string(entity) + " twice");
      }
      fresh = false;
    }
    if (fresh) drawn[got++] = Drawn{e, entity, false};
  }
  if (o.sorted_entities) {
    std::sort(drawn.data(), drawn.data() + n,
              [](const Drawn& a, const Drawn& b) {
                return a.entity < b.entity;
              });
  }
  std::size_t total = n + 1;  // n lock requests and the commit
  const std::size_t reps = std::max<std::uint32_t>(1, o.ops_per_entity);
  for (std::size_t i = 0; i < n; ++i) {
    drawn[i].shared = rng_.Bernoulli(o.shared_fraction);
    total += reps * (drawn[i].shared ? 1 : 3);
  }

  // Access groups: entity i has `reps`, each a read (plus compute and
  // write for an X lock) placed in a slot >= i; slot p runs from lock p to
  // lock p+1, and slot n-1 from the last lock to the commit.
  DrawBuffer<std::uint32_t, 64> slot(n * reps);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < reps; ++r) {
      std::size_t p = i;
      switch (o.pattern) {
        case WritePattern::kScattered:
          p = i + rng_.Uniform(n - i);
          break;
        case WritePattern::kClustered:
          break;
        case WritePattern::kThreePhase:
          p = n - 1;
          break;
      }
      slot[i * reps + r] = static_cast<std::uint32_t>(p);
    }
  }

  // Counting sort of the groups by slot, stable, straight into the final
  // arrays: lock_positions first counts each slot's accesses, then holds
  // each slot's end as a fill cursor, and ends at each lock's position.
  std::vector<std::size_t> lock_positions(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < reps; ++r) {
      lock_positions[slot[i * reps + r]] += drawn[i].shared ? 1 : 3;
    }
  }
  std::size_t end = 0;
  for (std::size_t& p : lock_positions) p = end += 1 + p;
  std::vector<Op> ops(total);
  // Filling every slot from its end, last group first, keeps groups that
  // share a slot in entity order.
  for (std::size_t i = n; i-- > 0;) {
    const EntityId e(drawn[i].entity);
    const auto var = static_cast<txn::VarId>(i);
    for (std::size_t r = reps; r-- > 0;) {
      std::size_t& cursor = lock_positions[slot[i * reps + r]];
      if (!drawn[i].shared) {
        ops[--cursor] =
            Op{e, Operand::Var(var), {}, 0, OpCode::kWrite, ArithOp::kAdd};
        ops[--cursor] = Op{EntityId(),     Operand::Var(var),
                           Operand::Imm(1), var,
                           OpCode::kCompute, ArithOp::kAdd};
      }
      ops[--cursor] = Op{e, {}, {}, var, OpCode::kRead, ArithOp::kAdd};
    }
  }
  std::uint64_t max_entity_bound = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const OpCode lock =
        drawn[p].shared ? OpCode::kLockShared : OpCode::kLockExclusive;
    ops[--lock_positions[p]] =
        Op{EntityId(drawn[p].entity), {}, {}, 0, lock, ArithOp::kAdd};
    max_entity_bound = std::max(max_entity_bound, drawn[p].entity + 1);
  }
  ops.back() = Op{EntityId(), {}, {}, 0, OpCode::kCommit, ArithOp::kAdd};

  txn::Program program = txn::Program::Trusted(
      "txn-" + std::to_string(sequence_++), std::move(ops),
      static_cast<std::uint32_t>(n), std::vector<Value>(n, 0),
      std::move(lock_positions), max_entity_bound);
  if (o.num_templates > 0 && templates_->size() + 1 == sequence_) {
    templates_->push_back(program);
  }
  return program;
}

}  // namespace pardb::sim
