#ifndef PARDB_TESTS_WORKLOAD_ORACLE_H_
#define PARDB_TESTS_WORKLOAD_ORACLE_H_

// Test oracle: the workload generator written the plain way, through
// std::set deduplication, per-slot access lists and a validating
// txn::ProgramBuilder. sim::WorkloadGenerator draws the same rng values in
// the same order and writes each program straight into its final arrays
// (DESIGN D24); this is the reference it is checked against, program by
// program.

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/types.h"
#include "sim/workload.h"
#include "txn/program.h"

namespace pardb::sim {

// Same constructor, copy (bookmark) and Next contract as WorkloadGenerator.
class OracleWorkloadGenerator {
 public:
  OracleWorkloadGenerator(const WorkloadOptions& options, std::uint64_t seed)
      : options_(options),
        rng_(seed),
        zipf_(options.entity_universe.empty()
                  ? options.num_entities
                  : options.entity_universe.size(),
              options.zipf_theta) {}

  Result<txn::Program> Next() {
    const WorkloadOptions& o = options_;
    if (o.min_locks == 0 || o.max_locks < o.min_locks) {
      return Status::InvalidArgument("invalid lock count range");
    }
    const std::uint64_t universe = o.entity_universe.empty()
                                       ? o.num_entities
                                       : o.entity_universe.size();
    const std::uint32_t k = static_cast<std::uint32_t>(
        o.min_locks + rng_.Uniform(o.max_locks - o.min_locks + 1));

    // Distinct entities (Zipfian with rejection of duplicates).
    std::vector<EntityId> entities;
    std::set<std::uint64_t> seen;
    while (entities.size() < k && seen.size() < universe) {
      std::uint64_t e = zipf_.Next(rng_);
      if (seen.insert(e).second) {
        entities.push_back(o.entity_universe.empty() ? EntityId(e)
                                                     : o.entity_universe[e]);
      }
    }
    if (o.sorted_entities) std::sort(entities.begin(), entities.end());

    std::vector<bool> shared(entities.size());
    for (std::size_t i = 0; i < entities.size(); ++i) {
      shared[i] = rng_.Bernoulli(o.shared_fraction);
    }

    // Access ops per entity. Variable v_i accumulates entity i's value.
    const auto n = static_cast<std::uint32_t>(entities.size());
    txn::ProgramBuilder b("txn-" + std::to_string(sequence_++), n);

    struct Access {
      std::size_t entity_index;
      int step;  // 0 = read, 1 = compute, 2 = write (reads only for shared)
    };
    // slots[i] = access ops placed between lock i and lock i+1 (slot n-1
    // is after the last lock).
    std::vector<std::vector<Access>> slots(n);

    for (std::size_t i = 0; i < entities.size(); ++i) {
      const std::uint32_t reps = std::max<std::uint32_t>(1, o.ops_per_entity);
      // Choose a slot for each access group, >= the entity's lock position.
      std::vector<std::size_t> positions;
      for (std::uint32_t r = 0; r < reps; ++r) {
        switch (o.pattern) {
          case WritePattern::kScattered:
            positions.push_back(i + rng_.Uniform(n - i));
            break;
          case WritePattern::kClustered:
            positions.push_back(i);
            break;
          case WritePattern::kThreePhase:
            positions.push_back(n - 1);
            break;
        }
      }
      std::sort(positions.begin(), positions.end());
      for (std::size_t p : positions) {
        slots[p].push_back(Access{i, 0});
        if (!shared[i]) {
          slots[p].push_back(Access{i, 1});
          slots[p].push_back(Access{i, 2});
        }
      }
    }

    for (std::size_t i = 0; i < entities.size(); ++i) {
      if (shared[i]) {
        b.LockShared(entities[i]);
      } else {
        b.LockExclusive(entities[i]);
      }
      for (const Access& a : slots[i]) {
        const auto var = static_cast<txn::VarId>(a.entity_index);
        switch (a.step) {
          case 0:
            b.Read(entities[a.entity_index], var);
            break;
          case 1:
            b.Compute(var, txn::Operand::Var(var), txn::ArithOp::kAdd,
                      txn::Operand::Imm(1));
            break;
          case 2:
            b.WriteVar(entities[a.entity_index], var);
            break;
        }
      }
    }
    b.Commit();
    return std::move(b).Build();
  }

 private:
  WorkloadOptions options_;
  Rng rng_;
  ZipfianGenerator zipf_;
  std::uint64_t sequence_ = 0;
};

}  // namespace pardb::sim

#endif  // PARDB_TESTS_WORKLOAD_ORACLE_H_
