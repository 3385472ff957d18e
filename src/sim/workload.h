#ifndef PARDB_SIM_WORKLOAD_H_
#define PARDB_SIM_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/types.h"
#include "txn/program.h"

namespace pardb::sim {

// Where a transaction's reads/writes sit relative to its lock requests —
// the structural property §5 of the paper connects to rollback efficiency.
enum class WritePattern {
  // Writes to an entity are spread over the lock states after its lock
  // (paper Figure 4's T_1: many undefined states).
  kScattered,
  // All accesses to an entity immediately follow its lock request (paper
  // Figure 5's T_2: maximally clustered writes, many well-defined states).
  kClustered,
  // Acquisition phase (all locks), then update phase, then release (§5's
  // three-phase structure; with the last-lock declaration no history is
  // recorded at all).
  kThreePhase,
};

std::string_view WritePatternName(WritePattern p);

struct WorkloadOptions {
  std::uint64_t num_entities = 64;
  // When non-empty, programs draw their entities from this pool instead of
  // the dense range [0, num_entities). Lets a caller carve the database
  // into locality domains (e.g. par::RunSharded generates mostly
  // shard-local transactions from per-shard pools). Zipf skew applies to
  // the pool's index order. Programs lock at most pool-size entities even
  // if min_locks asks for more. Entries must be distinct: Next refuses a
  // draw that meets one entity twice.
  std::vector<EntityId> entity_universe;
  // Zipfian skew over entities; 0 = uniform.
  double zipf_theta = 0.0;
  std::uint32_t min_locks = 2;
  std::uint32_t max_locks = 6;
  // Probability that a lock is shared (read-only access to that entity).
  double shared_fraction = 0.0;
  // Access operations generated per locked entity (each is read + compute +
  // write for X locks, read for S locks).
  std::uint32_t ops_per_entity = 2;
  WritePattern pattern = WritePattern::kScattered;
  // When true, each transaction locks its entities in ascending id order —
  // the hierarchical-order discipline that makes deadlock impossible
  // (useful as a control).
  bool sorted_entities = false;
};

// Deterministic generator of random transaction programs. Two generators
// with the same options and seed produce identical program sequences. A
// copy is a plain value bookmark: it draws the same sequence from where the
// original stood, independently, sharing nothing with it, at about 200
// bytes however large the programs. Next writes each
// program straight into its final arrays (DESIGN D24); its working
// buffers live on the stack of the call, never in the generator.
class WorkloadGenerator {
 public:
  WorkloadGenerator(const WorkloadOptions& options, std::uint64_t seed);

  // Generates the next program; `sequence` numbers names txn-0, txn-1, ...
  Result<txn::Program> Next();

  const WorkloadOptions& options() const { return options_; }

 private:
  WorkloadOptions options_;
  Rng rng_;
  ZipfianGenerator zipf_;
  std::uint64_t sequence_ = 0;
};

}  // namespace pardb::sim

#endif  // PARDB_SIM_WORKLOAD_H_
