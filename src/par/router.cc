#include "par/router.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "common/random.h"
#include "dist/distributed.h"
#include "sim/workload.h"

namespace pardb::par {

std::vector<EntityId> EntityFootprint(const txn::Program& program) {
  std::vector<EntityId> footprint;
  std::set<EntityId> seen;
  for (const txn::Op& op : program.ops()) {
    if (op.code != txn::OpCode::kLockShared &&
        op.code != txn::OpCode::kLockExclusive) {
      continue;
    }
    if (seen.insert(op.entity).second) footprint.push_back(op.entity);
  }
  return footprint;
}

namespace {

// splitmix64 finalizer: a cheap deterministic spread for footprint-free
// programs, which any shard may execute correctly.
std::uint32_t HashShard(std::uint64_t txn_seq, std::uint32_t num_shards) {
  std::uint64_t z = txn_seq + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z % num_shards);
}

}  // namespace

Route RouteProgram(const txn::Program& program, std::uint32_t num_shards,
                   std::uint32_t coordinator_shard, std::uint64_t txn_seq) {
  if (num_shards <= 1) return Route{0, false};
  bool first = true;
  std::uint32_t home = 0;
  for (EntityId e : EntityFootprint(program)) {
    const std::uint32_t s = dist::SiteOfEntity(e, num_shards);
    if (first) {
      home = s;
      first = false;
    } else if (s != home) {
      return Route{coordinator_shard, true};
    }
  }
  if (first) {
    // Lock-free program: no footprint constrains it. Hashing the admission
    // sequence keeps the placement deterministic without loading the
    // coordinator (the busiest shard under any cross-shard traffic).
    return Route{HashShard(txn_seq, num_shards), false};
  }
  return Route{home, false};
}

std::vector<std::vector<EntityId>> ShardEntityUniverses(
    std::uint64_t num_entities, std::uint32_t num_shards) {
  std::vector<std::vector<EntityId>> universes(
      std::max<std::uint32_t>(1, num_shards));
  for (std::uint64_t e = 0; e < num_entities; ++e) {
    EntityId id(e);
    universes[dist::SiteOfEntity(id, num_shards)].push_back(id);
  }
  return universes;
}

// The routing plan (see router.h): generator index num_shards is the
// full-universe generator, index s the local generator of shard s.
class RoutingStream::Plan {
 public:
  explicit Plan(const ShardedOptions& options);

  // Generator index for the next transaction.
  std::uint32_t Next();

  // One generator per index, num_shards + 1 in all; null for a shard that
  // owns no entity (the plan never picks it).
  std::vector<std::unique_ptr<sim::WorkloadGenerator>> generators;

 private:
  std::uint32_t num_shards_;
  double cross_shard_fraction_;
  bool hot_shard_routing_;
  std::vector<std::vector<EntityId>> universes_;
  std::vector<std::uint32_t> populated_;
  Rng route_rng_;
  // Hot-shard routing: a local transaction is homed where a global
  // Zipf-distributed entity draw lives, so load follows the hot keys.
  ZipfianGenerator home_zipf_;
};

RoutingStream::Plan::Plan(const ShardedOptions& options)
    : generators(options.num_shards + 1),
      num_shards_(options.num_shards),
      cross_shard_fraction_(options.cross_shard_fraction),
      hot_shard_routing_(options.hot_shard_routing),
      universes_(ShardEntityUniverses(options.workload.num_entities,
                                      options.num_shards)),
      route_rng_(DeriveShardSeed(options.seed, 0x30000u)),
      home_zipf_(options.workload.num_entities, options.workload.zipf_theta) {
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    if (universes_[s].empty()) continue;
    populated_.push_back(s);
    sim::WorkloadOptions w = options.workload;
    w.entity_universe = universes_[s];
    generators[s] = std::make_unique<sim::WorkloadGenerator>(
        w, DeriveShardSeed(options.seed, 0x10000u + s));
  }
  generators[num_shards_] = std::make_unique<sim::WorkloadGenerator>(
      options.workload, DeriveShardSeed(options.seed, 0x20000u));
}

std::uint32_t RoutingStream::Plan::Next() {
  if (populated_.empty() || route_rng_.Bernoulli(cross_shard_fraction_)) {
    return num_shards_;
  }
  if (hot_shard_routing_) {
    const std::uint32_t home = dist::SiteOfEntity(
        EntityId(home_zipf_.Next(route_rng_)), num_shards_);
    if (!universes_[home].empty()) return home;
  }
  return populated_[route_rng_.Uniform(populated_.size())];
}

RoutingStream::RoutingStream(const ShardedOptions& options)
    : plan_(std::make_unique<Plan>(options)),
      num_shards_(options.num_shards),
      total_(options.total_txns) {}

RoutingStream::~RoutingStream() = default;

std::uint32_t RoutingStream::Next() {
  ++position_;
  return plan_->Next();
}

Result<txn::Program> RoutingStream::Draw(std::uint32_t g) {
  return plan_->generators[g]->Next();
}

sim::WorkloadGenerator RoutingStream::Bookmark() const {
  return *plan_->generators[num_shards_];
}

}  // namespace pardb::par
