#include "par/router.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "common/random.h"
#include "dist/distributed.h"
#include "par/fork_join.h"
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

namespace {

// The routing plan (see router.h): generator index num_shards is the
// full-universe generator, index s the local generator of shard s.
class RoutingPlan {
 public:
  explicit RoutingPlan(const ShardedOptions& options);

  // Generator index for the next transaction.
  std::uint32_t Next();

  // One fresh generator per index, num_shards + 1 in all; null for a
  // shard that owns no entity (the plan never picks it).
  std::vector<std::unique_ptr<sim::WorkloadGenerator>> MakeGenerators() const;

 private:
  sim::WorkloadOptions workload_;
  std::uint32_t num_shards_;
  std::uint64_t seed_;
  double cross_shard_fraction_;
  bool hot_shard_routing_;
  std::vector<std::vector<EntityId>> universes_;
  std::vector<std::uint32_t> populated_;
  Rng route_rng_;
  // Hot-shard routing: a local transaction is homed where a global
  // Zipf-distributed entity draw lives, so load follows the hot keys.
  ZipfianGenerator home_zipf_;
};

RoutingPlan::RoutingPlan(const ShardedOptions& options)
    : workload_(options.workload),
      num_shards_(options.num_shards),
      seed_(options.seed),
      cross_shard_fraction_(options.cross_shard_fraction),
      hot_shard_routing_(options.hot_shard_routing),
      universes_(ShardEntityUniverses(options.workload.num_entities,
                                      options.num_shards)),
      route_rng_(DeriveShardSeed(options.seed, 0x30000u)),
      home_zipf_(options.workload.num_entities, options.workload.zipf_theta) {
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    if (!universes_[s].empty()) populated_.push_back(s);
  }
}

std::uint32_t RoutingPlan::Next() {
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

std::vector<std::unique_ptr<sim::WorkloadGenerator>>
RoutingPlan::MakeGenerators() const {
  std::vector<std::unique_ptr<sim::WorkloadGenerator>> generators(
      num_shards_ + 1);
  for (std::uint32_t s : populated_) {
    sim::WorkloadOptions w = workload_;
    w.entity_universe = universes_[s];
    generators[s] = std::make_unique<sim::WorkloadGenerator>(
        w, DeriveShardSeed(seed_, 0x10000u + s));
  }
  generators[num_shards_] = std::make_unique<sim::WorkloadGenerator>(
      workload_, DeriveShardSeed(seed_, 0x20000u));
  return generators;
}

}  // namespace

Status GenerateAndRoute(const ShardedOptions& options,
                        const EmitRouted& emit) {
  RoutingPlan plan(options);
  const auto generators = plan.MakeGenerators();
  for (std::uint64_t t = 0; t < options.total_txns; ++t) {
    auto program = generators[plan.Next()]->Next();
    if (!program.ok()) return program.status();
    const Route route = RouteProgram(program.value(), options.num_shards,
                                     options.coordinator_shard, t);
    emit(route, std::move(program).value());
  }
  return Status::OK();
}

Status GenerateAndRouteParallel(const ShardedOptions& options,
                                ForkJoin& fork_join, const EmitRouted& emit) {
  RoutingPlan plan(options);
  const auto generators = plan.MakeGenerators();
  std::vector<std::uint32_t> picks(options.total_txns);
  std::vector<std::size_t> share_size(generators.size(), 0);
  for (std::uint32_t& g : picks) {
    g = plan.Next();
    ++share_size[g];
  }
  // One generator's share: its programs and their routes, in plan order,
  // cut short by a failed draw.
  struct Share {
    std::vector<txn::Program> programs;
    std::vector<Route> routes;
    Status status = Status::OK();
  };
  std::vector<Share> shares(generators.size());
  fork_join.Run(generators.size(), [&](std::size_t g, std::size_t) {
    Share& share = shares[g];
    share.programs.reserve(share_size[g]);
    share.routes.reserve(share_size[g]);
    for (std::uint64_t t = 0; t < picks.size(); ++t) {
      if (picks[t] != g) continue;
      auto program = generators[g]->Next();
      if (!program.ok()) {
        share.status = program.status();
        return;
      }
      share.routes.push_back(RouteProgram(program.value(), options.num_shards,
                                          options.coordinator_shard, t));
      share.programs.push_back(std::move(program).value());
    }
  });
  std::vector<std::size_t> cursor(generators.size(), 0);
  for (std::uint32_t g : picks) {
    Share& share = shares[g];
    const std::size_t k = cursor[g]++;
    // The share ran out exactly where its draw failed: stop there, as the
    // serial walk would.
    if (k == share.programs.size()) return share.status;
    emit(share.routes[k], std::move(share.programs[k]));
  }
  return Status::OK();
}

}  // namespace pardb::par
