#ifndef PARDB_PAR_ROUTER_H_
#define PARDB_PAR_ROUTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "par/sharded_driver.h"
#include "sim/workload.h"
#include "txn/program.h"

namespace pardb::par {

// Routing of whole transactions over engine shards. The entity partition
// is the same hash the distributed analysis uses (dist::SiteOfEntity), so
// "shard" here is the execution analogue of §3.3's "site": a transaction
// whose footprint stays on one shard is the cheap local case, and one that
// spans shards is the case that would need cross-site coordination — here
// it is serialized through a designated coordinator shard instead.

// Distinct entities locked by `program`, in first-lock order.
std::vector<EntityId> EntityFootprint(const txn::Program& program);

struct Route {
  std::uint32_t shard = 0;
  // True when the footprint spans more than one shard (the transaction was
  // sent to the coordinator, not to a home shard).
  bool cross_shard = false;
};

// Shard that owns every entity in `program`'s footprint, or the
// coordinator when the footprint spans shards. Lock-free programs touch
// nothing, so any placement is correct — they are spread by a hash of
// `txn_seq` (their admission sequence number) rather than piled onto the
// coordinator, which is the busiest shard.
Route RouteProgram(const txn::Program& program, std::uint32_t num_shards,
                   std::uint32_t coordinator_shard,
                   std::uint64_t txn_seq = 0);

// Partition of the dense entity range [0, num_entities) into per-shard
// pools under dist::SiteOfEntity. Every entity appears in exactly one
// pool; pools can be empty for small databases.
std::vector<std::vector<EntityId>> ShardEntityUniverses(
    std::uint64_t num_entities, std::uint32_t num_shards);

// Phase 1 of a sharded run is two steps. Step one, the routing plan,
// picks the generator of each transaction t in turn: with probability
// cross_shard_fraction the full-universe generator, otherwise the local
// generator of a populated home shard (Zipf-homed under
// hot_shard_routing). It draws only from its own route stream, and every
// generator's stream depends only on its own seed, so step two — program
// generation — may draw each generator's share whenever it likes, as long
// as each generator draws in plan order.
//
// A local generator's programs lock only its shard's entities (every
// program locks at least one), so they always route to that shard as local
// transactions; only the full-universe generator's programs need routing.

// The plan and its generators, walked lazily: Next() advances the plan one
// transaction and Draw() draws a generator's next program. The driver
// walks the plan on one thread at a time and lets each shard draw its own
// generator's programs on its own task (DESIGN D23), so no program exists
// ahead of its admission: the full-universe programs the walk has passed
// wait as bookmarks.
class RoutingStream {
 public:
  explicit RoutingStream(const ShardedOptions& options);
  ~RoutingStream();

  RoutingStream(const RoutingStream&) = delete;
  RoutingStream& operator=(const RoutingStream&) = delete;

  // Index of the full-universe generator (num_shards); generator s < it is
  // shard s's local one.
  std::uint32_t global_generator() const { return num_shards_; }
  // Transactions walked so far; the plan ends at total_txns.
  std::uint64_t position() const { return position_; }
  bool done() const { return position_ == total_; }
  // Generator of the next transaction (call only while !done()).
  std::uint32_t Next();
  // Generator g's next program. Different generators may draw from
  // different threads at once.
  Result<txn::Program> Draw(std::uint32_t g);
  // A bookmark on the full-universe generator: its Next() draws the
  // program this stream's next Draw(global_generator()) returns, at any
  // later time — so a caller may route that program, drop it, and draw it
  // again once it can be admitted.
  sim::WorkloadGenerator Bookmark() const;

 private:
  class Plan;
  std::unique_ptr<Plan> plan_;
  std::uint32_t num_shards_;
  std::uint64_t total_;
  std::uint64_t position_ = 0;
};

}  // namespace pardb::par

#endif  // PARDB_PAR_ROUTER_H_
