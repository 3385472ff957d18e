#ifndef PARDB_PAR_ROUTER_H_
#define PARDB_PAR_ROUTER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "par/sharded_driver.h"
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

class ForkJoin;

// Phase 1 of a sharded run is two steps. Step one, the routing plan,
// picks the generator of each transaction t in turn: with probability
// cross_shard_fraction the full-universe generator, otherwise the local
// generator of a populated home shard (Zipf-homed under
// hot_shard_routing). It draws only from its own route stream, and every
// generator's stream depends only on its own seed, so step two — program
// generation — may run per generator in any order. Both functions below
// share the plan, so they cannot drift apart.

// Receives every routed program of phase 1, in generation order.
using EmitRouted = std::function<void(const Route&, txn::Program)>;

// Step two, serially: walks the plan and draws each program from its
// generator when its turn comes, so nothing is materialized ahead of
// `emit` (the one-shard pipelined producer streams this way).
Status GenerateAndRoute(const ShardedOptions& options,
                        const EmitRouted& emit);

// Step two, fanned out: each generator draws and routes its whole
// share of the plan in its own fork-join task, then the programs are
// emitted on the calling thread in generation order. Emits exactly what
// GenerateAndRoute emits, including the prefix before a failed draw.
Status GenerateAndRouteParallel(const ShardedOptions& options,
                                ForkJoin& fork_join, const EmitRouted& emit);

}  // namespace pardb::par

#endif  // PARDB_PAR_ROUTER_H_
