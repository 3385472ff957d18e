#ifndef PARDB_TESTS_WAITS_FOR_ORACLE_H_
#define PARDB_TESTS_WAITS_FOR_ORACLE_H_

// Test oracle: the waits-for arcs a lock table implies, restated from the
// paper's rules and read through the table's introspection calls only
// (HeldBy, Waiting, WaitQueue), never through
// LockManager::AppendBlockersOf, which the engine derives its graph from.

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "graph/digraph.h"
#include "lock/lock_manager.h"

namespace pardb {

// Every arc <blocker, waiter> labeled with the entity the waiter waits
// for, over the transactions in `txns` (every transaction the table may
// know; an id that holds and waits for nothing contributes nothing):
//  * §2 conflict rule: each other holder of the entity whose lock is
//    incompatible with the request — shared is compatible with shared
//    only — and, for an S->X upgrade, every other holder;
//  * DESIGN D6 queue rule: with fifo_fairness, each waiter queued ahead.
inline std::set<graph::Edge> WaitsForOracle(const lock::LockManager& locks,
                                            const std::vector<TxnId>& txns) {
  std::map<EntityId, std::vector<std::pair<TxnId, lock::LockMode>>> holders;
  for (TxnId t : txns) {
    for (const auto& [entity, mode] : locks.HeldBy(t)) {
      holders[entity].emplace_back(t, mode);
    }
  }
  std::set<graph::Edge> arcs;
  for (TxnId waiter : txns) {
    const auto pending = locks.Waiting(waiter);
    if (!pending.has_value()) continue;
    const EntityId entity = pending->entity;
    auto arc = [&](TxnId blocker) {
      arcs.insert(graph::Edge{blocker.value(), waiter.value(), entity.value()});
    };
    for (const auto& [holder, mode] : holders[entity]) {
      if (holder == waiter) continue;
      const bool both_shared = mode == lock::LockMode::kShared &&
                               pending->mode == lock::LockMode::kShared;
      if (pending->is_upgrade || !both_shared) arc(holder);
    }
    if (locks.options().fifo_fairness) {
      for (const auto& [queued, mode] : locks.WaitQueue(entity)) {
        (void)mode;
        if (queued == waiter) break;
        arc(queued);
      }
    }
  }
  return arcs;
}

}  // namespace pardb

#endif  // PARDB_TESTS_WAITS_FOR_ORACLE_H_
