#ifndef PARDB_STORAGE_ENTITY_STORE_H_
#define PARDB_STORAGE_ENTITY_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

namespace pardb::storage {

// A versioned value as stored in the database.
struct VersionedValue {
  Value value = 0;
  // Monotonically increasing per entity; bumped on every Publish. Version 0
  // is the initial value. Versions let the serializability checker order
  // reads against writes without timestamps.
  std::uint64_t version = 0;
};

// The set of global data entities (paper §2). Holds only *global* values:
// under the paper's deferred-update discipline a transaction works on local
// copies (its value slots, laid out by its rollback plan) and publishes the
// final value of an exclusively locked entity only when unlocking it.
// Because two-phase transactions are never rolled back after their first
// unlock, a rollback never needs to undo a global value — Restore is
// provided only for test harnesses that reset the database between runs.
//
// Storage is split by id shape. Entities created densely from id 0 — the
// only pattern the drivers and benches use — live in a flat vector indexed
// by id, so the per-op Get/Publish on the engine hot path is an array load
// instead of a hash probe. Ids that arrive out of order fall back to a
// hash map; the flat prefix only ever grows when the next contiguous id is
// created, so every id below flat_.size() is guaranteed present.
class EntityStore {
 public:
  EntityStore() = default;

  EntityStore(const EntityStore&) = delete;
  EntityStore& operator=(const EntityStore&) = delete;

  // Registers a new entity with an initial value (version 0).
  Status Create(EntityId id, Value initial);

  // Convenience: creates entities E0..E{n-1} with the given initial value.
  // Returns their ids in order.
  std::vector<EntityId> CreateMany(std::uint64_t n, Value initial = 0);

  bool Contains(EntityId id) const {
    return id.value() < flat_.size() || sparse_.count(id) > 0;
  }
  std::size_t size() const { return flat_.size() + sparse_.size(); }

  // Every id below this bound exists (dense prefix). Lets callers verify
  // "all of this program's entities exist" with one comparison against the
  // program's statically known max id.
  std::uint64_t contiguous_prefix() const { return flat_.size(); }

  // Current global value (what a transaction sees when it locks the entity).
  Result<VersionedValue> Get(EntityId id) const;

  // Publishes a new global value (unlock of an exclusively locked entity).
  // Bumps the version. Fails with NotFound for unknown entities.
  Result<std::uint64_t> Publish(EntityId id, Value value);

  // Test/benchmark helper: overwrite without bumping the version.
  Status ResetValue(EntityId id, Value value);

  // Snapshot of all (id, value) pairs, ordered by id; for whole-database
  // comparisons in tests.
  std::vector<std::pair<EntityId, Value>> Snapshot() const;

 private:
  // Flat dense prefix: ids [0, flat_.size()) are all present.
  std::vector<VersionedValue> flat_;
  // Everything created out of contiguous order.
  std::unordered_map<EntityId, VersionedValue> sparse_;
  std::uint64_t next_auto_id_ = 0;
};

}  // namespace pardb::storage

#endif  // PARDB_STORAGE_ENTITY_STORE_H_
