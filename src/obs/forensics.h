#ifndef PARDB_OBS_FORENSICS_H_
#define PARDB_OBS_FORENSICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace pardb::obs {

// One transaction on a detected cycle, with the paper's §3.1 cost model:
// cost = current state index minus the rollback target's state index.
struct DeadlockParticipant {
  TxnId txn;
  Timestamp entry = 0;  // ω-order position (Theorem 2's total order)
  std::uint64_t cost = 0;        // what its rollback strategy would pay
  std::uint64_t ideal_cost = 0;  // what exact restoration would pay
  LockIndex target = 0;          // lock state a rollback would restore
  bool is_requester = false;
  bool is_victim = false;
};

// One waits-for arc on the cycle: `waiter` waits for `holder` because of
// `entity`.
struct WaitsForArc {
  TxnId waiter;
  TxnId holder;
  EntityId entity;
};

// Everything known about one detected deadlock at resolution time: the
// engine's only per-deadlock record (built only while a DeadlockDumpSink is
// installed) and the source of the DOT dump. Costs are the decision-time
// prices the victim choice compared.
struct DeadlockDump {
  std::uint64_t step = 0;  // engine step at detection
  TxnId requester;
  EntityId requested_entity;
  // Simple cycles through the requester (exact, uncapped; a lower bound in
  // a periodic scan, see DESIGN D19).
  std::size_t num_cycles = 0;
  std::vector<WaitsForArc> arcs;     // arcs of the first cycle found
  // §3.1 candidates, one per member of the requester's deadlocked
  // component, in ascending transaction id.
  std::vector<DeadlockParticipant> participants;
  std::vector<TxnId> victims;        // chosen set (vertex cuts: several)
  std::string policy;                // victim policy name
};

// Summed over the victim participants: the price the resolution chose
// (strategy-coarsened) and what exact restoration would have paid.
std::uint64_t VictimCost(const DeadlockDump& dump);
std::uint64_t VictimIdealCost(const DeadlockDump& dump);

// Renders the dump as Graphviz DOT: cycle members as nodes annotated with
// ω-order and rollback costs, victims filled red, the requester boxed, and
// waits-for arcs labeled with the contended entity. Deterministic output.
std::string DeadlockDumpToDot(const DeadlockDump& dump);

// Receiver for forensic dumps; the engine calls OnDeadlock once per
// resolved deadlock when a sink is installed.
class DeadlockDumpSink {
 public:
  virtual ~DeadlockDumpSink() = default;
  virtual void OnDeadlock(const DeadlockDump& dump) = 0;
};

// Keeps the first `max_dumps` dumps in memory (tests, report assembly).
class CollectingDeadlockSink final : public DeadlockDumpSink {
 public:
  explicit CollectingDeadlockSink(std::size_t max_dumps = 256)
      : max_dumps_(max_dumps) {}

  void OnDeadlock(const DeadlockDump& dump) override;

  const std::vector<DeadlockDump>& dumps() const { return dumps_; }
  std::uint64_t total_seen() const { return total_seen_; }

 private:
  std::size_t max_dumps_;
  std::vector<DeadlockDump> dumps_;
  std::uint64_t total_seen_ = 0;
};

// Forwards each dump to two sinks (either may be null). The engine accepts
// a single sink; drivers that feed both a collecting sink and the live
// hub's ring install one of these.
class FanOutDeadlockSink final : public DeadlockDumpSink {
 public:
  FanOutDeadlockSink() = default;
  FanOutDeadlockSink(DeadlockDumpSink* first, DeadlockDumpSink* second)
      : first_(first), second_(second) {}

  void set_first(DeadlockDumpSink* s) { first_ = s; }
  void set_second(DeadlockDumpSink* s) { second_ = s; }

  void OnDeadlock(const DeadlockDump& dump) override {
    if (first_ != nullptr) first_->OnDeadlock(dump);
    if (second_ != nullptr) second_->OnDeadlock(dump);
  }

 private:
  DeadlockDumpSink* first_ = nullptr;
  DeadlockDumpSink* second_ = nullptr;
};

}  // namespace pardb::obs

#endif  // PARDB_OBS_FORENSICS_H_
