#ifndef PARDB_OBS_EVENT_H_
#define PARDB_OBS_EVENT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace pardb::obs {

// ---------------------------------------------------------------------------
// The engine's one event vocabulary (DESIGN D22).
//
// Every schedule-relevant decision an engine takes (admit, grant, block,
// cycle, victim, rollback, hold, release, commit) is emitted exactly once,
// as one EngineEvent, to every attached observer. Each observer renders
// what it needs from that event: the decision journal packs it into a
// 32-byte record, the lifecycle book stamps a timeline, the lineage tracker
// chains preemptions and the trace exporters draw JSONL lines and Chrome
// instants. Observers never alter a decision.
// ---------------------------------------------------------------------------

// Why a transaction lost executed work. The taxonomy covers every rollback
// the engine applies plus the coordinator's distributed aborts.
enum class RollbackCause : std::uint8_t {
  kDeadlockVictim = 0,  // detection preempted a cycle holder (min cost, §3.1)
  kOmegaPreemption,     // the Theorem 2 ω-ordered policy overrode min-cost
  kSelfRollback,        // the requester itself was the cheapest victim
  kWoundWait,           // an older requester wounded this holder
  kWaitDie,             // this younger requester died on conflict
  kTimeout,             // the wait expired
  kTwoPCAbort,          // coordinator-applied distributed partial rollback
};

inline constexpr std::size_t kNumRollbackCauses = 7;

// A rollback whose victim is not the transaction whose request caused it:
// detection and ω victims, wounds and distributed aborts (Figure 2's
// preemption count).
constexpr bool IsPreemption(RollbackCause cause) {
  return cause == RollbackCause::kDeadlockVictim ||
         cause == RollbackCause::kOmegaPreemption ||
         cause == RollbackCause::kWoundWait ||
         cause == RollbackCause::kTwoPCAbort;
}

// A rollback that extends the victim's preemption lineage (lineage.h): the
// local preemptions plus requester self-rollbacks, whose aggressor is the
// holder the requester waited on.
constexpr bool ExtendsLineage(RollbackCause cause) {
  return cause == RollbackCause::kDeadlockVictim ||
         cause == RollbackCause::kOmegaPreemption ||
         cause == RollbackCause::kSelfRollback ||
         cause == RollbackCause::kWoundWait;
}

// Canonical label value for {cause="..."} metric instances and JSON.
std::string_view RollbackCauseName(RollbackCause cause);

// What kind of decision an event reports. The values are the journal's
// on-disk record kinds, so they never change.
enum class EventKind : std::uint8_t {
  kAdmit = 0,  // txn entered the live set (ω position assigned)
  kGrant,      // lock granted (entity; flags: exclusive, upgrade, woke)
  kBlock,      // lock request queued (entity)
  kCycle,      // deadlock detected (txn = requester, entity, cycle ordinal)
  kVictim,     // victim chosen (target, cost; flags: omega, requester;
               // candidates)
  kRollback,   // rollback applied (target, cost, cause, causing, cycle)
  kHold,       // sub-txn parks at its hold point (pc = hold point)
  kRelease,    // sub-txn hold released
  kCommit,     // txn committed (pc = final pc)
};

std::string_view EventKindName(EventKind kind);

// EngineEvent::flags bits, per kind.
inline constexpr std::uint8_t kEventExclusive = 1;  // kGrant: exclusive mode
inline constexpr std::uint8_t kEventUpgrade = 2;    // kGrant: S->X upgrade
inline constexpr std::uint8_t kEventWoke = 4;       // kGrant: ended a wait
inline constexpr std::uint8_t kEventOmega = 1;      // kVictim: the ω order
                                                    // moved the pick off
                                                    // plain min-cost
inline constexpr std::uint8_t kEventRequester = 2;  // kVictim: the victim is
                                                    // the requester

// One decision. Fields a kind does not use stay at their defaults.
struct EngineEvent {
  EventKind kind = EventKind::kAdmit;
  RollbackCause cause = RollbackCause::kDeadlockVictim;  // kRollback
  std::uint8_t flags = 0;
  std::uint32_t candidates = 0;  // kVictim: candidates priced
  // Engine step counter at the decision (the coordinator numbers its own
  // decisions instead).
  std::uint64_t step = 0;
  TxnId txn{};        // subject
  EntityId entity{};  // kGrant/kBlock/kCycle: the lock's entity
  // Subject's state index at emission (after the grant for kGrant, before
  // the rewind for kRollback); kHold: the hold point.
  StateIndex pc = 0;
  LockIndex target = 0;    // kVictim/kRollback: lock state rolled back to
  std::uint64_t cost = 0;  // kVictim/kRollback: ops lost
  TxnId causing{};  // kRollback: whose conflict; invalid if unknown
  // kCycle: this deadlock's 1-based ordinal; kRollback: the ordinal of the
  // deadlock that chose the victim, 0 for every other cause.
  std::uint64_t cycle = 0;
};

// Receives each event synchronously, at the moment of its decision, so it
// may inspect the engine in exactly that state (Engine::set_trace).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnEvent(const EngineEvent& event) = 0;
};

// Keeps every event, in emission order, for the trace exporters
// (obs/trace_export.h) and tests.
struct EventLog final : EventSink {
  void OnEvent(const EngineEvent& event) override { events.push_back(event); }
  std::vector<EngineEvent> events;
};

}  // namespace pardb::obs

#endif  // PARDB_OBS_EVENT_H_
