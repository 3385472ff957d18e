#ifndef PARDB_CORE_VICTIM_POLICY_H_
#define PARDB_CORE_VICTIM_POLICY_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace pardb::core {

// One transaction that could be rolled back to break a deadlock, with the
// paper's §3.1 cost model attached: cost = current state index minus the
// state index of the rollback target (lost progress in atomic operations).
struct VictimCandidate {
  TxnId txn;
  Timestamp entry = 0;        // entry timestamp (Theorem 2's ordering)
  LockIndex ideal_target = 0;  // latest lock state clearing the conflicts
  // What the transaction's rollback plan can actually restore
  // (<= ideal_target; equal under MCS, 0 under total restart, the latest
  // well-defined state under SDG).
  LockIndex actual_target = 0;
  std::uint64_t cost = 0;        // state-index cost of actual_target
  std::uint64_t ideal_cost = 0;  // state-index cost of ideal_target
  bool is_requester = false;
};

// Victim selection rules (§3.1 and Theorem 2).
enum class VictimPolicyKind {
  // Paper §3.1: minimum rollback cost, unconstrained. Optimal per
  // deadlock, but susceptible to potentially infinite mutual preemption
  // (Figure 2).
  kMinCost,
  // Theorem 2: minimum cost among candidates that entered the system
  // strictly later than the requester; the requester itself is chosen only
  // when no such member exists. The entry order is a time-invariant total
  // order, so mutual preemption cannot recur indefinitely and the oldest
  // transaction is never preempted.
  kMinCostOrdered,
  // Classical baselines.
  kYoungest,   // most recent entry
  kOldest,     // earliest entry
  kRequester,  // always roll back the transaction that caused the conflict
};

std::string_view VictimPolicyKindName(VictimPolicyKind kind);

// Picks the victim among `candidates` (never empty; contains the requester).
// Deterministic: ties break toward the smaller transaction id.
const VictimCandidate& ChooseVictim(VictimPolicyKind kind,
                                    const std::vector<VictimCandidate>& candidates,
                                    Timestamp requester_entry);

}  // namespace pardb::core

#endif  // PARDB_CORE_VICTIM_POLICY_H_
