#include "core/victim_policy.h"

#include <cassert>

namespace pardb::core {

std::string_view VictimPolicyKindName(VictimPolicyKind kind) {
  switch (kind) {
    case VictimPolicyKind::kMinCost:
      return "min-cost";
    case VictimPolicyKind::kMinCostOrdered:
      return "min-cost-ordered";
    case VictimPolicyKind::kYoungest:
      return "youngest";
    case VictimPolicyKind::kOldest:
      return "oldest";
    case VictimPolicyKind::kRequester:
      return "requester";
  }
  return "unknown";
}

namespace {

// Lexicographic (key, txn id) minimisation over the candidates `keep`
// accepts, for determinism; nullptr when it accepts none.
template <typename KeyFn, typename KeepFn>
const VictimCandidate* MinBy(const std::vector<VictimCandidate>& cs,
                             KeyFn key, KeepFn keep) {
  const VictimCandidate* best = nullptr;
  for (const VictimCandidate& c : cs) {
    if (!keep(c)) continue;
    if (best == nullptr || key(c) < key(*best) ||
        (key(c) == key(*best) && c.txn < best->txn)) {
      best = &c;
    }
  }
  return best;
}

template <typename KeyFn>
const VictimCandidate* MinBy(const std::vector<VictimCandidate>& cs,
                             KeyFn key) {
  return MinBy(cs, key, [](const VictimCandidate&) { return true; });
}

}  // namespace

const VictimCandidate& ChooseVictim(
    VictimPolicyKind kind, const std::vector<VictimCandidate>& candidates,
    Timestamp requester_entry) {
  assert(!candidates.empty());
  switch (kind) {
    case VictimPolicyKind::kMinCost:
      return *MinBy(candidates,
                    [](const VictimCandidate& c) { return c.cost; });
    case VictimPolicyKind::kMinCostOrdered: {
      // Theorem 2: a conflict caused by T_j may only roll back transactions
      // ordered after T_j (here: strictly later entry). Preferring strict
      // preemption — never the requester itself while an eligible younger
      // member exists — is what breaks the paper's Figure 2 alternation,
      // where repeated cheapest self-rollbacks recreate the same deadlock
      // indefinitely. The requester is the fallback when every other cycle
      // member is older.
      const VictimCandidate* best = MinBy(
          candidates, [](const VictimCandidate& c) { return c.cost; },
          [requester_entry](const VictimCandidate& c) {
            return !c.is_requester && c.entry > requester_entry;
          });
      if (best != nullptr) return *best;
      for (const VictimCandidate& c : candidates) {
        if (c.is_requester) return c;
      }
      return *MinBy(candidates,
                    [](const VictimCandidate& c) { return c.cost; });
    }
    case VictimPolicyKind::kYoungest: {
      const VictimCandidate* best = nullptr;
      for (const VictimCandidate& c : candidates) {
        if (best == nullptr || c.entry > best->entry ||
            (c.entry == best->entry && c.txn < best->txn)) {
          best = &c;
        }
      }
      return *best;
    }
    case VictimPolicyKind::kOldest:
      return *MinBy(candidates,
                    [](const VictimCandidate& c) { return c.entry; });
    case VictimPolicyKind::kRequester:
      for (const VictimCandidate& c : candidates) {
        if (c.is_requester) return c;
      }
      return candidates.front();
  }
  return candidates.front();
}

}  // namespace pardb::core
