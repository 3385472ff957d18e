#include "obs/event.h"

namespace pardb::obs {

std::string_view RollbackCauseName(RollbackCause cause) {
  switch (cause) {
    case RollbackCause::kDeadlockVictim:
      return "deadlock_victim";
    case RollbackCause::kOmegaPreemption:
      return "omega_preemption";
    case RollbackCause::kSelfRollback:
      return "self_rollback";
    case RollbackCause::kWoundWait:
      return "wound_wait";
    case RollbackCause::kWaitDie:
      return "wait_die";
    case RollbackCause::kTimeout:
      return "timeout";
    case RollbackCause::kTwoPCAbort:
      return "twopc_abort";
  }
  return "unknown";
}

std::string_view EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kAdmit:
      return "admit";
    case EventKind::kGrant:
      return "grant";
    case EventKind::kBlock:
      return "block";
    case EventKind::kCycle:
      return "cycle";
    case EventKind::kVictim:
      return "victim";
    case EventKind::kRollback:
      return "rollback";
    case EventKind::kHold:
      return "hold";
    case EventKind::kRelease:
      return "release";
    case EventKind::kCommit:
      return "commit";
  }
  return "unknown";
}

}  // namespace pardb::obs
