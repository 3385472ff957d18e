#include "obs/probe.h"

#include "obs/metric_names.h"

namespace pardb::obs {

LockProbe MakeLockProbe(MetricsRegistry* registry, const LabelSet& labels) {
  LockProbe p;
  p.requests = registry->GetCounter(kLockRequestsTotal, labels);
  p.grants_immediate =
      registry->GetCounter(kLockGrantsImmediateTotal, labels);
  p.queued = registry->GetCounter(kLockQueuedTotal, labels);
  p.grants_on_release =
      registry->GetCounter(kLockGrantsOnReleaseTotal, labels);
  p.cancels = registry->GetCounter(kLockCancelsTotal, labels);
  p.max_queue_depth = registry->GetGauge(kLockMaxQueueDepth, labels);
  return p;
}

EngineProbe MakeEngineProbe(MetricsRegistry* registry, const LabelSet& labels,
                            const Clock* clock) {
  EngineProbe p;
  p.clock = clock;
  p.detection_ns = registry->GetHistogram(kDetectionNs, labels);
  p.rollback_apply_ns = registry->GetHistogram(kRollbackApplyNs, labels);
  p.lock_op_ns = registry->GetHistogram(kLockOpNs, labels);
  p.lock_wait_steps = registry->GetHistogram(kLockWaitSteps, labels);
  p.lock = MakeLockProbe(registry, labels);
  return p;
}

}  // namespace pardb::obs
