#ifndef PARDB_OBS_PROBE_H_
#define PARDB_OBS_PROBE_H_

#include "obs/clock.h"
#include "obs/metrics.h"

namespace pardb::obs {

// Instrumentation points the lock manager fires. All members may be null
// (the default), which disables the corresponding measurement; the lock
// manager only checks pointers, it never touches a registry.
struct LockProbe {
  Counter* requests = nullptr;          // pardb_lock_requests_total
  Counter* grants_immediate = nullptr;  // granted without queueing
  Counter* queued = nullptr;            // requests that had to wait
  Counter* grants_on_release = nullptr;  // grants from release/cancel/downgrade
  Counter* cancels = nullptr;           // waits cancelled by rollback
  Gauge* max_queue_depth = nullptr;     // high-water mark over all entities
};

// Instrumentation points the engine fires, plus the lock probe it hands to
// its lock manager. Null members disable the measurement; a null clock
// means MonotonicClock::Global().
struct EngineProbe {
  const Clock* clock = nullptr;

  // Phase latency histograms (nanoseconds).
  Histogram* detection_ns = nullptr;      // one detection call
  Histogram* rollback_apply_ns = nullptr;  // one RollbackTxn application
  Histogram* lock_op_ns = nullptr;        // one lock-manager Request (sampled)

  // Lock-wait duration in *engine steps* — deterministic, derived from the
  // logical clock, so the deterministic sim produces stable values.
  Histogram* lock_wait_steps = nullptr;

  LockProbe lock;

  const Clock* EffectiveClock() const {
    return clock != nullptr ? clock : MonotonicClock::Global();
  }
};

// Registers the canonical pardb_* metric set in `registry` (with `labels`
// on every instance, e.g. {{"shard","3"}}) and returns a probe pointing at
// it. The registry must outlive every component holding the probe.
EngineProbe MakeEngineProbe(MetricsRegistry* registry,
                            const LabelSet& labels = {},
                            const Clock* clock = nullptr);

// The lock-only subset, for code that owns a bare LockManager.
LockProbe MakeLockProbe(MetricsRegistry* registry, const LabelSet& labels = {});

}  // namespace pardb::obs

#endif  // PARDB_OBS_PROBE_H_
