#ifndef PARDB_CORE_METRICS_EXPORT_H_
#define PARDB_CORE_METRICS_EXPORT_H_

#include "core/engine.h"
#include "obs/metrics.h"

namespace pardb::core {

// Mirrors an engine's aggregates into `registry` under the canonical
// pardb_* names: counters for EngineMetrics (the rollback ledger as one
// series per cause), gauges for space high-water marks, live transactions
// and the rework ratio, and the per-rollback cost sample as the
// step-valued histogram pardb_rollback_cost_ops. Repeatable, for live
// scraping: it remembers what it already exported and advances each
// counter by the delta since the previous Export, so a shard can publish
// its engine aggregates at every hub-snapshot boundary and the totals stay
// exact (no double counting). Histogram samples are exported incrementally
// too — rollback_cost_samples() is append-only (a bounded sample retaining
// the first 65536 costs), so the next-index cursor never re-records a
// sample. Gauges are overwritten. One exporter per (engine, registry,
// labels) triple.
class EngineMetricsExporter {
 public:
  // Exports the delta since the previous call (everything, on the first).
  void Export(const Engine& engine, obs::MetricsRegistry* registry,
              const obs::LabelSet& labels = {});

 private:
  EngineMetrics last_;
  std::size_t cost_samples_exported_ = 0;
};

}  // namespace pardb::core

#endif  // PARDB_CORE_METRICS_EXPORT_H_
