#include "core/metrics_export.h"

#include <string>

#include "obs/metric_names.h"

namespace pardb::core {

void EngineMetricsExporter::Export(const Engine& engine,
                                   obs::MetricsRegistry* registry,
                                   const obs::LabelSet& labels) {
  const EngineMetrics& m = engine.metrics();
  auto Add = [&](const char* name, std::uint64_t cur, std::uint64_t prev) {
    if (cur > prev) registry->GetCounter(name, labels)->Inc(cur - prev);
  };
  Add(obs::kStepsTotal, m.steps, last_.steps);
  Add(obs::kOpsExecutedTotal, m.ops_executed, last_.ops_executed);
  Add(obs::kCommitsTotal, m.commits, last_.commits);
  Add(obs::kLockWaitsTotal, m.lock_waits, last_.lock_waits);
  Add(obs::kDeadlocksTotal, m.deadlocks, last_.deadlocks);
  Add(obs::kRollbacksTotal, m.rollbacks, last_.rollbacks);
  Add(obs::kPartialRollbacksTotal, m.partial_rollbacks,
      last_.partial_rollbacks);
  Add(obs::kTotalRollbacksTotal, m.total_rollbacks, last_.total_rollbacks);
  Add(obs::kPreemptionsTotal, m.Preemptions(), last_.Preemptions());
  Add(obs::kWastedOpsTotal, m.wasted_ops, last_.wasted_ops);
  Add(obs::kIdealWastedOpsTotal, m.ideal_wasted_ops, last_.ideal_wasted_ops);
  Add(obs::kCyclesFoundTotal, m.cycles_found, last_.cycles_found);
  Add(obs::kPeriodicScansTotal, m.periodic_scans, last_.periodic_scans);
  // The compile-cache and rollback-ledger series are created
  // unconditionally (not through the cur > prev guard): a zero-hit or
  // rollback-free run must still expose every series (each cause at 0) so
  // consumers can distinguish "none" from "not instrumented".
  auto AddAlways = [&](const char* name, std::uint64_t cur,
                       std::uint64_t prev,
                       const obs::LabelSet& series_labels) {
    registry->GetCounter(name, series_labels)->Inc(cur - prev);
  };
  AddAlways(obs::kProgramCompileTotal, m.programs_compiled,
            last_.programs_compiled, labels);
  AddAlways(obs::kProgramCacheHitsTotal, m.compile_cache_hits,
            last_.compile_cache_hits, labels);
  AddAlways(obs::kCompiledBytesTotal, m.compiled_bytes, last_.compiled_bytes,
            labels);
  for (std::size_t c = 0; c < obs::kNumRollbackCauses; ++c) {
    const auto cause = static_cast<obs::RollbackCause>(c);
    obs::LabelSet with_cause = labels;
    with_cause.emplace_back(obs::kCauseLabel,
                            std::string(obs::RollbackCauseName(cause)));
    AddAlways(obs::kRollbackCauseTotal, m.rollbacks_by_cause[c],
              last_.rollbacks_by_cause[c], with_cause);
    AddAlways(obs::kWastedStepsTotal, m.wasted_by_cause[c],
              last_.wasted_by_cause[c], with_cause);
  }
  AddAlways(obs::kOmegaInterventionsTotal, m.omega_interventions,
            last_.omega_interventions, labels);
  AddAlways(obs::kLineageEventsTotal, m.LineageEvents(),
            last_.LineageEvents(), labels);
  // Share of executed work that was later discarded, in parts per million:
  // wasted ops over the ops executed (commits excluded).
  const std::uint64_t worked = m.ops_executed - m.commits;
  registry->GetGauge(obs::kReworkRatioPpm, labels)
      ->Set(static_cast<std::int64_t>(
          worked == 0 ? 0 : m.wasted_ops * 1'000'000 / worked));

  registry->GetGauge(obs::kMaxEntityCopies, labels)
      ->SetMax(static_cast<std::int64_t>(m.max_entity_copies));
  registry->GetGauge(obs::kMaxVarCopies, labels)
      ->SetMax(static_cast<std::int64_t>(m.max_var_copies));
  registry->GetGauge(obs::kLiveTxns, labels)
      ->Set(static_cast<std::int64_t>(engine.live_txn_count()));
  registry->GetGauge(obs::kCompileCacheResidentEntries, labels)
      ->Set(static_cast<std::int64_t>(engine.resident_programs()));
  registry->GetGauge(obs::kWaitingTxns, labels)
      ->Set(static_cast<std::int64_t>(engine.lock_manager().WaitingCount()));

  const std::vector<std::uint32_t>& samples = engine.rollback_cost_samples();
  obs::Histogram* costs = registry->GetHistogram(obs::kRollbackCostOps, labels);
  for (std::size_t i = cost_samples_exported_; i < samples.size(); ++i) {
    costs->Record(samples[i]);
  }
  cost_samples_exported_ = samples.size();
  last_ = m;
}

}  // namespace pardb::core
