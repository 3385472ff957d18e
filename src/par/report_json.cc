#include "par/report_json.h"

#include <cstdio>
#include <sstream>

namespace pardb::par {

namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

void AppendMetrics(std::ostringstream& os, const core::EngineMetrics& m) {
  os << "{\"steps\":" << m.steps << ",\"ops_executed\":" << m.ops_executed
     << ",\"commits\":" << m.commits << ",\"lock_waits\":" << m.lock_waits
     << ",\"deadlocks\":" << m.deadlocks << ",\"rollbacks\":" << m.rollbacks
     << ",\"partial_rollbacks\":" << m.partial_rollbacks
     << ",\"total_rollbacks\":" << m.total_rollbacks
     << ",\"preemptions\":" << m.Preemptions()
     << ",\"wounds\":" << m.RollbacksOf(obs::RollbackCause::kWoundWait)
     << ",\"deaths\":" << m.RollbacksOf(obs::RollbackCause::kWaitDie)
     << ",\"timeouts\":" << m.RollbacksOf(obs::RollbackCause::kTimeout)
     << ",\"wasted_ops\":" << m.wasted_ops
     << ",\"ideal_wasted_ops\":" << m.ideal_wasted_ops
     << ",\"cycles_found\":" << m.cycles_found << "}";
}

void AppendCosts(std::ostringstream& os, const core::CostDistribution& d) {
  os << "{\"count\":" << d.count << ",\"p50\":" << d.p50
     << ",\"p95\":" << d.p95 << ",\"max\":" << d.max
     << ",\"mean\":" << Num(d.mean) << "}";
}

}  // namespace

std::string ShardedReportToJson(const ShardedReport& report, int indent) {
  const std::string pad(indent, ' ');
  std::ostringstream os;
  os << pad << "{\"num_shards\":" << report.num_shards
     << ",\"committed\":" << report.committed
     << ",\"completed\":" << (report.completed ? "true" : "false")
     << ",\"serializable\":" << (report.serializable ? "true" : "false")
     << ",\"cross_shard_txns\":" << report.cross_shard_txns
     << ",\"cross_shard_fraction\":" << Num(report.cross_shard_fraction)
     << ",\"wasted_fraction\":" << Num(report.wasted_fraction)
     << ",\"goodput\":" << Num(report.goodput)
     << ",\"global_serializable\":"
     << (report.global_serializable ? "true" : "false") << ",\n"
     << pad << " \"xshard\":";
  {
    const xshard::XShardStats& x = report.xshard;
    os << "{\"mode\":\"" << (report.num_shards > 1 ? "locks" : "local")
       << "\",\"epochs\":" << x.epochs << ",\"global_txns\":" << x.global_txns
       << ",\"sub_txns\":" << x.sub_txns
       << ",\"sub_commits\":" << x.sub_commits
       << ",\"global_commits\":" << x.global_commits
       << ",\"merges\":" << x.merges
       << ",\"global_cycles\":" << x.global_cycles
       << ",\"distributed_rollbacks\":" << x.distributed_rollbacks
       << ",\"omega_exclusions\":" << x.omega_exclusions
       << ",\"prepares\":" << x.prepares << ",\"resolves\":" << x.resolves
       << ",\"messages\":" << x.messages << "}";
  }
  os << ",\n" << pad << " \"aggregate\":";
  AppendMetrics(os, report.aggregate);
  os << ",\n" << pad << " \"rollback_costs\":";
  AppendCosts(os, report.rollback_costs);
  os << ",\n" << pad << " \"shards\":[";
  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    const ShardResult& s = report.shards[i];
    os << (i == 0 ? "" : ",") << "\n"
       << pad << "  {\"shard\":" << s.shard << ",\"assigned\":" << s.assigned
       << ",\"committed\":" << s.committed
       << ",\"completed\":" << (s.completed ? "true" : "false")
       << ",\"serializable\":" << (s.serializable ? "true" : "false")
       << ",\"metrics\":";
    AppendMetrics(os, s.metrics);
    os << ",\"rollback_costs\":";
    AppendCosts(os, s.rollback_costs);
    os << "}";
  }
  os << "\n" << pad << " ]}";
  return os.str();
}

}  // namespace pardb::par
