// Cross-shard execution cost: goodput of par::RunSharded's multi-shard
// path (true shard-spanning transactions with distributed partial
// rollback, DESIGN D12) as the cross-shard fraction sweeps {0, 0.05, 0.2}
// at 4 shards.
//
// Two deterministic signals ride along for the regression gate:
//  - goodput (committed / ops executed) per fraction — the price of
//    global cycles is paid in wasted operations, not in lost commits;
//  - byte-identical report JSON across repeated runs AND across worker
//    counts (1 vs 4) — the epoch-barrier driver's determinism contract.
//
// Besides the table, the run writes machine-readable BENCH_cross_shard.json
// (array of per-fraction objects embedding the full sharded report).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/table_util.h"
#include "par/report_json.h"
#include "par/sharded_driver.h"

namespace {

using namespace pardb;
using bench::Section;
using bench::Table;

par::ShardedOptions Base(double cross_fraction) {
  par::ShardedOptions opt;
  opt.num_shards = 4;
  // Small enough an entity pool that the 0.2 sweep point actually forms
  // global cycles (so the sweep exercises distributed partial rollback),
  // large enough that every transaction still commits.
  opt.workload.num_entities = 64;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.workload.ops_per_entity = 2;
  opt.workload.zipf_theta = 0.2;
  opt.cross_shard_fraction = cross_fraction;
  opt.concurrency = 16;
  opt.total_txns = 800;
  opt.seed = 33;
  return opt;
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void PrintCrossShardSweep() {
  Section("Cross-shard locks mode: goodput vs cross-shard fraction "
          "(4 shards, 800 txns)");
  Table t({"cross frac", "committed", "globals", "global cycles",
           "dist rollbacks", "goodput", "elapsed (s)", "txns/s",
           "global serializable", "report deterministic"});
  std::ofstream json("BENCH_cross_shard.json");
  json << "[\n";
  bool first = true;
  for (double cross : {0.0, 0.05, 0.2}) {
    const auto opt = Base(cross);
    (void)par::RunSharded(opt);  // warm-up
    std::vector<double> times;
    Result<par::ShardedReport> rep = Status::Internal("no rounds");
    for (int round = 0; round < 3; ++round) {
      const auto start = std::chrono::steady_clock::now();
      rep = par::RunSharded(opt);
      times.push_back(Seconds(start, std::chrono::steady_clock::now()));
    }
    if (!rep.ok()) {
      std::cerr << "sharded run failed: " << rep.status() << "\n";
      continue;
    }
    std::sort(times.begin(), times.end());
    const double elapsed = times[times.size() / 2];
    // Determinism contract: the report must not depend on the run or on
    // how many workers stepped the shards.
    const std::string canonical = par::ShardedReportToJson(rep.value());
    bool deterministic = true;
    for (std::uint32_t workers : {1u, 4u}) {
      auto wopt = opt;
      wopt.num_threads = workers;
      auto wrep = par::RunSharded(wopt);
      const std::string got =
          wrep.ok() ? par::ShardedReportToJson(wrep.value()) : "{}";
      if (!wrep.ok() || got != canonical) {
        deterministic = false;
        // Leave both sides on disk so the regression gate can report the
        // first differing key path instead of a bare boolean.
        std::ofstream("BENCH_cross_shard_report_expected.json") << canonical;
        std::ofstream("BENCH_cross_shard_report_actual.json") << got;
      }
    }
    const auto& x = rep->xshard;
    t.AddRow(cross, rep->committed, x.global_txns, x.global_cycles,
             x.distributed_rollbacks, rep->goodput, elapsed,
             elapsed > 0 ? static_cast<double>(rep->committed) / elapsed : 0.0,
             rep->global_serializable ? "yes" : "NO",
             deterministic ? "yes" : "NO");
    json << (first ? "" : ",\n") << " {\"cross_shard_fraction\":" << cross
         << ",\"elapsed_seconds\":" << elapsed << ",\"txns_per_second\":"
         << (elapsed > 0 ? static_cast<double>(rep->committed) / elapsed : 0.0)
         << ",\"goodput\":" << rep->goodput
         << ",\"report_deterministic\":" << (deterministic ? "true" : "false")
         << ",\n  \"report\":\n" << par::ShardedReportToJson(rep.value(), 2)
         << "}";
    first = false;
  }
  json << "\n]\n";
  t.Print();
  std::cout << "(wrote BENCH_cross_shard.json; goodput, commit counts and "
               "the xshard counters are deterministic — only the timings "
               "vary)\n";
}

void BM_CrossShardLocks(benchmark::State& state) {
  const double cross = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto rep = par::RunSharded(Base(cross));
    if (!rep.ok()) state.SkipWithError("sharded run failed");
    benchmark::DoNotOptimize(rep->committed);
  }
  state.counters["cross_pct"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_CrossShardLocks)->Arg(0)->Arg(5)->Arg(20)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintCrossShardSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
