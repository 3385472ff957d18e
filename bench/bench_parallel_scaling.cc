// Sharded parallel scaling: aggregate throughput of par::RunSharded at
// 1/2/4/8 shards on a low-cross-shard workload. Every multi-shard point
// runs the sound cross-shard protocol (split global transactions, epoch
// barriers, union merges), so the speedup is quoted net of coordination.
//
// The speedup has two sources. On multi-core hardware the shards run
// concurrently. Independently of core count, a single engine's per-step
// cost grows with its transaction population (scheduler scans, lock
// table, waits-for graph), so splitting one 2400-transaction run into
// four 600-transaction shards does less engine work even serialized — the
// same observation that makes Brook-2PL structure execution around
// partitions. Against that stand the epoch barriers and merges.
//
// Besides the table, the run writes machine-readable BENCH_parallel.json
// (array of per-shard-count objects with elapsed time, throughput,
// speedup and the full sharded report).

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

par::ShardedOptions Base(std::uint32_t shards, std::uint64_t total_txns) {
  par::ShardedOptions opt;
  opt.num_shards = shards;
  opt.workload.num_entities = 256;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.workload.ops_per_entity = 2;
  opt.workload.zipf_theta = 0.2;
  opt.cross_shard_fraction = 0.05;  // low-cross-shard regime
  opt.concurrency = 32;
  opt.total_txns = total_txns;
  opt.seed = 21;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  return opt;
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void PrintReproduction() {
  Section("Aggregate throughput vs shard count (2400 txns, 5% cross-shard)");
  Table t({"shards", "committed", "cross-shard frac", "deadlocks",
           "rollbacks", "elapsed (s)", "txns/s", "speedup vs 1"});
  std::ofstream json("BENCH_parallel.json");
  json << "[\n";
  double base_elapsed = 0.0;
  bool first = true;
  for (std::uint32_t shards : {1, 2, 4, 8}) {
    const auto opt = Base(shards, 2400);
    // Median of 3: the speedup gate in check_bench_regression.py compares
    // single numbers, and one descheduled run would dominate a lone sample.
    std::vector<double> times;
    Result<par::ShardedReport> rep = par::RunSharded(opt);
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
    if (shards == 1) base_elapsed = elapsed;
    const double speedup = elapsed > 0 ? base_elapsed / elapsed : 0.0;
    t.AddRow(shards, rep->committed, rep->cross_shard_fraction,
             rep->aggregate.deadlocks, rep->aggregate.rollbacks, elapsed,
             elapsed > 0 ? static_cast<double>(rep->committed) / elapsed : 0.0,
             speedup);
    json << (first ? "" : ",\n") << " {\"shards\":" << shards
         << ",\"elapsed_seconds\":" << elapsed << ",\"txns_per_second\":"
         << (elapsed > 0 ? static_cast<double>(rep->committed) / elapsed : 0.0)
         << ",\"speedup_vs_1\":" << speedup << ",\n  \"report\":\n"
         << par::ShardedReportToJson(rep.value(), 2) << "}";
    first = false;
  }
  json << "\n]\n";
  t.Print();
  std::cout << "(wrote BENCH_parallel.json; per-shard determinism means the "
               "report part is identical across repeated runs — only the "
               "timings vary)\n";
}

// Telemetry overhead: the same 4-shard run with the metric probes attached
// (counters, sampled timers — trace sink disabled, the production default)
// against ShardedOptions::instrument = false, plus a third variant adding
// the D13 lifecycle timelines on top of the instrumented run, plus a
// fourth adding the D14 decision journal on top of that (the shipping
// default). Medians of `kRounds` alternating runs keep scheduler noise out
// of the comparison. The budget is 5% for each increment;
// BENCH_parallel_overhead.json records all verdicts and
// check_bench_regression.py gates on them.
void PrintInstrumentationOverhead() {
  constexpr int kRounds = 5;
  auto once = [](bool instrument, bool txnlife, bool journal) {
    auto opt = Base(4, 2400);
    opt.instrument = instrument;
    opt.txnlife = txnlife;
    opt.journal = journal;
    const auto start = std::chrono::steady_clock::now();
    auto rep = par::RunSharded(opt);
    const double elapsed = Seconds(start, std::chrono::steady_clock::now());
    if (!rep.ok()) {
      std::cerr << "sharded run failed: " << rep.status() << "\n";
      return -1.0;
    }
    return elapsed;
  };
  (void)once(false, false, false);  // warm-up
  std::vector<double> off, on, life, jrnl;
  for (int i = 0; i < kRounds; ++i) {
    off.push_back(once(false, false, false));
    on.push_back(once(true, false, false));
    life.push_back(once(true, true, false));
    jrnl.push_back(once(true, true, true));
  }
  // Minimum, not median: host interference only ever adds time, so the
  // fastest round is the least-contaminated estimate of each variant's
  // true cost and the overhead ratios stay stable on noisy CI runners.
  const double base = *std::min_element(off.begin(), off.end());
  const double instr = *std::min_element(on.begin(), on.end());
  const double timeline = *std::min_element(life.begin(), life.end());
  const double journal = *std::min_element(jrnl.begin(), jrnl.end());
  const double overhead_pct =
      base > 0 ? (instr - base) / base * 100.0 : 0.0;
  // Timeline increment against the instrumented run it rides on, not the
  // bare baseline — the question is what the D13 stamps add.
  const double timeline_overhead_pct =
      instr > 0 ? (timeline - instr) / instr * 100.0 : 0.0;
  // Journal increment against the timeline run it rides on, likewise:
  // what do the D14 decision records + epoch checksums add to the
  // shipping-default observer stack?
  const double journal_overhead_pct =
      timeline > 0 ? (journal - timeline) / timeline * 100.0 : 0.0;

  Section("Telemetry overhead (4 shards, min of 5)");
  Table t({"variant", "elapsed (s)", "overhead (%)"});
  t.AddRow("instrument=off", base, 0.0);
  t.AddRow("instrument=on", instr, overhead_pct);
  t.AddRow("  + txnlife", timeline, timeline_overhead_pct);
  t.AddRow("  + journal", journal, journal_overhead_pct);
  t.Print();
  std::cout << "(budget: 5% per increment; trace collection stays off in "
               "all variants; txnlife overhead is measured against the "
               "instrumented run, journal overhead against the txnlife "
               "run)\n";

  std::ofstream json("BENCH_parallel_overhead.json");
  json << "{\"baseline_seconds\":" << base
       << ",\"instrumented_seconds\":" << instr
       << ",\"overhead_pct\":" << overhead_pct
       << ",\"timeline_seconds\":" << timeline
       << ",\"timeline_overhead_pct\":" << timeline_overhead_pct
       << ",\"journal_seconds\":" << journal
       << ",\"journal_overhead_pct\":" << journal_overhead_pct
       << ",\"budget_pct\":5}\n";
}

void BM_ShardedThroughput(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto rep = par::RunSharded(Base(shards, 400));
    if (!rep.ok()) state.SkipWithError("sharded run failed");
    benchmark::DoNotOptimize(rep->committed);
  }
  state.counters["shards"] = shards;
}
BENCHMARK(BM_ShardedThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintReproduction();
  PrintInstrumentationOverhead();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
