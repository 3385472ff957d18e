// Default-path benchmark for pardb: par::RunSharded at library defaults
// (observers on, serializability checked, kLocks cross-shard mode) plus the
// kRandom scheduler, on three closed-loop workloads. See README.md in this
// directory for the workloads, the metric -> layer -> workload map and a
// baseline run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --spec BENCHMARK.json [--setup-samples S1,S2,...]
//             [--trace-out FILE]
//   perfbench --workload NAME --seed N --setup-only
//   perfbench --write-spec FILE
//
// --trace 0 prints every end-to-end metric, --trace 1 every per-layer
// metric; the last stdout line is one JSON object {correct, attempted,
// failed, metrics}. The exit code is 0 only for a correct, deterministic
// run. --setup-only performs the cold first run, prints "setup-done" and
// exits; run.py times such processes to measure setup_s and passes the
// samples back through --setup-samples.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/global_history.h"
#include "analysis/history.h"
#include "bench_util.h"
#include "common/random.h"
#include "core/engine.h"
#include "obs/journal.h"
#include "obs/lineage.h"
#include "obs/metric_names.h"
#include "obs/probe.h"
#include "obs/txnlife.h"
#include "par/router.h"
#include "par/sharded_driver.h"
#include "par/xshard/split.h"
#include "sim/workload.h"
#include "storage/entity_store.h"
#include "txn/compiled.h"

namespace pardb::perfbench {
namespace {

constexpr int kRunSeconds = 30;

// ---------------------------------------------------------------------------
// Workloads. Each run of a workload executes `batches` RunSharded calls of
// `txns_per_batch` transactions; batch b runs with seed + (b << 32), so one
// --seed names a fixed input set and neighbouring seeds share no batch.
// Reporting medians over many independent batches keeps the figures steady
// although a single batch's cost depends strongly on its seed (deadlock
// detection cost is heavy-tailed).

struct Workload {
  const char* name;
  const char* why;
  std::uint32_t shards;
  std::uint64_t txns_per_batch;
  std::uint32_t batches;
  void (*shape)(par::ShardedOptions&);
};

// The ROADMAP pinned mix: 256 entities, 2-4 exclusive locks, 2 ops per
// entity, zipf 0.2, every program unique.
void PinnedMix(par::ShardedOptions& o) {
  o.workload.num_entities = 256;
  o.workload.min_locks = 2;
  o.workload.max_locks = 4;
  o.workload.ops_per_entity = 2;
  o.workload.zipf_theta = 0.2;
}

// Shared beside exclusive locks on a hot key set. zipf 0.7 rather than
// 0.8: at 0.8 single detections run into hundreds of milliseconds and ten
// seeds spread by more than 30 % in throughput even over 30k transactions.
void ContendedReadWrite(par::ShardedOptions& o) {
  o.workload.num_entities = 128;
  o.workload.zipf_theta = 0.7;
  o.workload.shared_fraction = 0.3;
  o.workload.min_locks = 3;
  o.workload.max_locks = 6;
  o.workload.pattern = sim::WritePattern::kScattered;
}

// Batch sizes keep every shard's decision journal inside its 65536-record
// ring, so a dropped journal record is a real failure.
const Workload kWorkloads[] = {
    {"local_1shard",
     "1 shard, pinned low-contention mix: generation, compile, engine step, "
     "observers and the serializability recorder; no coordination",
     1, 8000, 8, PinnedMix},
    {"xshard_4shard",
     "same mix on 4 kLocks shards with 5% cross-shard: split, 2PC, epoch "
     "barriers and union merges run; engine-only changes move both",
     4, 8000, 8, PinnedMix},
    {"contention_rw",
     "1 shard, hot keys, 30% shared locks, 3-6 locks: multi-cycle "
     "detection, vertex-cut victims and partial rollback dominate",
     1, 1000, 32, ContendedReadWrite},
};

par::ShardedOptions OptionsFor(const Workload& w, std::uint64_t seed,
                               std::uint32_t batch) {
  par::ShardedOptions o;  // library defaults otherwise
  o.engine.scheduler = core::SchedulerKind::kRandom;
  o.num_shards = w.shards;
  o.concurrency = 32;
  o.total_txns = w.txns_per_batch;
  o.seed = seed + (static_cast<std::uint64_t>(batch) << 32);
  w.shape(o);
  return o;
}

// ---------------------------------------------------------------------------
// The metric table: the single source of BENCHMARK.json.

std::string CauseMetric(std::size_t cause) {
  return "rollback.wasted_steps." +
         std::string(obs::RollbackCauseName(static_cast<obs::RollbackCause>(cause)));
}

BenchSpec BuildSpec() {
  BenchSpec spec;
  spec.command = {"python3", "perfbench/run.py"};
  spec.paths = {"perfbench"};
  spec.run_seconds = kRunSeconds;
  for (const Workload& w : kWorkloads) spec.workloads.push_back({w.name, w.why});
  spec.end_to_end = {
      // Wall and CPU time swing by up to 20 % for tens of seconds on a
      // shared host, so the time bounds sit at the 0.25 cap.
      {"txns_per_s", "txn/s", "higher", 0.25},
      {"setup_s", "s", "lower", 0.25},
      {"cpu_s_per_ktxn", "s", "lower", 0.25},
      {"peak_rss_mb", "MiB", "lower", 0.15},
      {"useful_op_ratio", "ratio", "higher", 0.05},
      {"txn_steps_p50", "steps", "lower", 0.1},
      {"txn_steps_p99", "steps", "lower", 0.1},
  };
  auto layer = [&spec](std::string name, const char* unit, const char* better) {
    spec.per_layer.push_back({std::move(name), unit, better, std::nullopt});
  };
  layer("sim.gen_ns_per_txn", "ns", "lower");
  layer("par.route_ns_per_txn", "ns", "lower");
  layer("par.generate_s", "s", "lower");
  layer("par.execute_s", "s", "lower");
  layer("par.admission_blocked_pushes", "count", "lower");
  layer("par.cross_shard_frac", "ratio", "lower");
  layer("par.quanta_per_ktxn", "count", "lower");
  layer("par.worker_util_mean", "ratio", "higher");
  layer("xshard.split_ns_per_global", "ns", "lower");
  layer("xshard.epoch_us", "us", "lower");
  layer("xshard.merge_yield", "ratio", "higher");
  layer("xshard.messages_per_global", "count", "lower");
  layer("xshard.distributed_rollbacks", "count", "lower");
  layer("xshard.prepare_ns_p50", "ns", "lower");
  layer("xshard.resolve_ns_p50", "ns", "lower");
  layer("txn.compile_ns_per_program", "ns", "lower");
  layer("txn.cache_hit_ratio", "ratio", "higher");
  layer("txn.compiled_bytes_per_txn", "bytes", "lower");
  layer("core.spawn_ns", "ns", "lower");
  layer("core.step_ns", "ns", "lower");
  layer("core.steps_per_txn", "steps", "lower");
  layer("core.lock_waits_per_txn", "count", "lower");
  layer("core.deadlocks_per_ktxn", "count", "lower");
  layer("core.cycles_per_deadlock", "count", "lower");
  layer("core.detection_ns_p50", "ns", "lower");
  layer("core.detection_ns_p99", "ns", "lower");
  layer("lock.op_ns_p50", "ns", "lower");
  layer("lock.immediate_grant_ratio", "ratio", "higher");
  layer("lock.max_queue_depth", "count", "lower");
  layer("rollback.apply_ns_p50", "ns", "lower");
  layer("rollback.apply_ns_p99", "ns", "lower");
  layer("rollback.per_txn", "count", "lower");
  layer("rollback.partial_frac", "ratio", "higher");
  layer("rollback.cost_p95", "ops", "lower");
  layer("rollback.coarsening_ratio", "ratio", "lower");
  layer("rollback.max_entity_copies", "count", "lower");
  for (std::size_t c = 0; c < obs::kNumRollbackCauses; ++c) {
    layer(CauseMetric(c), "steps", "lower");
  }
  layer("analysis.check_s", "s", "lower");
  layer("analysis.global_check_s", "s", "lower");
  layer("analysis.tax_ns_per_txn", "ns", "lower");
  layer("obs.metrics_tax_ns_per_txn", "ns", "lower");
  layer("obs.txnlife_tax_ns_per_txn", "ns", "lower");
  layer("obs.journal_tax_ns_per_txn", "ns", "lower");
  layer("obs.journal_records_per_txn", "count", "lower");
  layer("obs.journal_dropped", "count", "lower");
  layer("obs.txnlife_dropped", "count", "lower");
  layer("trace.overhead_frac", "ratio", "lower");
  layer("trace.spans", "count", "lower");
  return spec;
}

// ---------------------------------------------------------------------------
// Reading a report.

const obs::MetricSnapshot* Find(const par::ShardedReport& r, const char* name,
                                const obs::LabelSet& labels = {}) {
  return r.merged_metrics.Find(name, labels);
}

std::uint64_t Counter(const par::ShardedReport& r, const char* name,
                      const obs::LabelSet& labels = {}) {
  const obs::MetricSnapshot* m = Find(r, name, labels);
  return m != nullptr ? m->counter : 0;
}

obs::HistogramSnapshot Hist(const par::ShardedReport& r, const char* name) {
  const obs::MetricSnapshot* m = Find(r, name);
  return m != nullptr ? m->hist : obs::HistogramSnapshot{};
}

// Largest value of a gauge over every shard's own registry (the merged
// snapshot sums gauges across shards).
std::int64_t MaxGauge(const par::ShardedReport& r, const char* name) {
  std::int64_t best = 0;
  for (const obs::MetricSnapshot& m : r.metrics.metrics) {
    if (m.name == name) best = std::max(best, m.gauge);
  }
  return best;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

void MergeHist(obs::HistogramSnapshot* into, const obs::HistogramSnapshot& h) {
  if (h.count == 0) return;
  if (into->count == 0 && into->bounds.empty()) {
    *into = h;
  } else {
    into->MergeFrom(h);
  }
}

// Correctness gate: every requested transaction committed, the run
// completed, both serializability verdicts hold and no observer lost what
// the benchmark reads. Returns the violations.
std::vector<std::string> GateViolations(const par::ShardedOptions& o,
                                        const par::ShardedReport& r) {
  std::vector<std::string> v;
  if (r.committed != o.total_txns) {
    v.push_back("committed " + std::to_string(r.committed) + " of " +
                std::to_string(o.total_txns));
  }
  if (!r.completed) v.push_back("run incomplete");
  if (o.check_serializability && !r.serializable) v.push_back("not serializable");
  if (o.check_serializability && !r.global_serializable) {
    v.push_back("not globally serializable");
  }
  if (o.instrument && o.journal && Counter(r, obs::kJournalDroppedTotal) != 0) {
    v.push_back("journal dropped " +
                std::to_string(Counter(r, obs::kJournalDroppedTotal)) +
                " records");
  }
  // The lifecycle book's event ring is a bounded flight recorder (4096
  // events per shard) and overflows by design; its ledger and latency
  // histograms are per-transaction columns. Require those to have seen
  // every engine commit instead.
  if (o.instrument && o.txnlife &&
      Hist(r, obs::kTxnE2eSteps).count != r.aggregate.commits) {
    v.push_back("txnlife latency histogram missed commits");
  }
  return v;
}

// Deterministic fields of a run, compared across every execution of one
// batch. Fields absent from either side (observer toggled off) are skipped.
using Fingerprint = std::vector<std::pair<std::string, double>>;

Fingerprint FingerprintOf(const par::ShardedReport& r) {
  const core::EngineMetrics& a = r.aggregate;
  Fingerprint f = {
      {"committed", static_cast<double>(r.committed)},
      {"steps", static_cast<double>(a.steps)},
      {"ops_executed", static_cast<double>(a.ops_executed)},
      {"deadlocks", static_cast<double>(a.deadlocks)},
      {"rollbacks", static_cast<double>(a.rollbacks)},
      {"wasted_ops", static_cast<double>(a.wasted_ops)},
      {"xshard_merges", static_cast<double>(r.xshard.merges)},
      {"xshard_epochs", static_cast<double>(r.xshard.epochs)},
  };
  const obs::HistogramSnapshot e2e = Hist(r, obs::kTxnE2eSteps);
  if (e2e.count > 0) {
    f.push_back({"txn_steps_p50", HistogramPercentile(e2e, 50)});
    f.push_back({"txn_steps_p99", HistogramPercentile(e2e, 99)});
  }
  return f;
}

std::optional<std::string> FirstDifference(const Fingerprint& want,
                                           const Fingerprint& got) {
  for (const auto& [name, value] : want) {
    for (const auto& [gname, gvalue] : got) {
      if (gname == name && gvalue != value) {
        std::ostringstream os;
        os << std::setprecision(17) << name << ": " << value << " vs "
           << gvalue;
        return os.str();
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Timing one RunSharded call.

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Execution {
  std::uint32_t batch = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::optional<par::ShardedReport> report;  // nullopt: RunSharded failed
  std::string error;
};

Execution Execute(const par::ShardedOptions& o, std::uint32_t batch) {
  Execution e;
  e.batch = batch;
  const double cpu0 = CpuSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  Result<par::ShardedReport> r = par::RunSharded(o);
  e.wall_s = Since(t0);
  e.cpu_s = CpuSeconds() - cpu0;
  if (r.ok()) {
    e.report = std::move(r).value();
  } else {
    e.error = r.status().ToString();
  }
  return e;
}

// Accumulates correctness and determinism over every execution of a run.
class Checker {
 public:
  // Returns false when the execution failed the gate or broke determinism.
  bool Check(const par::ShardedOptions& o, const Execution& e) {
    attempted_ += o.total_txns;
    if (!e.report) {
      failed_ += o.total_txns;
      Problem("batch " + std::to_string(e.batch) + ": " + e.error);
      return false;
    }
    const par::ShardedReport& r = *e.report;
    bool ok = true;
    const std::vector<std::string> gate = GateViolations(o, r);
    if (!gate.empty()) {
      for (const std::string& g : gate) {
        Problem("batch " + std::to_string(e.batch) + ": " + g);
      }
      failed_ += o.total_txns;
      ok = false;
    } else {
      failed_ += o.total_txns - std::min(o.total_txns, r.committed);
    }
    const Fingerprint f = FingerprintOf(r);
    auto [it, first] = seen_.try_emplace(e.batch, f);
    if (!first) {
      if (auto diff = FirstDifference(it->second, f)) {
        Problem("batch " + std::to_string(e.batch) +
                " not deterministic: " + *diff);
        ok = false;
      }
    }
    return ok;
  }

  void Problem(const std::string& what) {
    if (problems_.size() < 20) std::cerr << "perfbench: " << what << "\n";
    problems_.push_back(what);
  }

  bool correct() const { return problems_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::uint32_t, Fingerprint> seen_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Output.

using Metrics = std::map<std::string, double>;

// Prints "name value unit" lines and the result line for one spec group,
// and returns the exit code. The numbers of an incorrect run are rejected:
// its result line carries no metrics.
int Emit(const std::vector<MetricSpec>& group, const Metrics& values,
         Checker& checker) {
  for (const MetricSpec& m : group) {
    if (checker.correct() && values.count(m.name) == 0) {
      checker.Problem("no value for " + m.name);
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (checker.correct() ? "true" : "false")
       << ", \"attempted\": " << checker.attempted()
       << ", \"failed\": " << checker.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; checker.correct() && i < group.size(); ++i) {
    const MetricSpec& m = group[i];
    const double v = values.at(m.name);
    std::cout << "  " << std::left << std::setw(34) << m.name << " "
              << std::setw(14) << JsonNumber(v) << " " << m.unit << "\n";
    json << (i > 0 ? ", " : "") << JsonQuote(m.name)
         << ": {\"value\": " << JsonNumber(v)
         << ", \"unit\": " << JsonQuote(m.unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return checker.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0).

int RunEndToEnd(const Workload& w, std::uint64_t seed, double seconds,
                const std::vector<double>& setup_samples,
                const BenchSpec& spec) {
  Checker checker;
  // Cold first run (untimed): the same batch setup_s measures.
  const par::ShardedOptions cold_opt = OptionsFor(w, seed, 0);
  checker.Check(cold_opt, Execute(cold_opt, 0));

  std::vector<double> tput, cpu_per_ktxn;
  std::uint64_t ops = 0, wasted = 0;
  obs::HistogramSnapshot e2e;
  std::size_t executions = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (checker.correct() && (executions < w.batches || Since(t0) < seconds)) {
    const std::uint32_t batch = static_cast<std::uint32_t>(executions % w.batches);
    const par::ShardedOptions o = OptionsFor(w, seed, batch);
    const Execution e = Execute(o, batch);
    if (!checker.Check(o, e)) break;
    const par::ShardedReport& r = *e.report;
    tput.push_back(static_cast<double>(r.committed) / e.wall_s);
    cpu_per_ktxn.push_back(e.cpu_s * 1000.0 / static_cast<double>(r.committed));
    if (executions < w.batches) {  // pooled deterministic fields: one pass
      ops += r.aggregate.ops_executed;
      wasted += r.aggregate.wasted_ops;
      MergeHist(&e2e, Hist(r, obs::kTxnE2eSteps));
    }
    ++executions;
  }
  const double elapsed = Since(t0);

  Metrics m;
  m["txns_per_s"] = NearestRank(tput, 50);
  m["setup_s"] = NearestRank(setup_samples, 50);
  m["cpu_s_per_ktxn"] = NearestRank(cpu_per_ktxn, 50);
  m["peak_rss_mb"] = PeakRssMiB();
  m["useful_op_ratio"] = 1.0 - Ratio(static_cast<double>(wasted),
                                     static_cast<double>(ops));
  m["txn_steps_p50"] = HistogramPercentile(e2e, 50);
  m["txn_steps_p99"] = HistogramPercentile(e2e, 99);

  const std::optional<double> tail =
      HighestSupportedPercentile(e2e.count, {50, 90, 99, 99.9});
  std::cout << "perfbench " << w.name << " seed=" << seed << ": "
            << executions << " timed RunSharded calls over " << w.batches
            << " batches x " << w.txns_per_batch << " txns in "
            << JsonNumber(elapsed) << " s\n"
            << "  txns_per_s, cpu_s_per_ktxn: median of " << tput.size()
            << " calls (p10 txns_per_s " << JsonNumber(NearestRank(tput, 10))
            << " at the slow end)\n"
            << "  txn_steps: " << e2e.count << " commits; highest percentile"
            << " with >= 10 samples beyond it: p"
            << (tail ? JsonNumber(*tail) : std::string("none")) << "\n"
            << "  setup_s: median of " << setup_samples.size()
            << " cold processes\n"
            << "  failed_txn_frac " << JsonNumber(Ratio(
                   static_cast<double>(checker.failed()),
                   static_cast<double>(checker.attempted())))
            << " ratio\n";
  if (!tail || *tail < 99) {
    checker.Problem("too few commits for a p99 latency");
  }
  return Emit(spec.end_to_end, m, checker);
}

// ---------------------------------------------------------------------------
// Traced harness: the RunSharded pipeline replayed through public calls,
// with a span around each call into a layer.

// Phase 1 of RunSharded: seeded generators over the shard entity pools and
// the routing draw, in the driver's order (hot-shard routing off).
class ProgramSource {
 public:
  ProgramSource(const par::ShardedOptions& o, SpanRecorder* rec,
                std::uint32_t parent)
      : o_(o),
        rec_(rec),
        parent_(parent),
        global_(o.workload, par::DeriveShardSeed(o.seed, 0x20000u)),
        route_rng_(par::DeriveShardSeed(o.seed, 0x30000u)) {
    ScopedSpan span(rec_, "sim.universes", parent_);
    auto universes = par::ShardEntityUniverses(o.workload.num_entities,
                                               o.num_shards);
    local_.resize(o.num_shards);
    for (std::uint32_t s = 0; s < o.num_shards; ++s) {
      if (universes[s].empty()) continue;
      sim::WorkloadOptions wo = o.workload;
      wo.entity_universe = universes[s];
      local_[s] = std::make_unique<sim::WorkloadGenerator>(
          wo, par::DeriveShardSeed(o.seed, 0x10000u + s));
      populated_.push_back(s);
    }
  }

  struct Routed {
    txn::Program program;
    par::Route route;
  };

  Result<Routed> Next() {
    const bool cross = populated_.empty() ||
                       route_rng_.Bernoulli(o_.cross_shard_fraction);
    sim::WorkloadGenerator* gen = &global_;
    if (!cross) {
      gen = local_[populated_[route_rng_.Uniform(populated_.size())]].get();
    }
    Result<txn::Program> program = [&] {
      ScopedSpan span(rec_, "sim.gen", parent_);
      return gen->Next();
    }();
    if (!program.ok()) return program.status();
    Routed out{std::move(program).value(), {}};
    {
      ScopedSpan span(rec_, "par.route", parent_);
      out.route = par::RouteProgram(out.program, o_.num_shards,
                                    o_.coordinator_shard, seq_++);
    }
    return out;
  }

 private:
  const par::ShardedOptions& o_;
  SpanRecorder* rec_;
  std::uint32_t parent_;
  std::vector<std::unique_ptr<sim::WorkloadGenerator>> local_;
  std::vector<std::uint32_t> populated_;
  sim::WorkloadGenerator global_;
  Rng route_rng_;
  std::uint64_t seq_ = 0;
};

// Standalone compile of what the engine will lower at admission, so the
// compiler's cost is visible beside Spawn's.
void CompileSpan(SpanRecorder* rec, std::uint32_t parent,
                 const txn::Program& program) {
  ScopedSpan span(rec, "txn.compile", parent);
  auto compiled = txn::CompiledProgram::Compile(program);
  if (compiled == nullptr) std::cerr << "perfbench: program not compilable\n";
}

struct ReplayResult {
  core::EngineMetrics metrics;
  bool serializable = true;
  double wall_s = 0.0;
};

// One shard, wired as RunSharded wires its shard engine by default:
// recorder, probe, lineage, lifecycle book and journal, each registered
// against a private registry.
Result<ReplayResult> ReplayOneShard(const par::ShardedOptions& o,
                                    SpanRecorder* rec) {
  const auto t0 = std::chrono::steady_clock::now();
  ReplayResult out;
  ScopedSpan root(rec, "replay");
  ProgramSource source(o, rec, root.id());

  storage::EntityStore store;
  analysis::HistoryRecorder recorder;
  obs::MetricsRegistry registry;
  const obs::LabelSet labels{{obs::kShardLabel, "0"}};
  obs::LineageTracker lineage;
  obs::TxnLifeBook txnlife;
  obs::DecisionJournal journal(obs::DecisionJournal::Options{65536});
  obs::EngineProbe probe;
  std::unique_ptr<core::Engine> engine;  // last: borrows everything above
  {
    ScopedSpan span(rec, "core.init", root.id());
    store.CreateMany(o.workload.num_entities, o.initial_value);
    core::EngineOptions eopt = o.engine;
    eopt.seed = par::DeriveShardSeed(o.seed, 0);
    engine = std::make_unique<core::Engine>(&store, eopt, &recorder);
    engine->ReserveTxns(o.total_txns);
    probe = obs::MakeEngineProbe(&registry, labels);
    engine->set_probe(&probe);
    lineage.AttachMetrics(&registry, labels);
    engine->set_lineage(&lineage);
    txnlife.AttachMetrics(&registry, labels);
    engine->set_txnlife(&txnlife);
    journal.AttachMetrics(&registry, labels);
    engine->set_journal(&journal);
  }

  std::uint64_t spawned = 0;
  std::uint64_t steps = 0;
  while (engine->metrics().commits < o.total_txns) {
    if (steps >= o.max_steps_per_shard) {
      return Status::Internal("replay ran out of steps");
    }
    while (spawned < o.total_txns &&
           spawned - engine->metrics().commits < o.concurrency) {
      auto next = source.Next();
      if (!next.ok()) return next.status();
      CompileSpan(rec, root.id(), next.value().program);
      ScopedSpan span(rec, "core.spawn", root.id());
      auto id = engine->Spawn(std::move(next.value().program));
      if (!id.ok()) return id.status();
      ++spawned;
    }
    Result<core::QuantumResult> q = [&] {
      ScopedSpan span(rec, "core.step", root.id());
      return engine->StepQuantum(o.max_steps_per_shard - steps,
                                 /*stop_after_commit=*/true);
    }();
    if (!q.ok()) return q.status();
    steps += q.value().steps;
    if (q.value().ran_dry || (q.value().steps == 0 && !q.value().committed)) {
      return Status::Internal("replay stalled");
    }
  }
  {
    ScopedSpan span(rec, "analysis.check", root.id());
    out.serializable = recorder.IsConflictSerializable();
  }
  {
    ScopedSpan span(rec, "analysis.global_check", root.id());
    analysis::GlobalHistory merged;
    for (const auto& c : recorder.CommittedLog()) {
      merged.Add(analysis::GlobalHistory::LocalKey(0, c.txn), c.events);
    }
    out.serializable = out.serializable && merged.IsConflictSerializable();
  }
  out.metrics = engine->metrics();
  out.wall_s = Since(t0);
  return out;
}

// Several shards: phase 1 plus the cross-shard split, no engines (the
// kLocks epochs are measured from the report instead).
Result<ReplayResult> ReplayRouting(const par::ShardedOptions& o,
                                   SpanRecorder* rec) {
  const auto t0 = std::chrono::steady_clock::now();
  ScopedSpan root(rec, "replay");
  ProgramSource source(o, rec, root.id());
  for (std::uint64_t t = 0; t < o.total_txns; ++t) {
    auto next = source.Next();
    if (!next.ok()) return next.status();
    if (!next.value().route.cross_shard) {
      CompileSpan(rec, root.id(), next.value().program);
      continue;
    }
    Result<std::vector<par::xshard::SubProgram>> subs = [&] {
      ScopedSpan span(rec, "xshard.split", root.id());
      return par::xshard::SplitProgram(next.value().program, o.num_shards);
    }();
    if (!subs.ok()) return subs.status();
    for (const auto& sub : subs.value()) {
      CompileSpan(rec, root.id(), sub.program);
    }
  }
  ReplayResult out;
  out.wall_s = Since(t0);
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer run (--trace 1).

int RunTraced(const Workload& w, std::uint64_t seed, double seconds,
              const std::string& trace_out, const BenchSpec& spec) {
  Checker checker;
  const auto t0 = std::chrono::steady_clock::now();
  {
    const par::ShardedOptions o = OptionsFor(w, seed, 0);
    checker.Check(o, Execute(o, 0));  // cold, untimed
  }

  // Reference pass: every batch once through RunSharded; the R and H
  // sources pool over it.
  std::vector<par::ShardedReport> reports;
  std::vector<double> walls;
  for (std::uint32_t b = 0; b < w.batches && checker.correct(); ++b) {
    const par::ShardedOptions o = OptionsFor(w, seed, b);
    Execution e = Execute(o, b);
    if (!checker.Check(o, e)) break;
    walls.push_back(e.wall_s);
    reports.push_back(std::move(*e.report));
  }
  if (!checker.correct()) return Emit(spec.per_layer, {}, checker);

  // Replay the first few batches untraced then traced; the 1-shard replay
  // must reproduce RunSharded's deterministic counts exactly.
  const std::uint32_t replays = std::min<std::uint32_t>(w.batches, 4);
  SpanRecorder spans(1 << 20);
  double untraced_s = 0.0, traced_s = 0.0;
  std::uint64_t replayed_txns = 0;
  for (std::uint32_t b = 0; b < replays; ++b) {
    const par::ShardedOptions o = OptionsFor(w, seed, b);
    auto replay = w.shards == 1 ? ReplayOneShard : ReplayRouting;
    Result<ReplayResult> plain = replay(o, nullptr);
    Result<ReplayResult> traced = replay(o, &spans);
    if (!plain.ok() || !traced.ok()) {
      checker.Problem("replay failed: " + (plain.ok() ? traced.status()
                                                      : plain.status())
                                              .ToString());
      break;
    }
    untraced_s += plain.value().wall_s;
    traced_s += traced.value().wall_s;
    replayed_txns += o.total_txns;
    if (w.shards != 1) continue;
    const core::EngineMetrics& want = reports[b].aggregate;
    const core::EngineMetrics& got = traced.value().metrics;
    const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>>
        fields[] = {{"commits", {want.commits, got.commits}},
                    {"steps", {want.steps, got.steps}},
                    {"deadlocks", {want.deadlocks, got.deadlocks}},
                    {"rollbacks", {want.rollbacks, got.rollbacks}},
                    {"wasted_ops", {want.wasted_ops, got.wasted_ops}}};
    for (const auto& [name, pair] : fields) {
      if (pair.first != pair.second) {
        checker.Problem("traced harness differs from RunSharded on batch " +
                        std::to_string(b) + ": " + name + " " +
                        std::to_string(pair.first) + " vs " +
                        std::to_string(pair.second) +
                        "; per-layer numbers rejected");
        break;
      }
    }
    if (!traced.value().serializable) checker.Problem("replay not serializable");
  }
  if (!trace_out.empty()) {
    std::ofstream(trace_out) << spans.ToCsv();
  }

  // Ablation ledger: the default against each observer or check toggled
  // off on the same batch, in rotating order, round by round over the
  // replayed batches until the run's time is spent (at least three
  // rounds). A tax is the median over rounds of the paired difference.
  struct Toggle {
    const char* metric;
    void (*off)(par::ShardedOptions&);
  };
  const Toggle toggles[] = {
      {nullptr, [](par::ShardedOptions&) {}},
      {"analysis.tax_ns_per_txn",
       [](par::ShardedOptions& o) { o.check_serializability = false; }},
      {"obs.metrics_tax_ns_per_txn",
       [](par::ShardedOptions& o) { o.instrument = false; }},
      {"obs.txnlife_tax_ns_per_txn",
       [](par::ShardedOptions& o) { o.txnlife = false; }},
      {"obs.journal_tax_ns_per_txn",
       [](par::ShardedOptions& o) { o.journal = false; }},
  };
  constexpr std::size_t kToggles = std::size(toggles);
  std::array<std::vector<double>, kToggles> tax;  // [0] unused
  std::size_t rounds = 0;
  for (; checker.correct() && (rounds < 3 || Since(t0) < seconds); ++rounds) {
    const std::uint32_t b = static_cast<std::uint32_t>(rounds % replays);
    std::array<double, kToggles> ns_per_txn{};
    for (std::size_t k = 0; k < kToggles && checker.correct(); ++k) {
      const std::size_t i = (k + rounds) % kToggles;
      par::ShardedOptions o = OptionsFor(w, seed, b);
      toggles[i].off(o);
      const Execution e = Execute(o, b);
      if (!checker.Check(o, e)) break;
      ns_per_txn[i] = e.wall_s * 1e9 / static_cast<double>(o.total_txns);
    }
    for (std::size_t i = 1; i < kToggles; ++i) {
      tax[i].push_back(ns_per_txn[0] - ns_per_txn[i]);
    }
  }

  Metrics m;
  for (std::size_t i = 1; i < kToggles; ++i) {
    m[toggles[i].metric] = NearestRank(tax[i], 50);
  }

  // Spans (S).
  auto per = [&spans](const char* name, double den) {
    return Ratio(static_cast<double>(spans.TotalsFor(name).self_ns), den);
  };
  const double txns = static_cast<double>(replayed_txns);
  std::uint64_t replay_steps = 0, replay_globals = 0;
  for (std::uint32_t b = 0; b < replays; ++b) {
    replay_steps += reports[b].aggregate.steps;
    replay_globals += reports[b].cross_shard_txns;
  }
  m["sim.gen_ns_per_txn"] = per("sim.gen", txns);
  m["par.route_ns_per_txn"] = per("par.route", txns);
  m["txn.compile_ns_per_program"] =
      per("txn.compile", static_cast<double>(spans.TotalsFor("txn.compile").count));
  m["xshard.split_ns_per_global"] =
      per("xshard.split", static_cast<double>(replay_globals));
  m["core.spawn_ns"] = per("core.spawn", txns);
  m["core.step_ns"] = per("core.step", static_cast<double>(replay_steps));
  m["analysis.check_s"] = per("analysis.check", 1e9 * replays);
  m["analysis.global_check_s"] = per("analysis.global_check", 1e9 * replays);
  m["trace.overhead_frac"] = Ratio(traced_s - untraced_s, untraced_s);
  m["trace.spans"] = static_cast<double>(spans.spans().size());

  // Report counters (R) and exported histograms (H), pooled over the pass.
  core::EngineMetrics a;
  par::SchedulerStats sched;
  par::xshard::XShardStats xs;
  std::uint64_t committed = 0, cross = 0, blocked = 0;
  std::uint64_t cache_hits = 0, programs = 0, bytes = 0, journal_records = 0;
  std::uint64_t journal_dropped = 0, txnlife_dropped = 0;
  std::uint64_t lock_requests = 0, lock_immediate = 0;
  std::int64_t max_queue = 0;
  std::array<std::uint64_t, obs::kNumRollbackCauses> wasted_by_cause{};
  std::vector<double> generate_s, execute_s, util, cost_p95;
  obs::HistogramSnapshot detection, lock_op, apply, prepare, resolve;
  for (const par::ShardedReport& r : reports) {
    const core::EngineMetrics& x = r.aggregate;
    a.steps += x.steps;
    a.commits += x.commits;
    a.lock_waits += x.lock_waits;
    a.deadlocks += x.deadlocks;
    a.cycles_found += x.cycles_found;
    a.rollbacks += x.rollbacks;
    a.partial_rollbacks += x.partial_rollbacks;
    a.wasted_ops += x.wasted_ops;
    a.ideal_wasted_ops += x.ideal_wasted_ops;
    a.max_entity_copies = std::max(a.max_entity_copies, x.max_entity_copies);
    committed += r.committed;
    cross += r.cross_shard_txns;
    blocked += r.admission.producer_blocked_pushes;
    sched.quanta += r.scheduler.quanta;
    xs.epochs += r.xshard.epochs;
    xs.merges += r.xshard.merges;
    xs.global_cycles += r.xshard.global_cycles;
    xs.global_txns += r.xshard.global_txns;
    xs.messages += r.xshard.messages;
    xs.distributed_rollbacks += r.xshard.distributed_rollbacks;
    cache_hits += Counter(r, obs::kProgramCacheHitsTotal);
    programs += Counter(r, obs::kProgramCompileTotal);
    bytes += Counter(r, obs::kCompiledBytesTotal);
    journal_records += Counter(r, obs::kJournalRecordsTotal);
    journal_dropped += Counter(r, obs::kJournalDroppedTotal);
    txnlife_dropped += Counter(r, obs::kTxnlifeDroppedTotal);
    lock_requests += Counter(r, obs::kLockRequestsTotal);
    lock_immediate += Counter(r, obs::kLockGrantsImmediateTotal);
    max_queue = std::max(max_queue, MaxGauge(r, obs::kLockMaxQueueDepth));
    for (std::size_t c = 0; c < obs::kNumRollbackCauses; ++c) {
      wasted_by_cause[c] += r.wasted_by_cause[c];
    }
    generate_s.push_back(r.admission.generate_seconds);
    execute_s.push_back(r.admission.execute_seconds);
    util.push_back(r.scheduler.mean_worker_utilization);
    cost_p95.push_back(static_cast<double>(r.rollback_costs.p95));
    MergeHist(&detection, Hist(r, obs::kDetectionNs));
    MergeHist(&lock_op, Hist(r, obs::kLockOpNs));
    MergeHist(&apply, Hist(r, obs::kRollbackApplyNs));
    MergeHist(&prepare, Hist(r, obs::kXShardPrepareNs));
    MergeHist(&resolve, Hist(r, obs::kXShardResolveNs));
  }
  const double ktxn = static_cast<double>(committed) / 1000.0;
  const double total_execute = [&] {
    double s = 0;
    for (double v : execute_s) s += v;
    return s;
  }();
  m["par.generate_s"] = NearestRank(generate_s, 50);
  m["par.execute_s"] = NearestRank(execute_s, 50);
  m["par.admission_blocked_pushes"] = static_cast<double>(blocked);
  m["par.cross_shard_frac"] = Ratio(cross, committed);
  m["par.quanta_per_ktxn"] = Ratio(sched.quanta, ktxn);
  m["par.worker_util_mean"] = NearestRank(util, 50);
  m["xshard.epoch_us"] = Ratio(total_execute * 1e6, xs.epochs);
  m["xshard.merge_yield"] = Ratio(xs.global_cycles, xs.merges);
  m["xshard.messages_per_global"] = Ratio(xs.messages, xs.global_txns);
  m["xshard.distributed_rollbacks"] = static_cast<double>(xs.distributed_rollbacks);
  m["xshard.prepare_ns_p50"] = HistogramPercentile(prepare, 50);
  m["xshard.resolve_ns_p50"] = HistogramPercentile(resolve, 50);
  m["txn.cache_hit_ratio"] = Ratio(cache_hits, cache_hits + programs);
  m["txn.compiled_bytes_per_txn"] = Ratio(bytes, committed);
  m["core.steps_per_txn"] = Ratio(a.steps, committed);
  m["core.lock_waits_per_txn"] = Ratio(a.lock_waits, committed);
  m["core.deadlocks_per_ktxn"] = Ratio(a.deadlocks, ktxn);
  m["core.cycles_per_deadlock"] = Ratio(a.cycles_found, a.deadlocks);
  m["core.detection_ns_p50"] = HistogramPercentile(detection, 50);
  m["core.detection_ns_p99"] = HistogramPercentile(detection, 99);
  m["lock.op_ns_p50"] = HistogramPercentile(lock_op, 50);
  m["lock.immediate_grant_ratio"] = Ratio(lock_immediate, lock_requests);
  m["lock.max_queue_depth"] = static_cast<double>(max_queue);
  m["rollback.apply_ns_p50"] = HistogramPercentile(apply, 50);
  m["rollback.apply_ns_p99"] = HistogramPercentile(apply, 99);
  m["rollback.per_txn"] = Ratio(a.rollbacks, committed);
  m["rollback.partial_frac"] = Ratio(a.partial_rollbacks, a.rollbacks);
  m["rollback.cost_p95"] = NearestRank(cost_p95, 50);
  m["rollback.coarsening_ratio"] = Ratio(a.wasted_ops, a.ideal_wasted_ops);
  m["rollback.max_entity_copies"] = static_cast<double>(a.max_entity_copies);
  for (std::size_t c = 0; c < obs::kNumRollbackCauses; ++c) {
    m[CauseMetric(c)] = static_cast<double>(wasted_by_cause[c]);
  }
  m["obs.journal_records_per_txn"] = Ratio(journal_records, committed);
  m["obs.journal_dropped"] = static_cast<double>(journal_dropped);
  m["obs.txnlife_dropped"] = static_cast<double>(txnlife_dropped);

  std::cout << "perfbench " << w.name << " seed=" << seed << " traced: "
            << reports.size() << " reference batches, " << replays
            << " replayed (" << spans.spans().size() << " spans"
            << (trace_out.empty() ? "" : ", written to " + trace_out) << "), "
            << rounds << " ablation rounds; RunSharded "
            << JsonNumber(NearestRank(walls, 50)) << " s/batch, untraced replay "
            << JsonNumber(untraced_s / replays) << " s/batch, traced replay "
            << JsonNumber(traced_s / replays) << " s/batch\n";
  return Emit(spec.per_layer, m, checker);
}

// ---------------------------------------------------------------------------

std::optional<std::vector<double>> ParseSamples(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (item.empty() || *end != '\0' || !(v > 0)) return std::nullopt;
    out.push_back(v);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --spec FILE [--setup-samples S1,S2,...] "
               "[--trace-out FILE]\n"
               "       perfbench --workload NAME --seed N --setup-only\n"
               "       perfbench --write-spec FILE\n";
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("unexpected argument " + key);
    if (key == "--setup-only") {
      flags[key] = "1";
    } else if (i + 1 < argc) {
      flags[key] = argv[++i];
    } else {
      return Usage(key + " needs a value");
    }
  }
  const BenchSpec spec = BuildSpec();
  if (const std::string bad = ValidateSpec(spec); !bad.empty()) {
    std::cerr << "perfbench: metric table invalid: " << bad << "\n";
    return 2;
  }
  if (auto it = flags.find("--write-spec"); it != flags.end()) {
    std::ofstream out(it->second);
    out << SpecToJson(spec);
    return out.good() ? 0 : 1;
  }

  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (flags["--workload"] == cand.name) w = &cand;
  }
  if (w == nullptr) return Usage("unknown --workload '" + flags["--workload"] + "'");
  char* end = nullptr;
  const std::string seed_text = flags["--seed"];
  const std::uint64_t seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (seed_text.empty() || *end != '\0') return Usage("bad --seed");

  if (flags.count("--setup-only") != 0) {
    const par::ShardedOptions o = OptionsFor(*w, seed, 0);
    Checker checker;
    if (!checker.Check(o, Execute(o, 0))) return 1;
    std::cout << "setup-done" << std::endl;
    return 0;
  }

  const double seconds = std::strtod(flags["--seconds"].c_str(), &end);
  if (!(seconds > 0) || *end != '\0') return Usage("bad --seconds");
  const std::string trace = flags["--trace"];
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");

  // The checked-in BENCHMARK.json must be what this binary measures.
  std::ifstream in(flags["--spec"]);
  if (!in) return Usage("cannot read --spec '" + flags["--spec"] + "'");
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const std::optional<BenchSpec> checked_in = SpecFromJson(text.str(), &error);
  if (!checked_in) {
    std::cerr << "perfbench: " << flags["--spec"] << ": " << error << "\n";
    return 2;
  }
  if (!(*checked_in == spec)) {
    std::cerr << "perfbench: " << flags["--spec"]
              << " differs from the metric table; regenerate it with "
                 "--write-spec\n";
    return 2;
  }

  if (trace == "1") {
    return RunTraced(*w, seed, seconds, flags["--trace-out"], spec);
  }
  const std::optional<std::vector<double>> samples =
      ParseSamples(flags["--setup-samples"]);
  if (!samples) return Usage("--trace 0 needs --setup-samples");
  return RunEndToEnd(*w, seed, seconds, *samples, spec);
}

}  // namespace
}  // namespace pardb::perfbench

int main(int argc, char** argv) { return pardb::perfbench::Main(argc, argv); }
