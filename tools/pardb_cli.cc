// pardb — command-line front end for the closed-loop driver and the
// paper's scenarios.
//
// Every workload subcommand builds its options with one builder and runs
// them through par::RunSharded: `sim` is one shard whose programs all come
// from one generator (--shards=1 --cross=0), `parallel` is the same run
// with --shards=4 --cross=0.05 as defaults.
//
// Modes:
//   pardb sim [flags]          run a closed-loop workload, print the report
//   pardb parallel [flags]     the same run sharded over N engines
//                              (--shards=N --threads=N --cross=F)
//   pardb observe [flags]      run the workload fully instrumented and
//                              print the merged metrics as Prometheus text
//   pardb compare [flags]      same workload under every rollback strategy
//   pardb figure1|figure2|figure3a|figure3b|figure3c
//                              replay a paper scenario with commentary
//   pardb dot [flags]          run the workload as `sim` does and print
//                              its first deadlock (cycle, costs, victims)
//                              as Graphviz DOT; exit 1 if none occurred
//   pardb serve [flags]        replay the workload in a loop while the
//                              introspection server runs (--port=N
//                              --duration=SECS, plus the run flags)
//   pardb journal [flags]      record a run's decision journal to
//                              PREFIX.shard<k>.jrnl (--out=PREFIX plus the
//                              run flags), or summarize journal files given
//                              as positional arguments
//   pardb diff-runs A B        first-divergence report between two recorded
//                              runs; A and B are journal files or --out
//                              prefixes. Exit 0 identical, 4 diverged.
//   pardb run P1 P2 ...        run program files concurrently (--initial=V
//                              --strategy --policy --handling, --trace to
//                              print every protocol event as it happens;
//                              each rollback line names its cause)
//
// Every subcommand rejects a flag it does not read (a typo or a removed
// flag), and a numeric flag out of its range, with exit 2 before it runs
// anything. A run exits 0 when complete, 3 when its step budget ran out
// first, 1 on failure.
//
// Run flags (sim/parallel/observe/compare/serve/journal/dot):
//   --strategy=mcs|sdg|total         rollback state strategy [mcs]
//   --policy=min-cost|min-cost-ordered|youngest|oldest|requester
//                                    victim policy [min-cost-ordered]
//   --handling=detection|wound-wait|wait-die|timeout   [detection]
//                                    (more than one shard: detection only)
//   --txns=N (>= 0) --concurrency=N (>= 1) --entities=N (>= 1)
//   --seed=N (>= 0)
//   --locks=MIN:MAX (1 <= MIN <= MAX) --shared=F (in [0,1])
//   --zipf=T (in [0,1))
//   --pattern=scattered|clustered|three-phase
//   --shards=N (1..1024)             engines [sim 1, parallel 4]
//   --cross=F (in [0,1])             share of transactions drawn across
//                                    shard boundaries [sim 0, parallel 0.05]
//   --threads=N (0..1024)            fork-join workers, the calling thread
//                                    included; 0 = one per shard [0]
//   --coordinator=K                  shard cross-shard txns are counted on
//   --hot-routing                    route local txns to Zipf-hot shards
//   --log-level=debug|info|warning|error|off   (any subcommand; applied
//                                    before anything is constructed)
//
// Decision journal (DESIGN D14):
//   --journal-out=PREFIX             record journals to PREFIX.shard<k>.jrnl
//                                    (several shards add PREFIX.coord.jrnl)
//   --no-journal                     disable journaling (overhead runs)
//   --journal-epoch-steps=N          checksum stamp cadence in engine steps
//                                    (rounded up to a power of two) [1024]
//   --flip-victim=N                  test hook: flip the victim choice at
//                                    the Nth deadlock (0 = off)
//   --perturb-epoch=N                test hook: perturb epoch N's state
//                                    digest (-1 = off)
//
// Report and observability flags (sim/parallel/observe/journal):
//   --json=FILE                      write the machine-readable report
//   --metrics-json=FILE              write the metrics registry as JSON
//   --metrics-prom=FILE              write Prometheus text exposition
//   --trace-out=FILE                 write a Chrome trace_event JSON
//                                    (load in Perfetto / about://tracing;
//                                    rollback instants carry a cause arg)
//   --trace-jsonl=FILE               write the protocol event stream as
//                                    JSONL (rollback lines carry "cause")
//   --forensics=PREFIX               write each deadlock's waits-for cycle
//                                    as Graphviz DOT to PREFIX<n>.dot
//
// Live introspection (sim/parallel/observe/journal):
//   --serve=PORT                     start an HTTP server on 127.0.0.1:PORT
//                                    (0 = ephemeral, port printed) serving
//                                    /metrics /healthz /debug/waits-for
//                                    (?stream=sse to subscribe)
//                                    /debug/deadlocks /debug/txn?id=N
//                                    /debug/slowest?k=K while the run is
//                                    in flight
//   --serve-linger=SECS              keep serving this long after the run
//                                    finishes (default 0)
//
// Examples:
//   pardb sim --txns=500 --concurrency=16 --zipf=0.8
//   pardb parallel --shards=8 --threads=4 --cross=0.1 --json=out.json
//   pardb compare --txns=300 --concurrency=12
//   pardb figure1

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include "common/flags.h"
#include "common/logging.h"
#include "core/engine.h"
#include "obs/forensics.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/serve/http_server.h"
#include "obs/serve/hub.h"
#include "obs/serve/introspection.h"
#include "obs/trace_export.h"
#include "par/report_json.h"
#include "par/sharded_driver.h"
#include "sim/scenario.h"
#include "txn/program_io.h"

using namespace pardb;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pardb <sim|parallel|observe|compare|figure1|figure2|"
               "figure3a|figure3b|figure3c|dot|serve|journal|diff-runs> "
               "[--flags]\n"
               "see the header of tools/pardb_cli.cc for the flag list\n");
  return 2;
}

// Called once a subcommand has read every flag it understands: anything
// left is a typo or a removed flag. Prints each and returns false, so the
// caller exits 2 before any work runs.
bool AllFlagsRead(const Flags& flags, const std::string& command) {
  const std::vector<std::string> unused = flags.UnusedFlags();
  for (const std::string& name : unused) {
    std::fprintf(stderr, "unknown flag --%s for pardb %s\n", name.c_str(),
                 command.c_str());
  }
  return unused.empty();
}

// --serve / --serve-linger, shared by sim and parallel.
struct ServeConfig {
  bool enabled = false;
  int port = 0;          // 0 = ephemeral
  double linger = 0.0;   // seconds to keep serving after the run
};

Result<ServeConfig> GetServeConfig(const Flags& flags) {
  ServeConfig c;
  if (!flags.Has("serve")) return c;
  PARDB_ASSIGN_OR_RETURN(auto port, flags.GetInt("serve", 0));
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("--serve expects a port in [0,65535]");
  }
  c.enabled = true;
  c.port = static_cast<int>(port);
  PARDB_ASSIGN_OR_RETURN(c.linger, flags.GetDouble("serve-linger", 0.0));
  if (!(c.linger >= 0.0 && c.linger <= 1e9)) {
    return Status::InvalidArgument("--serve-linger expects seconds >= 0");
  }
  return c;
}

// /healthz run metadata: build id, seed, shard count, scheduler, mode.
obs::RunInfo MakeRunInfo(std::uint64_t seed, std::uint32_t shards,
                         const std::string& mode) {
  obs::RunInfo info;
  info.build_id = std::string("pardb ") + __DATE__;
  info.seed = seed;
  info.shards = shards;
  info.scheduler = "epochs";
  info.mode = mode;
  return info;
}

// Builds the introspection server over `hub` and starts it. Prints the
// bound endpoint so scripts scraping an ephemeral port can find it.
Result<std::unique_ptr<obs::HttpServer>> StartIntrospectionServer(
    obs::LiveHub* hub, int port) {
  auto server = std::make_unique<obs::HttpServer>();
  obs::InstallIntrospectionRoutes(server.get(), hub);
  PARDB_RETURN_IF_ERROR(server->Start(static_cast<std::uint16_t>(port)));
  std::printf("serving http://127.0.0.1:%u  "
              "(/metrics /healthz /debug/waits-for /debug/deadlocks "
              "/debug/txn /debug/slowest /debug/journal)\n",
              server->port());
  std::fflush(stdout);
  return server;
}

void LingerThenStop(obs::HttpServer* server, double seconds) {
  if (server == nullptr) return;
  if (seconds > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<std::int64_t>(seconds * 1000)));
  }
  server->Stop();
  std::printf("introspection server stopped after %llu request(s)\n",
              (unsigned long long)server->requests_served());
}

// Destinations requested by the shared observability flags. Reading them
// even in subcommands that ignore them keeps UnusedFlags() quiet and the
// interface uniform.
struct ObsOutputs {
  std::string metrics_json;
  std::string metrics_prom;
  std::string trace_out;    // Chrome trace_event JSON
  std::string trace_jsonl;  // raw event stream
  std::string forensics;    // DOT file prefix

  bool WantMetrics() const {
    return !metrics_json.empty() || !metrics_prom.empty();
  }
  bool WantTrace() const {
    return !trace_out.empty() || !trace_jsonl.empty();
  }
  bool WantForensics() const { return !forensics.empty(); }
};

ObsOutputs GetObsOutputs(const Flags& flags) {
  ObsOutputs o;
  o.metrics_json = flags.GetString("metrics-json", "");
  o.metrics_prom = flags.GetString("metrics-prom", "");
  o.trace_out = flags.GetString("trace-out", "");
  o.trace_jsonl = flags.GetString("trace-jsonl", "");
  o.forensics = flags.GetString("forensics", "");
  return o;
}

bool WriteFileOrComplain(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << body;
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// The --metrics-json document: the merged registry plus the per-shard view
// (identical for single-engine commands). tools/metrics_schema.json pins
// this shape for the CI smoke job.
std::string MetricsJsonDoc(const std::string& command,
                           const obs::RegistrySnapshot& per_shard,
                           const obs::RegistrySnapshot& merged) {
  std::ostringstream os;
  os << "{\"command\":\"" << command << "\",\n\"merged\":" << merged.ToJson()
     << ",\n\"per_shard\":" << per_shard.ToJson() << "\n}\n";
  return os.str();
}

// Writes every requested metrics/forensics artifact; returns 0 or 1.
int WriteObsArtifacts(const ObsOutputs& outs, const std::string& command,
                      const obs::RegistrySnapshot& per_shard,
                      const obs::RegistrySnapshot& merged,
                      const std::vector<obs::DeadlockDump>& dumps) {
  int rc = 0;
  if (!outs.metrics_json.empty() &&
      !WriteFileOrComplain(outs.metrics_json,
                           MetricsJsonDoc(command, per_shard, merged))) {
    rc = 1;
  }
  if (!outs.metrics_prom.empty() &&
      !WriteFileOrComplain(outs.metrics_prom, merged.ToPrometheus())) {
    rc = 1;
  }
  if (outs.WantForensics()) {
    std::size_t i = 0;
    for (const obs::DeadlockDump& d : dumps) {
      if (!WriteFileOrComplain(outs.forensics + std::to_string(i) + ".dot",
                               obs::DeadlockDumpToDot(d))) {
        rc = 1;
        break;
      }
      ++i;
    }
    std::printf("forensics: %zu deadlock dump(s)\n", dumps.size());
  }
  return rc;
}

int WriteTraceArtifacts(const ObsOutputs& outs,
                        const std::vector<obs::ShardTrace>& shards,
                        const std::vector<obs::GlobalSlice>& flows = {}) {
  int rc = 0;
  if (!outs.trace_out.empty()) {
    if (obs::WriteChromeTraceFile(outs.trace_out, shards, flows)) {
      std::printf("wrote %s\n", outs.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", outs.trace_out.c_str());
      rc = 1;
    }
  }
  if (!outs.trace_jsonl.empty()) {
    std::string body;
    for (const obs::ShardTrace& s : shards) body += obs::TraceJsonl(s.events);
    if (!WriteFileOrComplain(outs.trace_jsonl, body)) rc = 1;
  }
  return rc;
}

Result<rollback::StrategyKind> ParseStrategy(const std::string& s) {
  if (s == "mcs") return rollback::StrategyKind::kMcs;
  if (s == "sdg") return rollback::StrategyKind::kSdg;
  if (s == "total" || s == "total-restart") {
    return rollback::StrategyKind::kTotalRestart;
  }
  return Status::InvalidArgument("unknown --strategy " + s);
}

Result<core::VictimPolicyKind> ParsePolicy(const std::string& s) {
  if (s == "min-cost") return core::VictimPolicyKind::kMinCost;
  if (s == "min-cost-ordered") return core::VictimPolicyKind::kMinCostOrdered;
  if (s == "youngest") return core::VictimPolicyKind::kYoungest;
  if (s == "oldest") return core::VictimPolicyKind::kOldest;
  if (s == "requester") return core::VictimPolicyKind::kRequester;
  return Status::InvalidArgument("unknown --policy " + s);
}

Result<core::DeadlockHandling> ParseHandling(const std::string& s) {
  if (s == "detection") return core::DeadlockHandling::kDetection;
  if (s == "wound-wait") return core::DeadlockHandling::kWoundWait;
  if (s == "wait-die") return core::DeadlockHandling::kWaitDie;
  if (s == "timeout") return core::DeadlockHandling::kTimeout;
  return Status::InvalidArgument("unknown --handling " + s);
}

Result<sim::WritePattern> ParsePattern(const std::string& s) {
  if (s == "scattered") return sim::WritePattern::kScattered;
  if (s == "clustered") return sim::WritePattern::kClustered;
  if (s == "three-phase") return sim::WritePattern::kThreePhase;
  return Status::InvalidArgument("unknown --pattern " + s);
}

// Defaults that tell the workload subcommands apart. `sim` — and every
// subcommand that stands for one engine (observe, compare, serve, journal,
// dot) — runs one shard whose programs all come from one generator over
// the whole entity universe; `parallel` runs four shards with 5% of the
// transactions drawn across shard boundaries.
struct Topology {
  std::int64_t shards;
  double cross;
};
constexpr Topology kOneShard{1, 0.0};
constexpr Topology kFourShards{4, 0.05};

// Shard counts beyond this are refused (diff-runs resolves at most this
// many shard journals per recording).
constexpr std::int64_t kMaxShards = 1024;
constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

// An integer flag that must lie in [lo, hi].
Result<std::int64_t> GetIntIn(const Flags& flags, const std::string& name,
                              std::int64_t fallback, std::int64_t lo,
                              std::int64_t hi) {
  PARDB_ASSIGN_OR_RETURN(auto v, flags.GetInt(name, fallback));
  if (v < lo || v > hi) {
    std::ostringstream os;
    os << "--" << name << " must be ";
    if (hi == kMaxInt) {
      os << ">= " << lo;
    } else {
      os << "in [" << lo << ", " << hi << "]";
    }
    os << ", got " << v;
    return Status::InvalidArgument(os.str());
  }
  return v;
}

// A numeric flag that must lie in [lo, hi] (or [lo, hi) when
// `hi_open`); NaN never does.
Result<double> GetDoubleIn(const Flags& flags, const std::string& name,
                           double fallback, double lo, double hi,
                           bool hi_open = false) {
  PARDB_ASSIGN_OR_RETURN(auto v, flags.GetDouble(name, fallback));
  if (!(v >= lo && (hi_open ? v < hi : v <= hi))) {
    std::ostringstream os;
    os << "--" << name << " must be in [" << lo << ", " << hi
       << (hi_open ? ")" : "]") << ", got " << flags.GetString(name, "");
    return Status::InvalidArgument(os.str());
  }
  return v;
}

// --locks=MIN:MAX, both integers with 1 <= MIN <= MAX.
Status ParseLocks(const std::string& locks, sim::WorkloadOptions& workload) {
  const auto colon = locks.find(':');
  auto parse = [](const std::string& s, std::int64_t* out) {
    char* end = nullptr;
    *out = std::strtoll(s.c_str(), &end, 10);
    return !s.empty() && end != nullptr && *end == '\0';
  };
  std::int64_t lo = 0, hi = 0;
  if (colon == std::string::npos || !parse(locks.substr(0, colon), &lo) ||
      !parse(locks.substr(colon + 1), &hi) || lo < 1 || hi < lo ||
      hi > kMaxU32) {
    return Status::InvalidArgument(
        "--locks expects MIN:MAX with integers 1 <= MIN <= MAX, got \"" +
        locks + "\"");
  }
  workload.min_locks = static_cast<std::uint32_t>(lo);
  workload.max_locks = static_cast<std::uint32_t>(hi);
  return Status::OK();
}

// The one option builder behind every workload subcommand: engine,
// workload, topology and journal flags, each range-checked so that a bad
// value exits 2 before any work starts.
Result<par::ShardedOptions> BuildRunOptions(const Flags& flags,
                                            Topology defaults) {
  par::ShardedOptions opt;
  PARDB_ASSIGN_OR_RETURN(opt.engine.strategy,
                         ParseStrategy(flags.GetString("strategy", "mcs")));
  PARDB_ASSIGN_OR_RETURN(
      opt.engine.victim_policy,
      ParsePolicy(flags.GetString("policy", "min-cost-ordered")));
  PARDB_ASSIGN_OR_RETURN(
      opt.engine.handling,
      ParseHandling(flags.GetString("handling", "detection")));
  opt.engine.scheduler = core::SchedulerKind::kRandom;

  PARDB_ASSIGN_OR_RETURN(auto txns, GetIntIn(flags, "txns", 200, 0, kMaxInt));
  opt.total_txns = static_cast<std::uint64_t>(txns);
  PARDB_ASSIGN_OR_RETURN(auto conc,
                         GetIntIn(flags, "concurrency", 8, 1, kMaxU32));
  opt.concurrency = static_cast<std::uint32_t>(conc);
  PARDB_ASSIGN_OR_RETURN(auto entities,
                         GetIntIn(flags, "entities", 32, 1, kMaxInt));
  opt.workload.num_entities = static_cast<std::uint64_t>(entities);
  PARDB_ASSIGN_OR_RETURN(auto seed, GetIntIn(flags, "seed", 1, 0, kMaxInt));
  opt.seed = static_cast<std::uint64_t>(seed);
  PARDB_ASSIGN_OR_RETURN(opt.workload.zipf_theta,
                         GetDoubleIn(flags, "zipf", 0.0, 0.0, 1.0,
                                     /*hi_open=*/true));
  PARDB_ASSIGN_OR_RETURN(opt.workload.shared_fraction,
                         GetDoubleIn(flags, "shared", 0.0, 0.0, 1.0));
  PARDB_ASSIGN_OR_RETURN(
      opt.workload.pattern,
      ParsePattern(flags.GetString("pattern", "scattered")));
  PARDB_RETURN_IF_ERROR(
      ParseLocks(flags.GetString("locks", "3:6"), opt.workload));

  // Topology: shards, fork-join workers (0 = one per shard) and the share
  // of transactions drawn across shard boundaries.
  PARDB_ASSIGN_OR_RETURN(
      auto shards, GetIntIn(flags, "shards", defaults.shards, 1, kMaxShards));
  opt.num_shards = static_cast<std::uint32_t>(shards);
  if (shards > 1 && opt.engine.handling != core::DeadlockHandling::kDetection) {
    return Status::InvalidArgument(
        "--shards above 1 requires --handling=detection");
  }
  PARDB_ASSIGN_OR_RETURN(auto threads,
                         GetIntIn(flags, "threads", 0, 0, kMaxShards));
  opt.num_threads = static_cast<std::size_t>(threads);
  PARDB_ASSIGN_OR_RETURN(opt.cross_shard_fraction,
                         GetDoubleIn(flags, "cross", defaults.cross, 0.0, 1.0));
  PARDB_ASSIGN_OR_RETURN(auto coord,
                         GetIntIn(flags, "coordinator", 0, 0, shards - 1));
  opt.coordinator_shard = static_cast<std::uint32_t>(coord);
  opt.hot_shard_routing = flags.GetBool("hot-routing", false);

  // Decision journal (DESIGN D14) and its test hooks.
  opt.journal = !flags.GetBool("no-journal", false);
  opt.journal_out = flags.GetString("journal-out", "");
  PARDB_ASSIGN_OR_RETURN(
      auto jsteps, GetIntIn(flags, "journal-epoch-steps", 1024, 0, kMaxInt));
  opt.engine.journal_epoch_steps = static_cast<std::uint64_t>(jsteps);
  PARDB_ASSIGN_OR_RETURN(auto flip,
                         GetIntIn(flags, "flip-victim", 0, 0, kMaxInt));
  opt.engine.debug_flip_victim_deadlock = static_cast<std::uint64_t>(flip);
  PARDB_ASSIGN_OR_RETURN(auto perturb,
                         GetIntIn(flags, "perturb-epoch", -1, -1, kMaxInt));
  opt.journal_perturb_epoch =
      perturb < 0 ? ~0ULL : static_cast<std::uint64_t>(perturb);
  return opt;
}

void PrintRollbackMix(const core::EngineMetrics& m,
                      std::uint64_t max_preemptions) {
  std::printf("  rollback mix: %llu partial / %llu total; preemptions=%llu "
              "(max %llu on one txn) wounds=%llu deaths=%llu "
              "timeouts=%llu\n",
              (unsigned long long)m.partial_rollbacks,
              (unsigned long long)m.total_rollbacks,
              (unsigned long long)m.Preemptions(),
              (unsigned long long)max_preemptions,
              (unsigned long long)m.RollbacksOf(obs::RollbackCause::kWoundWait),
              (unsigned long long)m.RollbacksOf(obs::RollbackCause::kWaitDie),
              (unsigned long long)m.RollbacksOf(obs::RollbackCause::kTimeout));
  std::printf("  space peaks: %zu entity copies, %zu var copies (one txn)\n",
              m.max_entity_copies, m.max_var_copies);
}

void PrintRunReport(const par::ShardedOptions& opt,
                    const par::ShardedReport& report) {
  std::printf("%s\n", report.ToString().c_str());
  PrintRollbackMix(report.aggregate, report.max_preemptions_single_txn);
  std::printf("scheduler: workers=%zu quanta=%llu steals=%llu "
              "util(mean=%.2f min=%.2f) virtual_makespan=%llu\n",
              report.scheduler.num_workers,
              (unsigned long long)report.scheduler.quanta,
              (unsigned long long)report.scheduler.steals,
              report.scheduler.mean_worker_utilization,
              report.scheduler.min_worker_utilization,
              (unsigned long long)report.scheduler.virtual_makespan_steps);
  std::printf("admission: peak_materialized=%llu generate_s=%.3f "
              "execute_s=%.3f\n",
              (unsigned long long)report.admission.peak_materialized_programs,
              report.admission.generate_seconds,
              report.admission.execute_seconds);
  if (opt.num_shards > 1) {
    const par::xshard::XShardStats& x = report.xshard;
    std::printf("xshard: mode=locks epochs=%llu globals=%llu subs=%llu "
                "merges=%llu global_cycles=%llu distributed_rollbacks=%llu "
                "omega_exclusions=%llu prepares=%llu resolves=%llu "
                "messages=%llu global_serializable=%s\n",
                (unsigned long long)x.epochs,
                (unsigned long long)x.global_txns,
                (unsigned long long)x.sub_txns,
                (unsigned long long)x.merges,
                (unsigned long long)x.global_cycles,
                (unsigned long long)x.distributed_rollbacks,
                (unsigned long long)x.omega_exclusions,
                (unsigned long long)x.prepares,
                (unsigned long long)x.resolves,
                (unsigned long long)x.messages,
                report.global_serializable ? "yes" : "NO");
  }
  for (const par::ShardResult& s : report.shards) {
    std::printf("  shard %u%s: assigned=%llu committed=%llu deadlocks=%llu "
                "rollbacks=%llu wasted=%llu serializable=%s\n",
                s.shard,
                opt.num_shards > 1 && s.shard == opt.coordinator_shard
                    ? " (coord)"
                    : "",
                (unsigned long long)s.assigned,
                (unsigned long long)s.committed,
                (unsigned long long)s.metrics.deadlocks,
                (unsigned long long)s.metrics.rollbacks,
                (unsigned long long)s.metrics.wasted_ops,
                s.serializable ? "yes" : "NO");
  }
  if (!opt.journal_out.empty()) {
    for (const par::ShardResult& s : report.shards) {
      std::printf("wrote %s.shard%u.jrnl (%llu records, %zu epochs)\n",
                  opt.journal_out.c_str(), s.shard,
                  (unsigned long long)s.journal_records,
                  s.journal_chain.size());
    }
    if (opt.num_shards > 1) {
      std::printf("wrote %s.coord.jrnl\n", opt.journal_out.c_str());
    }
  }
}

// The one runner behind `sim`, `parallel`, `observe` and `journal`: builds
// the options, runs par::RunSharded, prints the report and writes every
// requested artifact. `observe` instruments every layer and prints the
// merged metrics as Prometheus text (the report goes to stderr); `journal`
// records to its --out prefix. Extra flags: --json=FILE (the
// machine-readable report), the observability flags and --serve.
int RunWorkload(const Flags& flags, const std::string& command,
                Topology defaults) {
  const bool observe = command == "observe";
  auto built = BuildRunOptions(flags, defaults);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 2;
  }
  par::ShardedOptions& opt = built.value();
  if (command == "journal") {
    opt.journal = true;
    opt.journal_out = flags.GetString("out", "");
    if (opt.journal_out.empty()) {
      std::fprintf(stderr,
                   "journal: need --out=PREFIX to record, or journal files "
                   "to summarize\n");
      return 2;
    }
  }
  const ObsOutputs outs = GetObsOutputs(flags);
  auto serve = GetServeConfig(flags);
  if (!serve.ok()) {
    std::fprintf(stderr, "%s\n", serve.status().ToString().c_str());
    return 2;
  }
  const std::string json_path = flags.GetString("json", "");
  if (!AllFlagsRead(flags, command)) return 2;
  opt.instrument = observe || outs.WantMetrics();
  opt.collect_traces = observe || outs.WantTrace();
  opt.collect_forensics = observe || outs.WantForensics();
  obs::LiveHub hub;
  std::unique_ptr<obs::HttpServer> server;
  if (serve->enabled) {
    opt.hub = &hub;
    opt.instrument = true;  // live /metrics needs the per-shard registries
    hub.SetRunInfo(MakeRunInfo(opt.seed, opt.num_shards, command));
    auto started = StartIntrospectionServer(&hub, serve->port);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
      return 1;
    }
    server = std::move(started).value();
  }

  auto report = par::RunSharded(opt);
  if (!report.ok()) {
    std::fprintf(stderr, "%s run failed: %s\n", command.c_str(),
                 report.status().ToString().c_str());
    return 1;
  }
  if (observe) {
    std::printf("%s", report->merged_metrics.ToPrometheus().c_str());
    std::fprintf(stderr, "# %s\n", report->ToString().c_str());
  } else {
    PrintRunReport(opt, report.value());
  }
  LingerThenStop(server.get(), serve->linger);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << par::ShardedReportToJson(report.value()) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  int rc = report->completed ? 0 : 3;
  if (opt.instrument || opt.collect_forensics) {
    if (WriteObsArtifacts(outs, command, report->metrics,
                          report->merged_metrics, report->forensics) != 0) {
      rc = 1;
    }
  }
  if (opt.collect_traces) {
    std::vector<obs::ShardTrace> traces;
    for (std::size_t s = 0; s < report->shard_traces.size(); ++s) {
      obs::ShardTrace t;
      t.pid = s;
      t.name = "shard " + std::to_string(s);
      t.events = std::move(report->shard_traces[s]);
      traces.push_back(std::move(t));
    }
    if (WriteTraceArtifacts(outs, traces, report->flow_slices) != 0) rc = 1;
  }
  return rc;
}

// `pardb compare` — the same workload under every rollback strategy.
int RunCompare(const Flags& flags) {
  auto base = BuildRunOptions(flags, kOneShard);
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 2;
  }
  if (!AllFlagsRead(flags, "compare")) return 2;
  base->instrument = false;
  for (auto strategy :
       {rollback::StrategyKind::kTotalRestart, rollback::StrategyKind::kSdg,
        rollback::StrategyKind::kMcs}) {
    par::ShardedOptions opt = base.value();
    opt.engine.strategy = strategy;
    auto report = par::RunSharded(opt);
    if (!report.ok()) {
      std::fprintf(stderr, "compare run failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("%-14s %s\n",
                std::string(rollback::StrategyKindName(strategy)).c_str(),
                report->ToString().c_str());
    PrintRollbackMix(report->aggregate, report->max_preemptions_single_txn);
  }
  return 0;
}

int RunFigure(const std::string& mode) {
  core::EngineOptions opt;
  opt.victim_policy = core::VictimPolicyKind::kMinCost;
  if (mode == "figure1") {
    auto fig = sim::BuildFigure1(opt);
    if (!fig.ok()) return 1;
    (void)fig->TriggerDeadlock();
    const obs::DeadlockDump& dump = fig->runner->deadlocks().dumps().at(0);
    std::printf("Figure 1: deadlock of %zu transactions; costs:",
                dump.arcs.size());
    for (const obs::DeadlockParticipant& p : dump.participants) {
      std::printf(" T%llu=%llu", (unsigned long long)p.txn.value() + 1,
                  (unsigned long long)p.cost);
    }
    std::printf("; victim T%llu (paper: T2, costs 4/6/5)\n",
                (unsigned long long)dump.victims[0].value() + 1);
    return 0;
  }
  if (mode == "figure2") {
    auto out = sim::RunFigure2MutualPreemption(opt, 5);
    if (!out.ok()) return 1;
    std::printf("Figure 2: min-cost sustained the mutual-preemption loop "
                "for %d rounds (it never ends); victims alternate T2/T3\n",
                out->recurrences);
    return 0;
  }
  if (mode == "figure3a") {
    auto fig = sim::BuildFigure3a(opt);
    if (!fig.ok()) return 1;
    const obs::WaitsForSnapshot snap = fig->runner->engine().SnapshotWaitsFor();
    std::printf("Figure 3(a): acyclic=%s forest=%s\n",
                snap.acyclic ? "yes" : "no", snap.forest ? "yes" : "no");
    return 0;
  }
  if (mode == "figure3b" || mode == "figure3c") {
    auto Report = [](auto fig) {
      if (!fig.ok()) return 1;
      (void)fig->TriggerDeadlock();
      const obs::DeadlockDump& dump = fig->runner->deadlocks().dumps().at(0);
      std::printf("%zu cycles; victims:", dump.num_cycles);
      for (TxnId v : dump.victims) {
        std::printf(" T%llu", (unsigned long long)v.value() + 1);
      }
      std::printf(" (cost %llu)\n", (unsigned long long)obs::VictimCost(dump));
      return 0;
    };
    return mode == "figure3b" ? Report(sim::BuildFigure3b(opt))
                              : Report(sim::BuildFigure3c(opt));
  }
  return Usage();
}

// `pardb run prog1.txt prog2.txt ...` — parse program files (see
// txn/program_io.h for the syntax) and run them concurrently.
int RunPrograms(const Flags& flags) {
  if (flags.positional().empty()) {
    std::fprintf(stderr, "run: no program files given\n");
    return 2;
  }
  auto init = flags.GetInt("initial", 100);
  if (!init.ok()) return 2;
  core::EngineOptions eopt;
  {
    auto strategy = ParseStrategy(flags.GetString("strategy", "mcs"));
    auto policy = ParsePolicy(flags.GetString("policy", "min-cost-ordered"));
    auto handling = ParseHandling(flags.GetString("handling", "detection"));
    if (!strategy.ok() || !policy.ok() || !handling.ok()) return 2;
    eopt.strategy = strategy.value();
    eopt.victim_policy = policy.value();
    eopt.handling = handling.value();
  }
  const bool want_trace = flags.GetBool("trace");
  if (!AllFlagsRead(flags, "run")) return 2;

  std::vector<txn::Program> programs;
  std::uint64_t max_entity = 0;
  for (const std::string& path : flags.positional()) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto p = txn::ParseProgram(text.str());
    if (!p.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   p.status().ToString().c_str());
      return 2;
    }
    for (const txn::Op& op : p.value().ops()) {
      if (op.entity.valid()) max_entity = std::max(max_entity,
                                                   op.entity.value());
    }
    programs.push_back(std::move(p).value());
  }

  storage::EntityStore store;
  store.CreateMany(max_entity + 1, init.value());

  analysis::HistoryRecorder recorder;
  core::Engine engine(&store, eopt, &recorder);
  // Prints each protocol event as the engine decides it.
  struct PrintTrace final : obs::EventSink {
    void OnEvent(const obs::EngineEvent& e) override {
      if (!obs::TraceKindName(e.kind).empty()) {
        std::printf("%s\n", obs::TraceText(e).c_str());
      }
    }
  } print_trace;
  if (want_trace) engine.set_trace(&print_trace);

  for (auto& p : programs) {
    auto t = engine.Spawn(std::move(p));
    if (!t.ok()) {
      std::fprintf(stderr, "spawn failed: %s\n",
                   t.status().ToString().c_str());
      return 1;
    }
  }
  Status s = engine.RunToCompletion(10'000'000);
  if (!s.ok()) {
    std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const auto& m = engine.metrics();
  std::printf("committed=%llu deadlocks=%llu rollbacks=%llu "
              "(partial=%llu) wasted_ops=%llu serializable=%s\n",
              (unsigned long long)m.commits,
              (unsigned long long)m.deadlocks,
              (unsigned long long)m.rollbacks,
              (unsigned long long)m.partial_rollbacks,
              (unsigned long long)m.wasted_ops,
              recorder.IsConflictSerializable() ? "yes" : "NO");
  for (const auto& [e, v] : store.Snapshot()) {
    std::printf("E%llu = %lld\n", (unsigned long long)e.value(),
                (long long)v);
  }
  return 0;
}

// `pardb dot` — the `sim` run (one shard unless --shards says otherwise),
// keeping the first deadlock's forensic dump and printing it as Graphviz
// DOT with the --forensics renderer.
int RunDot(const Flags& flags) {
  auto opt = BuildRunOptions(flags, kOneShard);
  if (!opt.ok()) {
    std::fprintf(stderr, "%s\n", opt.status().ToString().c_str());
    return 2;
  }
  if (!AllFlagsRead(flags, "dot")) return 2;
  opt->collect_forensics = true;
  opt->max_forensics_dumps = 1;
  auto report = par::RunSharded(opt.value());
  if (!report.ok()) {
    std::fprintf(stderr, "dot run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (report->forensics.empty()) {
    std::fprintf(stderr, "dot: the run had no deadlock\n");
    return 1;
  }
  std::cout << obs::DeadlockDumpToDot(report->forensics.front());
  return 0;
}

// Resolves a `pardb diff-runs` argument to journal files: a literal file
// path, or a --journal-out prefix (PREFIX.shard<k>.jrnl [+ PREFIX.coord.jrnl]).
std::vector<std::string> ResolveJournalArg(const std::string& arg) {
  std::vector<std::string> paths;
  if (std::ifstream(arg).good()) {
    paths.push_back(arg);
    return paths;
  }
  for (std::uint32_t s = 0; s < 1024; ++s) {
    std::string p = arg + ".shard" + std::to_string(s) + ".jrnl";
    if (!std::ifstream(p).good()) break;
    paths.push_back(std::move(p));
  }
  if (std::ifstream(arg + ".coord.jrnl").good()) {
    paths.push_back(arg + ".coord.jrnl");
  }
  return paths;
}

// `pardb journal` — record a run's decision journal (--out=PREFIX plus the
// run flags; writes PREFIX.shard<k>.jrnl, and PREFIX.coord.jrnl with
// several shards), or summarize journal files given as positional
// arguments.
int RunJournal(const Flags& flags) {
  if (flags.positional().empty()) {
    return RunWorkload(flags, "journal", kOneShard);
  }
  if (!AllFlagsRead(flags, "journal")) return 2;
  int rc = 0;
  for (const std::string& path : flags.positional()) {
    auto data = obs::ReadJournalFile(path);
    if (!data.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   data.status().ToString().c_str());
      rc = 1;
      continue;
    }
    std::printf("%s", obs::SummarizeJournal(data.value(), path).c_str());
  }
  return rc;
}

// `pardb diff-runs A B` — hierarchical first-divergence diagnosis between
// two recorded runs: checksum bisection to the first divergent epoch, then
// a record-level diff pinning the exact first divergent decision. Exit 0
// when every journal pair is identical, 4 on divergence, 2 on usage/IO
// errors.
int RunDiffRuns(const Flags& flags) {
  if (flags.positional().size() != 2) {
    std::fprintf(stderr, "usage: pardb diff-runs <A> <B>  (journal files or "
                 "--journal-out prefixes)\n");
    return 2;
  }
  if (!AllFlagsRead(flags, "diff-runs")) return 2;
  const std::string& arg_a = flags.positional()[0];
  const std::string& arg_b = flags.positional()[1];
  const std::vector<std::string> paths_a = ResolveJournalArg(arg_a);
  const std::vector<std::string> paths_b = ResolveJournalArg(arg_b);
  if (paths_a.empty() || paths_b.empty()) {
    std::fprintf(stderr, "diff-runs: no journal files found for '%s'\n",
                 paths_a.empty() ? arg_a.c_str() : arg_b.c_str());
    return 2;
  }
  if (paths_a.size() != paths_b.size()) {
    std::fprintf(stderr,
                 "diff-runs: %s has %zu journal(s), %s has %zu — the runs "
                 "were recorded with different shard counts\n",
                 arg_a.c_str(), paths_a.size(), arg_b.c_str(), paths_b.size());
    return 4;
  }
  bool any_diverged = false;
  for (std::size_t i = 0; i < paths_a.size(); ++i) {
    auto a = obs::ReadJournalFile(paths_a[i]);
    auto b = obs::ReadJournalFile(paths_b[i]);
    if (!a.ok() || !b.ok()) {
      std::fprintf(stderr, "diff-runs: %s\n",
                   (!a.ok() ? a.status() : b.status()).ToString().c_str());
      return 2;
    }
    if (a->shard != b->shard) {
      std::fprintf(stderr,
                   "diff-runs: shard mismatch (%u vs %u) between %s and %s\n",
                   a->shard, b->shard, paths_a[i].c_str(), paths_b[i].c_str());
      return 2;
    }
    const obs::DivergenceReport d = obs::DiffJournals(a.value(), b.value());
    if (!d.diverged) continue;
    if (!any_diverged) {
      std::printf("%s%s", obs::SummarizeJournal(a.value(), arg_a).c_str(),
                  obs::SummarizeJournal(b.value(), arg_b).c_str());
    }
    any_diverged = true;
    std::printf("%s", obs::RenderDivergence(d, a->shard, arg_a, arg_b).c_str());
  }
  if (!any_diverged) {
    std::printf("runs identical: %zu journal(s) compared, all checksum "
                "chains and records match\n",
                paths_a.size());
    return 0;
  }
  return 4;
}

// `pardb serve` — replay mode: loops the workload (seed advancing each
// iteration) with the introspection server up the whole time, so dashboards
// and curl have a moving target to look at. Flags: --port=N (default 8080,
// 0 = ephemeral), --duration=SECS of serving time (default 10), plus the
// usual run flags for the replayed workload. /metrics serves the
// iteration in flight: each iteration replaces the previous one's
// registries, so memory stays bounded however long the replay runs.
int RunServe(const Flags& flags) {
  auto opt = BuildRunOptions(flags, kOneShard);
  if (!opt.ok()) {
    std::fprintf(stderr, "%s\n", opt.status().ToString().c_str());
    return 2;
  }
  auto port = GetIntIn(flags, "port", 8080, 0, 65535);
  auto duration = GetDoubleIn(flags, "duration", 10.0, 0.0, 1e9);
  if (!port.ok() || !duration.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!port.ok() ? port.status() : duration.status())
                     .ToString()
                     .c_str());
    return 2;
  }
  if (!AllFlagsRead(flags, "serve")) return 2;

  obs::LiveHub hub;
  opt->hub = &hub;
  opt->instrument = true;
  hub.SetRunInfo(MakeRunInfo(opt->seed, opt->num_shards, "serve"));
  auto started = StartIntrospectionServer(&hub, static_cast<int>(port.value()));
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<obs::HttpServer> server = std::move(started).value();

  const auto t_end = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(
                         static_cast<std::int64_t>(duration.value() * 1000));
  std::uint64_t iterations = 0;
  std::uint64_t committed = 0;
  do {
    hub.ClearRegistries();
    auto report = par::RunSharded(opt.value());
    if (!report.ok()) {
      std::fprintf(stderr, "replay iteration %llu failed: %s\n",
                   (unsigned long long)iterations,
                   report.status().ToString().c_str());
      server->Stop();
      return 1;
    }
    committed += report->committed;
    ++iterations;
    opt->seed = opt->seed * 6364136223846793005ULL + 1442695040888963407ULL;
  } while (std::chrono::steady_clock::now() < t_end);
  std::printf("replayed %llu iteration(s), %llu commits\n",
              (unsigned long long)iterations, (unsigned long long)committed);
  server->Stop();
  std::printf("introspection server stopped after %llu request(s)\n",
              (unsigned long long)server->requests_served());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  auto flags = Flags::Parse(argc - 2, argv + 2);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  // Apply the log threshold before any subcommand constructs anything, so
  // kDebug traces from setup code (engine construction, workload
  // generation) are not dropped.
  if (flags->Has("log-level")) {
    LogLevel level = GetLogLevel();
    const std::string name = flags->GetString("log-level");
    if (!ParseLogLevel(name, &level)) {
      std::fprintf(stderr, "unknown --log-level %s\n", name.c_str());
      return 2;
    }
    SetLogLevel(level);
  }
  const Flags& f = flags.value();
  if (mode == "sim" || mode == "observe") {
    return RunWorkload(f, mode, kOneShard);
  }
  if (mode == "parallel") return RunWorkload(f, mode, kFourShards);
  if (mode == "compare") return RunCompare(f);
  if (mode == "run") return RunPrograms(f);
  if (mode == "dot") return RunDot(f);
  if (mode == "serve") return RunServe(f);
  if (mode == "journal") return RunJournal(f);
  if (mode == "diff-runs") return RunDiffRuns(f);
  // The paper scenarios take no flags.
  if (!AllFlagsRead(f, mode)) return 2;
  return RunFigure(mode);
}
