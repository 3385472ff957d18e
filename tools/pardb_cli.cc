// pardb — command-line front end for the simulator and the paper's
// scenarios.
//
// Modes:
//   pardb sim [flags]          run a closed-loop workload, print the report
//   pardb parallel [flags]     run the workload sharded over N engines on
//                              N threads (--shards=N --threads=N
//                              --cross=F --json=FILE)
//   pardb observe [flags]      run the sim workload fully instrumented and
//                              print the metrics as Prometheus text
//   pardb compare [flags]      same workload under every rollback strategy
//   pardb figure1|figure2|figure3a|figure3b|figure3c
//                              replay a paper scenario with commentary
//   pardb dot [flags]          emit the waits-for graph of a contended
//                              moment as Graphviz DOT
//   pardb serve [flags]        replay the sim workload in a loop while the
//                              introspection server runs (--port=N
//                              --duration=SECS, plus the sim flags)
//   pardb journal [flags]      record a run's decision journal to file
//                              (--out=PREFIX plus the sim flags), or
//                              summarize journal files given as positional
//                              arguments
//   pardb diff-runs A B        first-divergence report between two recorded
//                              runs; A and B are journal files or --out
//                              prefixes. Exit 0 identical, 4 diverged.
//   pardb run P1 P2 ...        run program files concurrently (--initial=V
//                              --strategy --policy --handling, --trace to
//                              print the protocol event trace)
//
// Every subcommand rejects a flag it does not read (a typo or a removed
// flag) with exit 2 before it runs anything.
//
// Common flags (sim/compare/dot):
//   --strategy=mcs|sdg|total         rollback state strategy [mcs]
//   --policy=min-cost|min-cost-ordered|youngest|oldest|requester
//                                    victim policy [min-cost-ordered]
//   --handling=detection|wound-wait|wait-die|timeout   [detection]
//   --txns=N --concurrency=N --entities=N --seed=N
//   --locks=MIN:MAX --shared=F --zipf=T
//   --pattern=scattered|clustered|three-phase
//   --templates=N                    cycle the first N programs as renamed
//                                    templates (compile-cache hit workload;
//                                    0 = every program unique) [0]
//   --no-compile-cache               run the fallback interpreter instead
//                                    of compiled µop streams (bit-identical
//                                    results; differential/ablation runs)
//   --log-level=debug|info|warning|error|off   (any subcommand; applied
//                                    before anything is constructed)
//
// Decision journal (sim/parallel/journal; DESIGN D14):
//   --journal-out=PREFIX             record journals to PREFIX.shard<k>.jrnl
//                                    (parallel adds PREFIX.coord.jrnl)
//   --no-journal                     disable journaling (overhead runs)
//   --journal-epoch-steps=N          checksum stamp cadence in engine steps
//                                    (rounded up to a power of two) [1024]
//   --flip-victim=N                  test hook: flip the victim choice at
//                                    the Nth deadlock (0 = off)
//   --perturb-epoch=N                test hook: perturb epoch N's state
//                                    digest (-1 = off)
//
// Observability flags (sim/parallel/observe):
//   --metrics-json=FILE              write the metrics registry as JSON
//   --metrics-prom=FILE              write Prometheus text exposition
//   --trace-out=FILE                 write a Chrome trace_event JSON
//                                    (load in Perfetto / about://tracing)
//   --trace-jsonl=FILE               write the raw event stream as JSONL
//   --forensics=PREFIX               write each deadlock's waits-for cycle
//                                    as Graphviz DOT to PREFIX<n>.dot
//
// Live introspection (sim/parallel):
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
//   pardb compare --txns=300 --concurrency=12
//   pardb figure1

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/flags.h"
#include "common/logging.h"
#include "core/engine.h"
#include "core/metrics_export.h"
#include "core/trace.h"
#include "core/trace_export.h"
#include "dist/distributed.h"
#include "obs/forensics.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/serve/http_server.h"
#include "obs/serve/hub.h"
#include "obs/serve/introspection.h"
#include "par/report_json.h"
#include "par/sharded_driver.h"
#include "sim/driver.h"
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
  return c;
}

// /healthz run metadata: build id, seed, shard count, scheduler, mode.
obs::RunInfo MakeRunInfo(std::uint64_t seed, std::uint32_t shards,
                         const std::string& scheduler,
                         const std::string& mode) {
  obs::RunInfo info;
  info.build_id = std::string("pardb ") + __DATE__;
  info.seed = seed;
  info.shards = shards;
  info.scheduler = scheduler;
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
                        const std::vector<core::ShardTrace>& shards,
                        const std::vector<core::GlobalSlice>& flows = {}) {
  int rc = 0;
  if (!outs.trace_out.empty()) {
    if (core::WriteChromeTraceFile(outs.trace_out, shards, flows)) {
      std::printf("wrote %s\n", outs.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", outs.trace_out.c_str());
      rc = 1;
    }
  }
  if (!outs.trace_jsonl.empty()) {
    std::ostringstream body;
    for (const core::ShardTrace& s : shards) {
      for (const core::TraceEvent& e : s.events) {
        body << core::TraceEventToJsonLine(e) << "\n";
      }
    }
    if (!WriteFileOrComplain(outs.trace_jsonl, body.str())) rc = 1;
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

Result<sim::SimOptions> BuildSimOptions(const Flags& flags) {
  sim::SimOptions opt;
  PARDB_ASSIGN_OR_RETURN(auto strategy,
                         ParseStrategy(flags.GetString("strategy", "mcs")));
  opt.engine.strategy = strategy;
  PARDB_ASSIGN_OR_RETURN(
      auto policy, ParsePolicy(flags.GetString("policy", "min-cost-ordered")));
  opt.engine.victim_policy = policy;
  PARDB_ASSIGN_OR_RETURN(
      auto handling, ParseHandling(flags.GetString("handling", "detection")));
  opt.engine.handling = handling;
  opt.engine.scheduler = core::SchedulerKind::kRandom;

  PARDB_ASSIGN_OR_RETURN(auto txns, flags.GetInt("txns", 200));
  opt.total_txns = static_cast<std::uint64_t>(txns);
  PARDB_ASSIGN_OR_RETURN(auto conc, flags.GetInt("concurrency", 8));
  opt.concurrency = static_cast<std::uint32_t>(conc);
  PARDB_ASSIGN_OR_RETURN(auto entities, flags.GetInt("entities", 32));
  opt.workload.num_entities = static_cast<std::uint64_t>(entities);
  PARDB_ASSIGN_OR_RETURN(auto seed, flags.GetInt("seed", 1));
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.engine.seed = opt.seed;
  PARDB_ASSIGN_OR_RETURN(auto zipf, flags.GetDouble("zipf", 0.0));
  opt.workload.zipf_theta = zipf;
  PARDB_ASSIGN_OR_RETURN(auto shared, flags.GetDouble("shared", 0.0));
  opt.workload.shared_fraction = shared;
  PARDB_ASSIGN_OR_RETURN(
      auto pattern, ParsePattern(flags.GetString("pattern", "scattered")));
  opt.workload.pattern = pattern;
  // Parameterized-statement mode: cycle the first N generated programs as
  // templates (fresh names, identical ops), so the compile cache hits on
  // every admission after the first cycle.
  PARDB_ASSIGN_OR_RETURN(auto templates, flags.GetInt("templates", 0));
  if (templates < 0) {
    return Status::InvalidArgument("--templates must be >= 0");
  }
  opt.workload.num_templates = static_cast<std::uint32_t>(templates);
  // Differential escape hatch: run the fallback interpreter instead of the
  // compiled µop path (results are bit-identical either way; D16).
  opt.engine.compile_programs = !flags.GetBool("no-compile-cache", false);

  const std::string locks = flags.GetString("locks", "3:6");
  auto colon = locks.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("--locks expects MIN:MAX");
  }
  opt.workload.min_locks =
      static_cast<std::uint32_t>(std::atoi(locks.substr(0, colon).c_str()));
  opt.workload.max_locks =
      static_cast<std::uint32_t>(std::atoi(locks.substr(colon + 1).c_str()));

  // Decision journal (DESIGN D14) and its test hooks.
  opt.journal = !flags.GetBool("no-journal", false);
  opt.journal_out = flags.GetString("journal-out", "");
  PARDB_ASSIGN_OR_RETURN(auto jsteps, flags.GetInt("journal-epoch-steps", 1024));
  if (jsteps < 0) {
    return Status::InvalidArgument("--journal-epoch-steps must be >= 0");
  }
  opt.engine.journal_epoch_steps = static_cast<std::uint64_t>(jsteps);
  PARDB_ASSIGN_OR_RETURN(auto flip, flags.GetInt("flip-victim", 0));
  if (flip < 0) return Status::InvalidArgument("--flip-victim must be >= 0");
  opt.engine.debug_flip_victim_deadlock = static_cast<std::uint64_t>(flip);
  PARDB_ASSIGN_OR_RETURN(auto perturb, flags.GetInt("perturb-epoch", -1));
  opt.journal_perturb_epoch =
      perturb < 0 ? ~0ULL : static_cast<std::uint64_t>(perturb);
  return opt;
}

void PrintReport(const sim::SimReport& r) {
  std::printf("%s\n", r.ToString().c_str());
  std::printf("  rollback mix: %llu partial / %llu total; preemptions=%llu "
              "wounds=%llu deaths=%llu timeouts=%llu\n",
              (unsigned long long)r.metrics.partial_rollbacks,
              (unsigned long long)r.metrics.total_rollbacks,
              (unsigned long long)r.metrics.preemptions,
              (unsigned long long)r.metrics.wounds,
              (unsigned long long)r.metrics.deaths,
              (unsigned long long)r.metrics.timeouts);
  std::printf("  space peaks: %zu entity copies, %zu var copies (one txn)\n",
              r.metrics.max_entity_copies, r.metrics.max_var_copies);
  std::printf("  generation: peak_materialized_programs=%llu\n",
              (unsigned long long)r.peak_materialized_programs);
}

int RunSim(const Flags& flags) {
  auto opt = BuildSimOptions(flags);
  if (!opt.ok()) {
    std::fprintf(stderr, "%s\n", opt.status().ToString().c_str());
    return 2;
  }
  const ObsOutputs outs = GetObsOutputs(flags);
  auto serve = GetServeConfig(flags);
  if (!serve.ok()) {
    std::fprintf(stderr, "%s\n", serve.status().ToString().c_str());
    return 2;
  }
  if (!AllFlagsRead(flags, "sim")) return 2;
  obs::MetricsRegistry registry;
  core::VectorTrace trace;
  obs::CollectingDeadlockSink forensics(/*max_dumps=*/64);
  obs::LiveHub hub;
  std::unique_ptr<obs::HttpServer> server;
  obs::MetricsRegistry* reg = &registry;
  if (serve->enabled) {
    // The live registry must outlive the run (the server keeps answering
    // during --serve-linger), so the hub owns it.
    reg = hub.AddOwnedRegistry(std::make_unique<obs::MetricsRegistry>());
    opt->hub = &hub;
    hub.SetRunInfo(MakeRunInfo(opt->seed, 1, "sim", "sim"));
    auto started = StartIntrospectionServer(&hub, serve->port);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
      return 1;
    }
    server = std::move(started).value();
  }
  if (outs.WantMetrics() || serve->enabled) opt->metrics = reg;
  if (outs.WantTrace()) opt->trace = &trace;
  if (outs.WantForensics()) opt->forensics = &forensics;

  auto report = sim::RunSimulation(opt.value());
  if (!report.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  PrintReport(report.value());
  LingerThenStop(server.get(), serve->linger);
  int rc = report->completed ? 0 : 3;
  if (outs.WantMetrics()) {
    const obs::RegistrySnapshot snap = reg->Snapshot();
    if (WriteObsArtifacts(outs, "sim", snap, snap, forensics.dumps()) != 0) {
      rc = 1;
    }
  } else if (outs.WantForensics()) {
    obs::RegistrySnapshot empty;
    if (WriteObsArtifacts(outs, "sim", empty, empty, forensics.dumps()) != 0) {
      rc = 1;
    }
  }
  if (outs.WantTrace()) {
    std::vector<core::ShardTrace> shards(1);
    shards[0].pid = 0;
    shards[0].name = "pardb sim";
    shards[0].events = trace.events();
    if (WriteTraceArtifacts(outs, shards) != 0) rc = 1;
  }
  return rc;
}

// `pardb observe` — the sim workload with every probe attached; prints the
// merged metrics as Prometheus text exposition and honors the shared
// observability flags for file artifacts.
int RunObserve(const Flags& flags) {
  auto opt = BuildSimOptions(flags);
  if (!opt.ok()) {
    std::fprintf(stderr, "%s\n", opt.status().ToString().c_str());
    return 2;
  }
  const ObsOutputs outs = GetObsOutputs(flags);
  if (!AllFlagsRead(flags, "observe")) return 2;
  obs::MetricsRegistry registry;
  core::VectorTrace trace;
  obs::CollectingDeadlockSink forensics(/*max_dumps=*/64);
  opt->metrics = &registry;
  opt->trace = &trace;
  opt->forensics = &forensics;

  auto report = sim::RunSimulation(opt.value());
  if (!report.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const obs::RegistrySnapshot snap = registry.Snapshot();
  std::printf("%s", snap.ToPrometheus().c_str());
  std::fprintf(stderr, "# %s\n", report->ToString().c_str());
  int rc = report->completed ? 0 : 3;
  if (WriteObsArtifacts(outs, "observe", snap, snap, forensics.dumps()) != 0) {
    rc = 1;
  }
  if (outs.WantTrace()) {
    std::vector<core::ShardTrace> shards(1);
    shards[0].pid = 0;
    shards[0].name = "pardb observe";
    shards[0].events = trace.events();
    if (WriteTraceArtifacts(outs, shards) != 0) rc = 1;
  }
  return rc;
}

// `pardb parallel` — the sim workload sharded over N engines (src/par).
// Several shards run in epochs on a fork-join, with shard-spanning
// transactions split into per-shard slices and global deadlocks removed by
// distributed partial rollback; one shard runs on the calling thread.
// Extra flags: --shards, --threads (fork-join workers, the calling thread
// included; 0 = one per shard), --cross (fraction of transactions drawn
// across shard boundaries), --quantum-steps, --hot-routing (route local
// transactions to Zipf-hot shards), --pipeline / --no-pipeline and
// --queue-capacity (streaming admission of a one-shard run, on by
// default), --json=FILE (write the machine-readable report).
int RunParallel(const Flags& flags) {
  auto sim_opt = BuildSimOptions(flags);
  if (!sim_opt.ok()) {
    std::fprintf(stderr, "%s\n", sim_opt.status().ToString().c_str());
    return 2;
  }
  par::ShardedOptions opt;
  opt.engine = sim_opt->engine;
  opt.workload = sim_opt->workload;
  opt.concurrency = sim_opt->concurrency;
  opt.total_txns = sim_opt->total_txns;
  opt.seed = sim_opt->seed;
  opt.journal = sim_opt->journal;
  opt.journal_out = sim_opt->journal_out;
  opt.journal_perturb_epoch = sim_opt->journal_perturb_epoch;
  auto shards = flags.GetInt("shards", 4);
  auto threads = flags.GetInt("threads", 0);
  auto cross = flags.GetDouble("cross", 0.05);
  auto coord = flags.GetInt("coordinator", 0);
  if (!shards.ok() || !threads.ok() || !cross.ok() || !coord.ok()) return 2;
  opt.coordinator_shard = static_cast<std::uint32_t>(coord.value());
  opt.num_shards = static_cast<std::uint32_t>(shards.value());
  opt.num_threads = static_cast<std::size_t>(threads.value());
  opt.cross_shard_fraction = cross.value();
  auto quantum = flags.GetInt("quantum-steps", 256);
  if (!quantum.ok()) return 2;
  opt.quantum_steps = static_cast<std::uint64_t>(quantum.value());
  opt.hot_shard_routing = flags.GetBool("hot-routing", false);
  opt.pipeline =
      flags.GetBool("pipeline", true) && !flags.GetBool("no-pipeline", false);
  auto qcap = flags.GetInt("queue-capacity", 32);
  if (!qcap.ok()) return 2;
  opt.admission_queue_capacity = static_cast<std::size_t>(qcap.value());
  const ObsOutputs outs = GetObsOutputs(flags);
  auto serve = GetServeConfig(flags);
  if (!serve.ok()) {
    std::fprintf(stderr, "%s\n", serve.status().ToString().c_str());
    return 2;
  }
  const std::string json_path = flags.GetString("json", "");
  if (!AllFlagsRead(flags, "parallel")) return 2;
  opt.instrument = outs.WantMetrics();
  opt.collect_traces = outs.WantTrace();
  opt.collect_forensics = outs.WantForensics();
  obs::LiveHub hub;
  std::unique_ptr<obs::HttpServer> server;
  if (serve->enabled) {
    opt.hub = &hub;
    opt.instrument = true;  // live /metrics needs the per-shard registries
    hub.SetRunInfo(MakeRunInfo(opt.seed, opt.num_shards,
                               opt.num_shards > 1 ? "epochs" : "quantum-loop",
                               "parallel"));
    auto started = StartIntrospectionServer(&hub, serve->port);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
      return 1;
    }
    server = std::move(started).value();
  }

  auto report = par::RunSharded(opt);
  if (!report.ok()) {
    std::fprintf(stderr, "sharded run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->ToString().c_str());
  std::printf("scheduler: workers=%zu quanta=%llu steals=%llu "
              "util(mean=%.2f min=%.2f) virtual_makespan=%llu\n",
              report->scheduler.num_workers,
              (unsigned long long)report->scheduler.quanta,
              (unsigned long long)report->scheduler.steals,
              report->scheduler.mean_worker_utilization,
              report->scheduler.min_worker_utilization,
              (unsigned long long)report->scheduler.virtual_makespan_steps);
  std::printf("admission: pipelined=%s queue_capacity=%zu overlap=%.3f "
              "peak_materialized=%llu blocked_pushes=%llu "
              "generate_s=%.3f execute_s=%.3f\n",
              report->admission.pipelined ? "yes" : "no",
              report->admission.queue_capacity,
              report->admission.overlap_fraction,
              (unsigned long long)report->admission.peak_materialized_programs,
              (unsigned long long)report->admission.producer_blocked_pushes,
              report->admission.generate_seconds,
              report->admission.execute_seconds);
  if (opt.num_shards > 1) {
    const par::xshard::XShardStats& x = report->xshard;
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
                report->global_serializable ? "yes" : "NO");
  }
  LingerThenStop(server.get(), serve->linger);
  for (const par::ShardResult& s : report->shards) {
    std::printf("  shard %u%s: assigned=%llu committed=%llu deadlocks=%llu "
                "rollbacks=%llu wasted=%llu serializable=%s\n",
                s.shard, s.shard == opt.coordinator_shard ? " (coord)" : "",
                (unsigned long long)s.assigned,
                (unsigned long long)s.committed,
                (unsigned long long)s.metrics.deadlocks,
                (unsigned long long)s.metrics.rollbacks,
                (unsigned long long)s.metrics.wasted_ops,
                s.serializable ? "yes" : "NO");
  }
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
    if (WriteObsArtifacts(outs, "parallel", report->metrics,
                          report->merged_metrics, report->forensics) != 0) {
      rc = 1;
    }
  }
  if (opt.collect_traces) {
    std::vector<core::ShardTrace> traces;
    for (std::size_t s = 0; s < report->shard_traces.size(); ++s) {
      core::ShardTrace t;
      t.pid = s;
      t.name = "shard " + std::to_string(s);
      t.events = report->shard_traces[s];
      traces.push_back(std::move(t));
    }
    if (WriteTraceArtifacts(outs, traces, report->flow_slices) != 0) rc = 1;
  }
  return rc;
}

int RunCompare(const Flags& flags) {
  auto base = BuildSimOptions(flags);
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 2;
  }
  if (!AllFlagsRead(flags, "compare")) return 2;
  for (auto strategy :
       {rollback::StrategyKind::kTotalRestart, rollback::StrategyKind::kSdg,
        rollback::StrategyKind::kMcs}) {
    sim::SimOptions opt = base.value();
    opt.engine.strategy = strategy;
    auto report = sim::RunSimulation(opt);
    if (!report.ok()) {
      std::fprintf(stderr, "simulation failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("%-14s ", std::string(rollback::StrategyKindName(strategy))
                              .c_str());
    PrintReport(report.value());
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
    const auto& ev = fig->runner->engine().deadlock_events().at(0);
    std::printf("Figure 1: deadlock of %zu transactions; costs:",
                ev.cycle_txns.size());
    for (const auto& c : ev.candidates) {
      std::printf(" T%llu=%llu", (unsigned long long)c.txn.value() + 1,
                  (unsigned long long)c.cost);
    }
    std::printf("; victim T%llu (paper: T2, costs 4/6/5)\n",
                (unsigned long long)ev.victims[0].value() + 1);
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
    std::printf("Figure 3(a): acyclic=%s forest=%s\n",
                fig->runner->engine().waits_for().IsAcyclic() ? "yes" : "no",
                fig->runner->engine().waits_for().IsForest() ? "yes" : "no");
    return 0;
  }
  if (mode == "figure3b" || mode == "figure3c") {
    auto Report = [](auto fig) {
      if (!fig.ok()) return 1;
      (void)fig->TriggerDeadlock();
      const auto& ev = fig->runner->engine().deadlock_events().at(0);
      std::printf("%zu cycles; victims:", ev.num_cycles);
      for (TxnId v : ev.victims) {
        std::printf(" T%llu", (unsigned long long)v.value() + 1);
      }
      std::printf(" (cost %llu)\n", (unsigned long long)ev.total_cost);
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
  core::RingTrace trace(4096);
  if (want_trace) engine.set_trace(&trace);

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
  if (want_trace) std::printf("%s", trace.ToString().c_str());
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

int RunDot(const Flags& flags) {
  // Runs a short contended workload and prints the waits-for graph at the
  // moment of the first deadlock.
  auto opt = BuildSimOptions(flags);
  if (!opt.ok()) return 2;
  if (!AllFlagsRead(flags, "dot")) return 2;
  storage::EntityStore store;
  store.CreateMany(opt.value().workload.num_entities, 100);
  core::Engine engine(&store, opt.value().engine);
  sim::WorkloadGenerator gen(opt.value().workload, opt.value().seed);
  std::uint64_t spawned = 0;
  for (std::uint64_t i = 0; i < 2'000'000; ++i) {
    while (spawned - engine.metrics().commits < opt.value().concurrency) {
      auto p = gen.Next();
      if (!p.ok()) return 1;
      if (!engine.Spawn(std::move(p).value()).ok()) return 1;
      ++spawned;
    }
    if (engine.metrics().lock_waits > 0 &&
        engine.waits_for().EdgeCount() >= 3) {
      std::cout << engine.waits_for().ToDot();
      return 0;
    }
    auto s = engine.StepAny();
    if (!s.ok() || !s.value().has_value()) break;
  }
  std::cout << engine.waits_for().ToDot();
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
// sim flags; writes PREFIX.shard0.jrnl), or summarize journal files given
// as positional arguments. Sharded recordings come from
// `pardb parallel --journal-out=PREFIX`.
int RunJournal(const Flags& flags) {
  if (!flags.positional().empty()) {
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
  const std::string prefix = flags.GetString("out", "");
  if (prefix.empty()) {
    std::fprintf(stderr,
                 "journal: need --out=PREFIX to record, or journal files to "
                 "summarize\n");
    return 2;
  }
  auto opt = BuildSimOptions(flags);
  if (!opt.ok()) {
    std::fprintf(stderr, "%s\n", opt.status().ToString().c_str());
    return 2;
  }
  if (!AllFlagsRead(flags, "journal")) return 2;
  opt->journal = true;
  opt->journal_out = prefix + ".shard0.jrnl";
  auto report = sim::RunSimulation(opt.value());
  if (!report.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->ToString().c_str());
  std::printf("wrote %s (%llu records, %llu epochs)\n",
              opt->journal_out.c_str(),
              (unsigned long long)report->journal_records,
              (unsigned long long)report->journal_chain.size());
  return report->completed ? 0 : 3;
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

// `pardb serve` — replay mode: loops the sim workload (seed advancing each
// iteration) with the introspection server up the whole time, so dashboards
// and curl have a moving target to look at. Flags: --port=N (default 8080,
// 0 = ephemeral), --duration=SECS of serving time (default 10), plus the
// usual sim flags for the replayed workload.
int RunServe(const Flags& flags) {
  auto opt = BuildSimOptions(flags);
  if (!opt.ok()) {
    std::fprintf(stderr, "%s\n", opt.status().ToString().c_str());
    return 2;
  }
  auto port = flags.GetInt("port", 8080);
  auto duration = flags.GetDouble("duration", 10.0);
  if (!port.ok() || !duration.ok()) return 2;
  if (!AllFlagsRead(flags, "serve")) return 2;

  obs::LiveHub hub;
  obs::MetricsRegistry* reg =
      hub.AddOwnedRegistry(std::make_unique<obs::MetricsRegistry>());
  opt->metrics = reg;
  opt->hub = &hub;
  hub.SetRunInfo(MakeRunInfo(opt->seed, 1, "sim", "serve"));
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
    auto report = sim::RunSimulation(opt.value());
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
    opt->engine.seed = opt->seed;
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
  if (mode == "sim") return RunSim(f);
  if (mode == "parallel") return RunParallel(f);
  if (mode == "observe") return RunObserve(f);
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
