// Single-engine hot-path benchmark for the data-oriented rewrite (D15).
//
// Four measurements, all on one shard / one thread, plus two micros on
// the admission path (program generation and compile):
//
//   1. lock/release micro — raw LockManager Request/ReleaseInto ops/sec on
//      disjoint exclusive locks, with a heap-allocation counter proving the
//      warm grant/release fast path performs zero allocations per op.
//   2. rollback micro — deterministic two-transaction deadlock pairs
//      (T_a: LX e0, LX e1; T_b: LX e1, LX e0 under round-robin stepping),
//      measuring full detect+rollback+re-execute cycles per second.
//   3. end-to-end — the pinned 1-shard workload of bench_parallel_scaling
//      (256 entities, zipf 0.2, concurrency 32, 2400 txns, seed 21) with
//      programs pre-generated outside the timed region, so the number is
//      engine execution throughput, not workload generation. Median of 3.
//   4. steady-state allocation audit — a warm engine stepping lock-only
//      transactions; allocations per step in the counted window must be 0.
//
// The generate micro draws the pinned workload's programs from a fresh
// WorkloadGenerator, counting the heap blocks each program costs (its three
// final arrays, DESIGN D24) and the µs per program.
//
// Deterministic fields (committed/steps/rollbacks and the per-op counts)
// are identical on every host and every run; only the timings vary. The
// run writes BENCH_hotpath.json and tools/check_bench_regression.py gates
// on the deterministic fields, the allocation counts and the end-to-end
// throughput floor against bench/baselines/BENCH_hotpath.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench/table_util.h"
#include "core/engine.h"
#include "lock/lock_manager.h"
#include "sim/workload.h"
#include "storage/entity_store.h"
#include "txn/compiled.h"
#include "txn/program.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Replacing operator new/delete in the benchmark
// binary lets the fast-path sections assert "zero heap allocations per op"
// directly instead of inferring it from profiles.
// ---------------------------------------------------------------------------

static std::atomic<std::uint64_t> g_heap_allocs{0};

static void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace pardb;
using bench::Section;
using bench::Table;

std::uint64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---------------------------------------------------------------------------
// 1. Lock/release micro.
// ---------------------------------------------------------------------------

struct LockMicroResult {
  std::uint64_t ops = 0;
  double elapsed = 0.0;
  double ops_per_second = 0.0;
  double allocs_per_op = 0.0;  // must be exactly 0 on the warm fast path
};

LockMicroResult RunLockReleaseMicro() {
  constexpr std::size_t kTxns = 64;
  constexpr std::size_t kLocksPerTxn = 4;
  constexpr std::size_t kRounds = 4000;

  lock::LockManager lm;
  lm.ReserveEntities(kTxns * kLocksPerTxn);
  lm.ReserveTxns(kTxns);
  std::vector<lock::Grant> grants;
  grants.reserve(kLocksPerTxn);

  auto Round = [&]() {
    for (std::size_t t = 0; t < kTxns; ++t) {
      for (std::size_t k = 0; k < kLocksPerTxn; ++k) {
        auto r = lm.Request(TxnId(t), EntityId(t * kLocksPerTxn + k),
                            lock::LockMode::kExclusive);
        if (!r.ok() || !r.value().granted) std::abort();
      }
    }
    for (std::size_t t = 0; t < kTxns; ++t) {
      for (std::size_t k = 0; k < kLocksPerTxn; ++k) {
        grants.clear();
        Status s = lm.ReleaseInto(TxnId(t), EntityId(t * kLocksPerTxn + k),
                                  &grants);
        if (!s.ok()) std::abort();
      }
    }
  };

  Round();  // warm: first-touch growth of the flat table and queues
  std::vector<double> times;
  times.reserve(3);  // keep the harness's own bookkeeping out of the count
  std::uint64_t allocs = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t a0 = HeapAllocs();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kRounds; ++i) Round();
    const auto stop = std::chrono::steady_clock::now();
    allocs = HeapAllocs() - a0;  // identical every rep; keep the last
    times.push_back(Seconds(start, stop));
  }

  LockMicroResult r;
  r.ops = static_cast<std::uint64_t>(kRounds) * kTxns * kLocksPerTxn * 2;
  r.elapsed = Median(times);
  r.ops_per_second = r.elapsed > 0 ? r.ops / r.elapsed : 0.0;
  r.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(r.ops);
  return r;
}

// ---------------------------------------------------------------------------
// 2. Rollback micro.
// ---------------------------------------------------------------------------

struct RollbackMicroResult {
  std::uint64_t pairs = 0;
  std::uint64_t rollbacks = 0;  // deterministic
  std::uint64_t deadlocks = 0;  // deterministic
  double elapsed = 0.0;
  double rollbacks_per_second = 0.0;
};

RollbackMicroResult RunRollbackMicro() {
  constexpr std::uint64_t kPairs = 1000;

  // Pre-build the programs once; each pair gets a disjoint entity pair and
  // opposite acquisition order, so round-robin stepping deadlocks every
  // pair exactly once, deterministically.
  std::vector<std::shared_ptr<const txn::Program>> programs;
  programs.reserve(2 * kPairs);
  for (std::uint64_t i = 0; i < kPairs; ++i) {
    const EntityId e0(2 * i), e1(2 * i + 1);
    txn::ProgramBuilder a("dl_a");
    auto pa = a.LockExclusive(e0).LockExclusive(e1).Commit().Build();
    txn::ProgramBuilder b("dl_b");
    auto pb = b.LockExclusive(e1).LockExclusive(e0).Commit().Build();
    if (!pa.ok() || !pb.ok()) std::abort();
    programs.push_back(
        std::make_shared<const txn::Program>(std::move(pa).value()));
    programs.push_back(
        std::make_shared<const txn::Program>(std::move(pb).value()));
  }

  RollbackMicroResult r;
  r.pairs = kPairs;
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    storage::EntityStore store;
    store.CreateMany(2 * kPairs, 0);
    core::EngineOptions eopt;
    eopt.scheduler = core::SchedulerKind::kRoundRobin;
    core::Engine engine(&store, eopt, nullptr);
    engine.ReserveTxns(2 * kPairs);
    for (const auto& p : programs) {
      if (!engine.Spawn(p).ok()) std::abort();
    }
    const auto start = std::chrono::steady_clock::now();
    if (!engine.RunToCompletion().ok()) std::abort();
    times.push_back(Seconds(start, std::chrono::steady_clock::now()));
    if (rep > 0 && (engine.metrics().rollbacks != r.rollbacks ||
                    engine.metrics().deadlocks != r.deadlocks)) {
      std::cerr << "rollback micro: nondeterministic metrics\n";
      std::abort();
    }
    r.rollbacks = engine.metrics().rollbacks;
    r.deadlocks = engine.metrics().deadlocks;
  }
  r.elapsed = Median(times);
  r.rollbacks_per_second = r.elapsed > 0 ? r.rollbacks / r.elapsed : 0.0;
  return r;
}

// The pinned 1-shard workload of bench_parallel_scaling (section 3).
constexpr std::uint64_t kE2eTxns = 2400;
constexpr std::uint64_t kE2eEntities = 256;

sim::WorkloadOptions PinnedWorkloadOptions() {
  sim::WorkloadOptions w;
  w.num_entities = kE2eEntities;
  w.min_locks = 2;
  w.max_locks = 4;
  w.ops_per_entity = 2;
  w.zipf_theta = 0.2;
  return w;
}

// ---------------------------------------------------------------------------
// 2a. Generate micro: WorkloadGenerator::Next on the pinned workload (D24).
// ---------------------------------------------------------------------------

struct GenerateMicroResult {
  std::uint64_t programs = 0;       // deterministic
  std::uint64_t ops = 0;            // deterministic: total ops drawn
  double allocs_per_program = 0.0;  // deterministic: heap blocks per program
  double elapsed = 0.0;
  double us_per_program = 0.0;
};

GenerateMicroResult RunGenerateMicro() {
  GenerateMicroResult r;
  std::vector<double> times;
  times.reserve(3);  // keep the harness's own bookkeeping out of the count
  for (int rep = 0; rep < 3; ++rep) {
    sim::WorkloadGenerator gen(PinnedWorkloadOptions(), 21);
    std::uint64_t ops = 0;
    const std::uint64_t a0 = HeapAllocs();
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kE2eTxns; ++i) {
      auto p = gen.Next();
      if (!p.ok()) std::abort();
      ops += p.value().size();
    }
    const auto stop = std::chrono::steady_clock::now();
    // Identical every rep; keep the last.
    r.allocs_per_program = static_cast<double>(HeapAllocs() - a0) / kE2eTxns;
    r.ops = ops;
    times.push_back(Seconds(start, stop));
  }
  r.programs = kE2eTxns;
  r.elapsed = Median(times);
  r.us_per_program = r.elapsed * 1e6 / r.programs;
  return r;
}

// ---------------------------------------------------------------------------
// 2b. Compile micro: admission-time lowering cost (D16, D26). Every
// admission lowers its program once, so this lowers every pinned program.
// ---------------------------------------------------------------------------

struct CompileMicroResult {
  std::uint64_t programs = 0;       // deterministic
  std::uint64_t compiled_bytes = 0; // deterministic
  double elapsed = 0.0;
  double us_per_program = 0.0;
};

CompileMicroResult RunCompileMicro(
    const std::vector<std::shared_ptr<const txn::Program>>& programs) {
  CompileMicroResult r;
  r.programs = programs.size();

  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t bytes = 0;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& p : programs) {
      bytes += txn::CompiledProgram::Compile(*p)->byte_size();
    }
    const auto stop = std::chrono::steady_clock::now();
    times.push_back(Seconds(start, stop));
    r.compiled_bytes = bytes;
  }
  r.elapsed = Median(times);
  r.us_per_program = r.programs > 0 ? r.elapsed * 1e6 / r.programs : 0.0;
  return r;
}

// ---------------------------------------------------------------------------
// 3. End-to-end pinned workload (engine execution only).
// ---------------------------------------------------------------------------

struct EndToEndResult {
  std::uint64_t txns = 0;
  std::uint64_t committed = 0;  // deterministic
  std::uint64_t steps = 0;      // deterministic
  std::uint64_t rollbacks = 0;  // deterministic
  double elapsed = 0.0;
  double txns_per_second = 0.0;
};

// The exact 1-shard workload bench_parallel_scaling pins, generated once
// outside the timed regions: the e2e measurement is lock/schedule/execute
// throughput, not program generation, and the compile micro lowers the
// same program population the engine admits.
std::vector<std::shared_ptr<const txn::Program>> PinnedWorkloadPrograms() {
  sim::WorkloadGenerator gen(PinnedWorkloadOptions(), 21);
  std::vector<std::shared_ptr<const txn::Program>> programs;
  programs.reserve(kE2eTxns);
  for (std::uint64_t i = 0; i < kE2eTxns; ++i) {
    auto p = gen.Next();
    if (!p.ok()) std::abort();
    programs.push_back(
        std::make_shared<const txn::Program>(std::move(p).value()));
  }
  return programs;
}

EndToEndResult RunEndToEnd(
    const std::vector<std::shared_ptr<const txn::Program>>& programs) {
  constexpr std::uint64_t kTxns = kE2eTxns;
  constexpr std::size_t kConcurrency = 32;

  auto Once = [&](EndToEndResult* out) {
    storage::EntityStore store;
    store.CreateMany(kE2eEntities, 0);
    core::EngineOptions eopt;
    eopt.scheduler = core::SchedulerKind::kRandom;
    eopt.seed = 21;
    core::Engine engine(&store, eopt, nullptr);
    engine.ReserveTxns(kTxns);
    std::size_t spawned = 0;
    std::uint64_t steps = 0;
    const auto start = std::chrono::steady_clock::now();
    while (engine.metrics().commits < kTxns) {
      while (spawned < kTxns &&
             spawned - engine.metrics().commits < kConcurrency) {
        if (!engine.Spawn(programs[spawned]).ok()) std::abort();
        ++spawned;
      }
      auto r = engine.StepQuantum(256, false);
      if (!r.ok()) std::abort();
      steps += r.value().steps;
    }
    const double elapsed = Seconds(start, std::chrono::steady_clock::now());
    out->txns = kTxns;
    out->committed = engine.metrics().commits;
    out->steps = steps;
    out->rollbacks = engine.metrics().rollbacks;
    out->elapsed = elapsed;
  };

  EndToEndResult r;
  Once(&r);  // warm-up (page cache, allocator arenas)
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    EndToEndResult cur;
    Once(&cur);
    if (cur.committed != r.committed || cur.steps != r.steps ||
        cur.rollbacks != r.rollbacks) {
      std::cerr << "end-to-end: nondeterministic run\n";
      std::abort();
    }
    times.push_back(cur.elapsed);
  }
  r.elapsed = Median(times);
  r.txns_per_second = r.elapsed > 0 ? r.txns / r.elapsed : 0.0;
  return r;
}

// ---------------------------------------------------------------------------
// 4. Steady-state allocation audit.
// ---------------------------------------------------------------------------

struct SteadyAllocResult {
  std::uint64_t steps = 0;
  std::uint64_t allocs = 0;
  double allocs_per_step = 0.0;  // must be exactly 0
};

SteadyAllocResult RunSteadyStateAllocAudit() {
  constexpr std::size_t kBatchTxns = 64;
  constexpr std::size_t kLocksPerTxn = 4;
  constexpr int kBatches = 8;

  // Disjoint-entity lock-only programs: every step is a grant, a release
  // (via commit) or bookkeeping — the exact fast path the rewrite targets.
  std::vector<std::shared_ptr<const txn::Program>> programs;
  programs.reserve(kBatchTxns);
  for (std::size_t t = 0; t < kBatchTxns; ++t) {
    txn::ProgramBuilder b("steady");
    for (std::size_t k = 0; k < kLocksPerTxn; ++k) {
      b.LockExclusive(EntityId(t * kLocksPerTxn + k));
    }
    auto p = b.Commit().Build();
    if (!p.ok()) std::abort();
    programs.push_back(
        std::make_shared<const txn::Program>(std::move(p).value()));
  }

  storage::EntityStore store;
  store.CreateMany(kBatchTxns * kLocksPerTxn, 0);
  core::EngineOptions eopt;
  eopt.scheduler = core::SchedulerKind::kRoundRobin;
  core::Engine engine(&store, eopt, nullptr);
  engine.ReserveTxns(kBatchTxns * (kBatches + 2));

  // Admission (Spawn) is allowed to allocate — it builds per-transaction
  // state. The audit counts only the stepping loop: every grant, release,
  // commit and scheduler decision in the counted window must come from
  // reused capacity.
  SteadyAllocResult r;
  std::uint64_t counted_allocs = 0;
  auto RunBatch = [&](bool counted) {
    for (const auto& p : programs) {
      if (!engine.Spawn(p).ok()) std::abort();
    }
    std::uint64_t steps = 0;
    const std::uint64_t a0 = HeapAllocs();
    while (engine.live_txn_count() > 0) {
      auto sr = engine.StepQuantum(256, false);
      if (!sr.ok()) std::abort();
      steps += sr.value().steps;
    }
    if (counted) counted_allocs += HeapAllocs() - a0;
    return steps;
  };

  // Two warm batches grow every pool (txn slots, arena blocks, lock table,
  // scratch vectors) to steady state; the counted batches must then run
  // entirely out of reused capacity.
  RunBatch(false);
  RunBatch(false);

  for (int b = 0; b < kBatches; ++b) r.steps += RunBatch(true);
  r.allocs = counted_allocs;
  r.allocs_per_step =
      r.steps > 0 ? static_cast<double>(r.allocs) / r.steps : 0.0;
  return r;
}

// ---------------------------------------------------------------------------

void PrintReproduction() {
  const auto programs = PinnedWorkloadPrograms();
  const LockMicroResult lock = RunLockReleaseMicro();
  const RollbackMicroResult rb = RunRollbackMicro();
  const GenerateMicroResult gen = RunGenerateMicro();
  const CompileMicroResult comp = RunCompileMicro(programs);
  const EndToEndResult e2e = RunEndToEnd(programs);
  const SteadyAllocResult steady = RunSteadyStateAllocAudit();

  Section("Single-engine hot path (1 shard, median of 3, compiled µops)");
  Table t({"section", "ops", "elapsed (s)", "rate (/s)", "allocs/op"});
  t.AddRow("lock+release micro", lock.ops, lock.elapsed, lock.ops_per_second,
           lock.allocs_per_op);
  t.AddRow("rollback micro", rb.rollbacks, rb.elapsed,
           rb.rollbacks_per_second, "-");
  t.AddRow("program generate micro", gen.programs, gen.elapsed,
           gen.elapsed > 0 ? gen.programs / gen.elapsed : 0.0,
           gen.allocs_per_program);
  t.AddRow("program compile micro", comp.programs, comp.elapsed,
           comp.elapsed > 0 ? comp.programs / comp.elapsed : 0.0, "-");
  t.AddRow("end-to-end (pinned workload)", e2e.txns, e2e.elapsed,
           e2e.txns_per_second, "-");
  t.AddRow("steady-state step audit", steady.steps, "-", "-",
           steady.allocs_per_step);
  t.Print();
  std::cout << "(generate micro: " << gen.programs << " programs, "
            << gen.ops << " ops, " << gen.us_per_program
            << " us/program, " << gen.allocs_per_program
            << " heap blocks/program)\n";
  std::cout << "(compile micro: " << comp.programs << " programs, "
            << comp.us_per_program << " us/program, "
            << comp.compiled_bytes << " uop bytes)\n";
  std::cout << "(end-to-end deterministic fields: committed=" << e2e.committed
            << " steps=" << e2e.steps << " rollbacks=" << e2e.rollbacks
            << "; rollback micro: " << rb.deadlocks << " deadlocks over "
            << rb.pairs << " pairs; allocation counts must be exactly 0 on "
            << "the warm fast path)\n";

  std::ofstream json("BENCH_hotpath.json");
  json << "{\n"
       << " \"compile\":{\"enabled\":1,\"programs\":" << comp.programs
       << ",\"compiled_bytes\":" << comp.compiled_bytes
       << ",\"elapsed_seconds\":" << comp.elapsed
       << ",\"us_per_program\":" << comp.us_per_program << "},\n"
       << " \"generate\":{\"programs\":" << gen.programs
       << ",\"ops\":" << gen.ops
       << ",\"allocs_per_program\":" << gen.allocs_per_program
       << ",\"elapsed_seconds\":" << gen.elapsed
       << ",\"us_per_program\":" << gen.us_per_program << "},\n"
       << " \"lock_release\":{\"ops\":" << lock.ops
       << ",\"elapsed_seconds\":" << lock.elapsed
       << ",\"ops_per_second\":" << lock.ops_per_second
       << ",\"allocs_per_op\":" << lock.allocs_per_op << "},\n"
       << " \"rollback\":{\"pairs\":" << rb.pairs
       << ",\"rollbacks\":" << rb.rollbacks
       << ",\"deadlocks\":" << rb.deadlocks
       << ",\"elapsed_seconds\":" << rb.elapsed
       << ",\"rollbacks_per_second\":" << rb.rollbacks_per_second << "},\n"
       << " \"end_to_end\":{\"txns\":" << e2e.txns
       << ",\"committed\":" << e2e.committed << ",\"steps\":" << e2e.steps
       << ",\"rollbacks\":" << e2e.rollbacks
       << ",\"elapsed_seconds\":" << e2e.elapsed
       << ",\"txns_per_second\":" << e2e.txns_per_second << "},\n"
       << " \"steady_state\":{\"steps\":" << steady.steps
       << ",\"allocs\":" << steady.allocs
       << ",\"allocs_per_step\":" << steady.allocs_per_step << "}\n"
       << "}\n";
  std::cout << "(wrote BENCH_hotpath.json; committed/steps/rollbacks, the "
               "generated op count and every allocation counter are "
               "deterministic — only the timings vary)\n";
}

void BM_EndToEndPinnedWorkload(benchmark::State& state) {
  const auto programs = PinnedWorkloadPrograms();
  for (auto _ : state) {
    EndToEndResult r = RunEndToEnd(programs);
    benchmark::DoNotOptimize(r.committed);
  }
}
BENCHMARK(BM_EndToEndPinnedWorkload)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
