// Transaction design for cheap rollbacks (paper §5).
//
// The same business logic — read three records, update them, write them
// back — written three ways:
//   * scattered: updates interleaved with later lock requests (Figure 4
//     style);
//   * clustered: each record finished before the next lock (Figure 5
//     style);
//   * three-phase: acquire all locks, then update, then release.
// The example prints each program's state-dependency graph statistics and
// then measures the real effect under contention with the single-copy SDG
// rollback strategy.
//
// Build & run:  ./build/examples/transaction_design

#include <cstdio>

#include "par/sharded_driver.h"
#include "rollback/sdg.h"
#include "storage/entity_store.h"
#include "txn/program.h"

using namespace pardb;

namespace {

txn::Program MakeScattered(const std::vector<EntityId>& e) {
  txn::ProgramBuilder b("scattered", 3);
  b.LockExclusive(e[0]).Read(e[0], 0);
  b.LockExclusive(e[1]).Read(e[1], 1);
  // Update of record 0 happens *after* locking record 1: a later write
  // destroys the intermediate lock states.
  b.Compute(0, txn::Operand::Var(0), txn::ArithOp::kAdd, txn::Operand::Imm(1));
  b.WriteVar(e[0], 0);
  b.LockExclusive(e[2]).Read(e[2], 2);
  b.Compute(1, txn::Operand::Var(1), txn::ArithOp::kAdd, txn::Operand::Imm(1));
  b.WriteVar(e[1], 1);
  b.WriteVar(e[0], 0);  // touch record 0 again, even later
  b.Compute(2, txn::Operand::Var(2), txn::ArithOp::kAdd, txn::Operand::Imm(1));
  b.WriteVar(e[2], 2);
  b.Commit();
  auto p = b.Build();
  if (!p.ok()) std::abort();
  return std::move(p).value();
}

txn::Program MakeClustered(const std::vector<EntityId>& e) {
  txn::ProgramBuilder b("clustered", 3);
  for (int i = 0; i < 3; ++i) {
    const auto var = static_cast<txn::VarId>(i);
    b.LockExclusive(e[i]).Read(e[i], var);
    b.Compute(var, txn::Operand::Var(var), txn::ArithOp::kAdd,
              txn::Operand::Imm(1));
    b.WriteVar(e[i], var);
    if (i == 0) b.WriteVar(e[i], var);  // the repeat write stays clustered
  }
  b.Commit();
  auto p = b.Build();
  if (!p.ok()) std::abort();
  return std::move(p).value();
}

txn::Program MakeThreePhase(const std::vector<EntityId>& e) {
  txn::ProgramBuilder b("three-phase", 3);
  for (int i = 0; i < 3; ++i) b.LockExclusive(e[i]);
  for (int i = 0; i < 3; ++i) {
    const auto var = static_cast<txn::VarId>(i);
    b.Read(e[i], var);
    b.Compute(var, txn::Operand::Var(var), txn::ArithOp::kAdd,
              txn::Operand::Imm(1));
    b.WriteVar(e[i], var);
  }
  b.Commit();
  auto p = b.Build();
  if (!p.ok()) std::abort();
  return std::move(p).value();
}

void Analyze(const txn::Program& p) {
  auto sdg = rollback::BuildSdgForProgram(p);
  auto wd = sdg.WellDefinedStates();
  std::printf("%-12s lock states=%zu  well-defined=%zu  write-spread=%llu  "
              "three-phase=%s\n",
              p.name().c_str(), sdg.NumLockStates(), wd.size(),
              (unsigned long long)p.WriteSpreadScore(),
              p.IsThreePhase() ? "yes" : "no");
}

void Simulate(sim::WritePattern pattern, const char* label) {
  // The closed loop on one shard: every program from one generator.
  par::ShardedOptions opt;
  opt.num_shards = 1;
  opt.cross_shard_fraction = 0.0;
  opt.instrument = false;
  opt.engine.strategy = rollback::StrategyKind::kSdg;
  opt.workload.num_entities = 8;
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 5;
  opt.workload.ops_per_entity = 2;
  opt.workload.pattern = pattern;
  opt.concurrency = 8;
  opt.total_txns = 300;
  opt.seed = 5;
  opt.check_serializability = false;
  auto rep = par::RunSharded(opt);
  if (!rep.ok()) {
    std::fprintf(stderr, "run failed: %s\n", rep.status().ToString().c_str());
    return;
  }
  std::printf("%-12s deadlocks=%llu  ideal lost=%llu  actually lost=%llu  "
              "overshoot=%llu ops\n",
              label, (unsigned long long)rep->aggregate.deadlocks,
              (unsigned long long)rep->aggregate.ideal_wasted_ops,
              (unsigned long long)rep->aggregate.wasted_ops,
              (unsigned long long)(rep->aggregate.wasted_ops -
                                   rep->aggregate.ideal_wasted_ops));
}

}  // namespace

int main() {
  storage::EntityStore store;
  auto entities = store.CreateMany(3, 100);

  std::printf("static structure (same logic, three shapes):\n");
  Analyze(MakeScattered(entities));
  Analyze(MakeClustered(entities));
  Analyze(MakeThreePhase(entities));

  std::printf("\nunder contention with single-copy (SDG) rollback:\n");
  Simulate(sim::WritePattern::kScattered, "scattered");
  Simulate(sim::WritePattern::kClustered, "clustered");
  Simulate(sim::WritePattern::kThreePhase, "three-phase");

  std::printf(
      "\nTakeaway (paper §5): cluster each object's writes, or better, use\n"
      "an acquire/update/release structure — every lock state stays\n"
      "well-defined, so a deadlock rollback never loses more progress than\n"
      "strictly necessary, and after the last lock request monitoring can\n"
      "stop entirely.\n");
  return 0;
}
