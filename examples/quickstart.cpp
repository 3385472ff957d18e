// Quickstart: two transactions deadlock over a pair of accounts; the engine
// detects the cycle at wait time and removes it with a *partial* rollback —
// the victim keeps its first lock and loses only the progress made since the
// conflicting lock request (Fussell, Kedem & Silberschatz, SIGMOD 1981).
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/engine.h"
#include "storage/entity_store.h"
#include "txn/program.h"

using namespace pardb;  // examples favor brevity

int main() {
  // A database of two entities.
  storage::EntityStore store;
  const EntityId a(0), b(1);
  (void)store.Create(a, 100);
  (void)store.Create(b, 200);

  // Engine with the paper's configuration: MCS rollback state (every lock
  // state restorable) and cost-optimal victim choice constrained by the
  // entry order (Theorem 2).
  core::EngineOptions options;
  options.strategy = rollback::StrategyKind::kMcs;
  options.victim_policy = core::VictimPolicyKind::kMinCostOrdered;
  // Keep a forensic record of every deadlock the engine resolves.
  obs::CollectingDeadlockSink deadlocks;
  core::Engine engine(&store, options);
  engine.set_forensics(&deadlocks);

  // T0: a += 1, then b += 1 (locks a then b).
  auto p0 = txn::ProgramBuilder("transfer-ab", 1)
                .LockExclusive(a)
                .Read(a, 0)
                .Compute(0, txn::Operand::Var(0), txn::ArithOp::kAdd,
                         txn::Operand::Imm(1))
                .WriteVar(a, 0)
                .LockExclusive(b)
                .Read(b, 0)
                .Compute(0, txn::Operand::Var(0), txn::ArithOp::kAdd,
                         txn::Operand::Imm(1))
                .WriteVar(b, 0)
                .Commit()
                .Build();
  // T1: b += 10, then a += 10 (locks b then a -> deadlock-prone order).
  auto p1 = txn::ProgramBuilder("transfer-ba", 1)
                .LockExclusive(b)
                .Read(b, 0)
                .Compute(0, txn::Operand::Var(0), txn::ArithOp::kAdd,
                         txn::Operand::Imm(10))
                .WriteVar(b, 0)
                .LockExclusive(a)
                .Read(a, 0)
                .Compute(0, txn::Operand::Var(0), txn::ArithOp::kAdd,
                         txn::Operand::Imm(10))
                .WriteVar(a, 0)
                .Commit()
                .Build();
  if (!p0.ok() || !p1.ok()) {
    std::fprintf(stderr, "program build failed\n");
    return 1;
  }

  auto t0 = engine.Spawn(std::move(p0).value());
  auto t1 = engine.Spawn(std::move(p1).value());
  if (!t0.ok() || !t1.ok()) {
    std::fprintf(stderr, "spawn failed\n");
    return 1;
  }

  Status s = engine.RunToCompletion();
  if (!s.ok()) {
    std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
    return 1;
  }

  const auto& m = engine.metrics();
  std::printf("both transactions committed.\n");
  std::printf("deadlocks detected : %llu\n",
              static_cast<unsigned long long>(m.deadlocks));
  std::printf("partial rollbacks  : %llu\n",
              static_cast<unsigned long long>(m.partial_rollbacks));
  std::printf("total rollbacks    : %llu\n",
              static_cast<unsigned long long>(m.total_rollbacks));
  std::printf("ops lost to rollback: %llu\n",
              static_cast<unsigned long long>(m.wasted_ops));
  for (const obs::DeadlockDump& d : deadlocks.dumps()) {
    std::printf("deadlock: requester T%llu over E%llu, victim T%llu, cost %llu\n",
                static_cast<unsigned long long>(d.requester.value()),
                static_cast<unsigned long long>(d.requested_entity.value()),
                static_cast<unsigned long long>(d.victims.front().value()),
                static_cast<unsigned long long>(obs::VictimCost(d)));
  }
  std::printf("final a=%lld b=%lld (serial orders give 111/211)\n",
              static_cast<long long>(store.Get(a).value().value),
              static_cast<long long>(store.Get(b).value().value));
  return 0;
}
