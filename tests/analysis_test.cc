#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "analysis/history.h"
#include "analysis/precedence.h"
#include "common/random.h"
#include "core/engine.h"
#include "sim/workload.h"
#include "storage/entity_store.h"

namespace pardb::analysis {
namespace {

const TxnId kT1(1), kT2(2), kT3(3);
const EntityId kA(10), kB(11);

TEST(HistoryTest, EmptyHistorySerializable) {
  HistoryRecorder h;
  EXPECT_TRUE(h.IsConflictSerializable());
  EXPECT_TRUE(h.WitnessCycle().empty());
  EXPECT_TRUE(h.SerialOrder().ok());
}

TEST(HistoryTest, SingleWriterSerializable) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnRead(kT1, kA, 0, 1);
  h.OnPublish(kT1, kA, 1, 3);
  h.OnCommit(kT1);
  EXPECT_TRUE(h.IsConflictSerializable());
  auto order = h.SerialOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), std::vector<TxnId>{kT1});
}

TEST(HistoryTest, WriteWriteOrderRespected) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnPublish(kT1, kA, 1, 2);
  h.OnPublish(kT2, kA, 2, 2);
  h.OnCommit(kT1);
  h.OnCommit(kT2);
  EXPECT_TRUE(h.IsConflictSerializable());
  auto order = h.SerialOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), (std::vector<TxnId>{kT1, kT2}));
}

TEST(HistoryTest, ClassicNonSerializableCycleDetected) {
  // T1 reads A(v0) then publishes B; T2 reads B(v0) then publishes A.
  // r1(A) w2(A) and r2(B) w1(B): T1 < T2 (A) and T2 < T1 (B): cycle.
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnRead(kT1, kA, 0, 1);
  h.OnRead(kT2, kB, 0, 1);
  h.OnPublish(kT2, kA, 1, 3);
  h.OnPublish(kT1, kB, 1, 3);
  h.OnCommit(kT1);
  h.OnCommit(kT2);
  EXPECT_FALSE(h.IsConflictSerializable());
  auto cycle = h.WitnessCycle();
  EXPECT_GE(cycle.size(), 2u);
  EXPECT_FALSE(h.SerialOrder().ok());
}

TEST(HistoryTest, ReadersOrderAgainstLaterWriters) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnRead(kT2, kA, 0, 1);      // reads initial version
  h.OnPublish(kT1, kA, 1, 2);   // later writer
  h.OnCommit(kT1);
  h.OnCommit(kT2);
  auto order = h.SerialOrder();
  ASSERT_TRUE(order.ok());
  // T2 read the pre-T1 version, so T2 must precede T1.
  EXPECT_EQ(order.value(), (std::vector<TxnId>{kT2, kT1}));
}

TEST(HistoryTest, ReaderAfterWriterOrdersForward) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnPublish(kT1, kA, 1, 2);
  h.OnRead(kT2, kA, 1, 1);  // reads T1's version
  h.OnCommit(kT1);
  h.OnCommit(kT2);
  auto order = h.SerialOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), (std::vector<TxnId>{kT1, kT2}));
}

TEST(HistoryTest, RollbackErasesUndoneReads) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  // T1 reads A's initial version at state 5, then is rolled back to state
  // 2: the read never happened.
  h.OnRead(kT1, kA, 0, 5);
  h.OnRollback(kT1, 2);
  h.OnPublish(kT2, kA, 1, 1);
  h.OnCommit(kT2);
  // T1 re-executes and reads T2's version.
  h.OnRead(kT1, kA, 1, 5);
  h.OnPublish(kT1, kB, 1, 7);
  h.OnCommit(kT1);
  EXPECT_TRUE(h.IsConflictSerializable());
  auto order = h.SerialOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), (std::vector<TxnId>{kT2, kT1}));
}

TEST(HistoryTest, UncommittedTransactionsExcluded) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnRead(kT1, kA, 0, 1);
  h.OnRead(kT2, kB, 0, 1);
  h.OnPublish(kT2, kA, 1, 3);
  h.OnPublish(kT1, kB, 1, 3);
  h.OnCommit(kT1);
  // T2 never commits: the committed projection is the single T1.
  EXPECT_TRUE(h.IsConflictSerializable());
  EXPECT_EQ(h.committed_count(), 1u);
}

TEST(HistoryTest, ThreeTxnCycle) {
  HistoryRecorder h;
  const EntityId kC(12);
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnBegin(kT3, 2);
  h.OnRead(kT1, kA, 0, 1);
  h.OnPublish(kT2, kA, 1, 2);  // T1 < T2
  h.OnRead(kT2, kB, 0, 1);
  h.OnPublish(kT3, kB, 1, 2);  // T2 < T3
  h.OnRead(kT3, kC, 0, 1);
  h.OnPublish(kT1, kC, 1, 2);  // T3 < T1
  h.OnCommit(kT1);
  h.OnCommit(kT2);
  h.OnCommit(kT3);
  EXPECT_FALSE(h.IsConflictSerializable());
  EXPECT_EQ(h.WitnessCycle().size(), 3u);
}

// ---------------------------------------------------------------------------
// Online certifier vs the batch oracle (DESIGN D17)
// ---------------------------------------------------------------------------

// The committed projection's precedence adjacency, built by the batch
// builder the recorder used before certification went online.
std::map<std::uint64_t, std::vector<std::uint64_t>> OracleGraph(
    const HistoryRecorder& h) {
  std::vector<precedence::FlatAccess> acc;
  std::vector<std::uint64_t> keys;
  for (const auto& c : h.CommittedLog()) {
    keys.push_back(c.txn.value());
    for (const AccessEvent& e : c.events) {
      acc.push_back(precedence::FlatAccess{c.txn.value(), e.entity.value(),
                                           e.version, e.is_write});
    }
  }
  return precedence::BuildPrecedenceFlat(
      std::move(acc), keys, precedence::WriterTieBreak::kMaxKey, nullptr);
}

bool OracleSerializable(const HistoryRecorder& h) {
  return precedence::FindCycleFlat(OracleGraph(h)).empty();
}

// Reachability over `n` vertices from an edge list (Floyd–Warshall on
// bitsets is overkill at these sizes).
std::vector<std::vector<bool>> Closure(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& e) {
  std::vector<std::vector<bool>> r(n, std::vector<bool>(n, false));
  for (const auto& [a, b] : e) r[a][b] = true;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!r[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (r[k][j]) r[i][j] = true;
      }
    }
  }
  return r;
}

// D17's invariant: over the committed transactions, the online edge set
// and the oracle's have the same transitive closure.
void ExpectSameClosure(const HistoryRecorder& h) {
  std::map<std::uint64_t, std::size_t> index;
  for (const auto& c : h.CommittedLog()) {
    index.emplace(c.txn.value(), index.size());
  }
  std::vector<std::pair<std::size_t, std::size_t>> oracle, online;
  for (const auto& [v, nbrs] : OracleGraph(h)) {
    for (std::uint64_t u : nbrs) oracle.emplace_back(index.at(v), index.at(u));
  }
  h.ForEachCertifierEdge([&](std::uint32_t a, std::uint32_t b) {
    online.emplace_back(index.at(h.certifier_txn(a).value()),
                        index.at(h.certifier_txn(b).value()));
  });
  EXPECT_EQ(Closure(index.size(), oracle), Closure(index.size(), online));
}

void ExpectMatchesOracle(const HistoryRecorder& h) {
  EXPECT_EQ(h.IsConflictSerializable(), OracleSerializable(h));
  if (h.certifier_exact()) ExpectSameClosure(h);
}

TEST(CertifierTest, WriteWriteCycle) {
  // T1 < T2 on A, T2 < T1 on B: a cycle of w->w edges only.
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnPublish(kT1, kA, 1, 1);
  h.OnPublish(kT2, kA, 2, 1);
  h.OnPublish(kT2, kB, 1, 2);
  h.OnPublish(kT1, kB, 2, 2);
  h.OnCommit(kT1);
  h.OnCommit(kT2);
  EXPECT_TRUE(h.certifier_exact());
  EXPECT_FALSE(h.IsConflictSerializable());
  ExpectMatchesOracle(h);
}

TEST(CertifierTest, AntiDependencyCycle) {
  // A ring of r->w edges only: each transaction reads the initial version
  // of what the next one overwrites. T1 commits before A is overwritten,
  // so its read waits on A's next writer; T2's edge to T1 arrives out of
  // commit order; T3's commit closes the ring.
  const EntityId kC(12);
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnBegin(kT3, 2);
  h.OnRead(kT1, kA, 0, 1);
  h.OnRead(kT2, kB, 0, 1);
  h.OnRead(kT3, kC, 0, 1);
  h.OnPublish(kT1, kB, 1, 2);  // T2 -> T1
  h.OnCommit(kT1);
  h.OnPublish(kT2, kC, 1, 2);  // T3 -> T2
  h.OnCommit(kT2);
  EXPECT_TRUE(h.IsConflictSerializable());
  h.OnPublish(kT3, kA, 1, 2);  // T1 -> T3
  h.OnCommit(kT3);
  EXPECT_TRUE(h.certifier_exact());
  EXPECT_FALSE(h.IsConflictSerializable());
  ExpectMatchesOracle(h);
}

// T2 publishes C then A; T1 publishes C after T2 (T2 -> T1). T1's read of
// A's initial version would add T1 -> T2 and close a cycle — unless a
// partial rollback drops it and T1 re-reads T2's version.
void ReadDroppedByRollback(bool roll_back) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnRead(kT1, kA, 0, 5);
  if (roll_back) h.OnRollback(kT1, 2);
  h.OnPublish(kT2, EntityId(12), 1, 1);
  h.OnPublish(kT2, kA, 1, 2);
  h.OnCommit(kT2);
  if (roll_back) h.OnRead(kT1, kA, 1, 5);
  h.OnPublish(kT1, EntityId(12), 2, 7);
  h.OnCommit(kT1);
  EXPECT_TRUE(h.certifier_exact());
  EXPECT_EQ(h.IsConflictSerializable(), roll_back);
  EXPECT_EQ(h.invariant_violations(), 0u);
  ExpectMatchesOracle(h);
}

TEST(CertifierTest, ReadDroppedByPartialRollbackClosesNoCycle) {
  ReadDroppedByRollback(/*roll_back=*/true);
  ReadDroppedByRollback(/*roll_back=*/false);
}

TEST(CertifierTest, UncommittedPublisherFallsBackToOracle) {
  // T2 publishes A v2 between T1's v1 and T3's v3 and never commits. The
  // oracle orders the consecutive *committed* writers T1 -> T3, which with
  // T3 -> T1 on B is a cycle; the online graph only has the edges through
  // T2, parked until a commit that never comes, so the verdict must fall
  // back.
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnBegin(kT3, 2);
  h.OnPublish(kT1, kA, 1, 1);
  h.OnPublish(kT2, kA, 2, 1);
  h.OnPublish(kT3, kA, 3, 1);
  h.OnPublish(kT3, kB, 1, 2);
  h.OnCommit(kT3);
  h.OnRead(kT1, kB, 1, 2);
  h.OnCommit(kT1);
  EXPECT_FALSE(h.certifier_exact());
  EXPECT_EQ(h.committed_count(), 2u);
  EXPECT_FALSE(h.IsConflictSerializable());
  ExpectMatchesOracle(h);
}

TEST(CertifierTest, NonAscendingPublishFallsBackToOracle) {
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnPublish(kT1, kA, 2, 1);
  h.OnPublish(kT2, kA, 1, 1);
  h.OnRead(kT2, kB, 0, 2);
  h.OnPublish(kT1, kB, 1, 2);
  h.OnCommit(kT1);
  h.OnCommit(kT2);
  EXPECT_FALSE(h.certifier_exact());
  ExpectMatchesOracle(h);
}

TEST(CertifierTest, ReadOfUnpublishedVersionFallsBackToOracle) {
  // T2 reads A v3 before any A version exists. The oracle gives that read
  // no writer at all; online, it would wait for A's next writer and order
  // T2 before T1, closing a false cycle with T1 -> T2 on B.
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnPublish(kT1, kB, 1, 1);
  h.OnRead(kT2, kB, 1, 1);
  h.OnRead(kT2, kA, 3, 2);
  h.OnCommit(kT2);
  h.OnPublish(kT1, kA, 1, 2);
  h.OnCommit(kT1);
  EXPECT_FALSE(h.certifier_exact());
  EXPECT_TRUE(h.IsConflictSerializable());
  ExpectMatchesOracle(h);
}

TEST(CertifierTest, RollbackPastPublishIsALoudViolation) {
  // Two-phase locking never rolls a transaction back past an unlock; if it
  // happens anyway the history cannot be trusted, whatever the graph says.
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnRead(kT1, kA, 0, 1);
  h.OnPublish(kT1, kA, 1, 3);
  h.OnRollback(kT1, 2);
  h.OnCommit(kT1);
  EXPECT_EQ(h.invariant_violations(), 1u);
  EXPECT_FALSE(h.IsConflictSerializable());
  // The batch graph alone (the erased publish gone) has no cycle.
  EXPECT_TRUE(OracleSerializable(h));
}

// Random interleavings with no locking at all, so cycles are common:
// transactions read each entity's current version, publish the next one,
// roll back reads (never past their last publish) and commit in any order.
TEST(CertifierTest, RandomUnlockedHistoriesMatchOracle) {
  int cyclic = 0, exact = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    HistoryRecorder h;
    constexpr std::uint64_t kTxns = 8, kEntities = 4;
    std::vector<std::uint64_t> version(kEntities, 0);
    std::vector<StateIndex> state(kTxns, 0), floor(kTxns, 0);
    std::vector<bool> live(kTxns, true);
    for (std::uint64_t t = 0; t < kTxns; ++t) h.OnBegin(TxnId(t), t);
    for (int step = 0; step < 60; ++step) {
      const std::uint64_t t = rng.Uniform(kTxns);
      if (!live[t]) continue;
      const EntityId e(rng.Uniform(kEntities));
      const std::uint64_t action = rng.Uniform(10);
      if (action < 5) {
        h.OnRead(TxnId(t), e, version[e.value()], state[t]++);
      } else if (action < 7) {
        h.OnPublish(TxnId(t), e, ++version[e.value()], state[t]);
        floor[t] = ++state[t];
      } else if (action < 8 && state[t] > floor[t]) {
        state[t] = floor[t] + rng.Uniform(state[t] - floor[t]);
        h.OnRollback(TxnId(t), state[t]);
      } else if (action == 9) {
        h.OnCommit(TxnId(t));
        live[t] = false;
      }
    }
    // Most leftovers commit, so most histories stay on the online path.
    for (std::uint64_t t = 0; t < kTxns; ++t) {
      if (live[t] && rng.Uniform(8) != 0) h.OnCommit(TxnId(t));
    }
    EXPECT_EQ(h.invariant_violations(), 0u);
    ExpectMatchesOracle(h);
    cyclic += h.IsConflictSerializable() ? 0 : 1;
    exact += h.certifier_exact() ? 1 : 0;
  }
  // The corpus must exercise both verdicts and mostly the online path.
  EXPECT_GT(cyclic, 50);
  EXPECT_GT(exact, 200);
}

// ---------------------------------------------------------------------------
// Pruning (DESIGN D23)
// ---------------------------------------------------------------------------

TEST(CertifierPruneTest, SourceIsKeptWhileATransactionLiveAtItsCommitRuns) {
  // T1 commits as a source, but T2 — live at T1's commit — read A before
  // T1 overwrote it, so T2 -> T1 arrives only at T2's commit and closes a
  // cycle through T1. Pruning T1 as "a source now" would lose it.
  HistoryRecorder h;
  h.OnBegin(kT1, 0);
  h.OnBegin(kT2, 1);
  h.OnRead(kT2, kA, 0, 1);
  h.OnPublish(kT1, kA, 1, 1);
  h.OnPublish(kT1, kB, 1, 2);
  h.OnCommit(kT1);
  EXPECT_FALSE(h.Prunable(kT1));
  EXPECT_EQ(h.Prune(), 0u);
  h.OnRead(kT2, kB, 1, 2);
  h.OnCommit(kT2);
  EXPECT_FALSE(h.IsConflictSerializable());
  // A cyclic pair keeps each other's predecessor: neither is ever pruned.
  EXPECT_EQ(h.Prune(), 0u);
  EXPECT_EQ(h.CommittedLog().size(), 2u);
}

TEST(CertifierPruneTest, PruningCascadesAndPinnedWaitsForPruneTxn) {
  for (bool pin : {false, true}) {
    HistoryRecorder h;
    h.OnBegin(kT1, 0);
    h.OnPublish(kT1, kA, 1, 1);
    h.OnCommit(kT1);
    h.OnBegin(kT2, 1);  // after T1's commit: no arc can enter T1 now
    if (pin) h.Pin(kT1);
    h.OnRead(kT2, kA, 1, 1);  // T1 -> T2
    h.OnPublish(kT2, kB, 1, 2);
    h.OnCommit(kT2);
    EXPECT_TRUE(h.Prunable(kT1));
    EXPECT_FALSE(h.Prunable(kT2));  // its predecessor T1 is still there
    if (pin) {
      EXPECT_EQ(h.Prune(), 0u);
      EXPECT_TRUE(h.PruneTxn(kT1));
    } else {
      EXPECT_EQ(h.Prune(), 2u);
    }
    EXPECT_EQ(h.pruned_count(), 2u);
    EXPECT_EQ(h.committed_count(), 2u);
    EXPECT_TRUE(h.CommittedLog().empty());
    EXPECT_FALSE(h.PruneTxn(kT2));  // gone
    // A later reader of the pruned writers' versions still certifies.
    const TxnId t3(3);
    h.OnBegin(t3, 2);
    h.OnRead(t3, kB, 1, 1);
    h.OnPublish(t3, kA, 2, 2);
    h.OnCommit(t3);
    EXPECT_TRUE(h.certifier_exact());
    EXPECT_TRUE(h.IsConflictSerializable());
    EXPECT_EQ(h.Prune(), 1u);
  }
}

// Random unlocked histories (cycles are common), staggered so early
// commits become prunable: one recorder prunes at random points, a twin
// fed the same events never does. The verdicts must agree — and agree with
// the batch oracle — including on cycles through transactions that were
// already committed, and so pruning candidates, when a prune ran.
TEST(CertifierPruneTest, RandomHistoriesKeepTheOracleVerdict) {
  int cyclic = 0, pruning = 0, through_candidate = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    Rng rng(seed);
    HistoryRecorder whole, pruned;
    constexpr std::uint64_t kTxns = 12, kEntities = 4;
    std::vector<std::uint64_t> version(kEntities, 0);
    std::vector<StateIndex> state(kTxns, 0), floor(kTxns, 0);
    std::vector<bool> begun(kTxns, false), live(kTxns, false);
    std::set<std::uint64_t> candidates;  // committed when a prune ran
    std::uint64_t next = 0;
    for (int step = 0; step < 120; ++step) {
      if (next < kTxns && rng.Uniform(6) == 0) {
        whole.OnBegin(TxnId(next), next);
        pruned.OnBegin(TxnId(next), next);
        begun[next] = live[next] = true;
        ++next;
      }
      const std::uint64_t t = rng.Uniform(kTxns);
      if (live[t]) {
        const EntityId e(rng.Uniform(kEntities));
        const std::uint64_t action = rng.Uniform(10);
        if (action < 5) {
          whole.OnRead(TxnId(t), e, version[e.value()], state[t]);
          pruned.OnRead(TxnId(t), e, version[e.value()], state[t]++);
        } else if (action < 7) {
          whole.OnPublish(TxnId(t), e, ++version[e.value()], state[t]);
          pruned.OnPublish(TxnId(t), e, version[e.value()], state[t]);
          floor[t] = ++state[t];
        } else if (action < 8 && state[t] > floor[t]) {
          state[t] = floor[t] + rng.Uniform(state[t] - floor[t]);
          whole.OnRollback(TxnId(t), state[t]);
          pruned.OnRollback(TxnId(t), state[t]);
        } else if (action == 9) {
          whole.OnCommit(TxnId(t));
          pruned.OnCommit(TxnId(t));
          live[t] = false;
        }
      }
      if (rng.Uniform(3) == 0) {
        pruned.Prune();
        for (std::uint64_t c = 0; c < kTxns; ++c) {
          if (begun[c] && !live[c]) candidates.insert(c);
        }
      }
    }
    for (std::uint64_t t = 0; t < kTxns; ++t) {
      if (live[t]) {
        whole.OnCommit(TxnId(t));
        pruned.OnCommit(TxnId(t));
      }
    }
    pruned.Prune();
    ASSERT_TRUE(whole.certifier_exact());
    const bool verdict = whole.IsConflictSerializable();
    EXPECT_EQ(verdict, OracleSerializable(whole)) << "seed " << seed;
    EXPECT_EQ(pruned.IsConflictSerializable(), verdict) << "seed " << seed;
    pruning += pruned.pruned_count() > 0 ? 1 : 0;
    if (!verdict) {
      ++cyclic;
      for (TxnId t : whole.WitnessCycle()) {
        if (candidates.count(t.value()) != 0) {
          ++through_candidate;
          break;
        }
      }
    }
  }
  // The corpus must prune, find cycles, and find some through candidates.
  EXPECT_GT(pruning, 200);
  EXPECT_GT(cyclic, 100);
  EXPECT_GT(through_candidate, 50);
}

struct EngineRun {
  std::unique_ptr<HistoryRecorder> recorder;
  core::EngineMetrics metrics;
};

// A closed-loop engine run with `concurrency` transactions in flight,
// stopped after `txns` commits or `step_budget` steps.
EngineRun RunEngine(const sim::WorkloadOptions& w, std::uint64_t seed,
                    std::uint64_t txns, std::uint64_t step_budget) {
  EngineRun out;
  out.recorder = std::make_unique<HistoryRecorder>();
  storage::EntityStore store;
  store.CreateMany(w.num_entities, 100);
  core::EngineOptions eopt;
  eopt.scheduler = core::SchedulerKind::kRandom;
  eopt.seed = seed;
  core::Engine engine(&store, eopt, out.recorder.get());
  sim::WorkloadGenerator gen(w, seed);
  std::uint64_t spawned = 0, steps = 0;
  while (engine.metrics().commits < txns && steps < step_budget) {
    while (spawned < txns && spawned - engine.metrics().commits < 8) {
      auto program = gen.Next();
      EXPECT_TRUE(program.ok());
      EXPECT_TRUE(engine.Spawn(std::move(program).value()).ok());
      ++spawned;
    }
    auto q = engine.StepQuantum(step_budget - steps, true);
    EXPECT_TRUE(q.ok());
    if (!q.ok() || q.value().ran_dry) break;
    steps += q.value().steps;
  }
  out.metrics = engine.metrics();
  return out;
}

TEST(CertifierTest, EngineRunsMatchOracle) {
  sim::WorkloadOptions exclusive;
  exclusive.num_entities = 32;
  exclusive.min_locks = 2;
  exclusive.max_locks = 4;
  sim::WorkloadOptions shared = exclusive;
  shared.shared_fraction = 0.3;
  // contention_rw-like: hot keys, wide footprints, rollback-heavy.
  sim::WorkloadOptions contended;
  contended.num_entities = 16;
  contended.zipf_theta = 0.7;
  contended.shared_fraction = 0.3;
  contended.min_locks = 3;
  contended.max_locks = 6;
  std::uint64_t rollbacks = 0;
  for (const sim::WorkloadOptions* w : {&exclusive, &shared, &contended}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      EngineRun run = RunEngine(*w, seed, 200, 10'000'000);
      EXPECT_EQ(run.metrics.commits, 200u);
      EXPECT_TRUE(run.recorder->certifier_exact());
      EXPECT_EQ(run.recorder->invariant_violations(), 0u);
      EXPECT_TRUE(run.recorder->IsConflictSerializable());
      ExpectMatchesOracle(*run.recorder);
      if (w == &contended) rollbacks += run.metrics.partial_rollbacks;
    }
  }
  EXPECT_GT(rollbacks, 0u) << "the contended mix must roll back";
}

TEST(CertifierTest, IncompleteEngineRunMatchesOracle) {
  sim::WorkloadOptions w;
  w.num_entities = 16;
  w.shared_fraction = 0.3;
  w.min_locks = 3;
  w.max_locks = 6;
  EngineRun run = RunEngine(w, 9, 200, 1500);  // budget runs out mid-flight
  EXPECT_LT(run.metrics.commits, 200u);
  EXPECT_GT(run.metrics.commits, 0u);
  ExpectMatchesOracle(*run.recorder);
}

}  // namespace
}  // namespace pardb::analysis
