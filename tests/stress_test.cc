// Stress tests: lock-manager invariant fuzzing under random operation
// sequences, and a thread-per-transaction driver exercising the engine
// under OS-scheduled interleavings (the engine itself is single-threaded;
// callers serialize with a mutex, as a connection multiplexer would).

#include <mutex>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "analysis/history.h"
#include "common/random.h"
#include "core/engine.h"
#include "lock/lock_manager.h"
#include "sim/workload.h"
#include "storage/entity_store.h"

namespace pardb {
namespace {

using lock::LockManager;
using lock::LockMode;

// ---------------------------------------------------------------------------
// Lock manager invariant fuzz
// ---------------------------------------------------------------------------

// Invariants checked after every operation:
//  I1  holders of an entity are pairwise compatible;
//  I2  work conservation: the queue head (position 0) is not grantable;
//  I3  a transaction the manager reports waiting is in exactly one queue;
//  I4  HeldBy/Holders agree.
class LockFuzz {
 public:
  explicit LockFuzz(LockManager::Options options, std::uint64_t seed)
      : lm_(options), options_(options), rng_(seed) {}

  void Run(int steps) {
    for (int i = 0; i < steps; ++i) {
      Step();
      CheckInvariants();
    }
  }

 private:
  static constexpr int kTxns = 8;
  static constexpr int kEntities = 4;

  void Step() {
    const TxnId txn(rng_.Uniform(kTxns));
    const EntityId entity(rng_.Uniform(kEntities));
    switch (rng_.Uniform(4)) {
      case 0: {  // request
        if (lm_.IsWaiting(txn)) break;
        LockMode mode =
            rng_.Bernoulli(0.5) ? LockMode::kShared : LockMode::kExclusive;
        auto held = lm_.HeldMode(txn, entity);
        if (held.has_value() &&
            (held == LockMode::kExclusive || mode == LockMode::kShared)) {
          break;  // would be a protocol violation; skip
        }
        auto r = lm_.Request(txn, entity, mode);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        break;
      }
      case 1: {  // release
        if (!lm_.HeldMode(txn, entity).has_value()) break;
        auto r = lm_.Release(txn, entity);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        break;
      }
      case 2: {  // cancel wait
        auto pending = lm_.Waiting(txn);
        if (!pending.has_value()) break;
        auto r = lm_.CancelWait(txn, pending->entity);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        break;
      }
      case 3: {  // downgrade
        if (lm_.HeldMode(txn, entity) != LockMode::kExclusive) break;
        auto r = lm_.Downgrade(txn, entity);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        break;
      }
    }
  }

  void CheckInvariants() {
    for (std::uint64_t e = 0; e < kEntities; ++e) {
      const EntityId entity(e);
      auto holders = lm_.Holders(entity);
      // I1: pairwise compatibility.
      int exclusive = 0;
      for (const auto& [t, m] : holders) {
        (void)t;
        if (m == LockMode::kExclusive) ++exclusive;
      }
      EXPECT_TRUE(exclusive == 0 ||
                  (exclusive == 1 && holders.size() == 1))
          << "incompatible holders on " << entity << "\n" << lm_.ToString();

      // I2: work conservation for the queue head.
      auto queue = lm_.WaitQueue(entity);
      if (!queue.empty()) {
        const auto& [head_txn, head_mode] = queue.front();
        bool compatible_with_holders = true;
        bool self_sole_holder =
            holders.size() == 1 && holders[0].first == head_txn;
        for (const auto& [t, m] : holders) {
          if (t == head_txn) continue;
          if (!lock::Compatible(m, head_mode)) {
            compatible_with_holders = false;
          }
        }
        // An upgrade head is grantable iff sole holder; a plain head iff
        // compatible with all holders. Either way it must NOT be.
        bool head_holds = lm_.HeldMode(head_txn, entity).has_value();
        bool grantable = head_holds ? self_sole_holder
                                    : compatible_with_holders;
        EXPECT_FALSE(grantable)
            << "grantable head left waiting on " << entity << "\n"
            << lm_.ToString();
      }

      // I4: cross-check HeldBy.
      for (const auto& [t, m] : holders) {
        bool found = false;
        for (const auto& [he, hm] : lm_.HeldBy(t)) {
          if (he == entity) {
            EXPECT_EQ(hm, m);
            found = true;
          }
        }
        EXPECT_TRUE(found);
      }
    }
    // I3: waiting transactions appear in exactly one queue.
    for (std::uint64_t t = 0; t < kTxns; ++t) {
      const TxnId txn(t);
      int appearances = 0;
      for (std::uint64_t e = 0; e < kEntities; ++e) {
        for (const auto& [w, m] : lm_.WaitQueue(EntityId(e))) {
          (void)m;
          if (w == txn) ++appearances;
        }
      }
      EXPECT_EQ(appearances, lm_.IsWaiting(txn) ? 1 : 0);
    }
  }

  LockManager lm_;
  LockManager::Options options_;
  Rng rng_;
};

TEST(LockFuzzTest, PaperModelInvariants) {
  LockManager::Options opt;  // paper model: shared bypass, holders-only
  LockFuzz fuzz(opt, 101);
  fuzz.Run(4000);
}

TEST(LockFuzzTest, FifoModelInvariants) {
  LockManager::Options opt;
  opt.fifo_fairness = true;
  LockFuzz fuzz(opt, 202);
  fuzz.Run(4000);
}

// ---------------------------------------------------------------------------
// Thread-per-transaction driver
// ---------------------------------------------------------------------------

TEST(ThreadedDriverTest, ConcurrentClientsStaySerializable) {
  storage::EntityStore store;
  store.CreateMany(8, 100);
  analysis::HistoryRecorder recorder;
  core::EngineOptions opt;
  core::Engine engine(&store, opt, &recorder);
  std::mutex mu;  // the engine API is externally synchronized

  constexpr int kThreads = 6;
  constexpr int kTxnsPerThread = 10;
  sim::WorkloadOptions wopt;
  wopt.num_entities = 8;
  wopt.min_locks = 2;
  wopt.max_locks = 4;

  std::vector<std::thread> threads;
  std::vector<Status> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      sim::WorkloadGenerator gen(wopt, 1000 + t);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        TxnId id;
        {
          std::lock_guard<std::mutex> g(mu);
          auto p = gen.Next();
          if (!p.ok()) {
            failures[t] = p.status();
            return;
          }
          auto spawned = engine.Spawn(std::move(p).value());
          if (!spawned.ok()) {
            failures[t] = spawned.status();
            return;
          }
          id = spawned.value();
        }
        // Drive own transaction to commit; yield while it waits (another
        // thread's transaction must run to release locks).
        for (;;) {
          core::StepOutcome outcome;
          {
            std::lock_guard<std::mutex> g(mu);
            auto r = engine.StepTxn(id);
            if (!r.ok()) {
              failures[t] = r.status();
              return;
            }
            outcome = r.value();
          }
          if (outcome == core::StepOutcome::kCommitted) break;
          if (outcome == core::StepOutcome::kBlocked ||
              outcome == core::StepOutcome::kIdle) {
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& s : failures) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_EQ(engine.metrics().commits,
            static_cast<std::uint64_t>(kThreads * kTxnsPerThread));
  EXPECT_TRUE(recorder.IsConflictSerializable());
}

}  // namespace
}  // namespace pardb
