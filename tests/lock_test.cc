#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "lock/lock_manager.h"
#include "lock/lock_mode.h"

namespace pardb::lock {
namespace {

const TxnId kT1(1), kT2(2), kT3(3);
const EntityId kA(10), kB(11);

TEST(LockModeTest, CompatibilityMatrix) {
  EXPECT_TRUE(Compatible(LockMode::kShared, LockMode::kShared));
  EXPECT_FALSE(Compatible(LockMode::kShared, LockMode::kExclusive));
  EXPECT_FALSE(Compatible(LockMode::kExclusive, LockMode::kShared));
  EXPECT_FALSE(Compatible(LockMode::kExclusive, LockMode::kExclusive));
}

TEST(LockManagerTest, GrantOnFreeEntity) {
  LockManager lm;
  auto r = lm.Request(kT1, kA, LockMode::kExclusive);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().granted);
  EXPECT_EQ(lm.HeldMode(kT1, kA), LockMode::kExclusive);
  EXPECT_EQ(lm.HeldCount(kT1), 1u);
}

TEST(LockManagerTest, SharedCoexists) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kShared).value().granted);
  ASSERT_TRUE(lm.Request(kT2, kA, LockMode::kShared).value().granted);
  auto holders = lm.Holders(kA);
  ASSERT_EQ(holders.size(), 2u);
  EXPECT_EQ(holders[0].first, kT1);
  EXPECT_EQ(holders[1].first, kT2);
}

TEST(LockManagerTest, ExclusiveBlocksAndReportsHolders) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  auto r = lm.Request(kT2, kA, LockMode::kExclusive);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().granted);
  ASSERT_EQ(r.value().blockers.size(), 1u);
  EXPECT_EQ(r.value().blockers[0], kT1);
  EXPECT_TRUE(lm.IsWaiting(kT2));
  auto pending = lm.Waiting(kT2);
  ASSERT_TRUE(pending.has_value());
  EXPECT_EQ(pending->entity, kA);
  EXPECT_EQ(pending->mode, LockMode::kExclusive);
}

TEST(LockManagerTest, SharedRequestBlockedByExclusiveHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  auto r = lm.Request(kT2, kA, LockMode::kShared);
  EXPECT_FALSE(r.value().granted);
  EXPECT_EQ(r.value().blockers, std::vector<TxnId>{kT1});
}

TEST(LockManagerTest, XRequestOnSharedReportsAllHolders) {
  // The paper's Type 2 conflict: a waiter can wait for several holders.
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kShared).value().granted);
  ASSERT_TRUE(lm.Request(kT2, kA, LockMode::kShared).value().granted);
  auto r = lm.Request(kT3, kA, LockMode::kExclusive);
  EXPECT_FALSE(r.value().granted);
  EXPECT_EQ(r.value().blockers, (std::vector<TxnId>{kT1, kT2}));
}

TEST(LockManagerTest, ReleaseGrantsFifo) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  ASSERT_FALSE(lm.Request(kT2, kA, LockMode::kExclusive).value().granted);
  ASSERT_FALSE(lm.Request(kT3, kA, LockMode::kExclusive).value().granted);
  auto grants = lm.Release(kT1, kA);
  ASSERT_TRUE(grants.ok());
  ASSERT_EQ(grants.value().size(), 1u);
  EXPECT_EQ(grants.value()[0].txn, kT2);  // first waiter wins
  EXPECT_EQ(lm.HeldMode(kT2, kA), LockMode::kExclusive);
  EXPECT_TRUE(lm.IsWaiting(kT3));
}

TEST(LockManagerTest, ReleaseGrantsSharedBatch) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  ASSERT_FALSE(lm.Request(kT2, kA, LockMode::kShared).value().granted);
  ASSERT_FALSE(lm.Request(kT3, kA, LockMode::kShared).value().granted);
  auto grants = lm.Release(kT1, kA);
  ASSERT_TRUE(grants.ok());
  EXPECT_EQ(grants.value().size(), 2u);  // both shared waiters together
  EXPECT_EQ(lm.HeldMode(kT2, kA), LockMode::kShared);
  EXPECT_EQ(lm.HeldMode(kT3, kA), LockMode::kShared);
}

TEST(LockManagerTest, SharedBypassInPaperModel) {
  // Default (no FIFO fairness): a shared request compatible with all
  // holders is granted even while an exclusive request waits.
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kShared).value().granted);
  ASSERT_FALSE(lm.Request(kT2, kA, LockMode::kExclusive).value().granted);
  auto r = lm.Request(kT3, kA, LockMode::kShared);
  EXPECT_TRUE(r.value().granted);
}

TEST(LockManagerTest, FifoFairnessBlocksBypass) {
  LockManager::Options opt;
  opt.fifo_fairness = true;
  LockManager lm(opt);
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kShared).value().granted);
  ASSERT_FALSE(lm.Request(kT2, kA, LockMode::kExclusive).value().granted);
  auto r = lm.Request(kT3, kA, LockMode::kShared);
  EXPECT_FALSE(r.value().granted);
  // Blockers include the incompatible waiter ahead.
  EXPECT_EQ(r.value().blockers, std::vector<TxnId>{kT2});
}

TEST(LockManagerTest, DoubleLockIsProtocolViolation) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  auto r = lm.Request(kT1, kA, LockMode::kExclusive);
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolViolation);
  auto r2 = lm.Request(kT1, kA, LockMode::kShared);
  EXPECT_EQ(r2.status().code(), StatusCode::kProtocolViolation);
}

TEST(LockManagerTest, UpgradeSoleHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kShared).value().granted);
  auto r = lm.Request(kT1, kA, LockMode::kExclusive);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().granted);
  EXPECT_TRUE(r.value().is_upgrade);
  EXPECT_EQ(lm.HeldMode(kT1, kA), LockMode::kExclusive);
}

TEST(LockManagerTest, UpgradeWaitsForOtherHolders) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kShared).value().granted);
  ASSERT_TRUE(lm.Request(kT2, kA, LockMode::kShared).value().granted);
  auto r = lm.Request(kT1, kA, LockMode::kExclusive);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().granted);
  EXPECT_TRUE(r.value().is_upgrade);
  EXPECT_EQ(r.value().blockers, std::vector<TxnId>{kT2});
  // Still holds its shared lock while waiting.
  EXPECT_EQ(lm.HeldMode(kT1, kA), LockMode::kShared);
  // Other holder releases: the upgrade is granted.
  auto grants = lm.Release(kT2, kA);
  ASSERT_TRUE(grants.ok());
  ASSERT_EQ(grants.value().size(), 1u);
  EXPECT_EQ(grants.value()[0].txn, kT1);
  EXPECT_TRUE(grants.value()[0].was_upgrade);
  EXPECT_EQ(lm.HeldMode(kT1, kA), LockMode::kExclusive);
}

TEST(LockManagerTest, UpgradeJumpsQueue) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kShared).value().granted);
  ASSERT_TRUE(lm.Request(kT2, kA, LockMode::kShared).value().granted);
  ASSERT_FALSE(lm.Request(kT3, kA, LockMode::kExclusive).value().granted);
  // T1's upgrade goes to the queue front, ahead of T3.
  ASSERT_FALSE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  auto q = lm.WaitQueue(kA);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q[0].first, kT1);
  auto grants = lm.Release(kT2, kA);
  ASSERT_TRUE(grants.ok());
  ASSERT_EQ(grants.value().size(), 1u);
  EXPECT_EQ(grants.value()[0].txn, kT1);
}

TEST(LockManagerTest, DowngradeToShared) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  ASSERT_FALSE(lm.Request(kT2, kA, LockMode::kShared).value().granted);
  auto grants = lm.Downgrade(kT1, kA);
  ASSERT_TRUE(grants.ok());
  ASSERT_EQ(grants.value().size(), 1u);
  EXPECT_EQ(grants.value()[0].txn, kT2);
  EXPECT_EQ(lm.HeldMode(kT1, kA), LockMode::kShared);
  EXPECT_EQ(lm.HeldMode(kT2, kA), LockMode::kShared);
}

TEST(LockManagerTest, DowngradeRequiresExclusive) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kShared).value().granted);
  EXPECT_TRUE(lm.Downgrade(kT1, kA).status().IsNotFound());
  EXPECT_TRUE(lm.Downgrade(kT2, kB).status().IsNotFound());
}

TEST(LockManagerTest, CancelWaitUnblocksQueue) {
  // FIFO mode queues T3's shared request behind T2's exclusive one;
  // cancelling T2 unblocks T3.
  LockManager::Options opt;
  opt.fifo_fairness = true;
  LockManager lm2(opt);
  ASSERT_TRUE(lm2.Request(kT1, kA, LockMode::kShared).value().granted);
  ASSERT_FALSE(lm2.Request(kT2, kA, LockMode::kExclusive).value().granted);
  ASSERT_FALSE(lm2.Request(kT3, kA, LockMode::kShared).value().granted);
  auto grants = lm2.CancelWait(kT2, kA);
  ASSERT_TRUE(grants.ok());
  ASSERT_EQ(grants.value().size(), 1u);
  EXPECT_EQ(grants.value()[0].txn, kT3);
  EXPECT_FALSE(lm2.IsWaiting(kT2));
}

TEST(LockManagerTest, ReleaseWhileOwnUpgradeQueuedDemotesIt) {
  // Regression (found by fuzzing): T1 and T2 both hold S and both queue
  // upgrades; if T1 then releases its S lock, its queued upgrade must
  // become a plain X request or it could never be granted.
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kShared).value().granted);
  ASSERT_TRUE(lm.Request(kT2, kA, LockMode::kShared).value().granted);
  ASSERT_FALSE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  ASSERT_FALSE(lm.Request(kT2, kA, LockMode::kExclusive).value().granted);
  // T1 abandons its shared lock (e.g. a rollback released it).
  auto grants = lm.Release(kT1, kA);
  ASSERT_TRUE(grants.ok());
  // T2, now the sole holder, gets its upgrade.
  ASSERT_EQ(grants.value().size(), 1u);
  EXPECT_EQ(grants.value()[0].txn, kT2);
  EXPECT_TRUE(grants.value()[0].was_upgrade);
  // T1 still waits, but as a plain X request that is eventually granted.
  EXPECT_TRUE(lm.IsWaiting(kT1));
  auto g2 = lm.Release(kT2, kA);
  ASSERT_TRUE(g2.ok());
  ASSERT_EQ(g2.value().size(), 1u);
  EXPECT_EQ(g2.value()[0].txn, kT1);
  EXPECT_FALSE(g2.value()[0].was_upgrade);
  EXPECT_EQ(lm.HeldMode(kT1, kA), LockMode::kExclusive);
}

TEST(LockManagerTest, CancelWaitNotWaiting) {
  LockManager lm;
  EXPECT_TRUE(lm.CancelWait(kT1, kA).status().IsNotFound());
}

TEST(LockManagerTest, ReleaseNotHeld) {
  LockManager lm;
  EXPECT_TRUE(lm.Release(kT1, kA).status().IsNotFound());
}

TEST(LockManagerTest, SecondRequestWhileWaitingFails) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  ASSERT_FALSE(lm.Request(kT2, kA, LockMode::kExclusive).value().granted);
  auto r = lm.Request(kT2, kB, LockMode::kExclusive);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(LockManagerTest, ReleaseAllCoversHeldAndWaiting) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  ASSERT_TRUE(lm.Request(kT1, kB, LockMode::kShared).value().granted);
  ASSERT_FALSE(lm.Request(kT2, kA, LockMode::kExclusive).value().granted);
  auto grants = lm.ReleaseAll(kT1);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].txn, kT2);
  EXPECT_EQ(lm.HeldCount(kT1), 0u);
  EXPECT_TRUE(lm.Holders(kB).empty());
}

TEST(LockManagerTest, HeldByListsEntities) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kB, LockMode::kShared).value().granted);
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  auto held = lm.HeldBy(kT1);
  ASSERT_EQ(held.size(), 2u);
  EXPECT_EQ(held[0].first, kA);  // sorted by entity
  EXPECT_EQ(held[0].second, LockMode::kExclusive);
  EXPECT_EQ(held[1].first, kB);
}

TEST(LockManagerTest, BlockersOfWaiter) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  ASSERT_FALSE(lm.Request(kT2, kA, LockMode::kExclusive).value().granted);
  std::vector<TxnId> blockers;
  EXPECT_EQ(lm.AppendBlockersOf(kT2, &blockers), kA);
  EXPECT_EQ(blockers, std::vector<TxnId>{kT1});
  blockers.clear();
  EXPECT_FALSE(lm.AppendBlockersOf(kT1, &blockers).valid());
  EXPECT_TRUE(blockers.empty());
}

// MayBlockWaiters answers for the arcs AppendBlockersOf draws out of a
// transaction: holders of an entity someone else waits on, and under FIFO
// waiters with someone queued behind them.
TEST(LockManagerTest, MayBlockWaitersFollowsTheQueueDiscipline) {
  for (bool fifo : {false, true}) {
    SCOPED_TRACE(fifo ? "fifo" : "paper");
    LockManager lm(LockManager::Options{.fifo_fairness = fifo});
    EXPECT_FALSE(lm.MayBlockWaiters(kT1));  // unknown
    ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
    EXPECT_FALSE(lm.MayBlockWaiters(kT1));  // nobody waits
    ASSERT_FALSE(lm.Request(kT2, kA, LockMode::kExclusive).value().granted);
    ASSERT_FALSE(lm.Request(kT3, kA, LockMode::kShared).value().granted);
    EXPECT_TRUE(lm.MayBlockWaiters(kT1));
    // T3 is queued behind T2: a blocker of T3 only under FIFO.
    std::vector<TxnId> blockers;
    lm.AppendBlockersOf(kT3, &blockers);
    const bool t2_blocks_t3 =
        std::find(blockers.begin(), blockers.end(), kT2) != blockers.end();
    EXPECT_EQ(t2_blocks_t3, fifo);
    EXPECT_EQ(lm.MayBlockWaiters(kT2), fifo);
    EXPECT_FALSE(lm.MayBlockWaiters(kT3));
  }
}

TEST(LockManagerTest, MayBlockWaitersSeesUpgrades) {
  for (bool fifo : {false, true}) {
    SCOPED_TRACE(fifo ? "fifo" : "paper");
    LockManager lm(LockManager::Options{.fifo_fairness = fifo});
    ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kShared).value().granted);
    ASSERT_TRUE(lm.Request(kT2, kA, LockMode::kShared).value().granted);
    // T1's upgrade waits for T2; T1's own queued request lists nobody.
    ASSERT_FALSE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
    EXPECT_FALSE(lm.MayBlockWaiters(kT1));
    EXPECT_TRUE(lm.MayBlockWaiters(kT2));
    // T3 queues behind the upgrade and waits for both holders.
    ASSERT_FALSE(lm.Request(kT3, kA, LockMode::kExclusive).value().granted);
    EXPECT_TRUE(lm.MayBlockWaiters(kT1));
  }
}

TEST(LockManagerTest, ToStringMentionsHoldersAndQueue) {
  LockManager lm;
  ASSERT_TRUE(lm.Request(kT1, kA, LockMode::kExclusive).value().granted);
  ASSERT_FALSE(lm.Request(kT2, kA, LockMode::kShared).value().granted);
  std::string s = lm.ToString();
  EXPECT_NE(s.find("T1:X"), std::string::npos);
  EXPECT_NE(s.find("T2:S"), std::string::npos);
}

}  // namespace
}  // namespace pardb::lock
