// Determinism safety net for the D15 data-oriented rewrite.
//
// The golden files under tests/golden/ pin two workloads: one shard (seed
// 7 / 120 txns, every program from one generator — the closed loop every
// paper table runs on) and four shards (seed 11 / 200 txns). The one-shard
// workload is pinned again under each prevention handling mode (wound-wait,
// wait-die, timeout), which only one shard runs. The contract
// is byte identity: the same report JSON and the same D14 journal chain
// heads, which is exactly what `pardb diff-runs` checks between two
// recorded runs — chain-head equality here proves diff-runs would report
// zero divergence against the binary that captured the goldens.
//
// Also here: the Figure 1 / Figure 3 micro-tests pinning the public
// emission contract of LockManager::Holders / WaitQueue / HeldBy (sorted
// at the snapshot site, FIFO for queues), so the internal layout stays
// free to change.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "par/report_json.h"
#include "par/sharded_driver.h"
#include "sim/scenario.h"

namespace pardb {
namespace {

using lock::LockMode;

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string ChainLine(std::uint64_t c) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)c);
  return buf;
}

par::ShardedOptions PinnedOneShard() {
  par::ShardedOptions opt;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  opt.num_shards = 1;
  opt.cross_shard_fraction = 0.0;
  opt.total_txns = 120;
  opt.concurrency = 12;
  opt.workload.num_entities = 16;
  opt.seed = 7;
  return opt;
}

par::ShardedOptions PinnedSharded() {
  par::ShardedOptions opt;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  opt.total_txns = 200;
  opt.num_shards = 4;
  opt.num_threads = 2;
  opt.seed = 11;
  opt.workload.num_entities = 32;
  opt.concurrency = 16;
  return opt;
}

// Report JSON plus every journal chain head, in the golden chain format.
void ExpectGolden(const par::ShardedOptions& opt, const std::string& report,
                  const std::string& chain_file) {
  auto rep = par::RunSharded(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(par::ShardedReportToJson(rep.value()) + "\n", ReadGolden(report));

  std::ostringstream chain;
  for (const auto& s : rep->shards) {
    chain << "shard " << s.shard << " records " << s.journal_records << "\n";
    for (std::uint64_t c : s.journal_chain) chain << ChainLine(c) << "\n";
  }
  chain << "coord\n";
  for (std::uint64_t c : rep->coord_journal_chain) {
    chain << ChainLine(c) << "\n";
  }
  EXPECT_EQ(chain.str(), ReadGolden(chain_file))
      << "journal chain heads diverged from the golden binary "
         "(pardb diff-runs would report a first-divergence)";
}

TEST(HotpathGoldenTest, OneShardReportAndChainMatchGoldenBytes) {
  ExpectGolden(PinnedOneShard(), "golden_one_shard_report.json",
               "golden_one_shard_chain.txt");
}

// Prevention modes: every rollback is a wound, a death or a timeout, so
// these pin the refill points the closed loop admits at under each.
TEST(HotpathGoldenTest, OneShardHandlingModesMatchGoldenBytes) {
  const struct {
    core::DeadlockHandling handling;
    const char* name;
  } kModes[] = {{core::DeadlockHandling::kWoundWait, "wound_wait"},
                {core::DeadlockHandling::kWaitDie, "wait_die"},
                {core::DeadlockHandling::kTimeout, "timeout"}};
  for (const auto& mode : kModes) {
    SCOPED_TRACE(mode.name);
    par::ShardedOptions opt = PinnedOneShard();
    opt.engine.handling = mode.handling;
    const std::string stem = std::string("golden_one_shard_") + mode.name;
    ExpectGolden(opt, stem + "_report.json", stem + "_chain.txt");
  }
}

TEST(HotpathGoldenTest, ShardedReportAndChainsMatchPreRewriteBytes) {
  ExpectGolden(PinnedSharded(), "golden_sharded_report.json",
               "golden_sharded_chain.txt");
}

// ---------------------------------------------------------------------------
// Holders / WaitQueue / HeldBy emission contract on the paper fixtures.
// ---------------------------------------------------------------------------

core::EngineOptions PaperOptions() {
  core::EngineOptions opt;
  opt.victim_policy = core::VictimPolicyKind::kMinCost;
  opt.strategy = rollback::StrategyKind::kMcs;
  return opt;
}

TEST(LockEmissionTest, Figure1HoldersAndQueuesUnchanged) {
  auto fig = sim::BuildFigure1(PaperOptions());
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  const auto& lm = fig->runner->engine().lock_manager();

  // Single X holders on the figure's contended entities.
  const auto holders_b = lm.Holders(fig->b);
  ASSERT_EQ(holders_b.size(), 1u);
  EXPECT_EQ(holders_b[0].first, fig->t2);
  EXPECT_EQ(holders_b[0].second, LockMode::kExclusive);
  const auto holders_c = lm.Holders(fig->c);
  ASSERT_EQ(holders_c.size(), 1u);
  EXPECT_EQ(holders_c[0].first, fig->t3);
  const auto holders_e = lm.Holders(fig->e);
  ASSERT_EQ(holders_e.size(), 1u);
  EXPECT_EQ(holders_e[0].first, fig->t4);

  // b's queue holds T1 (blocked from state 3) and T3 (from state 11),
  // both exclusive, in FIFO request order — queues are semantic order,
  // never sorted.
  const auto queue_b = lm.WaitQueue(fig->b);
  ASSERT_EQ(queue_b.size(), 2u);
  EXPECT_EQ(queue_b[0].first, fig->t1);
  EXPECT_EQ(queue_b[1].first, fig->t3);
  EXPECT_EQ(queue_b[0].second, LockMode::kExclusive);
  EXPECT_EQ(queue_b[1].second, LockMode::kExclusive);

  // T2 holds its filler entity plus f and b: HeldBy emits entity-id order
  // regardless of grant order (b was granted after f).
  const auto held_t2 = lm.HeldBy(fig->t2);
  ASSERT_EQ(held_t2.size(), 3u);
  for (std::size_t i = 1; i < held_t2.size(); ++i) {
    EXPECT_LT(held_t2[i - 1].first, held_t2[i].first);
  }
  EXPECT_EQ(held_t2[1].first, fig->b);
  EXPECT_EQ(held_t2[2].first, fig->f);
}

TEST(LockEmissionTest, Figure3cSharedHoldersSortedByTxn) {
  auto fig = sim::BuildFigure3c(PaperOptions());
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  const auto& lm = fig->runner->engine().lock_manager();

  // f is S-held by T2 and T3; Holders emits txn-id order regardless of
  // grant order.
  const auto holders_f = lm.Holders(fig->f);
  ASSERT_EQ(holders_f.size(), 2u);
  EXPECT_EQ(holders_f[0].first, fig->t2);
  EXPECT_EQ(holders_f[0].second, LockMode::kShared);
  EXPECT_EQ(holders_f[1].first, fig->t3);
  EXPECT_EQ(holders_f[1].second, LockMode::kShared);

  // T1 X-holds x and y; entity-id order.
  const auto held_t1 = lm.HeldBy(fig->t1);
  ASSERT_GE(held_t1.size(), 2u);
  for (std::size_t i = 1; i < held_t1.size(); ++i) {
    EXPECT_LT(held_t1[i - 1].first, held_t1[i].first);
  }

  // T2 waits for x, T3 for y (each a queue of one).
  const auto queue_x = lm.WaitQueue(fig->x);
  ASSERT_EQ(queue_x.size(), 1u);
  EXPECT_EQ(queue_x[0].first, fig->t2);
  const auto queue_y = lm.WaitQueue(fig->y);
  ASSERT_EQ(queue_y.size(), 1u);
  EXPECT_EQ(queue_y[0].first, fig->t3);
}

}  // namespace
}  // namespace pardb
