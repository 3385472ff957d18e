// D14 decision journal: the bounded ring with counted eviction, the
// FNV-chained epoch checksums and their invariance across worker counts
// and schedulers, first-divergence diagnosis (checksum bisection + record
// diff) on injected victim flips and perturbed state digests, the on-disk
// round trip, and the determinism contract (journaling never enters the
// byte-compared report JSON).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/journal.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "par/report_json.h"
#include "par/sharded_driver.h"

namespace pardb {
namespace {

using obs::DecisionJournal;
using obs::DiffJournals;
using obs::DivergenceReport;
using obs::EpochKind;
using obs::EpochStamp;
using obs::FirstDivergentEpoch;
using obs::JournalData;
using obs::EngineEvent;
using obs::EventKind;
using obs::JournalRecord;
using obs::kNoDivergence;
using obs::ReadJournalFile;

// ---------------------------------------------------------------------------
// Ring, chain and metrics mechanics.
// ---------------------------------------------------------------------------

TEST(JournalRingTest, BoundedRingEvictsOldestAndCountsDrops) {
  DecisionJournal j(DecisionJournal::Options{/*ring_capacity=*/4});
  for (std::uint64_t i = 0; i < 10; ++i) {
    j.OnEvent({.kind = EventKind::kAdmit, .step = i, .txn = TxnId(i)});
  }
  EXPECT_EQ(j.total_records(), 10u);
  EXPECT_EQ(j.dropped_records(), 6u);
  const std::vector<JournalRecord> kept = j.RetainedRecords();
  ASSERT_EQ(kept.size(), 4u);
  // Oldest-first: the survivors are the last four appends.
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].txn, 6u + i);
    EXPECT_EQ(static_cast<EventKind>(kept[i].kind), EventKind::kAdmit);
  }
}

TEST(JournalRingTest, UnboundedModeNeverDrops) {
  DecisionJournal j(DecisionJournal::Options{/*ring_capacity=*/0});
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    j.OnEvent({.kind = EventKind::kGrant,
               .flags = static_cast<std::uint8_t>(i & 1),  // exclusive bit
               .step = i,
               .txn = TxnId(i % 7),
               .entity = EntityId(i % 13)});
  }
  EXPECT_EQ(j.total_records(), 100'000u);
  EXPECT_EQ(j.dropped_records(), 0u);
  EXPECT_EQ(j.RetainedRecords().size(), 100'000u);
}

TEST(JournalRingTest, MetricsCountRecordsEpochsDropsAndBytes) {
  obs::MetricsRegistry registry;
  DecisionJournal j(DecisionJournal::Options{/*ring_capacity=*/2});
  j.AttachMetrics(&registry, {{obs::kShardLabel, "0"}});
  j.OnEvent({.kind = EventKind::kAdmit, .step = 0, .txn = TxnId(0)});
  j.OnEvent({.kind = EventKind::kBlock,
             .step = 1,
             .txn = TxnId(0),
             .entity = EntityId(3)});
  j.OnEvent({.kind = EventKind::kCommit,
             .step = 2,
             .txn = TxnId(0),
             .pc = 5});  // evicts the admit
  j.StampEpoch(2, /*state_digest=*/42);
  const std::string prom = registry.Snapshot().ToPrometheus();
  EXPECT_NE(prom.find("pardb_journal_records_total{shard=\"0\"} 3"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("pardb_journal_epochs_total{shard=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("pardb_journal_dropped_total{shard=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("pardb_journal_bytes_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_EQ(j.bytes_logged(),
            3 * sizeof(JournalRecord) + sizeof(EpochStamp));
}

TEST(JournalChainTest, ChainLinksFoldStateAndRecords) {
  // Two journals with identical appends and stamps must agree link by
  // link; changing one record flips the chain from that epoch onward.
  auto build = [](std::uint64_t entity) {
    DecisionJournal j;
    j.OnEvent({.kind = EventKind::kAdmit, .step = 0, .txn = TxnId(1)});
    j.StampEpoch(10, 111);
    j.OnEvent({.kind = EventKind::kBlock,
               .step = 12,
               .txn = TxnId(1),
               .entity = EntityId(entity)});
    j.StampEpoch(20, 222);
    j.OnEvent({.kind = EventKind::kCommit,
               .step = 25,
               .txn = TxnId(1),
               .pc = 3});
    j.StampEpoch(30, 333);
    return j.ChainValues();
  };
  const auto a = build(5);
  const auto b = build(5);
  const auto c = build(6);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(a[0], c[0]);  // record lands in epoch 1, epoch 0 still agrees
  EXPECT_NE(a[1], c[1]);
  EXPECT_NE(a[2], c[2]);  // a chain divergence never heals
}

// ---------------------------------------------------------------------------
// Checksum bisection (FirstDivergentEpoch) unit tests.
// ---------------------------------------------------------------------------

std::vector<EpochStamp> StampsFromChains(
    const std::vector<std::uint64_t>& chains) {
  std::vector<EpochStamp> out;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    EpochStamp s;
    s.epoch = i;
    s.chain = chains[i];
    out.push_back(s);
  }
  return out;
}

TEST(JournalBisectTest, IdenticalChainsReportNoDivergence) {
  const auto a = StampsFromChains({10, 20, 30, 40});
  EXPECT_EQ(FirstDivergentEpoch(a, a), kNoDivergence);
}

TEST(JournalBisectTest, FindsFirstDifferingLinkAtEveryPosition) {
  const std::vector<std::uint64_t> base = {10, 20, 30, 40, 50, 60, 70};
  const auto a = StampsFromChains(base);
  for (std::size_t flip = 0; flip < base.size(); ++flip) {
    // Chains are cumulative, so a real divergence at `flip` corrupts every
    // later link too.
    auto mutated = base;
    for (std::size_t i = flip; i < mutated.size(); ++i) mutated[i] ^= 0xdead;
    EXPECT_EQ(FirstDivergentEpoch(a, StampsFromChains(mutated)), flip);
  }
}

TEST(JournalBisectTest, PrefixChainsDivergeAtTheMissingEpoch) {
  const auto a = StampsFromChains({10, 20, 30, 40});
  const auto b = StampsFromChains({10, 20});
  EXPECT_EQ(FirstDivergentEpoch(a, b), 2u);
  EXPECT_EQ(FirstDivergentEpoch(b, a), 2u);
}

// ---------------------------------------------------------------------------
// One-shard chain stability and injected divergences.
// ---------------------------------------------------------------------------

par::ShardedOptions JournaledOneShard(std::uint64_t seed) {
  par::ShardedOptions opt;
  opt.num_shards = 1;
  opt.cross_shard_fraction = 0.0;
  opt.total_txns = 80;
  opt.concurrency = 10;
  opt.workload.num_entities = 12;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.seed = seed;
  // A short epoch period so the small run still stamps several epochs.
  opt.engine.journal_epoch_steps = 256;
  return opt;
}

TEST(JournalOneShardTest, SameSeedSameChainDifferentSeedDifferentChain) {
  auto a = par::RunSharded(JournaledOneShard(7));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = par::RunSharded(JournaledOneShard(7));
  ASSERT_TRUE(b.ok());
  auto c = par::RunSharded(JournaledOneShard(8));
  ASSERT_TRUE(c.ok());
  const par::ShardResult& sa = a->shards[0];
  const par::ShardResult& sb = b->shards[0];
  ASSERT_GE(sa.journal_chain.size(), 3u) << "too few epochs to be meaningful";
  EXPECT_EQ(sa.journal_chain, sb.journal_chain);
  EXPECT_GT(sa.journal_records, 0u);
  EXPECT_EQ(sa.journal_records, sb.journal_records);
  EXPECT_NE(sa.journal_chain, c->shards[0].journal_chain);
}

TEST(JournalOneShardTest, PerturbedOmegaOrderFlipsChainAtExactlyThatEpoch) {
  // The journal test hook XORs the perturbed epoch's state digest —
  // simulating lock-table / ω-order drift with no divergent decision. The
  // chain must flip at exactly that epoch and stay flipped.
  auto clean = par::RunSharded(JournaledOneShard(7));
  ASSERT_TRUE(clean.ok());
  const std::vector<std::uint64_t>& base = clean->shards[0].journal_chain;
  const std::size_t epochs = base.size();
  ASSERT_GE(epochs, 3u);
  const std::uint64_t target = 2;
  auto opt = JournaledOneShard(7);
  opt.journal_perturb_epoch = target;
  auto drift = par::RunSharded(opt);
  ASSERT_TRUE(drift.ok());
  const std::vector<std::uint64_t>& drifted = drift->shards[0].journal_chain;
  ASSERT_EQ(drifted.size(), epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    if (e < target) {
      EXPECT_EQ(base[e], drifted[e]) << e;
    } else {
      EXPECT_NE(base[e], drifted[e]) << e;
    }
  }
}

TEST(JournalOneShardTest, ReportJsonIdenticalWithJournalOnAndOff) {
  // The journal is observation-only: disabling it must not change a single
  // decision, and journaling must stay out of the golden-compared report.
  auto on = par::RunSharded(JournaledOneShard(7));
  ASSERT_TRUE(on.ok());
  auto opt = JournaledOneShard(7);
  opt.journal = false;
  auto off = par::RunSharded(opt);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(par::ShardedReportToJson(on.value()),
            par::ShardedReportToJson(off.value()));
  EXPECT_TRUE(off->shards[0].journal_chain.empty());
  EXPECT_GT(on->shards[0].journal_records, 0u);
}

TEST(JournalDiffTest, InjectedVictimFlipIsPinnedToItsDecisionRecord) {
  const std::string dir = ::testing::TempDir();
  auto opt = JournaledOneShard(7);
  opt.journal_out = dir + "jrnl_clean";
  auto clean = par::RunSharded(opt);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  auto flipped_opt = JournaledOneShard(7);
  flipped_opt.journal_out = dir + "jrnl_flip";
  // Flip the second flippable single-cycle victim decision.
  flipped_opt.engine.debug_flip_victim_deadlock = 2;
  auto flipped = par::RunSharded(flipped_opt);
  ASSERT_TRUE(flipped.ok());
  ASSERT_NE(clean->shards[0].journal_chain, flipped->shards[0].journal_chain)
      << "flip hook produced no divergence — no flippable deadlock?";

  auto a = ReadJournalFile(dir + "jrnl_clean.shard0.jrnl");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = ReadJournalFile(dir + "jrnl_flip.shard0.jrnl");
  ASSERT_TRUE(b.ok());

  const DivergenceReport d = DiffJournals(a.value(), b.value());
  ASSERT_TRUE(d.diverged);
  EXPECT_FALSE(d.state_only);
  ASSERT_TRUE(d.has_record_a);
  ASSERT_TRUE(d.has_record_b);
  // The first divergent decision IS the victim choice: same kind and step
  // on both sides, different victim.
  EXPECT_EQ(static_cast<EventKind>(d.record_a.kind), EventKind::kVictim);
  EXPECT_EQ(static_cast<EventKind>(d.record_b.kind), EventKind::kVictim);
  EXPECT_EQ(d.record_a.step, d.record_b.step);
  EXPECT_NE(d.record_a, d.record_b);
  // The divergent epoch really is the first chain mismatch.
  EXPECT_EQ(d.epoch, FirstDivergentEpoch(a->stamps, b->stamps));
  // The rendered report names the epoch, the record and both sides.
  const std::string text =
      obs::RenderDivergence(d, /*shard=*/0, "clean", "flip");
  EXPECT_NE(text.find("FIRST DIVERGENCE at epoch"), std::string::npos);
  EXPECT_NE(text.find("victim"), std::string::npos);
  EXPECT_NE(text.find("clean:"), std::string::npos);
  EXPECT_NE(text.find("flip:"), std::string::npos);
}

TEST(JournalDiffTest, StateOnlyDriftDiagnosedWithoutDivergentRecord) {
  const std::string dir = ::testing::TempDir();
  auto opt = JournaledOneShard(9);
  opt.journal_out = dir + "jrnl_base";
  ASSERT_TRUE(par::RunSharded(opt).ok());
  auto drift_opt = JournaledOneShard(9);
  drift_opt.journal_out = dir + "jrnl_drift";
  drift_opt.journal_perturb_epoch = 1;
  ASSERT_TRUE(par::RunSharded(drift_opt).ok());

  auto a = ReadJournalFile(dir + "jrnl_base.shard0.jrnl");
  ASSERT_TRUE(a.ok());
  auto b = ReadJournalFile(dir + "jrnl_drift.shard0.jrnl");
  ASSERT_TRUE(b.ok());
  const DivergenceReport d = DiffJournals(a.value(), b.value());
  ASSERT_TRUE(d.diverged);
  EXPECT_TRUE(d.state_only);
  EXPECT_EQ(d.epoch, 1u);
  EXPECT_NE(d.state_a, d.state_b);
}

TEST(JournalRecordTest, OnEventPacksEachKindIntoItsFields) {
  DecisionJournal j(DecisionJournal::Options{/*ring_capacity=*/0});
  // Grant: exclusive/upgrade bits only; the wake bit stays engine-side.
  j.OnEvent({.kind = EventKind::kGrant,
             .flags = obs::kEventExclusive | obs::kEventWoke,
             .step = 3,
             .txn = TxnId(2),
             .entity = EntityId(7),
             .pc = 4});
  // Victim: flags, clamped candidate count, target and cost.
  j.OnEvent({.kind = EventKind::kVictim,
             .flags = obs::kEventRequester,
             .candidates = 70000,
             .step = 5,
             .txn = TxnId(2),
             .target = 1,
             .cost = 6});
  // Rollback: cause in aux, the total flag in aux2.
  j.OnEvent({.kind = EventKind::kRollback,
             .cause = obs::RollbackCause::kWaitDie,
             .step = 5,
             .txn = TxnId(2),
             .target = 0,
             .cost = 6,
             .causing = TxnId(1),
             .cycle = 9});
  j.OnEvent({.kind = EventKind::kHold, .step = 6, .txn = TxnId(3), .pc = 8});
  const std::vector<JournalRecord> r = j.RetainedRecords();
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[0].aux, 1u);
  EXPECT_EQ(r[0].a, 7u);
  EXPECT_EQ(r[0].b, 0u);
  EXPECT_EQ(r[1].aux, 2u);
  EXPECT_EQ(r[1].aux2, 0xffffu);
  EXPECT_EQ(r[1].a, 1u);
  EXPECT_EQ(r[1].b, 6u);
  EXPECT_EQ(r[2].aux, static_cast<std::uint8_t>(obs::RollbackCause::kWaitDie));
  EXPECT_EQ(r[2].aux2, 1u);
  EXPECT_EQ(r[2].a, 0u);
  EXPECT_EQ(r[2].b, 6u);
  EXPECT_EQ(static_cast<EventKind>(r[3].kind), EventKind::kHold);
  EXPECT_EQ(r[3].txn, 3u);
  EXPECT_EQ(r[3].a, 8u);
}

TEST(JournalFileTest, WriteReadRoundTripPreservesEverything) {
  const std::string path = ::testing::TempDir() + "jrnl_roundtrip";
  DecisionJournal j;
  j.OnEvent({.kind = EventKind::kAdmit, .step = 1, .txn = TxnId(3)});
  j.OnEvent({.kind = EventKind::kGrant,
             .flags = obs::kEventExclusive,
             .step = 2,
             .txn = TxnId(3),
             .entity = EntityId(9)});
  j.StampEpoch(5, 777);
  j.OnEvent({.kind = EventKind::kVictim,
             .flags = obs::kEventOmega,
             .candidates = 3,
             .step = 6,
             .txn = TxnId(4),
             .target = 2,
             .cost = 11});
  j.StampEpoch(10, 888, EpochKind::kTwoPC);
  ASSERT_TRUE(j.WriteFile(path, /*shard=*/5, /*seed=*/1234).ok());

  auto data = ReadJournalFile(path);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->shard, 5u);
  EXPECT_EQ(data->seed, 1234u);
  EXPECT_EQ(data->base_ordinal, 0u);
  EXPECT_EQ(data->total_records, 3u);
  EXPECT_EQ(data->dropped, 0u);
  ASSERT_EQ(data->records.size(), 3u);
  ASSERT_EQ(data->stamps.size(), 2u);
  EXPECT_EQ(data->records, j.RetainedRecords());
  EXPECT_EQ(data->stamps[0], j.stamps()[0]);
  EXPECT_EQ(data->stamps[1], j.stamps()[1]);
  EXPECT_EQ(static_cast<EpochKind>(data->stamps[1].kind), EpochKind::kTwoPC);
}

// ---------------------------------------------------------------------------
// Sharded chain stability: workers {1, 4, 7} on one shard and four.
// ---------------------------------------------------------------------------

par::ShardedOptions JournaledSharded(std::uint64_t seed) {
  par::ShardedOptions opt;
  opt.num_shards = 4;
  opt.workload.num_entities = 64;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.cross_shard_fraction = 0.2;
  opt.concurrency = 8;
  opt.total_txns = 160;
  opt.seed = seed;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  opt.engine.journal_epoch_steps = 256;
  return opt;
}

std::vector<std::vector<std::uint64_t>> ShardChains(
    const par::ShardedReport& rep) {
  std::vector<std::vector<std::uint64_t>> chains;
  for (const par::ShardResult& s : rep.shards) {
    EXPECT_EQ(s.journal_dropped, 0u);
    chains.push_back(s.journal_chain);
  }
  return chains;
}

TEST(JournalShardedTest, ChainsInvariantAcrossWorkerCounts) {
  // The epoch chain is keyed to each engine's own step counter, so the
  // worker count may not move a single stamp, on one shard or several.
  // This is the hierarchical-comparison precondition: chains from ANY two
  // runs of a seed are comparable.
  for (std::uint32_t shards : {1u, 4u}) {
    auto base_opt = JournaledSharded(11);
    base_opt.num_shards = shards;
    auto base = par::RunSharded(base_opt);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    const auto want = ShardChains(base.value());
    std::size_t epochs = 0;
    for (const auto& c : want) epochs += c.size();
    ASSERT_GT(epochs, 0u)
        << "no epochs stamped — period too long for the run?";

    for (std::size_t workers : {1u, 4u, 7u}) {
      auto opt = base_opt;
      opt.num_threads = workers;
      auto rep = par::RunSharded(opt);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      EXPECT_EQ(ShardChains(rep.value()), want)
          << "shards=" << shards << " workers=" << workers;
    }
  }
}

TEST(JournalShardedTest, ReportJsonByteIdenticalWithJournalOnAndOff) {
  auto on_opt = JournaledSharded(13);
  auto on = par::RunSharded(on_opt);
  ASSERT_TRUE(on.ok());
  auto off_opt = JournaledSharded(13);
  off_opt.journal = false;
  auto off = par::RunSharded(off_opt);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(par::ShardedReportToJson(on.value()),
            par::ShardedReportToJson(off.value()));
}

TEST(JournalShardedTest, LocksModeCoordinatorChainIsDeterministic) {
  auto opt = JournaledSharded(17);
  opt.total_txns = 120;
  auto a = par::RunSharded(opt);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_FALSE(a->coord_journal_chain.empty())
      << "locks mode must stamp 2PC epochs on the coordinator journal";
  auto wopt = opt;
  wopt.num_threads = 1;
  auto b = par::RunSharded(wopt);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->coord_journal_chain, b->coord_journal_chain);
  EXPECT_EQ(ShardChains(a.value()), ShardChains(b.value()));
}

}  // namespace
}  // namespace pardb
