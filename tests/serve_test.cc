// Tests for the live introspection stack: the HTTP server, the LiveHub
// rendezvous (load-skew EWMAs, deadlock ring, phases), the preemption
// lineage tracker (unit-level and against the paper's Figure 1/2
// schedules), and the introspection endpoints served over a real socket
// while a sharded run is in flight.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/forensics.h"
#include "obs/lineage.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/serve/http_server.h"
#include "obs/serve/hub.h"
#include "obs/serve/introspection.h"
#include "par/sharded_driver.h"
#include "sim/scenario.h"

namespace pardb {
namespace {

using core::VictimPolicyKind;
using obs::HttpRequest;
using obs::HttpResponse;
using obs::HttpServer;
using obs::LineageTracker;
using obs::LiveHub;
using obs::ManualClock;
using obs::MetricsRegistry;
using obs::ParseQueryString;
using obs::RunPhase;
using sim::BuildFigure1;
using sim::RunFigure2MutualPreemption;

core::EngineOptions FigOptions(VictimPolicyKind policy) {
  core::EngineOptions opt;
  opt.victim_policy = policy;
  return opt;
}

// ---------------------------------------------------------------------------
// Raw-socket HTTP client: the tests exercise the real wire protocol, not
// the handler functions in isolation.
// ---------------------------------------------------------------------------

struct HttpReply {
  int status = 0;
  std::string content_type;
  std::string body;
  bool ok = false;
};

HttpReply HttpFetch(std::uint16_t port, const std::string& target,
                    const std::string& method = "GET") {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string request =
      method + " " + target + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t eol = raw.find("\r\n");
  if (eol == std::string::npos) return reply;
  // "HTTP/1.0 200 OK"
  const std::size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > eol) return reply;
  reply.status = std::atoi(raw.c_str() + sp + 1);
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return reply;
  const std::string headers = raw.substr(0, header_end);
  const std::size_t ct = headers.find("Content-Type: ");
  if (ct != std::string::npos) {
    const std::size_t ct_end = headers.find("\r\n", ct);
    reply.content_type =
        headers.substr(ct + 14, ct_end == std::string::npos
                                    ? std::string::npos
                                    : ct_end - ct - 14);
  }
  reply.body = raw.substr(header_end + 4);
  reply.ok = true;
  return reply;
}

// ---------------------------------------------------------------------------
// HTTP server
// ---------------------------------------------------------------------------

TEST(ParseQueryStringTest, DecodesPairsEscapesAndBareKeys) {
  auto q = ParseQueryString("format=dot&x=a%2Fb&plus=1+2&flag");
  EXPECT_EQ(q.at("format"), "dot");
  EXPECT_EQ(q.at("x"), "a/b");
  EXPECT_EQ(q.at("plus"), "1 2");
  EXPECT_EQ(q.at("flag"), "");
  EXPECT_TRUE(ParseQueryString("").empty());
}

TEST(HttpServerTest, ServesRoutesOverRealSocket) {
  HttpServer server;
  server.Route("/ping", [](const HttpRequest&) {
    return HttpResponse::Text("pong\n");
  });
  server.Route("/echo", [](const HttpRequest& req) {
    return HttpResponse::Json("{\"format\":\"" + req.QueryOr("format", "?") +
                              "\"}");
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());

  auto ping = HttpFetch(server.port(), "/ping");
  ASSERT_TRUE(ping.ok);
  EXPECT_EQ(ping.status, 200);
  EXPECT_EQ(ping.body, "pong\n");

  auto echo = HttpFetch(server.port(), "/echo?format=dot");
  ASSERT_TRUE(echo.ok);
  EXPECT_EQ(echo.status, 200);
  EXPECT_EQ(echo.content_type, "application/json");
  EXPECT_EQ(echo.body, "{\"format\":\"dot\"}");

  auto missing = HttpFetch(server.port(), "/nope");
  ASSERT_TRUE(missing.ok);
  EXPECT_EQ(missing.status, 404);

  auto post = HttpFetch(server.port(), "/ping", "POST");
  ASSERT_TRUE(post.ok);
  EXPECT_EQ(post.status, 405);

  EXPECT_EQ(server.requests_served(), 4u);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

// A client that disconnects while the server is still writing a large
// response must not take the server down (historically the write raced
// the close into SIGPIPE); the next request must still be served.
TEST(HttpServerTest, SurvivesClientDisconnectMidResponse) {
  // Large enough that the kernel cannot buffer the whole body, so the
  // server is still send()ing when the client closes.
  const std::string big(8 * 1024 * 1024, 'x');
  HttpServer server;
  server.Route("/big", [&big](const HttpRequest&) {
    return HttpResponse::Text(big);
  });
  server.Route("/ping", [](const HttpRequest&) {
    return HttpResponse::Text("pong\n");
  });
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET /big HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  // Read just the first chunk, then hang up with the rest in flight.
  char buf[1024];
  ASSERT_GT(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);

  auto ping = HttpFetch(server.port(), "/ping");
  ASSERT_TRUE(ping.ok);
  EXPECT_EQ(ping.status, 200);
  EXPECT_EQ(ping.body, "pong\n");
  server.Stop();
}

// ---------------------------------------------------------------------------
// LiveHub: load skew, uptime, phases, deadlock ring
// ---------------------------------------------------------------------------

TEST(LiveHubTest, LoadSkewIsExactlyMaxOverMeanOnFirstSamples) {
  // The first sample initializes each shard's EWMA verbatim, so with one
  // sample per shard the gauge is exactly max/mean of the hand-built
  // timings: mean(800, 1000, 1200) = 1000, max = 1200, skew = 1.2.
  LiveHub hub;
  hub.RecordShardStep(0, 800);
  hub.RecordShardStep(1, 1000);
  hub.RecordShardStep(2, 1200);
  EXPECT_EQ(hub.ShardStepEwmaNs(0), 800u);
  EXPECT_EQ(hub.ShardStepEwmaNs(1), 1000u);
  EXPECT_EQ(hub.ShardStepEwmaNs(2), 1200u);
  EXPECT_DOUBLE_EQ(hub.LoadSkew(), 1.2);

  auto merged = hub.MergedMetrics();
  const auto* skew = merged.Find(obs::kShardLoadSkew);
  ASSERT_NE(skew, nullptr);
  EXPECT_EQ(skew->gauge, std::llround(1.2 * 1000.0));
  const auto* ewma1 =
      merged.Find(obs::kShardStepEwmaNs, {{obs::kShardLabel, "1"}});
  ASSERT_NE(ewma1, nullptr);
  EXPECT_EQ(ewma1->gauge, 1000);
}

TEST(LiveHubTest, BalancedShardsReportSkewOne) {
  LiveHub hub;
  hub.RecordShardStep(0, 5000);
  hub.RecordShardStep(1, 5000);
  EXPECT_DOUBLE_EQ(hub.LoadSkew(), 1.0);
  EXPECT_DOUBLE_EQ(LiveHub().LoadSkew(), 0.0);  // nothing reported yet
}

TEST(LiveHubTest, EwmaBlendsWithAlphaOneEighth) {
  LiveHub hub;
  hub.RecordShardStep(0, 800);
  hub.RecordShardStep(0, 1600);  // 800 + (1600 - 800) / 8 = 900
  EXPECT_EQ(hub.ShardStepEwmaNs(0), 900u);
  hub.RecordShardStep(0, 100);  // 900 + (100 - 900) / 8 = 800
  EXPECT_EQ(hub.ShardStepEwmaNs(0), 800u);
}

TEST(LiveHubTest, UptimeAndPhaseUseInjectedClock) {
  ManualClock clock(1'000'000'000);
  LiveHub hub(&clock);
  EXPECT_DOUBLE_EQ(hub.UptimeSeconds(), 0.0);
  clock.AdvanceNanos(2'500'000'000);
  EXPECT_DOUBLE_EQ(hub.UptimeSeconds(), 2.5);

  EXPECT_EQ(hub.phase(), RunPhase::kIdle);
  hub.SetPhase(RunPhase::kRunning);
  EXPECT_EQ(hub.phase(), RunPhase::kRunning);
  EXPECT_EQ(obs::RunPhaseName(hub.phase()), "running");
}

TEST(LiveHubTest, DeadlockRingKeepsNewestDumps) {
  LiveHub hub(nullptr, /*max_deadlocks=*/2);
  obs::DeadlockDumpSink* sink = hub.MakeDeadlockSink(3);
  for (std::uint64_t step : {10u, 20u, 30u}) {
    obs::DeadlockDump dump;
    dump.step = step;
    dump.requester = TxnId(1);
    sink->OnDeadlock(dump);
  }
  EXPECT_EQ(hub.deadlocks_seen(), 3u);
  auto ring = hub.RecentDeadlocks();
  ASSERT_EQ(ring.size(), 2u);  // oldest evicted
  EXPECT_EQ(ring[0].dump.step, 20u);
  EXPECT_EQ(ring[1].dump.step, 30u);
  EXPECT_EQ(ring[1].shard, 3u);
}

TEST(LiveHubTest, OwnedRegistryOutlivesTheRunsLocals) {
  LiveHub hub;
  MetricsRegistry* reg = hub.AddOwnedRegistry(std::make_unique<MetricsRegistry>());
  ASSERT_NE(reg, nullptr);
  reg->GetCounter("pardb_test_total", {})->Inc(7);
  const auto merged = hub.MergedMetrics();
  const auto* m = merged.Find("pardb_test_total");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->counter, 7u);
}

TEST(LiveHubTest, JournalDigestsReplaceByShardAndSortByShard) {
  LiveHub hub;
  auto digest = [](std::uint32_t shard, std::uint64_t records) {
    obs::JournalDigest d;
    d.shard = shard;
    d.records = records;
    return d;
  };
  const std::uint64_t before = hub.snapshot_version();
  hub.PublishJournal(digest(1, 10));
  hub.PublishJournal(digest(0, 20));
  hub.PublishJournal(digest(1, 30));  // re-publish replaces, never appends
  auto all = hub.JournalDigests();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].shard, 0u);
  EXPECT_EQ(all[0].records, 20u);
  EXPECT_EQ(all[1].shard, 1u);
  EXPECT_EQ(all[1].records, 30u);
  EXPECT_GT(hub.snapshot_version(), before);  // SSE pollers wake up
}

TEST(LiveHubTest, RunInfoRoundTripsForHealthz) {
  LiveHub hub;
  obs::RunInfo info;
  info.build_id = "pardb test-build";
  info.seed = 42;
  info.shards = 4;
  info.scheduler = "timeslice";
  info.mode = "parallel";
  hub.SetRunInfo(info);
  const obs::RunInfo got = hub.GetRunInfo();
  EXPECT_EQ(got.build_id, "pardb test-build");
  EXPECT_EQ(got.seed, 42u);
  EXPECT_EQ(got.shards, 4u);
  EXPECT_EQ(got.scheduler, "timeslice");
  EXPECT_EQ(got.mode, "parallel");
}

// ---------------------------------------------------------------------------
// LineageTracker
// ---------------------------------------------------------------------------

// The rollback event of `aggressor` preempting `victim` back to lock state 0.
obs::EngineEvent Preemption(std::uint64_t step, TxnId victim, TxnId aggressor,
                            std::uint64_t cost) {
  return {.kind = obs::EventKind::kRollback,
          .cause = obs::RollbackCause::kDeadlockVictim,
          .step = step,
          .txn = victim,
          .cost = cost,
          .causing = aggressor};
}

TEST(LineageTrackerTest, ChainDepthHandsAggressorHistoryOn) {
  // A preempts B, B preempts A, A preempts B again: the Figure 2
  // alternation. Each victim inherits max(victim, aggressor) + 1, so the
  // depth grows without bound exactly like the paper's mutual preemption.
  LineageTracker lineage;
  const TxnId a(1), b(2);
  lineage.OnEvent(Preemption(10, b, a, 4));
  EXPECT_EQ(lineage.ChainLenOf(b), 1u);
  lineage.OnEvent(Preemption(20, a, b, 5));
  EXPECT_EQ(lineage.ChainLenOf(a), 2u);
  lineage.OnEvent(Preemption(30, b, a, 4));
  EXPECT_EQ(lineage.ChainLenOf(b), 3u);
  EXPECT_EQ(lineage.max_chain_len(), 3u);
}

TEST(LineageTrackerTest, OnlyLineageCausesExtendAChain) {
  // Wait-die deaths, timeouts and distributed aborts are not preemptions
  // in the Figure 2 sense: they leave the chain alone.
  LineageTracker lineage;
  const TxnId a(1), b(2);
  for (auto cause : {obs::RollbackCause::kWaitDie, obs::RollbackCause::kTimeout,
                     obs::RollbackCause::kTwoPCAbort}) {
    obs::EngineEvent e = Preemption(1, b, a, 2);
    e.cause = cause;
    lineage.OnEvent(e);
  }
  EXPECT_EQ(lineage.ChainLenOf(b), 0u);
  for (auto cause : {obs::RollbackCause::kSelfRollback,
                     obs::RollbackCause::kWoundWait,
                     obs::RollbackCause::kOmegaPreemption}) {
    obs::EngineEvent e = Preemption(1, b, a, 2);
    e.cause = cause;
    lineage.OnEvent(e);
  }
  EXPECT_EQ(lineage.ChainLenOf(b), 3u);
}

TEST(LineageTrackerTest, CommitRetiresTheRecord) {
  LineageTracker lineage;
  const TxnId a(1), b(2);
  lineage.OnEvent(Preemption(1, b, a, 2));
  ASSERT_EQ(lineage.ChainLenOf(b), 1u);
  lineage.OnEvent({.kind = obs::EventKind::kCommit, .txn = b});
  EXPECT_EQ(lineage.ChainLenOf(b), 0u);
  EXPECT_EQ(lineage.max_chain_len(), 1u);  // high-water survives retirement
}

TEST(LineageTrackerTest, AttachedGaugeMirrorsTheTracker) {
  MetricsRegistry registry;
  LineageTracker lineage;
  lineage.AttachMetrics(&registry, {{obs::kShardLabel, "0"}});
  const TxnId a(1), b(2);
  lineage.OnEvent(Preemption(1, b, a, 2));
  lineage.OnEvent(Preemption(2, a, b, 3));

  auto snap = registry.Snapshot();
  const obs::LabelSet labels{{obs::kShardLabel, "0"}};
  EXPECT_EQ(snap.Find(obs::kPreemptionChainLen, labels)->gauge, 2);
}

// ---------------------------------------------------------------------------
// Lineage against the paper's schedules (engine integration)
// ---------------------------------------------------------------------------

TEST(LineageEngineTest, OmegaInterventionFiresWhenOrderedOverridesMinCost) {
  // Figure 1 under the ordered policy: pure min-cost would sacrifice the
  // requester T2 (cost 4), but Theorem 2 restricts victims to later
  // entries and picks T4 (cost 5) — one recorded ω-intervention, and T4's
  // chain starts at depth 1.
  auto fig = BuildFigure1(FigOptions(VictimPolicyKind::kMinCostOrdered));
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  LineageTracker lineage;
  fig->runner->engine().set_lineage(&lineage);
  ASSERT_TRUE(fig->TriggerDeadlock().ok());

  const core::EngineMetrics& m = fig->runner->engine().metrics();
  EXPECT_EQ(m.omega_interventions, 1u);
  EXPECT_EQ(m.LineageEvents(), 1u);
  EXPECT_EQ(m.RollbacksOf(obs::RollbackCause::kOmegaPreemption), 1u);
  EXPECT_EQ(m.wasted_ops, 5u);
  EXPECT_EQ(lineage.ChainLenOf(fig->t4), 1u);
}

TEST(LineageEngineTest, MinCostSelfRollbackRecordsHolderAsAggressor) {
  // Under unconstrained min-cost the victim is T2 itself. A self-rollback
  // still opens a chain (Figure 2 is built from them); the aggressor is
  // the holder T2 was waiting on — T4, which holds e. No ω-intervention
  // is possible under this policy.
  auto fig = BuildFigure1(FigOptions(VictimPolicyKind::kMinCost));
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  LineageTracker lineage;
  fig->runner->engine().set_lineage(&lineage);
  // Give T4 a chain of its own first: T2 inherits its aggressor's depth,
  // so T2 lands at 2 only if the aggressor recorded is T4.
  lineage.OnEvent(Preemption(0, fig->t4, fig->t1, 1));
  ASSERT_TRUE(fig->TriggerDeadlock().ok());
  const core::EngineMetrics& m = fig->runner->engine().metrics();
  EXPECT_EQ(m.omega_interventions, 0u);
  EXPECT_EQ(m.RollbacksOf(obs::RollbackCause::kSelfRollback), 1u);
  EXPECT_EQ(m.wasted_ops, 4u);
  EXPECT_EQ(lineage.ChainLenOf(fig->t2), 2u);
}

TEST(LineageEngineTest, Figure2ChainGrowsUnderMinCostAndStaysBoundedOrdered) {
  // The live signal behind pardb_preemption_chain_len: the min-cost
  // alternation preempts T2 and T3 in turn, so the chain depth climbs with
  // every round (2 deadlocks per round). The ordered policy resolves the
  // first deadlock against T4 and the whole scenario commits at depth 1.
  LineageTracker min_cost;
  auto out = RunFigure2MutualPreemption(FigOptions(VictimPolicyKind::kMinCost),
                                        /*rounds=*/4, &min_cost);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out->pattern_sustained);
  // 4 sustained rounds = 8 alternating self-rollbacks of {T2, T3}; each
  // inherits max(own, aggressor's) + 1, so the depth after 2k deadlocks
  // is k + 1: T2 climbs 1, 2, 3, 4 and T3 climbs 2, 3, 4, 5.
  EXPECT_GE(min_cost.max_chain_len(), 5u);
  EXPECT_GE(out->runner->engine().metrics().LineageEvents(), 8u);
  EXPECT_EQ(out->runner->engine().metrics().omega_interventions, 0u);

  LineageTracker ordered;
  auto fixed = RunFigure2MutualPreemption(
      FigOptions(VictimPolicyKind::kMinCostOrdered), /*rounds=*/4, &ordered);
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  EXPECT_TRUE(fixed->all_committed);
  EXPECT_EQ(ordered.max_chain_len(), 1u);
  EXPECT_GE(fixed->runner->engine().metrics().omega_interventions, 1u);
  EXPECT_LT(ordered.max_chain_len(), min_cost.max_chain_len());
}

// ---------------------------------------------------------------------------
// End-to-end: introspection endpoints over a live sharded run
// ---------------------------------------------------------------------------

par::ShardedOptions ContestedShardedOptions(LiveHub* hub) {
  par::ShardedOptions opt;
  opt.num_shards = 2;
  opt.workload.num_entities = 16;  // small universe: plenty of deadlocks
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.concurrency = 12;
  opt.total_txns = 300;
  opt.seed = 7;
  opt.hub = hub;
  return opt;
}

TEST(ServeIntegrationTest, EndpointsServeWhileShardedRunIsInFlight) {
  LiveHub hub;
  HttpServer server;
  obs::InstallIntrospectionRoutes(&server, &hub);
  ASSERT_TRUE(server.Start(0).ok());
  const std::uint16_t port = server.port();

  // Scrape every endpoint from a client thread for the whole duration of
  // the run — the TSan target: server thread reading the hub and the
  // registries while both shard threads write them.
  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const char* target :
           {"/metrics", "/healthz", "/debug/waits-for",
            "/debug/waits-for?format=dot", "/debug/deadlocks",
            "/debug/slowest?k=2", "/debug/txn?id=1"}) {
        auto reply = HttpFetch(port, target);
        if (reply.ok && reply.status == 200) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  auto report = par::RunSharded(ContestedShardedOptions(&hub));
  done.store(true, std::memory_order_release);
  scraper.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->serializable);
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(hub.phase(), RunPhase::kDone);

  // Theorem 1 on every published snapshot: under continuous detection a
  // step-boundary waits-for graph is acyclic, and with exclusive locks
  // only (shared_fraction = 0) it is a forest.
  auto snaps = hub.Snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  for (const auto& snap : snaps) {
    EXPECT_TRUE(snap.acyclic) << "shard " << snap.shard;
    EXPECT_TRUE(snap.forest) << "shard " << snap.shard;
  }

  // The run is done but the hub owns the registries: /metrics still serves
  // final values, including every introspection-specific series.
  auto metrics = HttpFetch(port, "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find(obs::kShardLoadSkew), std::string::npos);
  EXPECT_NE(metrics.body.find(obs::kShardStepEwmaNs), std::string::npos);
  EXPECT_NE(metrics.body.find(obs::kPreemptionChainLen), std::string::npos);
  EXPECT_NE(metrics.body.find(obs::kOmegaInterventionsTotal),
            std::string::npos);
  // The certifier saw no rollback erase a published write.
  EXPECT_NE(metrics.body.find(
                std::string(obs::kCertifierInvariantViolationsTotal) +
                "{shard=\"0\"} 0"),
            std::string::npos);

  auto health = HttpFetch(port, "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"phase\":\"done\""), std::string::npos);
  // Run metadata rides on the JSON body (no RunInfo was set here, so the
  // string fields fall back to "unknown" but the keys must be present);
  // ?plain=1 keeps the one-word liveness probe for dumb smoke scripts.
  EXPECT_NE(health.body.find("\"build_id\":"), std::string::npos);
  EXPECT_NE(health.body.find("\"seed\":"), std::string::npos);
  EXPECT_NE(health.body.find("\"shard_count\":"), std::string::npos);
  EXPECT_NE(health.body.find("\"scheduler\":"), std::string::npos);
  EXPECT_NE(health.body.find("\"uptime_seconds\":"), std::string::npos);
  auto plain = HttpFetch(port, "/healthz?plain=1");
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(plain.status, 200);
  EXPECT_EQ(plain.body, "ok\n");

  // D14: both shards published journal digests; the tail endpoint serves
  // the all-shards array, a per-shard digest, and clean errors.
  auto journal_all = HttpFetch(port, "/debug/journal");
  ASSERT_TRUE(journal_all.ok);
  EXPECT_EQ(journal_all.status, 200);
  EXPECT_NE(journal_all.body.find("\"chain\":\"0x"), std::string::npos);
  auto journal0 = HttpFetch(port, "/debug/journal?shard=0");
  ASSERT_TRUE(journal0.ok);
  EXPECT_EQ(journal0.status, 200);
  EXPECT_NE(journal0.body.find("\"shard\":0"), std::string::npos);
  EXPECT_NE(journal0.body.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(journal0.body.find("\"stamps\":["), std::string::npos);
  auto journal_bad = HttpFetch(port, "/debug/journal?shard=zz");
  ASSERT_TRUE(journal_bad.ok);
  EXPECT_EQ(journal_bad.status, 400);
  auto journal_missing = HttpFetch(port, "/debug/journal?shard=99");
  ASSERT_TRUE(journal_missing.ok);
  EXPECT_EQ(journal_missing.status, 404);

  // The journal series are on the scrape, and no journal ring evicted.
  EXPECT_NE(metrics.body.find(std::string(obs::kJournalRecordsTotal) +
                              "{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find(std::string(obs::kJournalDroppedTotal) +
                              "{shard=\"0\"} 0"),
            std::string::npos);

  auto waits = HttpFetch(port, "/debug/waits-for");
  ASSERT_TRUE(waits.ok);
  EXPECT_EQ(waits.status, 200);
  EXPECT_NE(waits.body.find("\"shards\""), std::string::npos);
  auto dot = HttpFetch(port, "/debug/waits-for?format=dot");
  ASSERT_TRUE(dot.ok);
  EXPECT_EQ(dot.status, 200);
  EXPECT_NE(dot.body.find("digraph"), std::string::npos);
  auto bad = HttpFetch(port, "/debug/waits-for?format=gif");
  ASSERT_TRUE(bad.ok);
  EXPECT_EQ(bad.status, 400);

  auto deadlocks = HttpFetch(port, "/debug/deadlocks");
  ASSERT_TRUE(deadlocks.ok);
  EXPECT_EQ(deadlocks.status, 200);
  EXPECT_GT(hub.deadlocks_seen(), 0u);
  EXPECT_NE(deadlocks.body.find("\"victims\""), std::string::npos);

  // D13 lifecycle endpoints: both shards published digests, so the
  // slowest ranking is populated and ordered, and a point lookup returns
  // per-shard context, the engine's wasted ops included.
  auto slowest = HttpFetch(port, "/debug/slowest?k=3");
  ASSERT_TRUE(slowest.ok);
  EXPECT_EQ(slowest.status, 200);
  EXPECT_NE(slowest.body.find("\"k\":3"), std::string::npos);
  EXPECT_NE(slowest.body.find("\"e2e_steps\":"), std::string::npos);
  auto bad_k = HttpFetch(port, "/debug/slowest?k=abc");
  ASSERT_TRUE(bad_k.ok);
  EXPECT_EQ(bad_k.status, 400);

  auto txn = HttpFetch(port, "/debug/txn?id=0");
  ASSERT_TRUE(txn.ok);
  EXPECT_EQ(txn.status, 200);
  EXPECT_NE(txn.body.find("\"shards\":[{\"shard\":0"), std::string::npos);
  for (const par::ShardResult& shard : report->shards) {
    EXPECT_NE(txn.body.find("{\"shard\":" + std::to_string(shard.shard) +
                            ",\"txns\":"),
              std::string::npos);
    EXPECT_NE(txn.body.find("\"wasted_steps\":" +
                            std::to_string(shard.metrics.wasted_ops) +
                            ",\"dropped_events\""),
              std::string::npos)
        << txn.body;
  }
  EXPECT_GT(report->aggregate.wasted_ops, 0u);
  auto no_id = HttpFetch(port, "/debug/txn");
  ASSERT_TRUE(no_id.ok);
  EXPECT_EQ(no_id.status, 400);

  // The lifecycle series are on the scrape, and no timeline ring evicted.
  EXPECT_NE(metrics.body.find(obs::kWastedStepsTotal), std::string::npos);
  EXPECT_NE(metrics.body.find(obs::kReworkRatioPpm), std::string::npos);
  EXPECT_NE(metrics.body.find(std::string(obs::kTxnE2eSteps) +
                              "{shard=\"0\",quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find(std::string(obs::kTxnlifeDroppedTotal) +
                              "{shard=\"0\"} 0"),
            std::string::npos);

  // SSE streaming: max_events=1 ends the stream after the first snapshot
  // (the run is done, so no further hub version bumps would arrive) and
  // the connection closes server-side — a plain HTTP/1.0 read-to-EOF
  // client sees one complete event.
  auto sse = HttpFetch(port, "/debug/waits-for?stream=sse&max_events=1");
  ASSERT_TRUE(sse.ok);
  EXPECT_EQ(sse.status, 200);
  EXPECT_EQ(sse.content_type, "text/event-stream");
  EXPECT_NE(sse.body.find("event: snapshot\n"), std::string::npos);
  EXPECT_NE(sse.body.find("data: "), std::string::npos);
  EXPECT_NE(sse.body.find("\"phase\":\"done\""), std::string::npos);
  // One event exactly: a second "event:" line would mean max_events was
  // ignored.
  EXPECT_EQ(sse.body.find("event: snapshot"),
            sse.body.rfind("event: snapshot"));

  server.Stop();
}

}  // namespace
}  // namespace pardb
