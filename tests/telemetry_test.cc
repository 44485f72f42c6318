// Tests of the engine-wide telemetry layer (DESIGN.md §12): gauge and
// registry concurrency, session-completion aggregation into the
// engine-lifetime registry, the query log ring with its slow-query
// threshold, the Prometheus text serializer (pinned golden), and the
// /metrics | /queries | /healthz stats endpoint end-to-end over a real
// socket. The concurrency cases double as the TSan coverage for the
// scrape-while-sessions-run claim.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "engine/stats_server.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/telemetry.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

constexpr const char* kTcFacts = R"(
    edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 2). edge(2, 5).
)";

constexpr const char* kTcRules = R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(1, W).
)";

// Blocking HTTP/1.0 GET against 127.0.0.1:port; returns the full
// response (head + body), or "" on connect/send failure.
std::string HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? "" : response.substr(head_end + 4);
}

// As HttpGet, but with an arbitrary request line / raw request text —
// for exercising the server's non-GET and malformed-request paths.
std::string HttpRaw(int port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// ---------------------------------------------------------------------------
// Registry primitives

TEST(TelemetryTest, GaugeSetAddAndConcurrentUpdates) {
  Gauge gauge;
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Add(-0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);

  // 8 threads x 1000 balanced +1/-1 pairs must cancel exactly: the
  // CAS-loop Add loses no updates under contention.
  gauge.Set(0.0);
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kIters; ++i) {
        gauge.Add(1.0);
        gauge.Add(-1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(TelemetryTest, RegistryDumpsAreSortedRegardlessOfRegistrationOrder) {
  MetricsRegistry registry;
  registry.GetCounter("z/last").Increment(1);
  registry.GetCounter("a/first").Increment(2);
  registry.GetCounter("m/middle").Increment(3);
  registry.GetGauge("z/gauge").Set(1.0);
  registry.GetGauge("a/gauge").Set(2.0);

  auto counters = registry.CounterRows();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].first, "a/first");
  EXPECT_EQ(counters[1].first, "m/middle");
  EXPECT_EQ(counters[2].first, "z/last");

  auto gauges = registry.GaugeRows();
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_EQ(gauges[0].first, "a/gauge");
  EXPECT_EQ(gauges[1].first, "z/gauge");
}

TEST(TelemetryTest, ConcurrentRegistryMergesAndReads) {
  // Writers adding to the registry while a scraper serializes: no torn
  // state, and the final counter total is exact.
  MetricsRegistry engine_reg;
  engine_reg.GetCounter("msg/delivered");  // family exists from scrape one
  constexpr int kThreads = 4;
  constexpr int kWrites = 50;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) {
      std::string text = ToPrometheusText(engine_reg);
      ASSERT_NE(text.find("# TYPE"), std::string::npos);
    }
  });
  std::vector<std::thread> sessions;
  for (int t = 0; t < kThreads; ++t) {
    sessions.emplace_back([&engine_reg] {
      for (int i = 0; i < kWrites; ++i) {
        engine_reg.GetCounter("msg/delivered").Increment(2);
        engine_reg.GetHistogram("msg/handle_ns").Record(50);
      }
    });
  }
  for (auto& t : sessions) t.join();
  stop.store(true);
  scraper.join();
  EXPECT_EQ(engine_reg.GetCounter("msg/delivered").value(),
            static_cast<uint64_t>(kThreads) * kWrites * 2);
  EXPECT_EQ(engine_reg.GetHistogram("msg/handle_ns").count(),
            static_cast<uint64_t>(kThreads) * kWrites);
}

// ---------------------------------------------------------------------------
// Prometheus serializer

TEST(TelemetryTest, PrometheusGoldenScrape) {
  // Pinned, byte-for-byte: the exposition of a small registry covering
  // all three types, label folding (per-node and per-kind paths), and
  // the cumulative histogram with folded trailing zeros.
  MetricsRegistry registry;
  registry.GetCounter("msg/sent/tuple").Increment(12);
  registry.GetCounter("msg/sent/end").Increment(3);
  registry.GetCounter("node/7/fires").Increment(4);
  registry.GetGauge("engine/active_sessions").Set(2);
  Histogram& h = registry.GetHistogram("engine/prepare_ns");
  h.Record(0);
  h.Record(5);
  h.Record(6);

  const std::string expected =
      "# HELP mpqe_engine_active_sessions gauge from registry path "
      "'engine/active_sessions'\n"
      "# TYPE mpqe_engine_active_sessions gauge\n"
      "mpqe_engine_active_sessions 2\n"
      "# HELP mpqe_engine_prepare_ns histogram from registry path "
      "'engine/prepare_ns'\n"
      "# TYPE mpqe_engine_prepare_ns histogram\n"
      "mpqe_engine_prepare_ns_bucket{le=\"0\"} 1\n"
      "mpqe_engine_prepare_ns_bucket{le=\"1\"} 1\n"
      "mpqe_engine_prepare_ns_bucket{le=\"3\"} 1\n"
      "mpqe_engine_prepare_ns_bucket{le=\"7\"} 3\n"
      "mpqe_engine_prepare_ns_bucket{le=\"+Inf\"} 3\n"
      "mpqe_engine_prepare_ns_sum 11\n"
      "mpqe_engine_prepare_ns_count 3\n"
      "# HELP mpqe_msg_sent counter from registry path 'msg/sent/end'\n"
      "# TYPE mpqe_msg_sent counter\n"
      "mpqe_msg_sent{kind=\"end\"} 3\n"
      "mpqe_msg_sent{kind=\"tuple\"} 12\n"
      "# HELP mpqe_node_fires counter from registry path 'node/7/fires'\n"
      "# TYPE mpqe_node_fires counter\n"
      "mpqe_node_fires{node=\"7\"} 4\n";
  EXPECT_EQ(ToPrometheusText(registry), expected);
}

TEST(TelemetryTest, PrometheusEscapesLabelsAndSanitizesNames) {
  MetricsRegistry registry;
  registry.GetCounter("predicate/has\"quote\\slash/stored_tuples")
      .Increment(1);
  std::string text = ToPrometheusText(registry);
  EXPECT_NE(text.find("mpqe_predicate_stored_tuples{predicate="
                      "\"has\\\"quote\\\\slash\"} 1"),
            std::string::npos)
      << text;
}

TEST(TelemetryTest, PrometheusGoldenEscapedLabelValue) {
  // Pinned, byte-for-byte: a label value holding every character the
  // text format 0.0.4 requires escaping in quoted label values —
  // double quote, backslash, line feed — must come out as \",
  // \\ and \n, and the HELP line (which quotes the raw registry
  // path) must escape backslash and line feed too.
  MetricsRegistry registry;
  registry.GetCounter(std::string("predicate/a\"b\\c\nd/stored_tuples"))
      .Increment(3);
  const std::string expected =
      "# HELP mpqe_predicate_stored_tuples counter from registry path "
      "'predicate/a\"b\\\\c\\nd/stored_tuples'\n"
      "# TYPE mpqe_predicate_stored_tuples counter\n"
      "mpqe_predicate_stored_tuples{predicate=\"a\\\"b\\\\c\\nd\"} 3\n";
  EXPECT_EQ(ToPrometheusText(registry), expected);
}

// ---------------------------------------------------------------------------
// EngineTelemetry

TEST(TelemetryTest, QueryIdsAreMintedSequentially) {
  EngineTelemetry telemetry;
  EXPECT_EQ(telemetry.MintQueryId(), 1u);
  EXPECT_EQ(telemetry.MintQueryId(), 2u);
  EXPECT_EQ(telemetry.MintQueryId(), 3u);
}

TEST(TelemetryTest, QueryLogRingRetainsNewestAndCountsAll) {
  TelemetryOptions options;
  options.query_log_capacity = 3;
  EngineTelemetry telemetry(options);
  for (uint64_t i = 1; i <= 5; ++i) {
    QueryLogEntry entry;
    entry.query_id = i;
    entry.wall_ns = i * 1000;
    telemetry.OnSessionComplete(std::move(entry));
  }
  EXPECT_EQ(telemetry.completed_queries(), 5u);
  auto log = telemetry.QueryLog();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].query_id, 3u);
  EXPECT_EQ(log[2].query_id, 5u);
}

TEST(TelemetryTest, SlowQueryThresholdFlagsAndCounts) {
  TelemetryOptions options;
  options.slow_query_ns = 1000;
  EngineTelemetry telemetry(options);
  QueryLogEntry fast;
  fast.query_id = 1;
  fast.wall_ns = 999;
  telemetry.OnSessionComplete(std::move(fast));
  QueryLogEntry slow;
  slow.query_id = 2;
  slow.wall_ns = 5000;
  telemetry.OnSessionComplete(std::move(slow));
  EXPECT_EQ(telemetry.slow_queries(), 1u);
  auto log = telemetry.QueryLog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(log[0].slow);
  EXPECT_TRUE(log[1].slow);
}

TEST(TelemetryTest, ConcurrentSessionCompletionsAndGaugeSampling) {
  // OnSessionStart/Complete from many threads racing SampleNow and
  // ReportQueueDepths — the TSan case for every telemetry entry point.
  EngineTelemetry telemetry;
  telemetry.StartSampling([](MetricsRegistry& r) {
    r.GetGauge("engine/workers").Set(4.0);
  });
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&telemetry, t] {
      for (int i = 0; i < kPerThread; ++i) {
        telemetry.OnSessionStart();
        telemetry.SampleNow();
        const uint64_t query_id = telemetry.MintQueryId();
        telemetry.ReportQueueDepths(query_id, {{0, static_cast<uint64_t>(i)}},
                                    static_cast<uint64_t>(i));
        QueryLogEntry entry;
        entry.query_id = query_id;
        entry.wall_ns = static_cast<uint64_t>(t * 1000 + i);
        telemetry.OnSessionComplete(std::move(entry));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(telemetry.completed_queries(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(
      telemetry.registry().GetGauge("engine/active_sessions").value(), 0.0);
  // Every stalled session completed, so no stall contribution remains.
  EXPECT_DOUBLE_EQ(
      telemetry.registry().GetGauge("engine/in_flight_messages").value(), 0.0);
  EXPECT_DOUBLE_EQ(
      telemetry.registry().GetGauge("scc/0/queue_depth").value(), 0.0);
}

TEST(TelemetryTest, ConcurrentStallsComposeAndClearPerQuery) {
  // Two sessions stalled at once: gauges are the sum of both, and a
  // fast session completing clears only ITS contribution instead of
  // clobbering the other session's live heartbeat.
  EngineTelemetry telemetry;
  MetricsRegistry& registry = telemetry.registry();
  telemetry.ReportQueueDepths(1, {{7, 10}}, 10);
  telemetry.ReportQueueDepths(2, {{7, 5}, {9, 3}}, 8);
  EXPECT_DOUBLE_EQ(registry.GetGauge("scc/7/queue_depth").value(), 15.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("scc/9/queue_depth").value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("engine/in_flight_messages").value(),
                   18.0);

  QueryLogEntry done;
  done.query_id = 1;
  telemetry.OnSessionComplete(std::move(done));
  EXPECT_DOUBLE_EQ(registry.GetGauge("scc/7/queue_depth").value(), 5.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("scc/9/queue_depth").value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("engine/in_flight_messages").value(),
                   8.0);

  // Query 2 recovering (empty heartbeat) zeroes what it published
  // rather than pinning a stale snapshot.
  telemetry.ReportQueueDepths(2, {}, 0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("scc/7/queue_depth").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("scc/9/queue_depth").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("engine/in_flight_messages").value(),
                   0.0);
}

// ---------------------------------------------------------------------------
// Engine integration

TEST(TelemetryTest, SessionsAggregateIntoEngineRegistryAndQueryLog) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EngineOptions engine_options;
  engine_options.workers = 4;
  Engine engine(engine_options);
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();

  constexpr int kSessions = 8;
  std::vector<std::future<StatusOr<EvaluationResult>>> futures;
  for (int i = 0; i < kSessions; ++i) {
    futures.push_back(engine.RunAsync(*plan));
  }
  uint64_t delivered = 0;
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status();
    delivered += result->delivered;
  }

  EngineTelemetry& telemetry = engine.telemetry();
  EXPECT_EQ(telemetry.completed_queries(), static_cast<uint64_t>(kSessions));
  // Every session's totals, none sampled away.
  EXPECT_EQ(telemetry.registry().GetCounter("msg/delivered").value(),
            delivered);
  EXPECT_GT(telemetry.registry().GetCounter("node/fires").value(), 0u);
  EXPECT_EQ(
      telemetry.registry().GetHistogram("engine/session_latency_ns").count(),
      static_cast<uint64_t>(kSessions));

  // Query log: one entry per session, ids unique and nonzero, all ok,
  // all against the same (reused after the first) plan.
  auto log = telemetry.QueryLog();
  ASSERT_EQ(log.size(), static_cast<size_t>(kSessions));
  std::vector<uint64_t> ids;
  int reused = 0;
  for (const auto& entry : log) {
    EXPECT_GE(entry.query_id, 1u);
    ids.push_back(entry.query_id);
    EXPECT_EQ(entry.status, "ok");
    EXPECT_EQ(entry.rows_out, 4u);  // tc(1, W) over the 5-edge cycle
    EXPECT_EQ(entry.text_hash, HashQueryText((*plan)->canonical_text()));
    EXPECT_GT(entry.fire_ns, 0u);
    EXPECT_GT(entry.queue_wait_ns, 0u);
    if (entry.plan_reused) ++reused;
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(reused, kSessions - 1);  // every session after the plan's first
}

// A plan instantiated from the cached plan of its shape reuses that
// plan's compile, so even its first session logs plan_reused; the first
// session of a cold compile does not.
TEST(TelemetryTest, InstantiatedPlanLogsPlanReused) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));
  auto compiled = engine.Prepare(snapshot, kTcRules);  // tc(1, W)
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto instance = engine.Prepare(snapshot,
                                 "tc(X, Y) :- edge(X, Y).\n"
                                 "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
                                 "?- tc(3, W).");
  ASSERT_TRUE(instance.ok()) << instance.status();
  ASSERT_NE(instance->get(), compiled->get());
  EXPECT_EQ(engine.plan_cache_stats().hits, 1u);

  ASSERT_TRUE(engine.RunAsync(*compiled).get().ok());
  ASSERT_TRUE(engine.RunAsync(*instance).get().ok());
  auto log = engine.telemetry().QueryLog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(log[0].plan_reused);
  EXPECT_TRUE(log[1].plan_reused);
  EXPECT_EQ(log[1].text_hash, HashQueryText((*instance)->canonical_text()));
  EXPECT_NE(log[1].text_hash, log[0].text_hash);
  EXPECT_EQ(log[1].rows_out, 4u);  // tc(3, W) reaches 4, 2, 3 and 5
}

// engine/max_node_relation is one sample per session, so after two runs
// of one plan it reads that plan's largest node relation, not twice it.
TEST(TelemetryTest, MaxNodeRelationIsTheLargestNotASum) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine;
  auto plan = engine.Prepare(engine.Attach(std::move(facts->database)),
                             kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  uint64_t largest = 0;
  for (int run = 0; run < 2; ++run) {
    auto session = engine.CreateSession(*plan);
    ASSERT_TRUE(session.ok()) << session.status();
    auto result = (*session)->Run();
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_GT(result->counters.max_node_relation, 0u);
    if (run == 1) {
      EXPECT_EQ(result->counters.max_node_relation, largest);
    }
    largest = result->counters.max_node_relation;
  }
  const Histogram& h =
      engine.telemetry().registry().GetHistogram("engine/max_node_relation");
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), largest);
}

TEST(TelemetryTest, EngineDestructionWithPendingAsyncSessions) {
  // ~Engine must drain and join the pool BEFORE destroying telemetry:
  // queued RunAsync sessions hold the raw EngineTelemetry* stamped at
  // CreateSession and report into it when they (still) run during
  // shutdown. Half of them are threaded on more workers than the pool
  // has, so their helper tasks are still queued, some behind sessions
  // that have not started, when the pool drains. ASan/TSan turn a wrong
  // teardown order into a failure.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  std::vector<std::future<StatusOr<EvaluationResult>>> futures;
  {
    EngineOptions engine_options;
    engine_options.workers = 2;
    Engine engine(engine_options);
    auto snapshot = engine.Attach(std::move(facts->database));
    auto plan = engine.Prepare(snapshot, kTcRules);
    ASSERT_TRUE(plan.ok()) << plan.status();
    SessionOptions threaded;
    threaded.scheduler = SchedulerKind::kThreaded;
    threaded.workers = 4;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(
          engine.RunAsync(*plan, i % 2 == 0 ? SessionOptions() : threaded));
    }
    // Engine destroyed here with most sessions still queued.
  }
  for (auto& future : futures) {
    auto result = future.get();
    EXPECT_TRUE(result.ok()) << result.status();
  }
}

TEST(TelemetryTest, PlanCacheCountersSurfaceInTelemetry) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EngineOptions engine_options;
  engine_options.workers = 2;
  engine_options.plan_cache_capacity = 1;
  Engine engine(engine_options);
  auto snapshot = engine.Attach(std::move(facts->database));

  ASSERT_TRUE(engine.Prepare(snapshot, kTcRules).ok());       // miss
  ASSERT_TRUE(engine.Prepare(snapshot, kTcRules).ok());       // hit
  // Another shape (the second argument bound), so another plan.
  const std::string other =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
      "?- tc(W, 2).";
  auto plan = engine.Prepare(snapshot, other);  // miss + eviction
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(engine.CreateSession(*plan).ok());  // never run
  ASSERT_TRUE(engine.RunAsync(*plan).get().ok());

  MetricsRegistry& registry = engine.telemetry().registry();
  EXPECT_EQ(registry.GetCounter("plan_cache/hit").value(), 1u);
  EXPECT_EQ(registry.GetCounter("plan_cache/miss").value(), 2u);
  EXPECT_EQ(registry.GetCounter("plan_cache/evictions").value(), 1u);
  EXPECT_EQ(registry.GetHistogram("engine/prepare_ns").count(), 3u);
  // Every CreateSession counts, whether or not it runs.
  EXPECT_EQ(registry.GetCounter("engine/sessions").value(), 2u);
  // No session ran during a Prepare, so every index was built; the
  // family exists anyway, at zero, for scrapers.
  const auto rows = registry.CounterRows();
  const auto skipped =
      std::find_if(rows.begin(), rows.end(), [](const auto& row) {
        return row.first == "plan_cache/index_builds_skipped";
      });
  ASSERT_NE(skipped, rows.end());
  EXPECT_EQ(skipped->second, 0u);
}

// ---------------------------------------------------------------------------
// Stats endpoint

TEST(TelemetryTest, StatsServerServesMetricsQueriesAndHealth) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EngineOptions engine_options;
  engine_options.workers = 2;
  engine_options.stats_port = 0;  // ephemeral
  Engine engine(engine_options);
  ASSERT_TRUE(engine.stats_server_status().ok())
      << engine.stats_server_status();
  ASSERT_GT(engine.stats_port(), 0);

  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(engine.RunAsync(*plan).get().ok());

  std::string health = HttpGet(engine.stats_port(), "/healthz");
  EXPECT_NE(health.find("200"), std::string::npos);
  EXPECT_EQ(Body(health), "ok\n");

  std::string metrics = HttpGet(engine.stats_port(), "/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(metrics.find(PrometheusContentType()), std::string::npos);
  std::string body = Body(metrics);
  EXPECT_NE(body.find("mpqe_plan_cache_hit"), std::string::npos);
  EXPECT_NE(body.find("mpqe_engine_session_latency_ns_count 1"),
            std::string::npos);
  EXPECT_NE(body.find("mpqe_msg_delivered"), std::string::npos);

  std::string queries = HttpGet(engine.stats_port(), "/queries");
  EXPECT_NE(queries.find("mpqe-querylog-v1"), std::string::npos);
  EXPECT_NE(queries.find("\"query_id\": 1"), std::string::npos);

  std::string missing = HttpGet(engine.stats_port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
}

TEST(TelemetryTest, ScrapesConcurrentWithSessions) {
  // The live-scrape claim: GET /metrics while sessions run, no torn
  // output and every scrape parses. Run under TSan in CI.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EngineOptions engine_options;
  engine_options.workers = 4;
  engine_options.stats_port = 0;
  Engine engine(engine_options);
  ASSERT_TRUE(engine.stats_server_status().ok());
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) {
      std::string body = Body(HttpGet(engine.stats_port(), "/metrics"));
      if (!body.empty()) {
        EXPECT_NE(body.find("# TYPE mpqe_plan_cache_hit counter"),
                  std::string::npos);
      }
    }
  });
  std::vector<std::future<StatusOr<EvaluationResult>>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(engine.RunAsync(*plan));
  for (auto& future : futures) {
    ASSERT_TRUE(future.get().ok());
  }
  stop.store(true);
  scraper.join();
  EXPECT_EQ(engine.telemetry().completed_queries(), 12u);
}

TEST(TelemetryTest, SilentClientDoesNotWedgeServerOrStop) {
  StatsServerOptions options;
  options.io_timeout_ms = 100;
  StatsServer server{options};
  server.AddRoute("/x", "text/plain", [] { return std::string("x"); });
  ASSERT_TRUE(server.Start().ok());

  // Connect and send nothing: the recv timeout must release the
  // single-threaded acceptor so the next scrape still gets served and
  // Stop() does not hang joining a recv-blocked acceptor.
  int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  std::string response = HttpGet(server.port(), "/x");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_EQ(Body(response), "x");

  ::close(idle);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(TelemetryTest, StatsServerMethodNotAllowedAndNotFound) {
  StatsServer server{StatsServerOptions{}};
  server.AddRoute("/x", "text/plain", [] { return std::string("x"); });
  ASSERT_TRUE(server.Start().ok());

  // Non-GET on a real route: 405 with the mandatory Allow header
  // (RFC 9110 §15.5.6), not a 404 and not a served body.
  std::string post =
      HttpRaw(server.port(), "POST /x HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(post.find("405 Method Not Allowed"), std::string::npos) << post;
  EXPECT_NE(post.find("Allow: GET, HEAD"), std::string::npos) << post;
  std::string put = HttpRaw(server.port(), "PUT /x HTTP/1.0\r\n\r\n");
  EXPECT_NE(put.find("405"), std::string::npos);
  EXPECT_NE(put.find("Allow: GET, HEAD"), std::string::npos);

  // Unknown path: 404 listing the routes that do exist.
  std::string missing = HttpGet(server.port(), "/unknown");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);
  EXPECT_NE(Body(missing).find("/x"), std::string::npos);

  // Garbage request line: 400, and the server keeps serving.
  std::string bad = HttpRaw(server.port(), "nonsense\r\n\r\n");
  EXPECT_NE(bad.find("400"), std::string::npos);
  std::string ok = HttpGet(server.port(), "/x");
  EXPECT_NE(ok.find("200"), std::string::npos);
  EXPECT_EQ(Body(ok), "x");

  server.Stop();
}

TEST(TelemetryTest, StatsServerStopWhileRequestsInFlight) {
  // Stop() must join cleanly while a handler is mid-request and other
  // clients are still connecting: no hang, no crash, no serve-after-
  // stop. The handler stalls long enough that Stop() lands while the
  // acceptor is inside ServeConnection. Run under TSan in CI.
  StatsServerOptions options;
  options.io_timeout_ms = 200;
  StatsServer server{options};
  server.AddRoute("/slow", "text/plain", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return std::string("slow\n");
  });
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        std::string response = HttpGet(port, "/slow");
        // Served fully or refused — never a torn 200.
        if (response.find("200") != std::string::npos) {
          EXPECT_EQ(Body(response), "slow\n");
        }
      }
    });
  }
  // Let requests get in flight, then stop the server under load.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  server.Stop();
  EXPECT_FALSE(server.running());
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(HttpGet(port, "/slow"), "");
}

TEST(TelemetryTest, StatsServerRejectsBadPortAndStops) {
  StatsServer first{StatsServerOptions{}};
  first.AddRoute("/x", "text/plain", [] { return std::string("x"); });
  ASSERT_TRUE(first.Start().ok());
  ASSERT_GT(first.port(), 0);

  // Second server on the same fixed port must fail cleanly.
  StatsServerOptions clash_options;
  clash_options.port = first.port();
  StatsServer clash{clash_options};
  clash.AddRoute("/x", "text/plain", [] { return std::string("x"); });
  Status status = clash.Start();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);

  first.Stop();
  EXPECT_FALSE(first.running());
  // After Stop the port no longer answers.
  EXPECT_EQ(HttpGet(first.port(), "/x"), "");
}

}  // namespace
}  // namespace mpqe
