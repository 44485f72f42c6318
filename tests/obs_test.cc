// Tests for the observability subsystem (src/obs/): the metrics
// registry, the events a session leaves in the engine's flight ring
// (phase order, Fig. 2 events, and the per-process serialization and
// send-before-delivery guarantees under the threaded scheduler), the
// send tap, the Chrome trace rendered from the ring (golden summary,
// structural checks, refusal of a session the ring lost part of), and
// the engine log lines.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "datalog/parser.h"
#include "msg/flight_recorder.h"
#include "obs/chrome_trace.h"
#include "obs/engine_log.h"
#include "obs/metrics.h"
#include "test_engine.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

constexpr const char* kTc = R"(
  edge(1, 2). edge(2, 3).
  tc(X, Y) :- edge(X, Y).
  tc(X, Y) :- edge(X, Z), tc(Z, Y).
  ?- tc(1, W).
)";

// One session of kTc on a fresh engine.
StatusOr<EvaluationResult> RunTc(const SessionOptions& options) {
  auto unit = Parse(kTc);
  if (!unit.ok()) return unit.status();
  return TestEngine(std::move(unit->database))
      .Run(unit->program, {}, options);
}

// The last session's records of `type` in `engine`'s flight ring, in
// time order.
std::vector<FlightRecord> SessionRecords(TestEngine& engine,
                                         FlightEventType type) {
  std::vector<FlightRecord> out;
  for (const FlightRecord& r : engine.engine().flight_recorder().Snapshot()) {
    if (r.query_id == engine.last_query_id() &&
        r.type == static_cast<uint8_t>(type)) {
      out.push_back(r);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Counter / Histogram / MetricsRegistry

TEST(MetricsTest, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, HistogramStatistics) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  for (uint64_t v : {1u, 2u, 4u, 100u, 1000u}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1107u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1107.0 / 5.0);
  // Percentiles report log2-bucket upper bounds.
  EXPECT_GE(h.Percentile(100.0), 1000u);
  EXPECT_LE(h.Percentile(0.0), 1u);
}

// A percentile is its bucket's upper bound, kept inside the recorded
// range: one 730,639,356 ns sample used to read 1,073,741,823 (2^30 -
// 1) at every percentile.
TEST(MetricsTest, PercentilesStayInsideTheRecordedRange) {
  Histogram h;
  h.Record(730639356);
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(h.Percentile(p), 730639356u) << "p" << p;
  }
}

// Regression: every statistic on an empty histogram must be a defined
// zero, not rank arithmetic on count 0 (ToString/ToJson format empty
// histograms for every run that records no samples).
TEST(MetricsTest, EmptyHistogramStatisticsAreDefined) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(50.0), 0u);
  EXPECT_EQ(h.Percentile(95.0), 0u);
  EXPECT_EQ(h.Percentile(100.0), 0u);
  // Out-of-range and NaN percentiles are clamped, never UB.
  EXPECT_EQ(h.Percentile(-5.0), 0u);
  EXPECT_EQ(h.Percentile(200.0), 0u);
  EXPECT_EQ(h.Percentile(std::nan("")), 0u);
  h.Record(8);
  EXPECT_EQ(h.Percentile(std::nan("")), h.Percentile(0.0));
  std::string line = h.ToString();
  EXPECT_NE(line.find("count=1"), std::string::npos);
}

TEST(MetricsTest, RegistryReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  a.Increment(3);
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  registry.GetHistogram("h").Record(7);
  EXPECT_EQ(registry.GetHistogram("h").count(), 1u);
  EXPECT_NE(registry.ToString().find("x=3"), std::string::npos);
  registry.Clear();
  EXPECT_TRUE(registry.CounterRows().empty());
}

TEST(MetricsTest, RegistryJsonIsWellFormedish) {
  MetricsRegistry registry;
  registry.GetCounter("a/b").Increment(5);
  registry.GetHistogram("lat").Record(10);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"a/b\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  while (!json.empty() && json.back() == '\n') json.pop_back();
  EXPECT_EQ(json.back(), '}');
}

// ---------------------------------------------------------------------------
// Evaluation-level metrics plumbing

TEST(MetricsObserverTest, EvaluationFillsRegistry) {
  auto unit = Parse(kTc);
  ASSERT_TRUE(unit.ok());
  TestEngine engine(std::move(unit->database));
  auto result = engine.Run(unit->program);
  ASSERT_TRUE(result.ok());
  // The engine's registry holds this one session's totals.
  MetricsRegistry& registry = engine.engine().telemetry().registry();

  // Message and node counts.
  uint64_t sent = 0;
  for (const auto& [name, value] : registry.CounterRows()) {
    if (name.rfind("msg/sent/", 0) == 0) sent += value;
  }
  // msg/sent/<kind> counts physical sends; packaging is exercised.
  EXPECT_EQ(sent, result->message_stats.PhysicalTotal());
  EXPECT_GT(result->message_stats.packaged_submessages, 0u);
  EXPECT_EQ(registry.GetCounter("msg/delivered").value(), result->delivered);
  EXPECT_GT(registry.GetCounter("node/fires").value(), 0u);

  // Run and relation totals.
  EXPECT_EQ(registry.GetCounter("run/answers").value(),
            result->answers.size());
  EXPECT_EQ(registry.GetCounter("engine/stored_tuples").value(),
            result->counters.stored_tuples);

  // Every phase ran exactly once.
  for (const char* phase : {"network_wiring", "run", "drain"}) {
    EXPECT_EQ(registry.GetHistogram(StrCat("phase/", phase, "/ns")).count(),
              1u)
        << phase;
  }
}

// ---------------------------------------------------------------------------
// The session's events in the flight ring

TEST(ObserverTest, PhasesArriveInOrder) {
  auto unit = Parse(kTc);
  ASSERT_TRUE(unit.ok());
  TestEngine engine(std::move(unit->database));
  ASSERT_TRUE(engine.Run(unit->program).ok());
  std::vector<std::pair<Phase, bool>> log;
  for (const FlightRecord& r :
       SessionRecords(engine, FlightEventType::kPhase)) {
    log.emplace_back(static_cast<Phase>(r.kind), r.a == 1);
  }
  std::vector<std::pair<Phase, bool>> expected = {
      {Phase::kNetworkWiring, true}, {Phase::kNetworkWiring, false},
      {Phase::kRun, true},           {Phase::kRun, false},
      {Phase::kDrain, true},         {Phase::kDrain, false},
  };
  EXPECT_EQ(log, expected);
}

// Checks the network's guarantees from what a threaded session leaves
// behind: the send tap's times and the ring's delivery records.
//  * one process's deliveries never overlap (the network serializes
//    each process): its kDeliver windows [ts_ns - aux, ts_ns] are
//    disjoint;
//  * for every (from, to) channel, the i-th send precedes the i-th
//    delivery: the i-th tap time comes before the i-th delivery starts.
TEST(ObserverTest, ThreadedSchedulerHonorsContract) {
  Database db;
  ASSERT_TRUE(workload::MakeCycle(db, "edge", 12).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
  TestEngine engine(std::move(db),
                    EngineOptions{.flight_recorder_options = {
                                      .ring_capacity = 1 << 16,
                                      .ring_count = 4}});
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(StrCat("round ", round));
    std::mutex mutex;
    std::map<std::pair<ProcessId, ProcessId>, std::vector<uint64_t>> sends;
    SessionOptions options;
    options.scheduler = SchedulerKind::kThreaded;
    options.workers = 4;
    options.max_messages = 1000000;
    options.send_tap = [&](ProcessId from, ProcessId to, const Message&) {
      const uint64_t now = FlightRecorder::NowNs();
      std::lock_guard<std::mutex> lock(mutex);
      sends[{from, to}].push_back(now);
    };
    auto result = engine.Run(program, {}, options);
    ASSERT_TRUE(result.ok()) << result.status();

    std::vector<FlightRecord> deliveries =
        SessionRecords(engine, FlightEventType::kDeliver);
    ASSERT_EQ(deliveries.size(), result->delivered) << "ring lost records";
    auto start = [](const FlightRecord& r) { return r.ts_ns - r.aux; };
    std::sort(deliveries.begin(), deliveries.end(),
              [&](const FlightRecord& x, const FlightRecord& y) {
                return start(x) < start(y);
              });
    std::map<ProcessId, uint64_t> busy_until;
    std::map<std::pair<ProcessId, ProcessId>, size_t> delivered;
    size_t overlaps = 0;
    size_t early = 0;
    for (const FlightRecord& r : deliveries) {
      auto [it, first] = busy_until.emplace(r.b, r.ts_ns);
      if (!first) {
        if (start(r) < it->second) ++overlaps;
        it->second = r.ts_ns;
      }
      const std::vector<uint64_t>& channel = sends[{r.a, r.b}];
      const size_t i = delivered[{r.a, r.b}]++;
      if (i >= channel.size() || channel[i] > start(r)) ++early;
    }
    EXPECT_EQ(overlaps, 0u);
    EXPECT_EQ(early, 0u);
  }
}

TEST(ObserverTest, TerminationEventsOnCyclicWorkload) {
  Database db;
  ASSERT_TRUE(workload::MakeCycle(db, "edge", 8).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  TestEngine engine(std::move(db));
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->ended_by_protocol);
  std::array<uint64_t, static_cast<size_t>(TerminationEvent::Kind::kKindCount)>
      by_kind{};
  for (const FlightRecord& r :
       SessionRecords(engine, FlightEventType::kTermination)) {
    ++by_kind[r.kind];
  }
  using Kind = TerminationEvent::Kind;
  EXPECT_GT(by_kind[static_cast<size_t>(Kind::kWaveStarted)], 0u);
  EXPECT_GT(by_kind[static_cast<size_t>(Kind::kConcluded)], 0u);
  EXPECT_EQ(by_kind[static_cast<size_t>(Kind::kWaveStarted)],
            result->counters.protocol_waves);
}

// ---------------------------------------------------------------------------
// Send tap

TEST(SendTapTest, CalledOncePerPhysicalSend) {
  std::mutex mutex;
  uint64_t sends = 0;
  uint64_t envelopes = 0;
  SessionOptions options;
  options.send_tap = [&](ProcessId, ProcessId, const Message& m) {
    std::lock_guard<std::mutex> lock(mutex);
    ++sends;
    if (m.kind == MessageKind::kBatch) ++envelopes;
  };
  auto result = RunTc(options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(sends, result->message_stats.PhysicalTotal());
  EXPECT_GT(result->message_stats.packaged_submessages, 0u);
  EXPECT_EQ(envelopes, result->message_stats.Count(MessageKind::kBatch));
}

// ---------------------------------------------------------------------------
// Chrome trace rendered from the ring

// One session of kTc and its trace.
struct TracedTc {
  StatusOr<EvaluationResult> result = InternalError("not run");
  StatusOr<ChromeTrace> trace = InternalError("not rendered");
};

TracedTc RunTracedTc(EngineOptions engine_options = {}) {
  TracedTc out;
  auto unit = Parse(kTc);
  if (!unit.ok()) return out;
  TestEngine engine(std::move(unit->database), std::move(engine_options));
  out.result = engine.Run(unit->program);
  if (out.result.ok()) {
    out.trace = RenderChromeTrace(engine.engine().flight_recorder().Snapshot(),
                                  engine.last_query_id(),
                                  out.result->delivered);
  }
  return out;
}

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

TEST(ChromeTraceTest, StructurallySoundJson) {
  TracedTc traced = RunTracedTc();
  ASSERT_TRUE(traced.result.ok());
  ASSERT_TRUE(traced.trace.ok()) << traced.trace.status();
  const std::string json = traced.trace->ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find(StrCat("\"delivered\": ", traced.result->delivered)),
            std::string::npos);
  EXPECT_NE(json.find("phase:run"), std::string::npos);
  EXPECT_NE(json.find("\"relation_request\""), std::string::npos);
  EXPECT_NE(json.find("term:wave_started"), std::string::npos);
  // One slice per delivery plus one per phase; no flows, no counters.
  EXPECT_EQ(CountOf(json, "\"ph\": \"X\""),
            traced.result->delivered + static_cast<size_t>(Phase::kPhaseCount));
  EXPECT_EQ(CountOf(json, "\"ph\": \"s\""), 0u);
  EXPECT_EQ(CountOf(json, "\"ph\": \"C\""), 0u);
}

// An engine whose ring is smaller than one session: the renderer
// refuses the session rather than draw a trace with a hole.
TEST(ChromeTraceTest, RefusesASessionTheRingLostPartOf) {
  TracedTc traced = RunTracedTc(EngineOptions{
      .flight_recorder_options = {.ring_capacity = 16, .ring_count = 1}});
  ASSERT_TRUE(traced.result.ok());
  ASSERT_GT(traced.result->delivered, 16u);
  ASSERT_FALSE(traced.trace.ok());
  EXPECT_EQ(traced.trace.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(traced.trace.status().message().find("ring_capacity"),
            std::string::npos);
}

// The normalized (timestamp-free) trace of a tiny fixed query under
// the deterministic scheduler is bit-for-bit reproducible; the golden
// file pins the ring's record stream. Regenerate with
//   MPQE_REGEN_GOLDEN=1 ./obs_test --gtest_filter='*GoldenSummary*'
TEST(ChromeTraceTest, GoldenSummaryForTinyQuery) {
  TracedTc traced = RunTracedTc();  // deterministic scheduler
  ASSERT_TRUE(traced.trace.ok()) << traced.trace.status();
  std::string summary = traced.trace->NormalizedSummary();
  ASSERT_FALSE(summary.empty());

  const std::string path =
      std::string(MPQE_TESTDATA_DIR) + "/trace_summary_tc.golden";
  if (std::getenv("MPQE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << summary;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with MPQE_REGEN_GOLDEN=1 to create)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(summary, golden.str());
}

TEST(ChromeTraceTest, WriteFileRejectsBadPath) {
  Status status = ChromeTrace().WriteFile("/nonexistent-dir/trace.json");
  EXPECT_FALSE(status.ok());
}

// ---------------------------------------------------------------------------
// Engine log lines

// Runs kTc at `level`, capturing the engine log lines (stderr).
std::string RunTcLogging(const std::string& level) {
  SessionOptions options;
  options.log_level = level;
  std::ostringstream captured;
  std::streambuf* saved = std::cerr.rdbuf(captured.rdbuf());
  auto result = RunTc(options);
  std::cerr.rdbuf(saved);
  EXPECT_TRUE(result.ok());
  return captured.str();
}

TEST(EngineLogTest, EmitsLeveledThreadTaggedLines) {
  std::string text = RunTcLogging("info");
  EXPECT_NE(text.find("[INFO"), std::string::npos);
  // The engine minted query id 1 for the session; every line carries it.
  EXPECT_NE(text.find("engine] q1 session start"), std::string::npos);
  EXPECT_NE(text.find("engine] q1 phase run begin"), std::string::npos);
  EXPECT_NE(text.find("engine] q1 phase run end"), std::string::npos);
  // Fig. 2 waves on the cyclic tc SCC.
  EXPECT_NE(text.find("wave 1 started"), std::string::npos);
  EXPECT_NE(text.find("concluded"), std::string::npos);
  // INFO filtering: the per-node protocol answers are DEBUG-only.
  EXPECT_EQ(text.find("end_confirmed"), std::string::npos);
}

TEST(EngineLogTest, DebugLevelAddsProtocolAnswers) {
  std::string text = RunTcLogging("debug");
  EXPECT_NE(text.find("[DEBUG"), std::string::npos);
  EXPECT_NE(text.find("engine] q1 wave"), std::string::npos);
  EXPECT_NE(text.find("end_confirmed"), std::string::npos);
}

TEST(EngineLogTest, LevelNamesResolve) {
  auto level = EngineLogLevelFromName("debug");
  ASSERT_TRUE(level.ok());
  EXPECT_EQ(**level, LogLevel::kDebug);
  auto off = EngineLogLevelFromName("off");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->has_value());
  auto empty = EngineLogLevelFromName("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());
  EXPECT_FALSE(EngineLogLevelFromName("verbose").ok());
  // An explicit bad level is a Validate-time configuration error.
  SessionOptions options;
  options.log_level = "verbose";
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ObserverTest, EnumNamesAreStable) {
  EXPECT_STREQ(PhaseToString(Phase::kNetworkWiring), "network_wiring");
  EXPECT_STREQ(PhaseToString(Phase::kRun), "run");
  EXPECT_STREQ(PhaseToString(Phase::kDrain), "drain");
  EXPECT_STREQ(NodeRoleToString(NodeRole::kRule), "rule");
  EXPECT_STREQ(
      TerminationEvent::KindToString(TerminationEvent::Kind::kConcluded),
      "concluded");
}

}  // namespace
}  // namespace mpqe
