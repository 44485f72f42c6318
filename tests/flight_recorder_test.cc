// Tests of the flight recorder (DESIGN.md §14): seqlock ring
// semantics (ordering, wraparound, torn-slot rejection under
// concurrent writers), the network's per-delivery tap (its records
// agree with the run's own counts), the stall watchdog end-to-end with
// fault injection (a parked SCC member must yield a diagnostic bundle
// naming the wedged SCC, counted once on every surface), and the engine
// surfaces — GET /debug/flight and Engine::FlightDumpJson. The
// concurrent-writer and watchdog cases double as the TSan coverage for
// the recorder's race-free-snapshot claim.

#include "msg/flight_recorder.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <mutex>

#include "common/string_util.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "engine/evaluator.h"
#include "graph/rule_goal_graph.h"
#include "msg/network.h"
#include "msg/worker_pool.h"
#include "obs/flight_dump.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sips/strategy.h"
#include "test_engine.h"

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

// ---------------------------------------------------------------------------
// Ring semantics

TEST(FlightRecorderTest, RecordsComeBackTimeOrderedWithPayloadIntact) {
  FlightRecorder recorder({.ring_capacity = 64, .ring_count = 1});
  for (int i = 0; i < 10; ++i) {
    recorder.RecordEvent(FlightEventType::kDeliver, /*query_id=*/7, /*a=*/i,
                         /*b=*/i + 1, /*rows=*/static_cast<uint32_t>(i * 100),
                         /*aux=*/42, /*kind=*/3);
  }
  std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 10u);
  EXPECT_TRUE(std::is_sorted(
      records.begin(), records.end(),
      [](const FlightRecord& x, const FlightRecord& y) {
        return x.ts_ns < y.ts_ns;
      }));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[i].type,
              static_cast<uint8_t>(FlightEventType::kDeliver));
    EXPECT_EQ(records[i].query_id, 7u);
    EXPECT_EQ(records[i].a, i);
    EXPECT_EQ(records[i].b, i + 1);
    EXPECT_EQ(records[i].rows, static_cast<uint32_t>(i * 100));
    EXPECT_EQ(records[i].aux, 42u);
    EXPECT_EQ(records[i].kind, 3u);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
}

TEST(FlightRecorderTest, WraparoundKeepsOnlyTheNewestRecords) {
  // Capacity rounds up to a power of two; 16 stays 16. Writing 100
  // records must retain exactly the last 16, in order.
  FlightRecorder recorder({.ring_capacity = 16, .ring_count = 1});
  for (int i = 0; i < 100; ++i) {
    recorder.RecordEvent(FlightEventType::kDeliver, /*query_id=*/1,
                         /*a=*/i);
  }
  std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 16u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].a, static_cast<int32_t>(84 + i));
  }
  EXPECT_EQ(recorder.recorded(), 100u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder({.ring_capacity = 5, .ring_count = 1});
  for (int i = 0; i < 8; ++i) {
    recorder.RecordEvent(FlightEventType::kDeliver, 1, i);
  }
  // 5 rounds up to 8: all 8 retained.
  EXPECT_EQ(recorder.Snapshot().size(), 8u);
  recorder.RecordEvent(FlightEventType::kDeliver, 1, 8);
  EXPECT_EQ(recorder.Snapshot().size(), 8u);  // 9th evicts the oldest
}

TEST(FlightRecorderTest, ConcurrentWritersNeverTearASnapshot) {
  // Hammer a deliberately tiny recorder (constant wraparound, threads
  // sharing rings) while snapshotting concurrently. Every record that
  // comes out must be one that some thread put in, intact: the payload
  // words are self-consistent (a encodes the writer, b the sequence,
  // rows/aux derive from both) so a torn slot that slipped through the
  // seqlock would be visible as a mismatched tuple. Run under TSan.
  FlightRecorder recorder({.ring_capacity = 64, .ring_count = 2});
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> start{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (!start.load()) {
      }
      for (int i = 0; i < kPerWriter; ++i) {
        recorder.RecordEvent(FlightEventType::kDeliver,
                             /*query_id=*/static_cast<uint64_t>(w + 1),
                             /*a=*/w, /*b=*/i,
                             /*rows=*/static_cast<uint32_t>(w * 31 + i),
                             /*aux=*/static_cast<uint32_t>(i ^ (w << 16)));
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      for (const FlightRecord& r : recorder.Snapshot()) {
        ASSERT_EQ(r.type, static_cast<uint8_t>(FlightEventType::kDeliver));
        ASSERT_GE(r.a, 0);
        ASSERT_LT(r.a, kWriters);
        ASSERT_EQ(r.query_id, static_cast<uint64_t>(r.a + 1));
        ASSERT_EQ(r.rows, static_cast<uint32_t>(r.a * 31 + r.b));
        ASSERT_EQ(r.aux, static_cast<uint32_t>(r.b ^ (r.a << 16)));
      }
    }
  });
  start.store(true);
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(recorder.recorded(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  // After the dust settles the rings hold full, valid records.
  EXPECT_EQ(recorder.Snapshot().size(), 128u);
}

TEST(FlightRecorderTest, EventTypeNamesAreStableSchema) {
  // Serialized names are part of mpqe-flightdump-v1; renames break
  // check_trace.py --flight and downstream dashboards.
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kSessionStart),
               "session_start");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kSessionEnd),
               "session_end");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kDeliver), "deliver");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kPhase), "phase");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kTermination),
               "termination");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kStall), "stall");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kWatchdogDump),
               "watchdog_dump");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kPlanPrepare),
               "plan_prepare");
}

// ---------------------------------------------------------------------------
// Delivery tap

// Forwards the segment it receives to `peer` (when it has one).
class SegmentForward : public Process {
 public:
  explicit SegmentForward(ProcessId peer) : peer_(peer) {}
  void OnMessage(const Message& m) override {
    if (peer_ != kNoProcess) Send(peer_, MakeTupleSegment(m.segment_ptr()));
  }

 private:
  ProcessId peer_;
};

TEST(FlightRecorderTest, DeliverRecordsCountAOneRowSegmentAsOneRow) {
  // A delivery record carries answer rows in and out. A one-row
  // segment — the shape of a single answer — is one row on both
  // sides, not zero.
  FlightRecorder recorder({.ring_capacity = 64, .ring_count = 1});
  Network net;
  net.AddProcess(std::make_unique<SegmentForward>(1));
  net.AddProcess(std::make_unique<SegmentForward>(kNoProcess));
  net.SetFlightRecorder(&recorder, /*query_id=*/3);
  net.Start();
  auto segment = std::make_shared<TupleSegment>();
  segment->arity = 1;
  segment->AppendRow(Tuple{Value::Int(7)});
  net.Send(kNoProcess, 0, MakeTupleSegment(std::move(segment)));
  ASSERT_TRUE(net.RunDeterministic().ok());

  std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  for (const FlightRecord& r : records) {
    EXPECT_EQ(r.type, static_cast<uint8_t>(FlightEventType::kDeliver));
    EXPECT_EQ(r.kind, static_cast<uint8_t>(MessageKind::kTupleSegment));
    EXPECT_EQ(r.query_id, 3u);
    EXPECT_EQ(r.rows, 1u);
  }
  EXPECT_EQ(records[0].a, kNoProcess);
  EXPECT_EQ(records[0].b, 0);
  EXPECT_EQ(records[0].rows_out, 1u);  // forwarded to process 1
  EXPECT_EQ(records[1].a, 0);
  EXPECT_EQ(records[1].b, 1);
  EXPECT_EQ(records[1].rows_out, 0u);
}

TEST(FlightRecorderTest, SessionRecordsAgreeWithTheRunsOwnCounts) {
  // One deterministic session on an engine recorder that retains all
  // of it: the session's delivery records must reproduce the
  // scheduler's delivery count, the profiler's per-node msgs_in, and
  // the answer rows the network counted as sent.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2,
                              .flight_recorder_options = {
                                  .ring_capacity = 1 << 16, .ring_count = 1}});
  const FlightRecorder& recorder = engine.flight_recorder();
  auto plan = engine.Prepare(engine.Attach(std::move(facts->database)),
                             kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  SessionOptions options;
  options.profile = true;
  auto session = engine.CreateSession(*plan, options);
  ASSERT_TRUE(session.ok()) << session.status();
  const uint64_t query_id = (*session)->query_id();
  auto result = (*session)->Run();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(result->profile, nullptr);

  uint64_t deliveries = 0;
  uint64_t rows_out = 0;
  std::map<int32_t, uint64_t> deliveries_by_node;
  std::set<uint8_t> types;
  for (const FlightRecord& r : recorder.Snapshot()) {
    if (r.query_id != query_id) continue;  // the engine's plan records
    types.insert(r.type);
    if (r.type != static_cast<uint8_t>(FlightEventType::kDeliver)) continue;
    ++deliveries;
    ++deliveries_by_node[r.b];
    rows_out += r.rows_out;
  }
  EXPECT_LT(recorder.recorded(), uint64_t{1} << 16) << "ring wrapped";
  EXPECT_EQ(deliveries, result->delivered);
  for (const NodeProfile& node : result->profile->nodes) {
    EXPECT_EQ(deliveries_by_node[node.node], node.msgs_in)
        << "node " << node.node;
  }
  const MessageStats& stats = result->message_stats;
  EXPECT_EQ(rows_out, stats.segment_rows);
  EXPECT_GT(rows_out, 0u);
  // The rare events land beside the deliveries.
  EXPECT_TRUE(types.count(static_cast<uint8_t>(FlightEventType::kPhase)));
  EXPECT_TRUE(
      types.count(static_cast<uint8_t>(FlightEventType::kTermination)));
}

TEST(FlightRecorderTest, EverySurfaceReportsTheSameCounts) {
  // One program on both schedulers, profiled, on an engine with
  // telemetry and the flight recorder on: the profile, the result, the
  // engine registry, the query log and the flight ring all read the
  // network's counts, so they must agree exactly.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EngineOptions engine_options;
  engine_options.workers = 2;
  engine_options.flight_recorder_options = {.ring_capacity = 1 << 16,
                                            .ring_count = 1};
  Engine engine(engine_options);
  auto plan = engine.Prepare(engine.Attach(std::move(facts->database)),
                             kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  MetricsRegistry& engine_registry = engine.telemetry().registry();
  // Physical sends in the engine registry, summed over msg/sent/<kind>.
  const auto engine_sent = [&engine_registry] {
    uint64_t sent = 0;
    for (const auto& [name, value] : engine_registry.CounterRows()) {
      if (name.rfind("msg/sent/", 0) == 0) sent += value;
    }
    return sent;
  };

  for (SchedulerKind scheduler :
       {SchedulerKind::kDeterministic, SchedulerKind::kThreaded}) {
    SCOPED_TRACE(SchedulerKindToName(scheduler));
    const uint64_t engine_delivered_before =
        engine_registry.GetCounter("msg/delivered").value();
    const uint64_t engine_sent_before = engine_sent();
    const uint64_t engine_dedup_before =
        engine_registry.GetCounter("dedup/hits").value();
    SessionOptions options;
    options.scheduler = scheduler;
    options.workers = 2;
    options.profile = true;
    auto session = engine.CreateSession(*plan, options);
    ASSERT_TRUE(session.ok()) << session.status();
    const uint64_t query_id = (*session)->query_id();
    auto result = (*session)->Run();
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_NE(result->profile, nullptr);
    const ProfileReport& profile = *result->profile;

    // Deliveries: four surfaces.
    uint64_t ring_deliveries = 0;
    uint64_t ring_node_handler_ns = 0;
    for (const FlightRecord& r : engine.flight_recorder().Snapshot()) {
      if (r.query_id == query_id &&
          r.type == static_cast<uint8_t>(FlightEventType::kDeliver)) {
        ++ring_deliveries;
        // The sink is the process after the graph's nodes.
        if (r.b < static_cast<int32_t>(profile.nodes.size())) {
          ring_node_handler_ns += r.aux;
        }
      }
    }
    EXPECT_LT(engine.flight_recorder().recorded(), uint64_t{1} << 16)
        << "ring wrapped";
    EXPECT_GT(result->delivered, 0u);
    EXPECT_EQ(profile.total_msgs_delivered, result->delivered);
    EXPECT_EQ(engine_registry.GetCounter("msg/delivered").value() -
                  engine_delivered_before,
              result->delivered);
    EXPECT_EQ(ring_deliveries, result->delivered);

    // Physical sends.
    EXPECT_EQ(profile.total_msgs_sent, result->message_stats.PhysicalTotal());
    EXPECT_EQ(engine_sent() - engine_sent_before,
              result->message_stats.PhysicalTotal());

    // Answer rows shipped.
    uint64_t segment_rows_out = 0;
    for (const NodeProfile& node : profile.nodes) {
      segment_rows_out += node.segment_rows_out;
    }
    EXPECT_GT(segment_rows_out, 0u);
    EXPECT_EQ(segment_rows_out, result->message_stats.segment_rows);

    // Duplicate elimination.
    EXPECT_EQ(profile.total_dedup_hits, result->counters.duplicate_drops);
    EXPECT_EQ(engine_registry.GetCounter("dedup/hits").value() -
                  engine_dedup_before,
              result->counters.duplicate_drops);

    // Fire time: each graph-node delivery's handler plus the run-end
    // flush it closes, summed over the nodes.
    std::vector<QueryLogEntry> log = engine.telemetry().QueryLog();
    auto entry = std::find_if(log.begin(), log.end(), [&](const auto& e) {
      return e.query_id == query_id;
    });
    ASSERT_NE(entry, log.end());
    EXPECT_GT(entry->fire_ns, 0u);
    EXPECT_EQ(entry->fire_ns, profile.total_fire_ns);
    EXPECT_EQ(ring_node_handler_ns, profile.total_fire_ns);
    EXPECT_EQ(entry->queue_wait_ns, profile.total_queue_wait_ns);
  }
}

TEST(FlightRecorderTest, UnsampledEngineSessionRecordsWithoutObservers) {
  // A default Engine samples no session: telemetry reads the network's
  // counts, and every session records into the ring — more records
  // than deliveries, since phases and lifecycle land too.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EngineOptions engine_options;
  engine_options.workers = 2;
  Engine engine(engine_options);
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();

  auto first = engine.RunAsync(*plan).get();
  ASSERT_TRUE(first.ok()) << first.status();
  const uint64_t before = engine.flight_recorder().recorded();
  auto unsampled = engine.RunAsync(*plan).get();
  ASSERT_TRUE(unsampled.ok()) << unsampled.status();
  EXPECT_EQ(unsampled->answers.size(), 4u);
  EXPECT_GT(engine.flight_recorder().recorded() - before,
            unsampled->delivered);
}

// ---------------------------------------------------------------------------
// Watchdog + fault injection

TEST(FlightRecorderTest, WatchdogDumpNamesTheParkedScc) {
  // Park one member of the recursive SCC long enough for the watchdog
  // to fire: the diagnostic bundle must name that SCC as stuck, carry
  // its protocol state, and the run must still complete correctly
  // after the park ends. Run under TSan in CI (monitor thread +
  // workers + recorder all racing).
  auto unit = Parse(R"(
    edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 2). edge(2, 5).
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(1, W).
  )");
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_TRUE(unit->program.Validate(&unit->database).ok());
  auto strategy = MakeStrategyByName("greedy");
  ASSERT_TRUE(strategy.ok());
  auto built = RuleGoalGraph::Build(unit->program, **strategy);
  ASSERT_TRUE(built.ok()) << built.status();
  const RuleGoalGraph& graph = **built;

  // Find a nontrivial-SCC member to park (prefer a non-leader, as the
  // CLI's --park-scc does).
  NodeId park = kNoNode;
  int64_t park_scc = -1;
  for (NodeId id = 0; id < static_cast<NodeId>(graph.size()); ++id) {
    const GraphNode& n = graph.node(id);
    if (n.scc_is_trivial) continue;
    if (park == kNoNode) {
      park = id;
      park_scc = n.scc_id;
    }
    if (!n.is_leader) {
      park = id;
      park_scc = n.scc_id;
      break;
    }
  }
  ASSERT_NE(park, kNoNode) << "tc program must have a recursive SCC";

  FlightRecorder recorder;
  std::vector<FlightDump> dumps;
  std::mutex dumps_mutex;

  SessionOptions options;
  options.scheduler = SchedulerKind::kThreaded;
  options.workers = 2;
  options.watchdog_stall_ms = 150;
  options.fault_park_node = park;
  options.fault_park_ms = 1200;
  options.flight_dump_sink = [&](const FlightDump& dump) {
    std::lock_guard<std::mutex> lock(dumps_mutex);
    dumps.push_back(dump);
  };

  WorkerPool pool(2);
  auto result = RunSession(
      graph, unit->database, options,
      SessionContext{.query_id = 5, .flight = &recorder, .pool = &pool});
  ASSERT_TRUE(result.ok()) << result.status();
  // The park only delays; answers are unaffected.
  EXPECT_EQ(result->answers.size(), 4u);
  EXPECT_TRUE(result->ended_by_protocol);

  ASSERT_GE(dumps.size(), 1u) << "watchdog never fired";
  const FlightDump& dump = dumps.front();
  EXPECT_EQ(dump.reason, "stall");
  EXPECT_EQ(dump.query_id, 5u);
  EXPECT_GE(dump.stalled_ms, 150);
  EXPECT_EQ(dump.stuck_scc, park_scc) << "dump blames the wrong SCC";
  EXPECT_FALSE(dump.events.empty());

  // The stuck SCC's row exists, is nontrivial, and holds the queued
  // work the parked node is sitting on.
  bool found_scc = false;
  for (const FlightDumpScc& scc : dump.sccs) {
    if (scc.scc != dump.stuck_scc) continue;
    found_scc = true;
    EXPECT_TRUE(scc.nontrivial);
    EXPECT_GT(scc.members, 0u);
    EXPECT_GT(scc.queue_depth, 0u);
  }
  EXPECT_TRUE(found_scc);

  // The parked node's row carries its live queue depth.
  bool found_node = false;
  for (const FlightDumpNode& node : dump.nodes) {
    if (node.node != static_cast<int32_t>(park)) continue;
    found_node = true;
    EXPECT_EQ(node.scc, park_scc);
    EXPECT_GT(node.queue_depth, 0u);
    EXPECT_FALSE(node.label.empty());
  }
  EXPECT_TRUE(found_node);

  // The bundle serializes as schema v1 with its scalars present.
  const std::string json = dump.ToJson();
  EXPECT_NE(json.find("\"schema\": \"mpqe-flightdump-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"stall\""), std::string::npos);
  EXPECT_NE(json.find("\"stuck_scc\": "), std::string::npos);

  // One dump per stall episode, not one per monitor tick: the park
  // lasted ~8 watchdog intervals but each episode dumps once.
  EXPECT_LE(dumps.size(), 2u);
}

// The park node of a plan: a non-leader member of a nontrivial SCC.
NodeId ParkNode(const RuleGoalGraph& graph) {
  for (NodeId id = 0; id < static_cast<NodeId>(graph.size()); ++id) {
    const GraphNode& n = graph.node(id);
    if (!n.scc_is_trivial && !n.is_leader) return id;
  }
  return kNoNode;
}

TEST(FlightRecorderTest, WatchdogDumpsCountOnceWithTheSessionsOwnSink) {
  // An engine session that brings its own dump sink: the engine counts
  // the dump where the watchdog builds it, so Engine::watchdog_dumps()
  // and the watchdog/dumps counter read the same number, the number of
  // dumps the sink received.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto plan = engine.Prepare(engine.Attach(std::move(facts->database)),
                             kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const NodeId park = ParkNode((*plan)->graph());
  ASSERT_NE(park, kNoNode);

  std::atomic<uint64_t> sunk{0};
  SessionOptions options;
  options.scheduler = SchedulerKind::kThreaded;
  options.workers = 2;
  options.watchdog_stall_ms = 100;
  options.fault_park_node = park;
  options.fault_park_ms = 600;
  options.flight_dump_sink = [&](const FlightDump&) { ++sunk; };
  auto session = engine.CreateSession(*plan, options);
  ASSERT_TRUE(session.ok()) << session.status();
  auto result = (*session)->Run();
  ASSERT_TRUE(result.ok()) << result.status();

  ASSERT_GE(sunk.load(), 1u) << "watchdog never fired";
  EXPECT_EQ(engine.watchdog_dumps(), sunk.load());
  EXPECT_EQ(engine.telemetry().registry().GetCounter("watchdog/dumps").value(),
            sunk.load());
  EXPECT_EQ(engine.telemetry().registry().GetCounter("watchdog/stalls").value(),
            sunk.load());
}

TEST(FlightRecorderTest, WatchdogQuietOnHealthyRuns) {
  auto unit = Parse(R"(
    edge(1, 2). edge(2, 3).
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(1, W).
  )");
  ASSERT_TRUE(unit.ok()) << unit.status();
  int dumps = 0;
  SessionOptions options;
  options.scheduler = SchedulerKind::kThreaded;
  options.workers = 2;
  options.watchdog_stall_ms = 2000;
  options.flight_dump_sink = [&](const FlightDump&) { ++dumps; };
  auto result =
      TestEngine(std::move(unit->database)).Run(unit->program, {}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(dumps, 0);
}

// ---------------------------------------------------------------------------
// Engine surfaces

TEST(FlightRecorderTest, EngineServesFlightDumpOverHttpAndApi) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EngineOptions engine_options;
  engine_options.workers = 2;
  engine_options.stats_port = 0;
  Engine engine(engine_options);
  ASSERT_TRUE(engine.stats_server_status().ok());

  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(engine.RunAsync(*plan).get().ok());

  // No watchdog fired: both surfaces serve a "manual" dump of the
  // black box, which retains this run's events.
  const std::string json = engine.FlightDumpJson();
  EXPECT_NE(json.find("\"schema\": \"mpqe-flightdump-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"manual\""), std::string::npos);
  EXPECT_NE(json.find("\"session_start\""), std::string::npos);
  EXPECT_NE(json.find("\"session_end\""), std::string::npos);

  const std::string http =
      HttpGet(engine.stats_port(), "/debug/flight");
  EXPECT_NE(http.find("200"), std::string::npos);
  EXPECT_NE(http.find("mpqe-flightdump-v1"), std::string::npos);
  EXPECT_EQ(engine.watchdog_dumps(), 0u);
}

}  // namespace
}  // namespace mpqe
