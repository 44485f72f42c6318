// Stream-safety properties of the message protocol, checked on the
// wire (batch envelopes unpacked) through the session's send tap across
// workloads, strategies and schedules:
//
//  * per (producer, consumer, binding) stream: no tuple is ever sent
//    after that stream's `end` (an end means "the request is
//    complete", §3.1/§3.2);
//  * `end` is sent at most once per stream;
//  * every tuple request precedes any answer on its stream;
//  * the top-level end reaches the sink exactly once.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <tuple>

#include "common/random.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "test_engine.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

struct StreamKey {
  ProcessId producer;
  ProcessId consumer;
  Tuple binding;

  bool operator<(const StreamKey& other) const {
    return std::tie(producer, consumer, binding) <
           std::tie(other.producer, other.consumer, other.binding);
  }
};

struct StreamState {
  bool requested = false;
  bool ended = false;
  size_t tuples_after_end = 0;
  size_t double_ends = 0;
  size_t answers_before_request = 0;
};

class StreamMonitor {
 public:
  // The send tap that feeds this monitor every message on the wire.
  SendTap Tap() {
    return [this](ProcessId, ProcessId to, const Message& m) {
      Observe(to, m);
    };
  }

  void Observe(ProcessId to, const Message& m) {
    // Lock once here; batch envelopes recurse via the unlocked helper
    // (re-locking the non-recursive mutex would self-deadlock).
    std::lock_guard<std::mutex> lock(mutex_);
    ObserveLocked(to, m);
  }

  void ExpectClean(const std::string& context) const {
    for (const auto& [key, s] : streams_) {
      EXPECT_EQ(s.tuples_after_end, 0u)
          << context << ": tuple after end on stream " << key.producer
          << "->" << key.consumer << " " << TupleToString(key.binding);
      EXPECT_EQ(s.double_ends, 0u)
          << context << ": double end on stream " << key.producer << "->"
          << key.consumer;
      EXPECT_EQ(s.answers_before_request, 0u)
          << context << ": answer before request on stream " << key.producer
          << "->" << key.consumer;
    }
  }

 private:
  void ObserveLocked(ProcessId to, const Message& m) {
    switch (m.kind) {
      case MessageKind::kTupleRequest:
        streams_[{to, m.from, m.binding}].requested = true;
        break;
      case MessageKind::kTupleSegment: {
        // A segment is a run of tuples on one stream (its binding
        // names the stream): every row is subject to the same ordering
        // invariants.
        const TupleSegment& segment = m.segment();
        StreamState& s =
            streams_[{m.from, to, TupleRef(segment.binding).ToTuple()}];
        size_t rows = segment.num_rows;
        EXPECT_GT(rows, 0u) << "empty segment on the wire";
        if (s.ended) s.tuples_after_end += rows;
        if (!s.requested) s.answers_before_request += rows;
        break;
      }
      case MessageKind::kEnd: {
        StreamState& s = streams_[{m.from, to, m.binding}];
        if (s.ended) ++s.double_ends;
        s.ended = true;
        break;
      }
      case MessageKind::kBatch:
        for (const Message& sub : m.batch()) {
          Message stamped = sub;
          stamped.from = m.from;
          ObserveLocked(to, stamped);
        }
        break;
      default:
        break;
    }
  }

  mutable std::mutex mutex_;
  std::map<StreamKey, StreamState> streams_;
};

struct Config {
  std::string name;
  SchedulerKind scheduler;
  uint64_t seed;
  bool coalesce;
};

std::vector<Config> Configs() {
  return {
      {"det", SchedulerKind::kDeterministic, 0, false},
      {"det/coalesced", SchedulerKind::kDeterministic, 0, true},
      {"rand7", SchedulerKind::kRandom, 7, false},
      {"rand11/coalesced", SchedulerKind::kRandom, 11, true},
      {"threaded", SchedulerKind::kThreaded, 0, false},
  };
}

TEST(StreamOrderTest, RecursiveCycleWorkload) {
  Database db;
  ASSERT_TRUE(workload::MakeCycle(db, "edge", 8).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
  TestEngine engine(std::move(db));
  for (const Config& config : Configs()) {
    StreamMonitor monitor;
    PlanOptions plan;
    plan.graph_options.coalesce_nodes = config.coalesce;
    SessionOptions options;
    options.scheduler = config.scheduler;
    options.seed = config.seed;
    options.workers = 3;
    // Guard: a protocol regression must fail fast, not hang the test.
    options.max_messages = 1000000;
    options.send_tap = monitor.Tap();
    auto result = engine.Run(program, plan, options);
    ASSERT_TRUE(result.ok()) << config.name << ": " << result.status();
    EXPECT_TRUE(result->ended_by_protocol) << config.name;
    monitor.ExpectClean(config.name);
  }
}

TEST(StreamOrderTest, MutualRecursionWorkload) {
  auto unit = Parse(R"(
    zero(0).
    succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4). succ(4, 5).
    even(X) :- zero(X).
    even(X) :- succ(Y, X), odd(Y).
    odd(X) :- succ(Y, X), even(Y).
    ?- even(N).
  )");
  ASSERT_TRUE(unit.ok());
  TestEngine engine(std::move(unit->database));
  for (const Config& config : Configs()) {
    StreamMonitor monitor;
    PlanOptions plan;
    plan.graph_options.coalesce_nodes = config.coalesce;
    SessionOptions options;
    options.scheduler = config.scheduler;
    options.seed = config.seed;
    // Guard: a protocol regression must fail fast, not hang the test.
    options.max_messages = 1000000;
    options.send_tap = monitor.Tap();
    auto result = engine.Run(unit->program, plan, options);
    ASSERT_TRUE(result.ok()) << config.name;
    monitor.ExpectClean(config.name);
  }
}

TEST(StreamOrderTest, RandomProgramsUnderRandomSchedules) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 700);
    workload::RandomProgramOptions program_options;
    auto rp = workload::MakeRandomProgram(program_options, rng);
    ASSERT_TRUE(rp.ok());
    StreamMonitor monitor;
    SessionOptions options;
    options.scheduler = SchedulerKind::kRandom;
    options.seed = seed;
    options.max_messages = 5000000;
    options.send_tap = monitor.Tap();
    auto result = TestEngine(std::move(rp->unit.database))
                      .Run(rp->unit.program, {}, options);
    if (!result.ok() &&
        result.status().code() == StatusCode::kResourceExhausted) {
      continue;  // graph blow-up; covered elsewhere
    }
    ASSERT_TRUE(result.ok()) << result.status() << "\n" << rp->text;
    monitor.ExpectClean(StrCat("seed ", seed));
  }
}

}  // namespace
}  // namespace mpqe
