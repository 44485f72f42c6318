// Properties of the Fig. 2 distributed termination protocol
// (Theorem 3.1): under deterministic, random, and threaded schedules
// the leader's `end` must arrive exactly when the computation is
// finished — never early (answers would be lost), never withheld (the
// run would only finish by the quiescence oracle, not by protocol).

#include <gtest/gtest.h>

#include "baseline/bottom_up.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "test_engine.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

struct Workload {
  std::string name;
  Program program;
  Database db;
};

// Builds a recursive workload with a given EDB shape.
Workload MakeWorkload(const std::string& shape, int64_t n, uint64_t seed) {
  Workload w;
  w.name = StrCat(shape, "/", n);
  if (shape == "chain") {
    EXPECT_TRUE(workload::MakeChain(w.db, "edge", n).ok());
  } else if (shape == "cycle") {
    EXPECT_TRUE(workload::MakeCycle(w.db, "edge", n).ok());
  } else if (shape == "tree") {
    EXPECT_TRUE(workload::MakeBinaryTree(w.db, "edge", n).ok());
  } else {
    Rng rng(seed);
    EXPECT_TRUE(workload::MakeRandomGraph(w.db, "edge", n, 2, rng).ok());
  }
  EXPECT_TRUE(
      ParseInto(workload::NonlinearTcProgram(0), w.program, w.db).ok());
  return w;
}

Relation Truth(const std::string& shape, int64_t n, uint64_t seed) {
  Workload w = MakeWorkload(shape, n, seed);
  auto truth = SemiNaiveBottomUp(w.program, w.db);
  EXPECT_TRUE(truth.ok());
  return truth->goal;
}

class TerminationUnderSchedules
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(TerminationUnderSchedules, ProtocolEndsExactlyOnCompletion) {
  const auto& [shape, seed] = GetParam();
  const int64_t n = 12;
  Relation truth = Truth(shape, n, seed);

  Workload w = MakeWorkload(shape, n, seed);
  SessionOptions options;
  options.scheduler = SchedulerKind::kRandom;
  options.seed = seed;
  options.max_messages = 5000000;
  auto result = TestEngine(std::move(w.db)).Run(w.program, {}, options);
  ASSERT_TRUE(result.ok()) << w.name << ": " << result.status();

  // Not withheld: the run finished because the protocol said so.
  EXPECT_TRUE(result->ended_by_protocol) << w.name;
  // Not early: the answers are complete.
  EXPECT_TRUE(result->answers == truth) << w.name;
  // The protocol actually ran (the query is recursive).
  EXPECT_GT(result->counters.protocol_waves, 0u) << w.name;
  EXPECT_GT(result->message_stats.Count(MessageKind::kEndRequest), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TerminationUnderSchedules,
    ::testing::Combine(::testing::Values("chain", "cycle", "tree", "random"),
                       ::testing::Range(uint64_t{0}, uint64_t{12})));

TEST(TerminationProtocolTest, DeterministicQuiescenceOracleAgrees) {
  // With the deterministic scheduler we can also check the oracle side
  // of Theorem 3.1: when the sink's end arrives the whole network
  // drains with no further computation messages.
  Workload w = MakeWorkload("cycle", 16, 0);
  auto result = TestEngine(std::move(w.db)).Run(w.program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ended_by_protocol);
  EXPECT_TRUE(result->quiescent_after);
}

TEST(TerminationProtocolTest, ConfirmRequiresTwoIdleWaves) {
  // Every end_confirmed implies idleness >= 2, so there must be at
  // least two end_request waves before conclusion; end_negative
  // appears at least once (the first wave's leaves always answer
  // negative).
  Workload w = MakeWorkload("chain", 10, 0);
  auto result = TestEngine(std::move(w.db)).Run(w.program);
  ASSERT_TRUE(result.ok());
  const MessageStats& stats = result->message_stats;
  EXPECT_GE(result->counters.protocol_waves, 2u);
  EXPECT_GT(stats.Count(MessageKind::kEndNegative), 0u);
  EXPECT_GT(stats.Count(MessageKind::kEndConfirmed), 0u);
  EXPECT_GE(stats.Count(MessageKind::kEndRequest),
            stats.Count(MessageKind::kEndConfirmed));
}

TEST(TerminationProtocolTest, ThreadedSchedulesAcrossWorkerCounts) {
  Relation truth = Truth("random", 16, 3);
  Workload w = MakeWorkload("random", 16, 3);
  TestEngine engine(std::move(w.db));
  for (int workers : {1, 2, 4, 8}) {
    SessionOptions options;
    options.scheduler = SchedulerKind::kThreaded;
    options.workers = workers;
    options.max_messages = 5000000;
    auto result = engine.Run(w.program, {}, options);
    ASSERT_TRUE(result.ok()) << workers << ": " << result.status();
    EXPECT_TRUE(result->ended_by_protocol) << workers;
    EXPECT_TRUE(result->answers == truth) << workers << " workers";
  }
}

TEST(TerminationProtocolTest, RepeatedRandomSchedulesConverge) {
  Relation truth = Truth("cycle", 9, 0);
  Workload w = MakeWorkload("cycle", 9, 0);
  TestEngine engine(std::move(w.db));
  for (uint64_t seed = 0; seed < 30; ++seed) {
    SessionOptions options;
    options.scheduler = SchedulerKind::kRandom;
    options.seed = seed;
    options.max_messages = 5000000;
    auto result = engine.Run(w.program, {}, options);
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    EXPECT_TRUE(result->ended_by_protocol) << "seed " << seed;
    EXPECT_TRUE(result->answers == truth) << "seed " << seed;
  }
}

TEST(TerminationProtocolTest, MutualRecursionScc) {
  // even/odd: one SCC containing two goal nodes and their rule nodes.
  auto unit = Parse(R"(
    zero(0).
    succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4). succ(4, 5).
    succ(5, 6). succ(6, 7). succ(7, 8). succ(8, 9).
    even(X) :- zero(X).
    even(X) :- succ(Y, X), odd(Y).
    odd(X) :- succ(Y, X), even(Y).
    ?- even(N).
  )");
  ASSERT_TRUE(unit.ok());
  TestEngine engine(std::move(unit->database));
  for (uint64_t seed = 0; seed < 10; ++seed) {
    SessionOptions options;
    options.scheduler = SchedulerKind::kRandom;
    options.seed = seed;
    auto result = engine.Run(unit->program, {}, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->ended_by_protocol);
    EXPECT_EQ(result->answers.size(), 5u) << "seed " << seed;  // 0,2,4,6,8
  }
}

TEST(TerminationProtocolTest, NestedSccsEndInOrder) {
  // P1 produces two nested strong components (the p^cf component feeds
  // on the p^df component); both must conclude.
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "q", 8).ok());
  ASSERT_TRUE(workload::MakeChain(db, "r", 8).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::P1Program(0), program, db).ok());
  auto result = TestEngine(std::move(db)).Run(program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ended_by_protocol);
  EXPECT_EQ(result->graph_stats.nontrivial_sccs, 2u);
  // Both leaders ran waves.
  EXPECT_GE(result->counters.protocol_waves, 4u);
}

}  // namespace
}  // namespace mpqe
