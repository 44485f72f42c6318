// Tests for the per-node counter breakdown, and the engine's exact
// aggregate counts pinned on the deterministic scheduler.

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "test_engine.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

// Every session fills the per-node rows (they were once opt-in): one
// row per graph node, in node order.
TEST(NodeCountersTest, EmptyUnlessRequested) {
  auto unit = Parse(R"(
    e(1, 2).
    p(X, Y) :- e(X, Y).
    ?- p(1, W).
  )");
  ASSERT_TRUE(unit.ok());
  auto result = TestEngine(std::move(unit->database)).Run(unit->program);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->node_counters.size(), result->graph_stats.node_count);
  for (size_t i = 0; i < result->node_counters.size(); ++i) {
    EXPECT_EQ(result->node_counters[i].node, static_cast<NodeId>(i));
  }
}

TEST(NodeCountersTest, RowsSumToAggregate) {
  auto unit = Parse(R"(
    edge(1, 2). edge(2, 3). edge(3, 4).
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(1, W).
  )");
  ASSERT_TRUE(unit.ok());
  auto result = TestEngine(std::move(unit->database)).Run(unit->program);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->node_counters.size(), result->graph_stats.node_count);

  uint64_t stored = 0, drops = 0, contexts = 0, waves = 0;
  for (const NodeCounters& row : result->node_counters) {
    stored += row.counters.stored_tuples;
    drops += row.counters.duplicate_drops;
    contexts += row.counters.contexts;
    waves += row.counters.protocol_waves;
  }
  EXPECT_EQ(stored, result->counters.stored_tuples);
  EXPECT_EQ(drops, result->counters.duplicate_drops);
  EXPECT_EQ(contexts, result->counters.contexts);
  EXPECT_EQ(waves, result->counters.protocol_waves);
}

TEST(NodeCountersTest, HotNodesShowUp) {
  auto unit = Parse(R"(
    edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(1, W).
  )");
  ASSERT_TRUE(unit.ok());
  auto result = TestEngine(std::move(unit->database)).Run(unit->program);
  ASSERT_TRUE(result.ok());
  // At least one node stored multiple tuples (the recursive tc node).
  bool hot = false;
  for (const NodeCounters& row : result->node_counters) {
    if (row.counters.stored_tuples >= 4) hot = true;
  }
  EXPECT_TRUE(hot);
}

// Nonlinear TC over the cycle edge(i, (i + 1) mod n), query tc(0, W).
std::string NonlinearCycle(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += StrCat("edge(", i, ", ", (i + 1) % n, ").\n");
  }
  return text + "tc(X, Y) :- edge(X, Y).\n"
                "tc(X, Y) :- tc(X, Z), tc(Z, Y).\n"
                "?- tc(0, W).\n";
}

struct PinnedRun {
  EngineCounters counters;
  std::string messages;
  size_t answers = 0;
};

// One deterministic session of `text` (rules, and facts added to `db`).
PinnedRun RunPinned(const std::string& text, const PlanOptions& options,
                    Database db = Database()) {
  Program program;
  Status parsed = ParseInto(text, program, db);
  if (!parsed.ok()) {
    ADD_FAILURE() << parsed.ToString();
    return {};
  }
  SessionOptions session;
  session.scheduler = SchedulerKind::kDeterministic;
  auto result = TestEngine(std::move(db)).Run(program, options, session);
  if (!result.ok()) {
    ADD_FAILURE() << result.status().ToString();
    return {};
  }
  EXPECT_TRUE(result->ended_by_protocol);
  return {result->counters, result->message_stats.ToString(),
          result->answers.size()};
}

// The computation: what a rule-node join stores, rejects and forms.
// No schedule may move these.
void ExpectComputation(const PinnedRun& run, uint64_t stored, uint64_t dups,
                       uint64_t contexts, uint64_t max_rel) {
  EXPECT_EQ(run.counters.stored_tuples, stored);
  EXPECT_EQ(run.counters.duplicate_drops, dups);
  EXPECT_EQ(run.counters.contexts, contexts);
  EXPECT_EQ(run.counters.max_node_relation, max_rel);
}

// Exact counts of the rule-node join on the deterministic scheduler:
// the join state may change representation, never the computation.
// Contexts count every partial and full join result, and duplicate
// drops include heads a rule node re-derives. The Fig. 2 waves and the
// message mix pin the schedule itself: where mailbox runs end, and so
// when nodes flush and start waves. They move when the scheduler does;
// the computation above must not.
TEST(NodeCountersTest, JoinCountsPinnedOnDeterministicScheduler) {
  const std::string cycle = NonlinearCycle(32);

  PinnedRun plain = RunPinned(cycle, {});
  EXPECT_EQ(plain.answers, 32u);
  ExpectComputation(plain, 2209, 32769, 34980, 1024);
  EXPECT_EQ(plain.counters.protocol_waves, 107u);
  EXPECT_EQ(plain.messages,
            "{relation_request=16 tuple_request=264 end=101 end_request=250 "
            "end_negative=205 end_confirmed=45 scc_concluded=5 batch=258 "
            "tuple_segment=3519}");

  PlanOptions coalesce;
  coalesce.graph_options.coalesce_nodes = true;
  PinnedRun coalesced = RunPinned(cycle, coalesce);
  EXPECT_EQ(coalesced.answers, 32u);
  ExpectComputation(coalesced, 4289, 64545, 68868, 1024);
  EXPECT_EQ(coalesced.counters.protocol_waves, 145u);
  EXPECT_EQ(coalesced.messages,
            "{relation_request=18 tuple_request=359 end=165 end_request=215 "
            "end_negative=211 end_confirmed=4 scc_concluded=4 batch=361 "
            "tuple_segment=4204}");

  // Three subgoals under no_sips: whole relations arrive and the
  // equi-joins run as the rule node's join checks. Every e edge flips
  // parity and p chains odd numbers of them, so p(X, X) never holds.
  std::string three;
  for (int i = 0; i < 20; ++i) {
    three += StrCat("e(", i, ", ", (7 * i + 3) % 20, ").\n");
    three += StrCat("e(", i, ", ", (3 * i + 1) % 20, ").\n");
  }
  three += "p(X, Y) :- e(X, Y).\n"
           "p(X, Y) :- p(X, Z), e(Z, W), p(W, Y).\n"
           "q(X) :- p(X, X).\n"
           "?- q(W).\n";
  PlanOptions no_sips;
  no_sips.strategy = "no_sips";
  PinnedRun checks = RunPinned(three, no_sips);
  EXPECT_EQ(checks.answers, 0u);
  ExpectComputation(checks, 368, 1024, 1824, 72);
  EXPECT_EQ(checks.counters.protocol_waves, 10u);
  EXPECT_EQ(checks.messages,
            "{relation_request=27 tuple_request=27 end=17 end_request=30 "
            "end_negative=20 end_confirmed=10 scc_concluded=6 batch=20 "
            "tuple_segment=31}");
}

// Four linear TCs over random 40-node graphs, unioned into goal: the
// scc_parallel shape. It pins what the nonlinear-cycle runs above do
// not reach: recursive rule nodes whose first subgoal is an EDB leaf
// outside their SCC, trivial-SCC rule nodes that end each request, and
// goal nodes with one consumer outside their SCC and one inside it.
TEST(NodeCountersTest, UnionOfLinearTcsPinnedOnDeterministicScheduler) {
  Database db;
  std::string text;
  for (int g = 0; g < 4; ++g) {
    Rng rng(100 + g);
    ASSERT_TRUE(
        workload::MakeRandomGraph(db, StrCat("e", g), 40, 2, rng).ok());
    text += StrCat("tc", g, "(X, Y) :- e", g, "(X, Y).\n", "tc", g,
                   "(X, Y) :- e", g, "(X, Z), tc", g, "(Z, Y).\n",
                   "goal(W) :- tc", g, "(0, W).\n");
  }
  PinnedRun run = RunPinned(text, {}, std::move(db));
  EXPECT_EQ(run.answers, 40u);
  ExpectComputation(run, 9061, 4513, 9401, 1483);
  EXPECT_EQ(run.counters.protocol_waves, 39u);
  EXPECT_EQ(run.messages,
            "{relation_request=53 tuple_request=807 end=420 end_request=78 "
            "end_negative=66 end_confirmed=12 scc_concluded=8 batch=490 "
            "tuple_segment=3561}");
}

}  // namespace
}  // namespace mpqe
