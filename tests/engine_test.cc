// End-to-end tests of the message-passing evaluator (§3): canonical
// queries, the paper's P1, recursion shapes, schedulers, and the
// end-message protocol.

#include <gtest/gtest.h>

#include "baseline/bottom_up.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "test_engine.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

Tuple T1(int64_t a) { return {Value::Int(a)}; }

StatusOr<EvaluationResult> RunQuery(const char* text,
                                    const PlanOptions& plan_options = {},
                                    const SessionOptions& options = {}) {
  auto unit = Parse(text);
  if (!unit.ok()) return unit.status();
  return TestEngine(std::move(unit->database))
      .Run(unit->program, plan_options, options);
}

TEST(EvaluatorTest, NonRecursiveJoin) {
  auto result = RunQuery(R"(
    parent(a, b). parent(b, c). parent(b, d).
    grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
    ?- grandparent(a, W).
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 2u);
  EXPECT_TRUE(result->ended_by_protocol);
}

TEST(EvaluatorTest, LinearTransitiveClosureChain) {
  auto result = RunQuery(R"(
    edge(1, 2). edge(2, 3). edge(3, 4).
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(1, W).
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 3u);
  EXPECT_TRUE(result->answers.Contains(T1(2)));
  EXPECT_TRUE(result->answers.Contains(T1(3)));
  EXPECT_TRUE(result->answers.Contains(T1(4)));
  EXPECT_TRUE(result->ended_by_protocol);
  EXPECT_TRUE(result->quiescent_after);
}

TEST(EvaluatorTest, LeftRecursionTerminates) {
  // Strict top-down diverges here; the rule/goal graph + dedup does not.
  auto result = RunQuery(R"(
    edge(1, 2). edge(2, 3). edge(3, 4).
    tc(X, Y) :- tc(X, Z), edge(Z, Y).
    tc(X, Y) :- edge(X, Y).
    ?- tc(1, W).
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 3u);
  EXPECT_TRUE(result->ended_by_protocol);
}

TEST(EvaluatorTest, CyclicDataReachesFixpoint) {
  // "Deletion of duplicates in cycles ensures that nodes become idle
  // when the computation is complete" (§1.2).
  Database db;
  ASSERT_TRUE(workload::MakeCycle(db, "edge", 6).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  auto result = TestEngine(std::move(db)).Run(program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 6u);
  EXPECT_TRUE(result->ended_by_protocol);
  EXPECT_GT(result->counters.duplicate_drops, 0u);
}

TEST(EvaluatorTest, PaperP1NonlinearRecursion) {
  // Example 2.1 with concrete data: q is a step relation, r a base
  // relation; p composes them nonlinearly (p :- p, q, p).
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "q", 6).ok());
  ASSERT_TRUE(workload::MakeChain(db, "r", 6).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::P1Program(0), program, db).ok());
  // Cross-check against semi-naive ground truth.
  auto truth = SemiNaiveBottomUp(program, db);
  ASSERT_TRUE(truth.ok());
  auto result = TestEngine(std::move(db)).Run(program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ended_by_protocol);
  EXPECT_TRUE(result->answers == truth->goal)
      << "engine: " << result->answers.ToString()
      << " truth: " << truth->goal.ToString();
}

TEST(EvaluatorTest, NonlinearTcMatchesLinearTc) {
  Database db;
  ASSERT_TRUE(workload::MakeBinaryTree(db, "edge", 15).ok());
  Program lin, nonlin;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), lin, db).ok());
  ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), nonlin, db).ok());
  TestEngine engine(std::move(db));
  auto r1 = engine.Run(lin);
  auto r2 = engine.Run(nonlin);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_TRUE(r1->answers == r2->answers);
  EXPECT_EQ(r1->answers.size(), 14u);
}

TEST(EvaluatorTest, MutualRecursion) {
  auto result = RunQuery(R"(
    zero(0).
    succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4). succ(4, 5).
    even(X) :- zero(X).
    even(X) :- succ(Y, X), odd(Y).
    odd(X) :- succ(Y, X), even(Y).
    ?- even(N).
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 3u);
  EXPECT_TRUE(result->answers.Contains(T1(0)));
  EXPECT_TRUE(result->answers.Contains(T1(2)));
  EXPECT_TRUE(result->answers.Contains(T1(4)));
}

TEST(EvaluatorTest, SameGenerationBoundQuery) {
  auto result = RunQuery(R"(
    person(a). person(b). person(c). person(d).
    par(b, a). par(c, a). par(d, b).
    sg(X, X) :- person(X).
    sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
    ?- sg(b, W).
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 2u);  // b and c
}

TEST(EvaluatorTest, EmptyAnswerStillEnds) {
  auto result = RunQuery(R"(
    edge(1, 2).
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(99, W).
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 0u);
  EXPECT_TRUE(result->ended_by_protocol);
}

TEST(EvaluatorTest, EmptyEdbStillEnds) {
  auto result = RunQuery(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(1, W).
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 0u);
  EXPECT_TRUE(result->ended_by_protocol);
}

TEST(EvaluatorTest, ConstantsAndRepeatedVariables) {
  auto result = RunQuery(R"(
    e(1, 1). e(1, 2). e(2, 2). e(3, 3).
    loopy(X) :- e(X, X).
    pair(X) :- loopy(X), e(X, 2).
    ?- pair(W).
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 2u);  // 1 (e(1,2)) and 2 (e(2,2))
}

TEST(EvaluatorTest, ZeroArityPredicates) {
  auto result = RunQuery(R"(
    raining.
    wet(X) :- thing(X), raining.
    thing(umbrella). thing(cat).
    ?- wet(W).
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 2u);
}

TEST(EvaluatorTest, MultipleQueryRules) {
  auto result = RunQuery(R"(
    a(1). b(2).
    goal(X) :- a(X).
    goal(X) :- b(X).
    ?- a(9).
  )");
  // Mixing explicit goal rules with ?- of a different arity clashes;
  // use a fresh check instead: explicit goal rules only.
  (void)result;
  auto explicit_goal = RunQuery(R"(
    a(1). b(2).
    goal(X) :- a(X).
    goal(X) :- b(X).
  )");
  ASSERT_TRUE(explicit_goal.ok()) << explicit_goal.status();
  EXPECT_EQ(explicit_goal->answers.size(), 2u);
}

TEST(EvaluatorTest, AllStrategiesAgree) {
  Database db;
  ASSERT_TRUE(workload::MakeBinaryTree(db, "edge", 15).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  TestEngine engine(std::move(db));
  for (const char* strategy : {"greedy", "left_to_right",
                               "qual_tree_or_greedy", "no_sips"}) {
    PlanOptions options;
    options.strategy = strategy;
    auto result = engine.Run(program, options);
    ASSERT_TRUE(result.ok()) << strategy << ": " << result.status();
    EXPECT_EQ(result->answers.size(), 14u) << strategy;
    EXPECT_TRUE(result->ended_by_protocol) << strategy;
  }
}

TEST(EvaluatorTest, AllSchedulersAgree) {
  Database db;
  Rng rng(7);
  ASSERT_TRUE(workload::MakeRandomGraph(db, "edge", 20, 2, rng).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
  TestEngine engine(std::move(db));
  auto baseline = engine.Run(program);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  for (int mode = 0; mode < 2; ++mode) {
    SessionOptions options;
    if (mode == 0) {
      options.scheduler = SchedulerKind::kRandom;
      options.seed = 1234;
    } else {
      options.scheduler = SchedulerKind::kThreaded;
      options.workers = 4;
    }
    auto result = engine.Run(program, {}, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->answers == baseline->answers) << "mode " << mode;
    EXPECT_TRUE(result->ended_by_protocol) << "mode " << mode;
  }
}

TEST(EvaluatorTest, SidewaysPassingRestrictsComputation) {
  // §1.2: class d "serves to restrict the computed part of the
  // intermediate relation to values that are (at least potentially)
  // useful". Query tc(0, W) on a chain: with sips the engine explores
  // only the suffix from 0... compare stored tuples against no_sips.
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "edge", 24).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(12), program, db).ok());
  TestEngine engine(std::move(db));

  PlanOptions sips;
  sips.strategy = "greedy";
  PlanOptions full;
  full.strategy = "no_sips";
  auto r1 = engine.Run(program, sips);
  auto r2 = engine.Run(program, full);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_TRUE(r1->answers == r2->answers);
  EXPECT_EQ(r1->answers.size(), 11u);
  // Greedy computes only tc(12,*) onward; no_sips computes all of tc.
  // Logical tuple traffic = rows carried inside kTupleSegment messages.
  EXPECT_LT(r1->counters.stored_tuples, r2->counters.stored_tuples);
  EXPECT_LT(r1->message_stats.segment_rows, r2->message_stats.segment_rows);
}

TEST(EvaluatorTest, ProtocolMessagesOnlyForRecursiveQueries) {
  auto flat = RunQuery(R"(
    parent(a, b). parent(b, c).
    gp(X, Z) :- parent(X, Y), parent(Y, Z).
    ?- gp(a, W).
  )");
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->message_stats.ProtocolTotal(), 0u);
  EXPECT_EQ(flat->counters.protocol_waves, 0u);

  auto rec = RunQuery(R"(
    edge(1, 2). edge(2, 3).
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(1, W).
  )");
  ASSERT_TRUE(rec.ok());
  EXPECT_GT(rec->message_stats.ProtocolTotal(), 0u);
  EXPECT_GT(rec->counters.protocol_waves, 0u);
}

TEST(EvaluatorTest, MaxMessagesGuardPropagates) {
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "edge", 50).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  SessionOptions options;
  options.max_messages = 10;
  auto result = TestEngine(std::move(db)).Run(program, {}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvaluatorTest, InvalidProgramRejected) {
  auto result = RunQuery("p(X) :- e(X).");  // no query
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EvaluatorTest, ExistentialProjectionReducesTuples) {
  // p(X) :- r(X, Y): Y is class e; with many Y per X only one tuple
  // per X crosses the wire.
  std::string text;
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 25; ++y) {
      text += StrCat("r(", x, ", ", 1000 + y, ").\n");
    }
  }
  text += "p(X) :- r(X, Y).\n?- p(W).\n";
  auto result = RunQuery(text.c_str());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 4u);
  // Answer rows: 4 per level of the five-level chain (EDB leaf ->
  // rule -> p goal -> query rule -> goal node -> sink); far below the
  // 100 facts that would flow without the e designation.
  EXPECT_LE(result->message_stats.segment_rows, 20u);
}

TEST(EvaluationOptionsTest, ValidateAcceptsDefaults) {
  EXPECT_TRUE(PlanOptions().Validate().ok());
  EXPECT_TRUE(SessionOptions().Validate().ok());
}

TEST(EvaluationOptionsTest, ValidateRejectsBadSchedulerValue) {
  SessionOptions options;
  options.scheduler = static_cast<SchedulerKind>(99);
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The misconfiguration is caught before any work, not mid-run.
  auto result = RunQuery("p(1).\n?- p(W).\n", {}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvaluationOptionsTest, ValidateRejectsNonPositiveWorkers) {
  SessionOptions options;
  options.workers = 0;
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  options.workers = -3;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(EvaluationOptionsTest, ValidateRejectsUnknownStrategy) {
  PlanOptions options;
  options.strategy = "definitely_not_a_strategy";
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  auto result = RunQuery("p(1).\n?- p(W).\n", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchedulerNamesTest, RoundTrip) {
  for (SchedulerKind kind :
       {SchedulerKind::kDeterministic, SchedulerKind::kRandom,
        SchedulerKind::kThreaded}) {
    auto parsed = SchedulerKindFromName(SchedulerKindToName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  auto bad = SchedulerKindFromName("fifo");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mpqe
