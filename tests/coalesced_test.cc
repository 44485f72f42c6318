// Tests for the coalesced rule/goal graph (§2.2 end, footnote 4):
// goal nodes with identical predicate + binding pattern are shared,
// the graph becomes a general digraph without cycle-reference nodes,
// size becomes linear in the number of distinct binding patterns (the
// exponential blow-up disappears), multiple SCC members can have
// outside customers, and the extended termination protocol still ends
// exactly on completion.

#include <gtest/gtest.h>

#include "baseline/bottom_up.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "graph/rule_goal_graph.h"
#include "sips/strategy.h"
#include "test_engine.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

constexpr const char* kP1 = R"(
  p(X, Y) :- p(X, V), q(V, W), p(W, Y).
  p(X, Y) :- r(X, Y).
  ?- p(a, Z).
)";

GraphBuildOptions Coalesced() {
  GraphBuildOptions options;
  options.coalesce_nodes = true;
  return options;
}

PlanOptions CoalescedPlan() {
  PlanOptions options;
  options.graph_options = Coalesced();
  return options;
}

TEST(CoalescedGraphTest, P1HasNoCycleRefsAndFewerNodes) {
  auto unit = Parse(kP1);
  ASSERT_TRUE(unit.ok());
  ASSERT_TRUE(unit->program.Validate(&unit->database).ok());
  auto strategy = MakeGreedyStrategy();
  auto plain = RuleGoalGraph::Build(unit->program, *strategy);
  auto shared = RuleGoalGraph::Build(unit->program, *strategy, Coalesced());
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(shared.ok());
  EXPECT_TRUE((*shared)->coalesced());
  EXPECT_FALSE((*plain)->coalesced());
  EXPECT_EQ((*shared)->Stats().cycle_refs, 0u);
  EXPECT_LT((*shared)->size(), (*plain)->size());
  // Two p binding patterns (cf, df); the recursive rule's second df
  // occurrence gets its own node (one producer never serves two
  // subgoals of one rule) -> exactly three p goal nodes.
  size_t p_goals = 0;
  for (const GraphNode& n : (*shared)->nodes()) {
    if (n.kind == NodeKind::kGoal &&
        (*shared)->program().predicates().Name(n.atom.predicate) == "p") {
      ++p_goals;
    }
  }
  EXPECT_EQ(p_goals, 3u);
}

TEST(CoalescedGraphTest, SharedNodesHaveMultipleCustomers) {
  auto unit = Parse(kP1);
  ASSERT_TRUE(unit.ok());
  ASSERT_TRUE(unit->program.Validate(&unit->database).ok());
  auto strategy = MakeGreedyStrategy();
  auto graph = RuleGoalGraph::Build(unit->program, *strategy, Coalesced());
  ASSERT_TRUE(graph.ok());
  bool some_shared = false;
  for (const GraphNode& n : (*graph)->nodes()) {
    if (n.customers.size() > 1) some_shared = true;
  }
  EXPECT_TRUE(some_shared);
}

TEST(CoalescedGraphTest, SameRuleDuplicateSubgoalsNotShared) {
  // tc(X,Y) :- tc(X,Z), tc(Z,Y): both recursive subgoals have the df
  // pattern; they must stay distinct children of that rule node.
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "edge", 4).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
  ASSERT_TRUE(program.Validate(&db).ok());
  auto strategy = MakeGreedyStrategy();
  auto graph = RuleGoalGraph::Build(program, *strategy, Coalesced());
  ASSERT_TRUE(graph.ok());
  for (const GraphNode& n : (*graph)->nodes()) {
    if (n.kind != NodeKind::kRule) continue;
    std::set<NodeId> unique(n.subgoal_children.begin(),
                            n.subgoal_children.end());
    EXPECT_EQ(unique.size(), n.subgoal_children.size())
        << "rule node " << n.id << " shares a child between subgoals";
  }
}

TEST(CoalescedGraphTest, BfstSpansEveryScc) {
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "q", 4).ok());
  ASSERT_TRUE(workload::MakeChain(db, "r", 4).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::P1Program(0), program, db).ok());
  ASSERT_TRUE(program.Validate(&db).ok());
  auto strategy = MakeGreedyStrategy();
  auto graph = RuleGoalGraph::Build(program, *strategy, Coalesced());
  ASSERT_TRUE(graph.ok());
  for (int scc = 0; scc < (*graph)->scc_count(); ++scc) {
    const auto& members = (*graph)->scc_members(scc);
    if (members.size() == 1) continue;
    NodeId leader = (*graph)->scc_leader(scc);
    ASSERT_NE(leader, kNoNode);
    EXPECT_TRUE((*graph)->node(leader).is_leader);
    // Every member reachable from the leader via bfst_children.
    std::set<NodeId> reached{leader};
    std::vector<NodeId> frontier{leader};
    while (!frontier.empty()) {
      NodeId u = frontier.back();
      frontier.pop_back();
      for (NodeId v : (*graph)->node(u).bfst_children) {
        if (reached.insert(v).second) frontier.push_back(v);
      }
    }
    EXPECT_EQ(reached.size(), members.size()) << "scc " << scc;
  }
}

TEST(CoalescedGraphTest, ExponentialBlowupGone) {
  // Layered nonlinear closures explode without coalescing; with it the
  // graph is linear in the layer count.
  auto make_text = [](int layers) {
    std::string text =
        "t0(X, Y) :- edge(X, Y).\nt0(X, Y) :- edge(X, Z), t0(Z, Y).\n";
    for (int i = 1; i <= layers; ++i) {
      text += StrCat("t", i, "(X, Y) :- t", i - 1, "(X, Y).\n");
      text += StrCat("t", i, "(X, Y) :- t", i - 1, "(X, Z), t", i,
                     "(Z, Y).\n");
    }
    text += StrCat("?- t", layers, "(0, W).\n");
    return text;
  };
  auto unit = Parse(make_text(16));
  ASSERT_TRUE(unit.ok());
  ASSERT_TRUE(unit->program.Validate(&unit->database).ok());
  auto strategy = MakeGreedyStrategy();
  // Without coalescing 16 layers exceed 100k nodes (checked by the
  // builder error); with coalescing it is tiny.
  auto plain = RuleGoalGraph::Build(unit->program, *strategy);
  EXPECT_FALSE(plain.ok());
  EXPECT_EQ(plain.status().code(), StatusCode::kResourceExhausted);
  auto shared = RuleGoalGraph::Build(unit->program, *strategy, Coalesced());
  ASSERT_TRUE(shared.ok()) << shared.status();
  EXPECT_LT((*shared)->size(), 400u);
}

TEST(CoalescedEngineTest, CanonicalQueriesMatchPlainEngine) {
  struct Case {
    const char* name;
    std::string program;
    std::string shape;
    int64_t n;
  } cases[] = {
      {"linear_chain", workload::LinearTcProgram(0), "chain", 24},
      {"linear_cycle", workload::LinearTcProgram(0), "cycle", 12},
      {"nonlinear_tree", workload::NonlinearTcProgram(0), "tree", 15},
      {"left_recursive", workload::LeftRecursiveTcProgram(0), "chain", 16},
  };
  for (const auto& c : cases) {
    Database db;
    if (c.shape == "chain") {
      ASSERT_TRUE(workload::MakeChain(db, "edge", c.n).ok());
    } else if (c.shape == "cycle") {
      ASSERT_TRUE(workload::MakeCycle(db, "edge", c.n).ok());
    } else {
      ASSERT_TRUE(workload::MakeBinaryTree(db, "edge", c.n).ok());
    }
    Program program;
    ASSERT_TRUE(ParseInto(c.program, program, db).ok());
    TestEngine engine(std::move(db));
    auto plain = engine.Run(program);
    auto shared = engine.Run(program, CoalescedPlan());
    ASSERT_TRUE(plain.ok()) << c.name << ": " << plain.status();
    ASSERT_TRUE(shared.ok()) << c.name << ": " << shared.status();
    EXPECT_TRUE(plain->answers == shared->answers) << c.name;
    EXPECT_TRUE(shared->ended_by_protocol) << c.name;
    // (Stored-tuple counts can go either way: sharing merges identical
    // work across rules, but duplicate subgoal occurrences of one rule
    // keep separate nodes that each store their stream.)
  }
}

TEST(CoalescedEngineTest, MultiEntrySccServesAllCustomers) {
  // even/odd form one SCC; `both` queries even AND odd from outside,
  // so with coalescing the component has two members with external
  // customers — exercising work notices and the conclusion broadcast.
  auto text = R"(
    zero(0).
    succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4). succ(4, 5).
    succ(5, 6). succ(6, 7).
    even(X) :- zero(X).
    even(X) :- succ(Y, X), odd(Y).
    odd(X) :- succ(Y, X), even(Y).
    adj(X, Y) :- succ(X, Y).
    goal(X, Y) :- even(X), odd(Y), adj(X, Y).
  )";
  auto unit = Parse(text);
  ASSERT_TRUE(unit.ok());
  auto truth = SemiNaiveBottomUp(unit->program, unit->database);
  ASSERT_TRUE(truth.ok());

  TestEngine engine(std::move(unit->database));
  for (uint64_t seed = 0; seed < 15; ++seed) {
    SessionOptions options;
    options.scheduler = SchedulerKind::kRandom;
    options.seed = seed;
    auto result = engine.Run(unit->program, CoalescedPlan(), options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->ended_by_protocol) << "seed " << seed;
    EXPECT_TRUE(result->answers == truth->goal) << "seed " << seed;
  }
}

class CoalescedRandomEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoalescedRandomEquivalence, MatchesSemiNaive) {
  Rng rng(GetParam());
  workload::RandomProgramOptions options;
  auto rp = workload::MakeRandomProgram(options, rng);
  ASSERT_TRUE(rp.ok());
  auto truth = SemiNaiveBottomUp(rp->unit.program, rp->unit.database);
  ASSERT_TRUE(truth.ok());
  SessionOptions eval;
  eval.max_messages = 5000000;
  auto result = TestEngine(std::move(rp->unit.database))
                    .Run(rp->unit.program, CoalescedPlan(), eval);
  ASSERT_TRUE(result.ok()) << result.status() << "\n" << rp->text;
  EXPECT_TRUE(result->ended_by_protocol) << rp->text;
  EXPECT_TRUE(result->answers == truth->goal)
      << rp->text << "\nengine: " << result->answers.ToString()
      << "\ntruth:  " << truth->goal.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescedRandomEquivalence,
                         ::testing::Range(uint64_t{0}, uint64_t{40}));

// The dense shapes that blow up without coalescing now evaluate fully.
class CoalescedDenseEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoalescedDenseEquivalence, MatchesSemiNaive) {
  Rng rng(GetParam());
  workload::RandomProgramOptions options;
  options.idb_predicates = 4;
  options.rules_per_idb = 3;
  options.max_body_atoms = 4;
  options.recursion_bias = 0.7;
  options.edb_nodes = 8;
  options.edb_facts_per_relation = 16;
  auto rp = workload::MakeRandomProgram(options, rng);
  ASSERT_TRUE(rp.ok());
  auto truth = SemiNaiveBottomUp(rp->unit.program, rp->unit.database);
  ASSERT_TRUE(truth.ok());
  SessionOptions eval;
  eval.max_messages = 20000000;
  auto result = TestEngine(std::move(rp->unit.database))
                    .Run(rp->unit.program, CoalescedPlan(), eval);
  ASSERT_TRUE(result.ok()) << result.status() << "\n" << rp->text;
  EXPECT_TRUE(result->ended_by_protocol);
  EXPECT_TRUE(result->answers == truth->goal)
      << rp->text << "\nengine: " << result->answers.ToString()
      << "\ntruth:  " << truth->goal.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescedDenseEquivalence,
                         ::testing::Range(uint64_t{0}, uint64_t{25}));

TEST(CoalescedEngineTest, RandomSchedulesOnCoalescedGraph) {
  Rng rng(3);
  workload::RandomProgramOptions options;
  options.recursion_bias = 0.6;
  auto rp = workload::MakeRandomProgram(options, rng);
  ASSERT_TRUE(rp.ok());
  auto truth = SemiNaiveBottomUp(rp->unit.program, rp->unit.database);
  ASSERT_TRUE(truth.ok());
  TestEngine engine(std::move(rp->unit.database));
  for (uint64_t seed = 0; seed < 12; ++seed) {
    SessionOptions eval;
    eval.scheduler = SchedulerKind::kRandom;
    eval.seed = seed;
    eval.max_messages = 5000000;
    auto result = engine.Run(rp->unit.program, CoalescedPlan(), eval);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->ended_by_protocol) << "seed " << seed;
    EXPECT_TRUE(result->answers == truth->goal) << "seed " << seed;
  }
}

TEST(CoalescedEngineTest, ThreadedSchedulerOnCoalescedGraph) {
  Database db;
  ASSERT_TRUE(workload::MakeCycle(db, "edge", 10).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
  auto truth = SemiNaiveBottomUp(program, db);
  ASSERT_TRUE(truth.ok());
  TestEngine engine(std::move(db));
  for (int workers : {1, 4}) {
    SessionOptions eval;
    eval.scheduler = SchedulerKind::kThreaded;
    eval.workers = workers;
    auto result = engine.Run(program, CoalescedPlan(), eval);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->ended_by_protocol);
    EXPECT_TRUE(result->answers == truth->goal) << workers << " workers";
  }
}

TEST(CoalescedEngineTest, MessageSavingsOnSharedWork) {
  // Two query rules touch the same tc relation with the same binding
  // pattern: coalescing shares the whole computation.
  auto text = R"(
    marked(3). marked(9).
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    goal(X) :- marked(M), tc(M, X).
    goal(X) :- tc(0, X).
  )";
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "edge", 16).ok());
  Program program;
  ASSERT_TRUE(ParseInto(text, program, db).ok());
  TestEngine engine(std::move(db));
  auto plain = engine.Run(program);
  auto shared = engine.Run(program, CoalescedPlan());
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(shared.ok()) << shared.status();
  EXPECT_TRUE(plain->answers == shared->answers);
  EXPECT_LT(shared->counters.stored_tuples, plain->counters.stored_tuples);
  EXPECT_LT(shared->graph_stats.node_count, plain->graph_stats.node_count);
}

}  // namespace
}  // namespace mpqe
