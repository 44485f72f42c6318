// Tests of the prepared-query engine lifecycle (engine/engine.h):
// Engine / PreparedQuery / QuerySession, the LRU plan cache with its
// keying and eviction rules, concurrent sessions over one shared
// snapshot, repeated lineage sessions over one snapshot, and the
// lifecycle's pinned counts and its run-time half (RunSession).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baseline/bottom_up.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "engine/evaluator.h"
#include "graph/rule_goal_graph.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "sips/strategy.h"
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

std::vector<Tuple> SortedAnswers(const EvaluationResult& result) {
  return result.answers.SortedTuples();
}

constexpr const char* kTcOnly = "tc(X, Y) :- edge(X, Y).\n"
                                "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";

// Over a chain every start node reaches its own set of nodes, so a plan
// run for the wrong constant gives wrong answers.
constexpr const char* kChainFacts =
    "edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5). edge(5, 6).";

// The rule/goal graph a fresh compile of `text` builds, printed.
StatusOr<std::string> FreshGraph(const std::string& text) {
  MPQE_ASSIGN_OR_RETURN(ParsedUnit unit, Parse(text));
  MPQE_RETURN_IF_ERROR(unit.program.Validate(&unit.database));
  MPQE_ASSIGN_OR_RETURN(
      std::unique_ptr<RuleGoalGraph> graph,
      RuleGoalGraph::Build(unit.program, *MakeGreedyStrategy()));
  return graph->ToString(&unit.database.symbols());
}

// The goal relation the semi-naive oracle derives for `text` over
// `facts`.
StatusOr<std::vector<Tuple>> OracleAnswers(const std::string& text,
                                           const char* facts = kTcFacts) {
  MPQE_ASSIGN_OR_RETURN(ParsedUnit unit, Parse(StrCat(facts, text)));
  MPQE_ASSIGN_OR_RETURN(BottomUpResult result,
                        SemiNaiveBottomUp(unit.program, unit.database));
  return result.goal.SortedTuples();
}

// One session of `plan`, its answers sorted.
StatusOr<std::vector<Tuple>> RunPlan(
    Engine& engine, const std::shared_ptr<const PreparedQuery>& plan) {
  MPQE_ASSIGN_OR_RETURN(std::unique_ptr<QuerySession> session,
                        engine.CreateSession(plan));
  MPQE_ASSIGN_OR_RETURN(EvaluationResult result, session->Run());
  return SortedAnswers(result);
}

TEST(EngineApiTest, PrepareRunMatchesEvaluate) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine;
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto session = engine.CreateSession(*plan);
  ASSERT_TRUE(session.ok()) << session.status();
  auto result = (*session)->Run();
  ASSERT_TRUE(result.ok()) << result.status();

  // Pinned: the answers, message traffic and engine counters recorded
  // for this query from the one-shot evaluation entry point the Engine
  // replaced. The lifecycle runs the same network the same way.
  EXPECT_EQ(SortedAnswers(*result),
            (std::vector<Tuple>{{Value::Int(2)},
                                {Value::Int(3)},
                                {Value::Int(4)},
                                {Value::Int(5)}}));
  EXPECT_EQ(result->message_stats.ToString(),
            "{relation_request=14 tuple_request=32 end=20 end_request=10 "
            "end_negative=7 end_confirmed=3 scc_concluded=2 batch=33 "
            "tuple_segment=48}");
  EXPECT_EQ(result->counters.ToString(),
            "{stored=45 dups=5 contexts=41 max_rel=12 waves=5}");
  EXPECT_TRUE(result->ended_by_protocol);
  EXPECT_EQ(result->delivered, 100u);
}

TEST(EngineApiTest, EvaluateWrapperIsPreparePlusSession) {
  // RunSession, the run-time half, over a prepared plan's graph equals
  // a QuerySession run of that plan.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto session = engine.CreateSession(*plan);
  ASSERT_TRUE(session.ok()) << session.status();
  auto via_session = (*session)->Run();
  ASSERT_TRUE(via_session.ok()) << via_session.status();

  // The same facts in a database of their own (RunSession may number
  // its rows for lineage, so it takes a mutable one; this one has no
  // indexes, and its EDB leaves scan).
  auto facts2 = Parse(kTcFacts);
  ASSERT_TRUE(facts2.ok()) << facts2.status();
  auto direct = RunSession((*plan)->graph(), facts2->database, {});
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(SortedAnswers(*direct), SortedAnswers(*via_session));
  EXPECT_EQ(direct->message_stats.ToString(),
            via_session->message_stats.ToString());
  EXPECT_EQ(direct->counters.ToString(), via_session->counters.ToString());
}

TEST(EngineApiTest, ConcurrentSessionsShareOnePlan) {
  // N sessions race over one PreparedQuery + snapshot on the worker
  // pool; every one must reproduce the sequential answers. Run under
  // TSan this is the no-shared-mutable-state check for the whole
  // run-time half.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EngineOptions engine_options;
  engine_options.workers = 4;
  Engine engine(engine_options);
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto sequential = engine.CreateSession(*plan);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  auto baseline = (*sequential)->Run();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const std::vector<Tuple> expected = SortedAnswers(*baseline);

  constexpr int kSessions = 16;
  std::vector<std::future<StatusOr<EvaluationResult>>> futures;
  for (int i = 0; i < kSessions; ++i) {
    SessionOptions options;
    // Mix schedulers: odd sessions threaded on 1-4 workers, whose
    // helpers come from the same 4-thread pool the 16 sessions run on;
    // even ones deterministic or random with distinct seeds — answers
    // must not depend on any of them.
    if (i % 2 == 1) {
      options.scheduler = SchedulerKind::kThreaded;
      options.workers = 1 + (i / 2) % 4;
    } else if (i % 4 == 2) {
      options.scheduler = SchedulerKind::kRandom;
      options.seed = static_cast<uint64_t>(i);
    }
    futures.push_back(engine.RunAsync(*plan, options));
  }
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(SortedAnswers(*result), expected);
    EXPECT_TRUE(result->ended_by_protocol);
  }
  EXPECT_EQ(snapshot->running_sessions(), 0);
}

TEST(EngineApiTest, ConcurrentPrepareAndRun) {
  // Prepares of *different* programs race sessions of another plan on
  // the same snapshot: compiles and index builds must degrade, not
  // crash or race.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EngineOptions engine_options;
  engine_options.workers = 4;
  Engine engine(engine_options);
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();

  std::vector<std::future<StatusOr<EvaluationResult>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine.RunAsync(*plan, SessionOptions()));
  }
  // Four other shapes, so each prepare compiles; tc(W, 2) and
  // edge(W, 3) probe edge on its second column, an index the running
  // plan never built.
  for (const char* query :
       {"?- tc(W, 2).", "?- tc(1, 2).", "?- tc(V, W).", "?- edge(W, 3)."}) {
    auto other = engine.Prepare(snapshot, StrCat(kTcOnly, query));
    ASSERT_TRUE(other.ok()) << other.status();
  }
  EXPECT_EQ(engine.plan_cache_stats().misses, 5u);
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status();
  }
}

TEST(EngineApiTest, PlanCacheHitReturnsSamePlanWithoutCompile) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  MetricsRegistry& metrics = engine.telemetry().registry();
  auto snapshot = engine.Attach(std::move(facts->database));

  auto cold = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(cold.ok()) << cold.status();
  const uint64_t cold_ns = engine.plan_cache_stats().last_prepare_ns;
  EXPECT_GT(cold_ns, 0u);

  auto hit = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(hit.ok()) << hit.status();
  // Same immutable plan object — nothing was recompiled.
  EXPECT_EQ(cold->get(), hit->get());

  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(metrics.GetCounter("plan_cache/hit").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("plan_cache/miss").value(), 1u);
  // The raw-text alias makes the hit a pure hash lookup; it must not
  // cost more than the cold compile (parse + adorn + sips + build).
  EXPECT_LE(stats.last_prepare_ns, cold_ns);
}

TEST(EngineApiTest, PlanCacheKeysOnGoalAdornment) {
  // Same rule text, different goal binding pattern => different
  // adorned graphs => distinct cache entries.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));

  const char* rules = "tc(X, Y) :- edge(X, Y).\n"
                      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";
  auto bound = engine.Prepare(snapshot, StrCat(rules, "?- tc(1, W)."));
  ASSERT_TRUE(bound.ok()) << bound.status();
  auto free_goal = engine.Prepare(snapshot, StrCat(rules, "?- tc(V, W)."));
  ASSERT_TRUE(free_goal.ok()) << free_goal.status();

  EXPECT_NE(bound->get(), free_goal->get());
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(EngineApiTest, PlanCacheKeysOnPlanOptions) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));

  auto greedy = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(greedy.ok());
  PlanOptions ltr;
  ltr.strategy = "left_to_right";
  auto left_to_right = engine.Prepare(snapshot, kTcRules, ltr);
  ASSERT_TRUE(left_to_right.ok());
  PlanOptions coalesce;
  coalesce.graph_options.coalesce_nodes = true;
  auto coalesced = engine.Prepare(snapshot, kTcRules, coalesce);
  ASSERT_TRUE(coalesced.ok());
  PlanOptions capped;
  capped.graph_options.max_nodes = 1000;
  auto small_cap = engine.Prepare(snapshot, kTcRules, capped);
  ASSERT_TRUE(small_cap.ok());

  // Every settable PlanOptions value keys its own plan.
  std::set<const PreparedQuery*> plans = {greedy->get(), left_to_right->get(),
                                          coalesced->get(), small_cap->get()};
  EXPECT_EQ(plans.size(), 4u);
  EXPECT_EQ(engine.plan_cache_stats().size, 4u);
  EXPECT_TRUE((*coalesced)->graph().coalesced());
  EXPECT_EQ((*small_cap)->plan_options().graph_options.max_nodes, 1000u);
}

TEST(EngineApiTest, PlanCacheEvictsLeastRecentlyUsed) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  EngineOptions engine_options;
  engine_options.workers = 2;
  engine_options.plan_cache_capacity = 2;
  Engine engine(engine_options);
  auto snapshot = engine.Attach(std::move(facts->database));

  // Three query shapes (another constant of a cached shape would
  // instantiate, not miss): the first argument bound, the second bound,
  // both bound.
  const std::string first = StrCat(kTcOnly, "?- tc(1, W).");
  const std::string second = StrCat(kTcOnly, "?- tc(W, 2).");
  const std::string third = StrCat(kTcOnly, "?- tc(1, 2).");
  auto p1 = engine.Prepare(snapshot, first);
  auto p2 = engine.Prepare(snapshot, second);
  ASSERT_TRUE(p1.ok() && p2.ok());
  // Touch p1 so p2 is the LRU victim when p3 arrives.
  ASSERT_TRUE(engine.Prepare(snapshot, first).ok());
  auto p3 = engine.Prepare(snapshot, third);
  ASSERT_TRUE(p3.ok());

  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // p1 is still resident (hit); p2 was evicted (miss, recompile).
  ASSERT_TRUE(engine.Prepare(snapshot, first).ok());
  EXPECT_EQ(engine.plan_cache_stats().misses, stats.misses);
  auto p2_again = engine.Prepare(snapshot, second);
  ASSERT_TRUE(p2_again.ok());
  EXPECT_EQ(engine.plan_cache_stats().misses, stats.misses + 1);
  // The evicted plan object itself stayed valid for holders.
  EXPECT_NE(p2->get(), nullptr);
}

TEST(EngineApiTest, PlanCacheCompilesOncePerShape) {
  // Guards against the graph depending on the query constant: each
  // instantiated plan must equal a fresh compile of its own text. And
  // against instances that are not kept: a repeated constant must get
  // its plan back without instantiating again.
  auto facts = Parse(kChainFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));
  const SymbolTable& symbols = snapshot->db().symbols();

  std::vector<std::shared_ptr<const PreparedQuery>> plans;
  for (int k = 1; k <= 8; ++k) {
    const std::string text = StrCat(kTcOnly, "?- tc(", k, ", W).");
    auto plan = engine.Prepare(snapshot, text);
    ASSERT_TRUE(plan.ok()) << plan.status();
    plans.push_back(*plan);
    auto fresh = FreshGraph(text);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ((*plan)->graph().ToString(&symbols), *fresh) << text;
    auto parsed = Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ((*plan)->canonical_text(),
              parsed->program.ToString(&parsed->database.symbols()));
    auto expected = OracleAnswers(text, kChainFacts);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto answers = RunPlan(engine, *plan);
    ASSERT_TRUE(answers.ok()) << answers.status();
    EXPECT_EQ(*answers, *expected) << text;
  }
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);
  EXPECT_EQ(stats.size, 8u);  // the compiled plan and seven instances
  EXPECT_EQ(std::set<const PreparedQuery*>(
                {plans[0].get(), plans[1].get(), plans[7].get()})
                .size(),
            3u);

  // Every text, and every spelling of its program, names its own plan.
  for (int k = 1; k <= 8; ++k) {
    auto again =
        engine.Prepare(snapshot, StrCat(kTcOnly, "?- tc(", k, ", W)."));
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again->get(), plans[k - 1].get()) << k;
    auto respelled =
        engine.Prepare(snapshot, StrCat(kTcOnly, "?-  tc(", k, ",W)."));
    ASSERT_TRUE(respelled.ok()) << respelled.status();
    EXPECT_EQ(respelled->get(), plans[k - 1].get()) << k;
  }
  stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 23u);
  EXPECT_EQ(stats.size, 8u);
}

TEST(EngineApiTest, PlanCacheKeysOnConstantEquality) {
  // Guards against a shape that forgets which constants are equal:
  // tc(3, 3) and tc(3, 4) may build different graphs.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));

  auto same = engine.Prepare(snapshot, StrCat(kTcOnly, "?- tc(3, 3)."));
  auto distinct = engine.Prepare(snapshot, StrCat(kTcOnly, "?- tc(3, 4)."));
  ASSERT_TRUE(same.ok() && distinct.ok());
  EXPECT_NE(same->get(), distinct->get());
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 2u);

  // Each instantiates for its own equality pattern.
  for (const char* query : {"?- tc(3, 3).", "?- tc(3, 4).", "?- tc(5, 5).",
                            "?- tc(4, 5).", "?- tc(5, 4)."}) {
    const std::string text = StrCat(kTcOnly, query);
    auto plan = engine.Prepare(snapshot, text);
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto expected = OracleAnswers(text);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto answers = RunPlan(engine, *plan);
    ASSERT_TRUE(answers.ok()) << answers.status();
    EXPECT_EQ(*answers, *expected) << query;
  }
  EXPECT_EQ(engine.plan_cache_stats().misses, 2u);
  // Two compiled plans and the three instances.
  EXPECT_EQ(engine.plan_cache_stats().size, 5u);
}

TEST(EngineApiTest, RuleConstantsArePlaceholdersToo) {
  // Guards against a shape that forgets a rule constant's equality with
  // a query constant: in both(2, W) the query's 2 unifies with the
  // rule's 2, and in both(3, W) it does not, so they are two shapes.
  // Programs that differ only in which constants they mention, keeping
  // that pattern, share a shape and answer for their own constants.
  auto facts = Parse(kChainFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));

  auto both = [](int rule_constant, int query_constant) {
    return StrCat(kTcOnly, "both(X, Y) :- tc(X, Y), tc(", rule_constant,
                  ", Y).\n?- both(", query_constant, ", W).");
  };
  std::vector<std::shared_ptr<const PreparedQuery>> plans;
  for (const std::string& text :
       {both(2, 2), both(2, 3), both(4, 4), both(4, 1), both(3, 2)}) {
    auto plan = engine.Prepare(snapshot, text);
    ASSERT_TRUE(plan.ok()) << plan.status();
    plans.push_back(*plan);
    auto expected = OracleAnswers(text, kChainFacts);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto answers = RunPlan(engine, *plan);
    ASSERT_TRUE(answers.ok()) << answers.status();
    EXPECT_EQ(*answers, *expected) << text;
  }
  PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.size, 5u);
  EXPECT_EQ(std::set<const PreparedQuery*>(
                {plans[0].get(), plans[1].get(), plans[2].get(),
                 plans[3].get(), plans[4].get()})
                .size(),
            5u);
}

TEST(EngineApiTest, QuotedSymbolSpelledLikeAVariableKeysApart) {
  // Guards against a key that prints constants: the parser names the
  // variable Y of the first clause Y#1, so a key printing the symbol
  // "Y#1" bare would give these two programs one plan.
  auto facts = Parse("e(1, 2). e(3, \"Y#1\"). e(4, 5).");
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));

  auto symbol = engine.Prepare(
      snapshot, "p(X) :- e(X, \"Y#1\").\nq(Z) :- e(Z, 5).\n?- p(W).");
  auto variable = engine.Prepare(
      snapshot, "p(X) :- e(X, Y).\nq(Z) :- e(Z, 5).\n?- p(W).");
  ASSERT_TRUE(symbol.ok()) << symbol.status();
  ASSERT_TRUE(variable.ok()) << variable.status();
  EXPECT_NE(symbol->get(), variable->get());
  EXPECT_EQ(engine.plan_cache_stats().misses, 2u);

  auto one = RunPlan(engine, *symbol);
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(*one, std::vector<Tuple>{{Value::Int(3)}});
  auto three = RunPlan(engine, *variable);
  ASSERT_TRUE(three.ok()) << three.status();
  EXPECT_EQ(*three, (std::vector<Tuple>{
                        {Value::Int(1)}, {Value::Int(3)}, {Value::Int(4)}}));
}

TEST(EngineApiTest, InstanceCopiesTheCachedProgram) {
  // Guards against pairing the cached graph with the new text's parse:
  // these two texts share one shape, but the query form interns edge
  // before goal and the rule form goal before edge.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));

  auto query_form = engine.Prepare(snapshot, "?- edge(3, W).");
  ASSERT_TRUE(query_form.ok()) << query_form.status();
  auto rule_form = engine.Prepare(snapshot, "goal(W) :- edge(4, W).");
  ASSERT_TRUE(rule_form.ok()) << rule_form.status();
  EXPECT_EQ(engine.plan_cache_stats().hits, 1u);
  EXPECT_NE(rule_form->get(), query_form->get());

  auto first = RunPlan(engine, *query_form);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, std::vector<Tuple>{{Value::Int(4)}});
  auto second = RunPlan(engine, *rule_form);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*second, std::vector<Tuple>{{Value::Int(2)}});
}

TEST(EngineApiTest, ConcurrentPreparesOfOneShapeAnswerTheirOwnConstants) {
  // Guards the cache's invariants under racing misses: a resident entry
  // is never replaced, and a raw-text alias names only its own plan.
  // Four threads prepare and run random constants of tc(k, W), texts
  // that repeat and so hit the raw-text alias. With a one-plan cache,
  // every instance evicts the compiled plan, and every eighth query
  // prepares tc(W, k) instead, so misses keep racing; with room for
  // all, instances are cached and their aliases race the inserts.
  std::vector<std::string> texts;
  std::vector<std::string> evictors;
  std::map<std::string, std::vector<Tuple>> expected;
  for (int k = 1; k <= 6; ++k) {
    texts.push_back(StrCat(kTcOnly, "?- tc(", k, ", W)."));
    evictors.push_back(StrCat(kTcOnly, "?- tc(W, ", k, ")."));
    for (const std::string& text : {texts.back(), evictors.back()}) {
      auto answers = OracleAnswers(text, kChainFacts);
      ASSERT_TRUE(answers.ok()) << answers.status();
      expected[text] = *answers;
    }
  }

  for (size_t capacity : {size_t{1}, size_t{64}}) {
    auto facts = Parse(kChainFacts);
    ASSERT_TRUE(facts.ok()) << facts.status();
    EngineOptions engine_options;
    engine_options.workers = 2;
    engine_options.plan_cache_capacity = capacity;
    Engine engine(engine_options);
    auto snapshot = engine.Attach(std::move(facts->database));

    constexpr int kThreads = 4;
    constexpr int kQueries = 1000;
    std::atomic<int> wrong{0};
    std::atomic<int> failed{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<uint64_t>(t) + 1);
        for (int q = 0; q < kQueries; ++q) {
          const std::vector<std::string>& pool =
              (q + t) % 8 == 0 ? evictors : texts;
          const std::string& text = pool[rng.Below(pool.size())];
          auto plan = engine.Prepare(snapshot, text);
          auto answers = plan.ok()
                             ? RunPlan(engine, *plan)
                             : StatusOr<std::vector<Tuple>>(plan.status());
          if (!answers.ok()) {
            failed.fetch_add(1);
          } else if (*answers != expected.at(text)) {
            wrong.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(failed.load(), 0) << capacity;
    EXPECT_EQ(wrong.load(), 0) << capacity;
    PlanCacheStats stats = engine.plan_cache_stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<uint64_t>(kThreads * kQueries));
    // With room for all: a compiled plan and five instances per shape.
    EXPECT_EQ(stats.size, capacity == 1 ? 1u : 12u);
  }
}

TEST(EngineApiTest, PlanCacheKeepsResidentEntriesAndOwnAliases) {
  // The two invariants the racing test above exercises, one at a time:
  // an insert never replaces a resident entry, and an alias is added
  // only for the plan its entry holds.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));
  auto one = engine.Prepare(snapshot, StrCat(kTcOnly, "?- tc(1, W)."));
  auto two = engine.Prepare(snapshot, StrCat(kTcOnly, "?- tc(2, W)."));
  ASSERT_TRUE(one.ok() && two.ok());
  ASSERT_NE(one->get(), two->get());

  PlanCache cache(2);
  EXPECT_EQ(cache.Insert("shape", *one), 0u);
  cache.AddAlias("text one", "shape", one->get());
  EXPECT_EQ(cache.Insert("shape", *two), 0u);
  EXPECT_EQ(cache.Lookup("shape"), *one);
  cache.AddAlias("text two", "shape", two->get());
  EXPECT_EQ(cache.Lookup("text two", /*count_miss=*/false), nullptr);
  EXPECT_EQ(cache.Lookup("text one"), *one);
  cache.AddAlias("text one", "gone", one->get());  // no such entry
  EXPECT_EQ(cache.Lookup("gone"), nullptr);

  // Evicting the entry drops its aliases with it.
  EXPECT_EQ(cache.Insert("other", *two), 0u);
  EXPECT_EQ(cache.Insert("third", *two), 1u);
  EXPECT_EQ(cache.Lookup("text one"), nullptr);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(EngineApiTest, PrepareRejectsFactsInQueryText) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, StrCat("edge(9, 10).\n", kTcRules));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("snapshot"), std::string::npos)
      << plan.status();
}

TEST(EngineApiTest, SessionBuilderValidatesNamingField) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();

  SessionOptions bad_workers;
  bad_workers.scheduler = SchedulerKind::kThreaded;
  bad_workers.workers = 0;
  auto session = engine.CreateSession(*plan, bad_workers);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("workers"), std::string::npos)
      << session.status();

  SessionOptions bad_segment;
  bad_segment.segment_max_rows = 0;
  session = engine.CreateSession(*plan, bad_segment);
  ASSERT_FALSE(session.ok());
  EXPECT_NE(session.status().message().find("segment_max_rows"),
            std::string::npos)
      << session.status();

  SessionOptions bad_log;
  bad_log.log_level = "chatty";
  session = engine.CreateSession(*plan, bad_log);
  ASSERT_FALSE(session.ok());
  EXPECT_NE(session.status().message().find("log_level"), std::string::npos)
      << session.status();
}

TEST(EngineApiTest, PlanOptionsValidateNamesStrategy) {
  PlanOptions options;
  options.strategy = "bogus";
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("strategy"), std::string::npos) << status;

  // Prepare validates before any work and reports the same field.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto plan = engine.Prepare(engine.Attach(std::move(facts->database)),
                             kTcRules, options);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("strategy"), std::string::npos)
      << plan.status();
}

TEST(EngineApiTest, SessionsAreSingleUse) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto session = engine.CreateSession(*plan);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Run().ok());
  auto again = (*session)->Run();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineApiTest, LineageSessionIsExclusiveAndWorks) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();

  SessionOptions lineage_options;
  lineage_options.lineage = true;
  auto session = engine.CreateSession(*plan, lineage_options);
  ASSERT_TRUE(session.ok());
  auto result = (*session)->Run();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(result->lineage, nullptr);
  EXPECT_GT(result->lineage->derived, 0u);
  EXPECT_EQ(snapshot->running_sessions(), 0);

  // A second lineage session on the same plan and snapshot numbers the
  // EDB rows afresh: same EDB leaves, byte-identical proofs (ids
  // included) for every answer.
  auto again_session = engine.CreateSession(*plan, lineage_options);
  ASSERT_TRUE(again_session.ok());
  auto again = (*again_session)->Run();
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_NE(again->lineage, nullptr);
  EXPECT_EQ(again->lineage->edb_facts, result->lineage->edb_facts);
  EXPECT_EQ(again->lineage->records.size(), result->lineage->records.size());
  ASSERT_EQ(SortedAnswers(*again), SortedAnswers(*result));
  for (const Tuple& answer : SortedAnswers(*result)) {
    const std::vector<std::optional<Value>> args = {Value::Int(1), answer[0]};
    auto first = result->lineage->Match("tc", args);
    auto second = again->lineage->Match("tc", args);
    ASSERT_FALSE(first.empty()) << TupleToString(answer);
    ASSERT_FALSE(second.empty()) << TupleToString(answer);
    EXPECT_EQ(again->lineage->FormatProof(second.front()->id),
              result->lineage->FormatProof(first.front()->id));
  }
  // No relation keeps a finished session's id allocator.
  EXPECT_FALSE(snapshot->db().GetRelation("edge")->lineage_enabled());
}

TEST(EngineApiTest, SingleSessionLatencyHistogramRenders) {
  // One query must already yield sensible percentile renders (the
  // log2-bucket histogram resolves p50/p95/p99 to the sample's bucket
  // upper bound — never NaN or zero-on-nonzero-sample).
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  MetricsRegistry& metrics = engine.telemetry().registry();
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto session = engine.CreateSession(*plan);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Run().ok());

  Histogram& latency = metrics.GetHistogram("engine/session_latency_ns");
  EXPECT_EQ(latency.count(), 1u);
  EXPECT_GT(latency.Percentile(50), 0u);
  EXPECT_GT(latency.Percentile(95), 0u);
  EXPECT_GT(latency.Percentile(99), 0u);
  EXPECT_GE(latency.Percentile(99), latency.max());
  std::string rendered = latency.ToString();
  EXPECT_NE(rendered.find("p95<="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("p99<="), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find("nan"), std::string::npos) << rendered;
  // The JSON dump renders too (no empty-histogram regression).
  std::string json = metrics.ToJson();
  EXPECT_NE(json.find("engine/session_latency_ns"), std::string::npos);
}

TEST(EngineApiTest, PreparedQueryExposesPlanArtifacts) {
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database), "tc");
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();

  EXPECT_GT((*plan)->graph_stats().node_count, 0u);
  EXPECT_FALSE((*plan)->canonical_text().empty());
  EXPECT_GT((*plan)->prepare_ns(), 0u);
  // The recursive tc plan probes edge on its bound first column.
  ASSERT_FALSE((*plan)->index_specs().empty());
  EXPECT_EQ((*plan)->index_specs()[0].relation, "edge");
  // Index specs were materialized on the snapshot at prepare time.
  size_t handle = 0;
  EXPECT_TRUE(snapshot->db()
                  .GetRelation("edge")
                  ->FindIndex((*plan)->index_specs()[0].key_columns, &handle));
  EXPECT_NE((*plan)->Describe().find("strategy=greedy"), std::string::npos);
  EXPECT_EQ(snapshot->name(), "tc");
}

TEST(EngineApiTest, EngineOptionsValidate) {
  EngineOptions options;
  options.workers = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.workers = 0;
  options.plan_cache_capacity = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.plan_cache_capacity = 8;
  options.stats_port = 70000;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.stats_port = 0;
  options.watchdog_stall_ms = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.watchdog_stall_ms = 0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(EngineApiDeathTest, EngineRefusesInvalidOptions) {
  // The constructor enforces Validate: a misconfigured engine aborts at
  // construction, naming the field, instead of failing every Run later.
  EXPECT_DEATH({ Engine engine(EngineOptions{.watchdog_stall_ms = -1}); },
               "watchdog_stall_ms: must be >= 0, got -1");
  EXPECT_DEATH({ Engine engine(EngineOptions{.plan_cache_capacity = 0}); },
               "plan_cache_capacity: must be >= 1");
}

// Threads of this process now.
int64_t ThreadCount() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator());
}

TEST(EngineApiTest, ThreadedSessionsCreateNoThreads) {
  // A threaded session runs on the calling thread and the engine's pool:
  // a send tap counts this process's threads while the session runs
  // and finds as many as before it. (A scheduler that started a thread
  // per worker, plus a monitor, would show 5 more at 4 workers.)
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 4});
  auto plan = engine.Prepare(engine.Attach(std::move(facts->database)),
                             kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  SessionOptions options;
  options.scheduler = SchedulerKind::kThreaded;
  options.workers = 4;
  // The pool's stall monitor starts with the first watched session, once
  // per engine; this session starts it.
  ASSERT_TRUE(engine.RunAsync(*plan, options).get().ok());

  const int64_t before = ThreadCount();
  std::atomic<int64_t> most{0};
  options.send_tap = [&most](ProcessId, ProcessId, const Message&) {
    const int64_t now = ThreadCount();
    int64_t seen = most.load();
    while (now > seen && !most.compare_exchange_weak(seen, now)) {
    }
  };
  for (int i = 0; i < 4; ++i) {
    auto result = engine.RunAsync(*plan, options).get();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->answers.size(), 4u);
  }
  EXPECT_EQ(most.load(), before);
  EXPECT_EQ(ThreadCount(), before);
}

TEST(EngineApiTest, ThreadedRunSessionWithoutAPoolFails) {
  // Threaded sessions borrow the engine's pool; a direct RunSession that
  // brings none gets an error that says so, not a thread of its own.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto plan = engine.Prepare(engine.Attach(std::move(facts->database)),
                             kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto facts2 = Parse(kTcFacts);
  ASSERT_TRUE(facts2.ok()) << facts2.status();
  SessionOptions options;
  options.scheduler = SchedulerKind::kThreaded;
  auto result = RunSession((*plan)->graph(), facts2->database, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("worker pool"), std::string::npos)
      << result.status();
}

TEST(EngineApiTest, SessionsCarrySequentialQueryIds) {
  // Every CreateSession mints a stable engine-wide id (1, 2, 3, ...)
  // that the query log, trace spans and lineage output key on; the
  // session exposes it before and after Run.
  auto facts = Parse(kTcFacts);
  ASSERT_TRUE(facts.ok()) << facts.status();
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(facts->database));
  auto plan = engine.Prepare(snapshot, kTcRules);
  ASSERT_TRUE(plan.ok()) << plan.status();

  auto first = engine.CreateSession(*plan);
  auto second = engine.CreateSession(*plan);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ((*first)->query_id(), 1u);
  EXPECT_EQ((*second)->query_id(), 2u);
  ASSERT_TRUE((*second)->Run().ok());
  EXPECT_EQ((*second)->query_id(), 2u);

  // The ids key the query log: the one completed session is logged
  // under its id, with the pre-Run session absent.
  auto log = engine.telemetry().QueryLog();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].query_id, 2u);
  EXPECT_TRUE(log[0].plan_reused);  // `first` was created earlier
}

}  // namespace
}  // namespace mpqe
