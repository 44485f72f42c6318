// Differential property tests: on randomly generated safe Datalog
// programs, the message-passing engine must compute exactly the goal
// relation that (semi-)naive bottom-up evaluation computes — for every
// information passing strategy and every scheduler. This is the
// repository's main correctness anchor.

#include <gtest/gtest.h>

#include "baseline/bottom_up.h"
#include "baseline/top_down_sld.h"
#include "common/random.h"
#include "test_engine.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

// Without node coalescing (the paper's distributed assumption, §2.2
// end) sibling subtrees duplicate goal variants, and dense mutually
// recursive IDBs can blow the rule/goal graph up exponentially. That
// is a documented property of the construction, not a bug; such seeds
// are skipped.
#define MPQE_SKIP_IF_GRAPH_BLOWUP(result)                                   \
  if (!(result).ok() &&                                                     \
      (result).status().code() == StatusCode::kResourceExhausted) {         \
    GTEST_SKIP() << "graph blow-up (no coalescing): " << (result).status(); \
  }

class RandomProgramEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramEquivalence, EngineMatchesSemiNaive) {
  Rng rng(GetParam());
  workload::RandomProgramOptions options;
  auto rp = workload::MakeRandomProgram(options, rng);
  ASSERT_TRUE(rp.ok()) << rp.status();
  Program& program = rp->unit.program;
  Database& db = rp->unit.database;

  auto truth = SemiNaiveBottomUp(program, db);
  ASSERT_TRUE(truth.ok()) << truth.status() << "\n" << rp->text;

  TestEngine engine(std::move(db));
  SessionOptions eval;
  eval.max_messages = 5000000;
  for (const char* strategy :
       {"greedy", "left_to_right", "qual_tree_or_greedy", "no_sips"}) {
    PlanOptions plan;
    plan.strategy = strategy;
    auto result = engine.Run(program, plan, eval);
    MPQE_SKIP_IF_GRAPH_BLOWUP(result);
    ASSERT_TRUE(result.ok())
        << strategy << ": " << result.status() << "\n" << rp->text;
    EXPECT_TRUE(result->ended_by_protocol) << strategy << "\n" << rp->text;
    EXPECT_TRUE(result->answers == truth->goal)
        << strategy << "\nprogram:\n" << rp->text
        << "\nengine: " << result->answers.ToString()
        << "\ntruth:  " << truth->goal.ToString();
  }
}

TEST_P(RandomProgramEquivalence, SchedulersMatchSemiNaive) {
  Rng rng(GetParam() + 1000);
  workload::RandomProgramOptions options;
  auto rp = workload::MakeRandomProgram(options, rng);
  ASSERT_TRUE(rp.ok()) << rp.status();
  Program& program = rp->unit.program;
  Database& db = rp->unit.database;

  auto truth = SemiNaiveBottomUp(program, db);
  ASSERT_TRUE(truth.ok());

  // Three random interleavings plus the thread pool. Theorem 3.1 in
  // practice: a premature leader `end` under any schedule would stop
  // the sink early and lose answers, which the equality would catch.
  TestEngine engine(std::move(db));
  for (uint64_t seed : {1ull, 42ull, 99ull}) {
    SessionOptions eval;
    eval.scheduler = SchedulerKind::kRandom;
    eval.seed = seed;
    eval.max_messages = 5000000;
    auto result = engine.Run(program, {}, eval);
    MPQE_SKIP_IF_GRAPH_BLOWUP(result);
    ASSERT_TRUE(result.ok()) << result.status() << "\n" << rp->text;
    EXPECT_TRUE(result->ended_by_protocol) << rp->text;
    EXPECT_TRUE(result->answers == truth->goal)
        << "random seed " << seed << "\n" << rp->text;
  }
  SessionOptions threaded;
  threaded.scheduler = SchedulerKind::kThreaded;
  threaded.workers = 4;
  threaded.max_messages = 5000000;
  auto result = engine.Run(program, {}, threaded);
  MPQE_SKIP_IF_GRAPH_BLOWUP(result);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ended_by_protocol);
  EXPECT_TRUE(result->answers == truth->goal) << "threaded\n" << rp->text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramEquivalence,
                         ::testing::Range(uint64_t{0}, uint64_t{40}));

// Denser, more recursive programs: fewer seeds, heavier shapes.
class DenseProgramEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DenseProgramEquivalence, EngineMatchesSemiNaive) {
  Rng rng(GetParam());
  workload::RandomProgramOptions options;
  options.idb_predicates = 4;
  options.rules_per_idb = 3;
  options.max_body_atoms = 4;
  options.recursion_bias = 0.7;
  options.edb_nodes = 8;
  options.edb_facts_per_relation = 16;
  auto rp = workload::MakeRandomProgram(options, rng);
  ASSERT_TRUE(rp.ok()) << rp.status();

  auto truth = SemiNaiveBottomUp(rp->unit.program, rp->unit.database);
  ASSERT_TRUE(truth.ok());
  SessionOptions eval;
  eval.max_messages = 10000000;
  auto result = TestEngine(std::move(rp->unit.database))
                    .Run(rp->unit.program, {}, eval);
  MPQE_SKIP_IF_GRAPH_BLOWUP(result);
  ASSERT_TRUE(result.ok()) << result.status() << "\n" << rp->text;
  EXPECT_TRUE(result->ended_by_protocol);
  EXPECT_TRUE(result->answers == truth->goal)
      << rp->text << "\nengine: " << result->answers.ToString()
      << "\ntruth:  " << truth->goal.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseProgramEquivalence,
                         ::testing::Range(uint64_t{0}, uint64_t{25}));

// SLD agrees whenever it completes within its caps.
class SldEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SldEquivalence, SldMatchesSemiNaiveWhenComplete) {
  Rng rng(GetParam() + 500);
  workload::RandomProgramOptions options;
  options.recursion_bias = 0.2;  // mostly nonrecursive so SLD finishes
  options.edb_facts_per_relation = 12;
  auto rp = workload::MakeRandomProgram(options, rng);
  ASSERT_TRUE(rp.ok());
  auto truth = SemiNaiveBottomUp(rp->unit.program, rp->unit.database);
  ASSERT_TRUE(truth.ok());
  SldOptions sld_options;
  sld_options.max_depth = 64;
  sld_options.max_steps = 50000;
  auto sld = TopDownSld(rp->unit.program, rp->unit.database, sld_options);
  ASSERT_TRUE(sld.ok());
  if (sld->complete()) {
    EXPECT_TRUE(sld->answers == truth->goal) << rp->text;
  } else {
    // Incomplete searches must still be sound.
    for (TupleRef t : sld->answers.tuples()) {
      EXPECT_TRUE(truth->goal.Contains(t)) << rp->text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SldEquivalence,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

}  // namespace
}  // namespace mpqe
