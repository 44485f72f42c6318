// Tests for message packaging (the paper's footnote 2), which is
// always on: at each mailbox run's end a node sends one envelope per
// destination it emitted several messages to. Answers stay those of
// the semi-naive oracle; physical messages fall far below logical.

#include <gtest/gtest.h>

#include "baseline/bottom_up.h"
#include "common/random.h"
#include "datalog/parser.h"
#include "test_engine.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

TEST(BatchingTest, TransitiveClosureMatchesUnbatched) {
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "edge", 32).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  auto truth = SemiNaiveBottomUp(program, db);
  ASSERT_TRUE(truth.ok());
  auto batched = TestEngine(std::move(db)).Run(program);
  ASSERT_TRUE(batched.ok()) << batched.status();
  EXPECT_TRUE(batched->answers == truth->goal);
  EXPECT_EQ(batched->answers.size(), 31u);
  EXPECT_TRUE(batched->ended_by_protocol);

  const MessageStats& s = batched->message_stats;
  EXPECT_GT(s.Count(MessageKind::kBatch), 0u);
  EXPECT_GT(s.packaged_submessages, 0u);
  EXPECT_LT(s.PhysicalTotal(), s.Total());
}

TEST(BatchingTest, PhysicalSavingsAreSubstantial) {
  Database db;
  ASSERT_TRUE(workload::MakeBinaryTree(db, "edge", 63).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  auto result = TestEngine(std::move(db)).Run(program);
  ASSERT_TRUE(result.ok());
  const MessageStats& s = result->message_stats;
  // A tree root query fans out widely: most tuples travel packaged.
  EXPECT_LT(s.PhysicalTotal() * 2, s.Total());
}

TEST(BatchingTest, WorksWithCoalescingAndSchedulers) {
  Database db;
  ASSERT_TRUE(workload::MakeCycle(db, "edge", 10).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
  auto truth = SemiNaiveBottomUp(program, db);
  ASSERT_TRUE(truth.ok());
  TestEngine engine(std::move(db));
  for (int coalesce = 0; coalesce <= 1; ++coalesce) {
    PlanOptions plan_options;
    plan_options.graph_options.coalesce_nodes = coalesce == 1;
    for (int sched = 0; sched < 3; ++sched) {
      SessionOptions options;
      options.scheduler = static_cast<SchedulerKind>(sched);
      options.seed = 17;
      options.workers = 3;
      auto result = engine.Run(program, plan_options, options);
      ASSERT_TRUE(result.ok())
          << "coalesce=" << coalesce << " sched=" << sched << ": "
          << result.status();
      EXPECT_TRUE(result->ended_by_protocol)
          << "coalesce=" << coalesce << " sched=" << sched;
      EXPECT_TRUE(result->answers == truth->goal)
          << "coalesce=" << coalesce << " sched=" << sched;
    }
  }
}

// Packaging on coalesced graphs under random schedules, across many
// programs: each seed draws a random program and a random scheduler
// seed. (CoalescedRandomEquivalence runs these programs on the
// deterministic scheduler; a coalesced graph never blows up, so no
// seed is skipped.)
class BatchedRandomEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchedRandomEquivalence, MatchesSemiNaive) {
  Rng rng(GetParam());
  workload::RandomProgramOptions options;
  auto rp = workload::MakeRandomProgram(options, rng);
  ASSERT_TRUE(rp.ok());
  auto truth = SemiNaiveBottomUp(rp->unit.program, rp->unit.database);
  ASSERT_TRUE(truth.ok());
  PlanOptions plan;
  plan.graph_options.coalesce_nodes = true;
  SessionOptions eval;
  eval.scheduler = SchedulerKind::kRandom;
  eval.seed = GetParam();
  eval.max_messages = 5000000;
  auto result = TestEngine(std::move(rp->unit.database))
                    .Run(rp->unit.program, plan, eval);
  ASSERT_TRUE(result.ok()) << result.status() << "\n" << rp->text;
  EXPECT_TRUE(result->ended_by_protocol) << rp->text;
  EXPECT_TRUE(result->answers == truth->goal)
      << rp->text << "\nengine: " << result->answers.ToString()
      << "\ntruth:  " << truth->goal.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedRandomEquivalence,
                         ::testing::Range(uint64_t{0}, uint64_t{30}));

TEST(BatchingTest, EmptyBatchNeverSent) {
  // A no-op work message (e.g. duplicate tuple request) must not emit
  // an empty envelope: run a query twice through the same evaluation
  // and check every batch envelope carried at least two messages
  // (singletons are sent bare).
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "edge", 8).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  auto result = TestEngine(std::move(db)).Run(program);
  ASSERT_TRUE(result.ok());
  const MessageStats& s = result->message_stats;
  // Each envelope holds >= 2 sub-messages by construction.
  EXPECT_GE(s.packaged_submessages, 2 * s.Count(MessageKind::kBatch));
}

}  // namespace
}  // namespace mpqe
