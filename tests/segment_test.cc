// Tests for columnar tuple segments (msg/segment.h), the one answer
// message: multi-row and one-row (per-tuple) segments compute exactly
// the semi-naive relations and the same proof trees, across
// schedulers; segment edge
// cases (empty, arity 0, flush at the size cap, storage growing past
// its inline block); single answers ship
// as one-row segments; and shared fan-out (one segment object sent to
// several consumers without copying rows).

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "baseline/bottom_up.h"
#include "datalog/parser.h"
#include "msg/segment.h"
#include "obs/lineage.h"
#include "relational/relation.h"
#include "test_engine.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

// Records, per sent segment payload object, the set of destinations it
// traveled to, and the largest row count seen on the wire. It holds
// each segment's handle, so a freed segment's address can never be
// reused by a later one and miscounted as sharing.
class SegmentRecorder {
 public:
  // The send tap that feeds this recorder every message on the wire.
  SendTap Tap() {
    return [this](ProcessId, ProcessId to, const Message& m) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (m.kind == MessageKind::kTupleSegment) {
        Note(m, to);
      } else if (m.kind == MessageKind::kBatch) {
        for (const Message& sub : m.batch()) {
          if (sub.kind == MessageKind::kTupleSegment) Note(sub, to);
        }
      }
    };
  }

  size_t max_rows() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_rows_;
  }

  /// Number of distinct segment objects delivered to >= 2 consumers.
  size_t shared_segments() const { return CountShared(/*rows=*/0); }

  /// The same, counting only one-row segments.
  size_t shared_one_row_segments() const { return CountShared(/*rows=*/1); }

 private:
  void Note(const Message& m, ProcessId to) {
    std::shared_ptr<const TupleSegment> segment = m.segment_ptr();
    max_rows_ = std::max(max_rows_, segment->num_rows);
    fanout_[std::move(segment)].insert(to);
  }

  // Segment objects sent to >= 2 destinations with `rows` rows (any
  // row count when `rows` is 0).
  size_t CountShared(size_t rows) const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t shared = 0;
    for (const auto& [segment, destinations] : fanout_) {
      if (destinations.size() < 2) continue;
      if (rows == 0 || segment->num_rows == rows) ++shared;
    }
    return shared;
  }

  mutable std::mutex mutex_;
  std::map<std::shared_ptr<const TupleSegment>, std::set<ProcessId>> fanout_;
  size_t max_rows_ = 0;
};

// ---------------------------------------------------------------------------
// TupleSegment basics

TEST(TupleSegmentTest, LayoutAndAccessors) {
  TupleSegment segment;
  segment.arity = 2;
  EXPECT_TRUE(segment.empty());
  segment.AppendRow(Tuple{Value::Int(1), Value::Int(2)});
  segment.AppendRow(Tuple{Value::Int(3), Value::Int(4)});
  EXPECT_FALSE(segment.empty());
  EXPECT_EQ(segment.num_rows, 2u);
  EXPECT_EQ(segment.values.size(), 4u);
  EXPECT_EQ(segment.row(1)[0], Value::Int(3));
  // No lineage column: every row reads kNoLineage.
  EXPECT_EQ(segment.row_lineage(0), kNoLineage);
  segment.lineage = {7, 9};
  EXPECT_EQ(segment.row_lineage(1), 9u);
}

TEST(TupleSegmentTest, ArityZeroRowsAreCounted) {
  // num_rows is explicit, so nullary tuples still count.
  TupleSegment segment;
  segment.arity = 0;
  segment.AppendRow(Tuple{});
  segment.AppendRow(Tuple{});
  EXPECT_EQ(segment.num_rows, 2u);
  EXPECT_TRUE(segment.values.empty());
  EXPECT_EQ(segment.row(1).size(), 0u);
}

TEST(SegmentTest, StorageGrowsAcrossTheInlineBlock) {
  // A segment keeps its binding and first row values inline and spills
  // past them. Every shape must read back identically — row views, the
  // binding, the columnar invariants, the batch insert kernel — and a
  // copy or move taken after the spill must own equal, independent
  // storage.
  struct Shape {
    size_t binding_width;
    size_t arity;
    size_t rows;
  };
  const Shape shapes[] = {
      {0, 2, 1},                     // no binding, one inline row
      {1, 2, 1},                     // one binding value
      {3, 2, 1},                     // binding past its inline block
      {1, kInlineRowValues + 1, 1},  // one row wider than the block
      {1, 3, 1000},                  // many rows, spilled at the second
      {3, 3, 1000},
  };
  auto cell = [](size_t r, size_t c) {
    return Value::Int(static_cast<int64_t>(r * 10 + c));
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(testing::Message()
                 << "binding=" << shape.binding_width
                 << " arity=" << shape.arity << " rows=" << shape.rows);
    Tuple binding;
    for (size_t i = 0; i < shape.binding_width; ++i) {
      binding.push_back(Value::Int(100 + static_cast<int64_t>(i)));
    }
    TupleSegment segment;
    segment.binding.assign(binding);
    segment.arity = shape.arity;
    Tuple row(shape.arity);
    for (size_t r = 0; r < shape.rows; ++r) {
      for (size_t c = 0; c < shape.arity; ++c) row[c] = cell(r, c);
      segment.AppendRow(row);
    }
    segment.CheckConsistent();

    auto expect_contents = [&](const TupleSegment& s) {
      EXPECT_EQ(TupleRef(s.binding), TupleRef(binding));
      ASSERT_EQ(s.num_rows, shape.rows);
      ASSERT_EQ(s.values.size(), shape.rows * shape.arity);
      for (size_t r = 0; r < shape.rows; ++r) {
        for (size_t c = 0; c < shape.arity; ++c) {
          ASSERT_EQ(s.row(r)[c], cell(r, c)) << "row " << r;
        }
      }
    };
    expect_contents(segment);

    Relation relation(shape.arity);
    const BatchInsertResult& ins = relation.InsertSegment(segment);
    EXPECT_EQ(ins.num_inserted, shape.rows);
    for (size_t r = 0; r < shape.rows; ++r) {
      EXPECT_TRUE(relation.Contains(segment.row(r)));
    }

    TupleSegment copy = segment;
    TupleSegment moved = std::move(segment);
    copy.CheckConsistent();
    moved.CheckConsistent();
    expect_contents(copy);
    expect_contents(moved);
    EXPECT_NE(copy.values.data(), moved.values.data());
    // Growing the copy leaves the moved-to segment untouched.
    Tuple extra(shape.arity, Value::Int(-1));
    copy.AppendRow(extra);
    copy.binding.push_back(Value::Int(-1));
    copy.CheckConsistent();
    EXPECT_EQ(copy.row(shape.rows), TupleRef(extra));
    expect_contents(moved);
  }
}

TEST(TupleSegmentTest, EmptySegmentToleratedByConsumer) {
  // Producers never emit empty segments, but consumers must not
  // misbehave if handed one (defensive decoding).
  auto segment = std::make_shared<TupleSegment>();
  segment->arity = 2;
  SinkProcess sink(/*root_pid=*/0, /*answer_arity=*/2);
  sink.OnMessage(MakeTupleSegment(segment));
  EXPECT_TRUE(sink.TakeAnswers().empty());
  EXPECT_FALSE(sink.done());
}

// ---------------------------------------------------------------------------
// Engine equivalence
//
// There is one answer message, a segment of >= 1 rows. A per-tuple run
// pins every segment at one row (segment_max_rows = 1):
// each answer then travels alone, as §3.1's tuple message does, and
// the batch kernels absorb it one row at a time. The default caps
// ship multi-row segments that the kernels absorb whole. Both must
// compute the same relations and proof trees.

SessionOptions PerTuple() {
  SessionOptions options;
  options.segment_max_rows = 1;
  return options;
}

// A nonlinear TC over an n-cycle with its semi-naive goal relation.
struct CycleTc {
  Database db;
  Program program;
  Relation truth{0};

  explicit CycleTc(int64_t n) {
    EXPECT_TRUE(workload::MakeCycle(db, "edge", n).ok());
    EXPECT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
    auto t = SemiNaiveBottomUp(program, db);
    EXPECT_TRUE(t.ok());
    if (t.ok()) truth = t->goal;
  }
};

TEST(SegmentTest, TransitiveClosureMatchesPerTuple) {
  // Nonlinear TC on a cycle: the tc relation grows to n^2 and answer
  // runs span many rows, so real multi-row segments travel.
  CycleTc tc(12);
  const Relation truth = tc.truth;
  TestEngine engine(std::move(tc.db));
  SegmentRecorder per_tuple_recorder;
  SessionOptions per_tuple_options = PerTuple();
  per_tuple_options.send_tap = per_tuple_recorder.Tap();
  auto segmented = engine.Run(tc.program);  // default caps
  auto per_tuple = engine.Run(tc.program, {}, per_tuple_options);
  ASSERT_TRUE(segmented.ok()) << segmented.status();
  ASSERT_TRUE(per_tuple.ok()) << per_tuple.status();
  EXPECT_TRUE(segmented->answers == truth);
  EXPECT_TRUE(per_tuple->answers == truth);
  EXPECT_TRUE(segmented->ended_by_protocol);
  EXPECT_TRUE(per_tuple->ended_by_protocol);

  // Per-tuple: every answer message carries exactly one row.
  const MessageStats& t = per_tuple->message_stats;
  EXPECT_GT(t.Count(MessageKind::kTupleSegment), 0u);
  EXPECT_EQ(t.segment_rows, t.Count(MessageKind::kTupleSegment));
  EXPECT_EQ(per_tuple_recorder.max_rows(), 1u);

  // Segmented: fewer answer messages than answer rows, and fewer than
  // the per-tuple run. (Physical totals are no measure here: both runs
  // package per destination, and envelopes absorb the difference.)
  const MessageStats& s = segmented->message_stats;
  EXPECT_GT(s.Count(MessageKind::kTupleSegment), 0u);
  EXPECT_GT(s.segment_rows, s.Count(MessageKind::kTupleSegment));
  EXPECT_LT(s.Count(MessageKind::kTupleSegment),
            t.Count(MessageKind::kTupleSegment));
}

TEST(SegmentTest, WorksWithBatchingCoalescingAndSchedulers) {
  CycleTc tc(10);
  const Relation truth = tc.truth;
  TestEngine engine(std::move(tc.db));
  // Packaging is always on: segments ride inside batch envelopes.
  for (int coalesce = 0; coalesce <= 1; ++coalesce) {
    PlanOptions plan;
    plan.graph_options.coalesce_nodes = coalesce == 1;
    for (int sched = 0; sched < 3; ++sched) {
      SessionOptions options;
      options.scheduler = static_cast<SchedulerKind>(sched);
      options.seed = 17;
      options.workers = 3;
      auto result = engine.Run(tc.program, plan, options);
      ASSERT_TRUE(result.ok()) << "coalesce=" << coalesce << " sched=" << sched
                               << ": " << result.status();
      EXPECT_TRUE(result->ended_by_protocol)
          << "coalesce=" << coalesce << " sched=" << sched;
      EXPECT_TRUE(result->answers == truth)
          << "coalesce=" << coalesce << " sched=" << sched;
    }
  }
}

TEST(SegmentTest, ArityZeroProgramEvaluates) {
  auto unit = Parse(R"(
    rain.
    wet :- rain.
    flooded :- wet, rain.
    ?- flooded.
  )");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  auto result = TestEngine(std::move(unit->database)).Run(unit->program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.arity(), 0u);
  EXPECT_EQ(result->answers.size(), 1u);
}

// ---------------------------------------------------------------------------
// Proof-tree equivalence (the segmented path records identical lineage)

// Chain transitive closure from a fixed start: every answer has
// exactly one derivation, so the WHY proof tree is
// schedule-independent (modulo ids). The query is tc(0, W); answers
// are arity 1.
std::map<std::string, std::string> ProofsByAnswer(
    const EvaluationResult& result) {
  std::map<std::string, std::string> proofs;
  ProofFormatOptions no_ids;
  no_ids.include_ids = false;
  for (size_t i = 0; i < result.answers.size(); ++i) {
    Tuple row = result.answers.tuple(i).ToTuple();
    std::vector<std::optional<Value>> args{Value::Int(0), row[0]};
    auto matches = result.lineage->Match("tc", args);
    EXPECT_FALSE(matches.empty());
    if (matches.empty()) continue;
    proofs[TupleToString(row)] =
        result.lineage->FormatProof(matches.front()->id, no_ids);
  }
  return proofs;
}

TEST(SegmentTest, ProofTreesMatchPerTuplePath) {
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "edge", 16).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  TestEngine engine(std::move(db));
  auto eval = [&](bool per_tuple, SchedulerKind scheduler) {
    SessionOptions options = per_tuple ? PerTuple() : SessionOptions{};
    options.scheduler = scheduler;
    options.workers = 3;
    options.lineage = true;
    auto result = engine.Run(program, {}, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return *std::move(result);
  };
  EvaluationResult seed = eval(true, SchedulerKind::kDeterministic);
  ASSERT_NE(seed.lineage, nullptr);
  EXPECT_EQ(seed.answers.size(), 15u);
  auto seed_proofs = ProofsByAnswer(seed);
  ASSERT_EQ(seed_proofs.size(), seed.answers.size());

  for (SchedulerKind scheduler :
       {SchedulerKind::kDeterministic, SchedulerKind::kThreaded}) {
    EvaluationResult segmented = eval(false, scheduler);
    ASSERT_NE(segmented.lineage, nullptr);
    EXPECT_TRUE(segmented.answers == seed.answers);
    EXPECT_EQ(segmented.lineage->records.size(), seed.lineage->records.size());
    EXPECT_EQ(ProofsByAnswer(segmented), seed_proofs)
        << "scheduler=" << SchedulerKindToName(scheduler);
  }
}

// ---------------------------------------------------------------------------
// Flush policy

TEST(SegmentTest, SegmentsRespectTheRowCap) {
  Database db;
  ASSERT_TRUE(workload::MakeCycle(db, "edge", 16).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
  SegmentRecorder recorder;
  SessionOptions options;
  options.segment_max_rows = 8;
  options.send_tap = recorder.Tap();
  auto result = TestEngine(std::move(db)).Run(program, {}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // Nonlinear TC on a 16-cycle produces answer runs well past 8 rows,
  // so the cap must split them into multiple full segments.
  EXPECT_GT(result->message_stats.Count(MessageKind::kTupleSegment), 1u);
  EXPECT_EQ(recorder.max_rows(), 8u);
}

TEST(SegmentTest, RowCapMustBePositive) {
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "edge", 4).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  SessionOptions options;
  options.segment_max_rows = 0;
  auto result = TestEngine(std::move(db)).Run(program, {}, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Vectorized-vs-row-at-a-time equivalence (multi-row vs one-row segments)

TEST(SegmentTest, VectorizedMatchesRowAtATimeMatrix) {
  // Nonlinear TC on a cycle re-derives heavily, so every arm of the
  // matrix exercises real duplicate traffic. Whole-segment absorption
  // (default caps) and one-row absorption (PerTuple) must both
  // reproduce the semi-naive oracle under every scheduler x lineage
  // arm, with one lineage record per distinct tuple in every arm.
  CycleTc tc(12);
  const Relation truth = tc.truth;
  TestEngine engine(std::move(tc.db));
  size_t lineage_records = 0;
  for (SchedulerKind scheduler :
       {SchedulerKind::kDeterministic, SchedulerKind::kRandom,
        SchedulerKind::kThreaded}) {
    for (bool lineage : {false, true}) {
      for (bool vectorized : {false, true}) {
        std::string arm = std::string("scheduler=") +
                          SchedulerKindToName(scheduler) +
                          " lineage=" + (lineage ? "on" : "off") +
                          " vectorized=" + (vectorized ? "on" : "off");
        SessionOptions options = vectorized ? SessionOptions{} : PerTuple();
        options.scheduler = scheduler;
        options.seed = 23;
        options.workers = 3;
        options.lineage = lineage;
        auto result = engine.Run(tc.program, {}, options);
        ASSERT_TRUE(result.ok()) << arm << ": " << result.status();
        EXPECT_TRUE(result->answers == truth) << arm;
        EXPECT_TRUE(result->ended_by_protocol) << arm;
        EXPECT_GT(result->counters.duplicate_drops, 0u) << arm;

        const MessageStats& s = result->message_stats;
        EXPECT_GT(s.Count(MessageKind::kTupleSegment), 0u) << arm;
        if (vectorized) {
          // Real multi-row segments travel.
          EXPECT_GT(s.segment_rows, s.Count(MessageKind::kTupleSegment))
              << arm;
        } else {
          EXPECT_EQ(s.segment_rows, s.Count(MessageKind::kTupleSegment))
              << arm;
        }
        if (lineage) {
          ASSERT_NE(result->lineage, nullptr) << arm;
          if (lineage_records == 0) {
            lineage_records = result->lineage->records.size();
          }
          EXPECT_EQ(result->lineage->records.size(), lineage_records) << arm;
        }
      }
    }
  }
  EXPECT_GT(lineage_records, 0u);
}

TEST(SegmentTest, VectorizedProofTreesMatchRowAtATime) {
  // Linear TC from the root of a binary tree: every node is reached by
  // one path, so derivations are unique and proof trees must come out
  // byte-identical (modulo ids) whether the kernels absorbed multi-row
  // segments whole or one row at a time, under both schedulers. Each
  // node's two edges answer together, so multi-row segments travel.
  Database db;
  ASSERT_TRUE(workload::MakeBinaryTree(db, "edge", 31).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  TestEngine engine(std::move(db));
  auto eval = [&](bool vectorized, SchedulerKind scheduler) {
    SessionOptions options = vectorized ? SessionOptions{} : PerTuple();
    options.scheduler = scheduler;
    options.workers = 3;
    options.lineage = true;
    auto result = engine.Run(program, {}, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return *std::move(result);
  };
  EvaluationResult seed = eval(false, SchedulerKind::kDeterministic);
  ASSERT_NE(seed.lineage, nullptr);
  EXPECT_EQ(seed.answers.size(), 30u);
  auto seed_proofs = ProofsByAnswer(seed);
  ASSERT_EQ(seed_proofs.size(), seed.answers.size());
  for (SchedulerKind scheduler :
       {SchedulerKind::kDeterministic, SchedulerKind::kThreaded}) {
    EvaluationResult vec = eval(true, scheduler);
    ASSERT_NE(vec.lineage, nullptr);
    const MessageStats& s = vec.message_stats;
    EXPECT_GT(s.segment_rows, s.Count(MessageKind::kTupleSegment))
        << "scheduler=" << SchedulerKindToName(scheduler);
    EXPECT_TRUE(vec.answers == seed.answers);
    EXPECT_EQ(vec.lineage->records.size(), seed.lineage->records.size());
    EXPECT_EQ(ProofsByAnswer(vec), seed_proofs)
        << "scheduler=" << SchedulerKindToName(scheduler);
  }
}

// ---------------------------------------------------------------------------
// Shared fan-out

TEST(SegmentTest, SingleAnswersTravelAsSharedOneRowSegments) {
  // Linear TC down a chain derives one new answer per rule firing, so
  // every answer message carries a single row. It must still travel as
  // a kTupleSegment, and a goal node must forward the one-row segment
  // it absorbed wholesale: when several consumers subscribe to its
  // binding, the same object reaches all of them, uncopied.
  Database db;
  ASSERT_TRUE(workload::MakeChain(db, "edge", 16).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  SegmentRecorder recorder;
  SessionOptions options;
  options.send_tap = recorder.Tap();
  auto result = TestEngine(std::move(db)).Run(program, {}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 15u);
  EXPECT_GT(result->message_stats.Count(MessageKind::kTupleSegment), 0u);
  EXPECT_GT(recorder.shared_one_row_segments(), 0u);
}

TEST(SegmentTest, FanOutSharesOneSegmentAcrossConsumers) {
  // Nonlinear TC: the tc goal node feeds both recursive subgoals, so
  // its answer segments fan out to two consumers. The recorder checks
  // the *same object* was sent to both — zero row copies.
  Database db;
  ASSERT_TRUE(workload::MakeCycle(db, "edge", 12).ok());
  Program program;
  ASSERT_TRUE(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
  SegmentRecorder recorder;
  SessionOptions options;
  options.send_tap = recorder.Tap();
  auto result = TestEngine(std::move(db)).Run(program, {}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(recorder.shared_segments(), 0u);
}

}  // namespace
}  // namespace mpqe
