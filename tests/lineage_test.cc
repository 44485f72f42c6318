// Tests for derivation provenance (src/obs/lineage.{h,cc}): stable
// tuple ids at Relation::Insert, first-derivation-wins semantics, the
// assembled derivation DAG (acyclicity, EDB leaves, minimal depths),
// pinned proof trees for transitive closure, same-generation and
// nonlinear transitive closure under the deterministic scheduler, and
// first-derivation validity under the threaded scheduler.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "obs/lineage.h"
#include "test_engine.h"

namespace mpqe {
namespace {

constexpr const char* kTc = R"(
  edge(1, 2). edge(2, 3).
  tc(X, Y) :- edge(X, Y).
  tc(X, Y) :- edge(X, Z), tc(Z, Y).
  ?- tc(1, W).
)";

// Same-generation: the classic nonlinear recursion with two distinct
// derivations reaching the same answers.
constexpr const char* kSg = R"(
  flat(m, n).
  up(a, m). up(b, m).
  down(n, x). down(n, y).
  sg(X, Y) :- flat(X, Y).
  sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
  ?- sg(a, W).
)";

EvaluationResult EvalWithLineage(const char* text,
                                 SchedulerKind scheduler =
                                     SchedulerKind::kDeterministic) {
  auto unit = Parse(text);
  EXPECT_TRUE(unit.ok()) << unit.status().ToString();
  SessionOptions options;
  options.lineage = true;
  options.scheduler = scheduler;
  auto result =
      TestEngine(std::move(unit->database)).Run(unit->program, {}, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *std::move(result);
}

// ---------------------------------------------------------------------------
// Relation-level id assignment

TEST(RelationLineageTest, IdsStableAndFirstDerivationWins) {
  TupleIdAllocator ids;
  Relation r(2);
  r.EnableLineage(&ids);
  Relation::InsertResult a = r.InsertRow({Value::Int(1), Value::Int(2)});
  Relation::InsertResult b = r.InsertRow({Value::Int(3), Value::Int(4)});
  ASSERT_TRUE(a.inserted);
  ASSERT_TRUE(b.inserted);
  EXPECT_EQ(r.row_id(a.row), 0u);
  EXPECT_EQ(r.row_id(b.row), 1u);

  // Re-deriving an existing tuple maps to the existing row (and id):
  // the first derivation is preserved, mirroring dedup termination.
  Relation::InsertResult dup = r.InsertRow({Value::Int(1), Value::Int(2)});
  EXPECT_FALSE(dup.inserted);
  EXPECT_EQ(dup.row, a.row);
  EXPECT_EQ(r.row_id(dup.row), 0u);

  // Ids survive arena growth (rehash/reallocation).
  for (int64_t i = 0; i < 1000; ++i) {
    r.Insert({Value::Int(100 + i), Value::Int(i)});
  }
  EXPECT_EQ(r.row_id(a.row), 0u);
  EXPECT_EQ(r.row_id(b.row), 1u);
  EXPECT_EQ(ids.allocated(), 1002u);
}

TEST(RelationLineageTest, EnableLineageRenumbersExistingRows) {
  TupleIdAllocator ids;
  ids.Allocate();  // someone else took id 0
  Relation r(1);
  r.Insert({Value::Int(7)});
  r.Insert({Value::Int(8)});
  EXPECT_EQ(r.row_id(0), kNoTupleId);  // lineage off: sentinel
  r.EnableLineage(&ids);
  EXPECT_TRUE(r.lineage_enabled());
  EXPECT_EQ(r.row_id(0), 1u);
  EXPECT_EQ(r.row_id(1), 2u);
}

// ---------------------------------------------------------------------------
// --why query parsing

TEST(ParseLineageQueryTest, AtomsWildcardsAndErrors) {
  SymbolTable symbols;
  auto q = ParseLineageQuery("tc(a, _)", symbols);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->predicate, "tc");
  ASSERT_EQ(q->args.size(), 2u);
  ASSERT_TRUE(q->args[0].has_value());
  EXPECT_EQ(*q->args[0], symbols.Symbol("a"));
  EXPECT_FALSE(q->args[1].has_value());

  auto ints = ParseLineageQuery(" p( 3 , -4 ) ", symbols);
  ASSERT_TRUE(ints.ok());
  ASSERT_EQ(ints->args.size(), 2u);
  EXPECT_EQ(*ints->args[0], Value::Int(3));
  EXPECT_EQ(*ints->args[1], Value::Int(-4));

  auto zero = ParseLineageQuery("done()", symbols);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->predicate, "done");
  EXPECT_TRUE(zero->args.empty());
  EXPECT_TRUE(ParseLineageQuery("done", symbols).ok());

  EXPECT_FALSE(ParseLineageQuery("", symbols).ok());
  EXPECT_FALSE(ParseLineageQuery("p(", symbols).ok());
  EXPECT_FALSE(ParseLineageQuery("p(a,)", symbols).ok());
  EXPECT_FALSE(ParseLineageQuery("p(a) junk", symbols).ok());
}

// ---------------------------------------------------------------------------
// Pinned proof trees (deterministic scheduler)

TEST(LineageTest, TransitiveClosureProofPinned) {
  EvaluationResult result = EvalWithLineage(kTc);
  ASSERT_NE(result.lineage, nullptr);
  SymbolTable symbols;  // kTc is all-integer; no symbols needed
  auto query = ParseLineageQuery("tc(1, 3)", symbols);
  ASSERT_TRUE(query.ok());
  auto matches = result.lineage->Match(*query);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(result.lineage->FormatProof(matches.front()->id),
            "tc(1, 3)  (union #9)\n"
            "  rule#1[tc(1, _?6) :- edge(1, _?12), tc(_?12, _?6).]"
            "  (rule #8)\n"
            "    edge(1, 2)  (edb #0)\n"
            "    tc(2, 3)  (union #6)\n"
            "      rule#0[tc(_?12, _?6) :- edge(_?12, _?6).]  (rule #4)\n"
            "        edge(2, 3)  (edb #1)\n");

  ProofFormatOptions no_ids;
  no_ids.include_ids = false;
  std::string bare = result.lineage->FormatProof(matches.front()->id, no_ids);
  // Without ids the " #<id>" markers disappear (rule labels still
  // contain "rule#<n>", with no preceding space).
  EXPECT_EQ(bare.find(" #"), std::string::npos) << bare;
  EXPECT_NE(bare.find("(union)"), std::string::npos) << bare;
}

TEST(LineageTest, SameGenerationProofPinned) {
  auto unit = Parse(kSg);
  ASSERT_TRUE(unit.ok());
  auto query = ParseLineageQuery("sg(a, x)", unit->database.symbols());
  ASSERT_TRUE(query.ok());
  SessionOptions options;
  options.lineage = true;
  auto result =
      TestEngine(std::move(unit->database)).Run(unit->program, {}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->lineage, nullptr);
  auto matches = result->lineage->Match(*query);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(
      result->lineage->FormatProof(matches.front()->id),
      "sg(a, x)  (union #9)\n"
      "  rule#1[sg(a, _?7) :- up(a, _?13), sg(_?13, _?14), down(_?14, _?7).]"
      "  (rule #7)\n"
      "    up(a, m)  (edb #3)\n"
      "    sg(m, n)  (union #6)\n"
      "      rule#0[sg(_?13, _?14) :- flat(_?13, _?14).]  (rule #5)\n"
      "        flat(m, n)  (edb #2)\n"
      "    down(n, x)  (edb #0)\n");
}

// Nonlinear TC on a 3-cycle: tc(0, 0) is derived as tc(0, 1) + tc(1, 0)
// and again as tc(0, 2) + tc(2, 0), and the rule node re-derives heads
// it already emitted. The proof is the first derivation, whichever way
// later ones reach the same head.
constexpr const char* kNonlinearCycle = R"(
  edge(0, 1). edge(1, 2). edge(2, 0).
  tc(X, Y) :- edge(X, Y).
  tc(X, Y) :- tc(X, Z), tc(Z, Y).
  ?- tc(0, W).
)";

TEST(LineageTest, NonlinearFirstDerivationProofPinned) {
  EvaluationResult result = EvalWithLineage(kNonlinearCycle);
  ASSERT_NE(result.lineage, nullptr);
  EXPECT_EQ(result.answers.size(), 3u);
  SymbolTable symbols;
  auto query = ParseLineageQuery("tc(0, 0)", symbols);
  ASSERT_TRUE(query.ok());
  auto matches = result.lineage->Match(*query);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(
      result.lineage->FormatProof(matches.front()->id),
      "tc(0, 0)  (union #17)\n"
      "  rule#1[tc(0, _?6) :- tc(0, _?12), tc(_?12, _?6).]  (rule #15)\n"
      "    tc(0, 2)  (union #10)\n"
      "      rule#1[tc(0, _?6) :- tc(0, _?12), tc(_?12, _?6).]  (rule #9)\n"
      "        tc(0, 1)  (union #4)\n"
      "          rule#0[tc(0, _?6) :- edge(0, _?6).]  (rule #3)\n"
      "            edge(0, 1)  (edb #0)\n"
      "        tc(1, 2)  (union #8)\n"
      "          rule#0[tc(_?12, _?6) :- edge(_?12, _?6).]  (rule #7)\n"
      "            edge(1, 2)  (edb #1)\n"
      "    tc(2, 0)  (union #14)\n"
      "      rule#0[tc(_?12, _?6) :- edge(_?12, _?6).]  (rule #12)\n"
      "        edge(2, 0)  (edb #2)\n");
}

// ---------------------------------------------------------------------------
// DAG structure

void ExpectWellFormedDag(const LineageReport& report) {
  for (const LineageRecord& r : report.records) {
    if (r.kind == DeriveKind::kEdbFact) {
      // EDB facts are leaves.
      EXPECT_TRUE(r.inputs.empty()) << "edb #" << r.id << " has inputs";
      EXPECT_EQ(r.depth, 0) << "edb #" << r.id;
      continue;
    }
    ASSERT_FALSE(r.inputs.empty()) << "derived #" << r.id << " has no inputs";
    int64_t max_input_depth = -1;
    for (uint64_t input : r.inputs) {
      // Inputs strictly precede their derivation: acyclic by ids.
      EXPECT_LT(input, r.id) << "record #" << r.id;
      const LineageRecord* in = report.Find(input);
      ASSERT_NE(in, nullptr) << "record #" << r.id << " input " << input
                             << " does not resolve";
      max_input_depth = std::max(max_input_depth, in->depth);
    }
    EXPECT_EQ(r.depth, max_input_depth + 1) << "record #" << r.id;
    if (r.source_msg != kNoTupleId) {
      EXPECT_NE(report.Find(r.source_msg), nullptr)
          << "record #" << r.id << " source " << r.source_msg;
    }
  }
}

TEST(LineageTest, DagIsAcyclicWithEdbLeaves) {
  EvaluationResult tc = EvalWithLineage(kTc);
  ASSERT_NE(tc.lineage, nullptr);
  ExpectWellFormedDag(*tc.lineage);
  EXPECT_EQ(tc.lineage->edb_facts, 2u);
  EXPECT_GT(tc.lineage->derived, 0u);

  EvaluationResult sg = EvalWithLineage(kSg);
  ASSERT_NE(sg.lineage, nullptr);
  ExpectWellFormedDag(*sg.lineage);
}

TEST(LineageTest, ThreadedRunsYieldValidFirstDerivations) {
  auto unit = Parse(kSg);
  ASSERT_TRUE(unit.ok());
  const Value a = unit->database.symbols().Symbol("a");
  TestEngine engine(std::move(unit->database));
  SessionOptions options;
  options.lineage = true;
  options.scheduler = SchedulerKind::kThreaded;
  for (int round = 0; round < 3; ++round) {
    auto result = engine.Run(unit->program, {}, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(result->lineage, nullptr);
    // Which derivation wins the race varies; every answer must still
    // have exactly one valid, EDB-grounded first derivation.
    ExpectWellFormedDag(*result->lineage);
    // The goal sg(a, W) projects to the free variable: answers are
    // (x) and (y); the sg atom image is (a, <answer>).
    ASSERT_EQ(result->answers.size(), 2u);
    for (const Tuple& answer : result->answers.SortedTuples()) {
      ASSERT_EQ(answer.size(), 1u);
      std::vector<std::optional<Value>> args = {a, answer[0]};
      auto matches = result->lineage->Match("sg", args);
      ASSERT_FALSE(matches.empty());
      std::string proof = result->lineage->FormatProof(matches.front()->id);
      EXPECT_EQ(proof.find("(unknown"), std::string::npos) << proof;
      EXPECT_EQ(proof.find("(cycle"), std::string::npos) << proof;
    }
  }
}

TEST(LineageTest, MatchOrdersByDepthAndSupportsWildcards) {
  EvaluationResult result = EvalWithLineage(kTc);
  ASSERT_NE(result.lineage, nullptr);
  std::vector<std::optional<Value>> args = {Value::Int(1), std::nullopt};
  auto matches = result.lineage->Match("tc", args);
  ASSERT_EQ(matches.size(), 2u);  // tc(1,2) and tc(1,3)
  EXPECT_LE(matches[0]->depth, matches[1]->depth);
}

TEST(LineageTest, JsonCarriesSchemaMarker) {
  EvaluationResult result = EvalWithLineage(kTc);
  std::string json = result.lineage->ToJson();
  EXPECT_NE(json.find("\"schema\": \"mpqe-lineage-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"records\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"edb\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"rule\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"union\""), std::string::npos);
}

TEST(LineageTest, OffByDefaultLeavesResultAndFastPathUntouched) {
  auto unit = Parse(kTc);
  ASSERT_TRUE(unit.ok());
  TestEngine engine(std::move(unit->database));
  auto result = engine.Run(unit->program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->lineage, nullptr);
  // Without lineage the EDB relations never get ids.
  EXPECT_FALSE(engine.db().GetRelation("edge")->lineage_enabled());
  EXPECT_EQ(result->answers.size(), 2u);
}

TEST(LineageTest, FormatProofGuardsUnknownIds) {
  LineageReport report;
  EXPECT_NE(report.FormatProof(42).find("(unknown #42)"), std::string::npos);
}

}  // namespace
}  // namespace mpqe
