// Tests for the per-node query profiler (src/obs/profiler.h) and the
// EXPLAIN / EXPLAIN ANALYZE renderer (src/obs/explain.h): exact
// per-node attribution on a hand-checkable transitive closure under
// the deterministic scheduler, schedule invariance of the tuple
// totals under the threaded scheduler, the database-sized cost model,
// and the mpqe-profile-v1 JSON shape.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "datalog/parser.h"
#include "engine/engine.h"
#include "obs/explain.h"
#include "obs/profiler.h"
#include "sips/cost_model.h"
#include "test_engine.h"

namespace mpqe {
namespace {

// Chain 1 -> 2 -> 3 plus the shortcut 1 -> 3, so tc(1, 3) is derived
// twice (once via edge(1,3), once via edge(1,2) + tc(2,3)) and the
// dedup counters are exercised. Hand evaluation:
//   tc(1, ·) = {2, 3}; the goal node for tc(1, _) receives 3 tuples
//   (2 from the base rule, 1 from the recursive rule), drops 1
//   duplicate, forwards 2.
constexpr const char* kTcShortcut = R"(
  edge(1, 2). edge(2, 3). edge(1, 3).
  tc(X, Y) :- edge(X, Y).
  tc(X, Y) :- edge(X, Z), tc(Z, Y).
  ?- tc(1, W).
)";

const NodeProfile* FindNode(const ProfileReport& report, int32_t id) {
  for (const NodeProfile& n : report.nodes) {
    if (n.node == id) return &n;
  }
  return nullptr;
}

StatusOr<EvaluationResult> RunProfiled(SchedulerKind scheduler) {
  auto unit = Parse(kTcShortcut);
  if (!unit.ok()) return unit.status();
  SessionOptions options;
  options.scheduler = scheduler;
  options.profile = true;
  return TestEngine(std::move(unit->database))
      .Run(unit->program, {}, options);
}

// ---------------------------------------------------------------------------
// Exact attribution under the deterministic scheduler

TEST(ProfilerTest, DeterministicTcExactCounts) {
  auto result = RunProfiled(SchedulerKind::kDeterministic);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->answers.size(), 2u);  // tc(1, ·) = {2, 3}
  ASSERT_NE(result->profile, nullptr);
  const ProfileReport& report = *result->profile;

  // 13 graph nodes (the non-coalesced TC graph), one row each.
  ASSERT_EQ(report.nodes.size(), 13u);

  // Totals: every tuple emission and dedup drop in the run.
  EXPECT_EQ(report.total_tuples_in, 15u);
  EXPECT_EQ(report.total_tuples_out, 17u);
  EXPECT_EQ(report.total_dedup_hits, 1u);
  EXPECT_EQ(report.total_msgs_sent, report.total_msgs_delivered);

  // Node 0, top goal: one request in, the two answers out.
  const NodeProfile* goal = FindNode(report, 0);
  ASSERT_NE(goal, nullptr);
  EXPECT_EQ(goal->role, NodeRole::kGoal);
  EXPECT_EQ(goal->requests_in, 1u);
  EXPECT_EQ(goal->tuples_in, 2u);
  EXPECT_EQ(goal->tuples_out, 2u);
  EXPECT_EQ(goal->dedup_hits, 0u);

  // Node 2, goal tc(1, _): 3 arrivals, 1 duplicate dropped, 2 out.
  const NodeProfile* tc1 = FindNode(report, 2);
  ASSERT_NE(tc1, nullptr);
  EXPECT_EQ(tc1->role, NodeRole::kGoal);
  EXPECT_EQ(tc1->tuples_in, 3u);
  EXPECT_EQ(tc1->tuples_out, 2u);
  EXPECT_EQ(tc1->dedup_hits, 1u);
  EXPECT_DOUBLE_EQ(tc1->DupHitRate(), 0.25);       // 1 of 4 seen
  EXPECT_DOUBLE_EQ(tc1->Selectivity(), 2.0 / 3.0);
  EXPECT_NE(tc1->label.find("tc"), std::string::npos);

  // Node 5, the recursive rule for tc(1, _): consumes 3 tuples
  // (2 edge facts + 1 recursive answer), joins down to 1 output.
  const NodeProfile* rec = FindNode(report, 5);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->role, NodeRole::kRule);
  EXPECT_EQ(rec->tuples_in, 3u);
  EXPECT_EQ(rec->tuples_out, 1u);

  // Node 7, the recursive goal tc(Z, _): the rule #5 requests it for
  // Z in {2, 3} (edge(1, Z)), and the cycle reference #12 for Z = 3
  // (edge(2, 3) via #10). Requests travel packaged in batches, and
  // each one counts.
  const NodeProfile* recursive = FindNode(report, 7);
  ASSERT_NE(recursive, nullptr);
  EXPECT_EQ(recursive->requests_in, 3u);

  // Rule nodes carry database-sized estimates; EDB leaves do not.
  EXPECT_NE(rec->est_log10_tuples, kNoEstimate);
  EXPECT_NE(rec->est_total_cost, kNoEstimate);
  EXPECT_GE(rec->DeviationFactor(), 1.0);
  const NodeProfile* edb = FindNode(report, 4);
  ASSERT_NE(edb, nullptr);
  EXPECT_EQ(edb->role, NodeRole::kEdbLeaf);
  EXPECT_EQ(edb->est_log10_tuples, kNoEstimate);
  EXPECT_EQ(edb->DeviationFactor(), 0.0);

  // Every node did some work and was timed.
  uint64_t fire_ns = 0;
  for (const NodeProfile& n : report.nodes) {
    EXPECT_GT(n.fires, 0u) << "node " << n.node;
    EXPECT_GT(n.msgs_in, 0u) << "node " << n.node;
    fire_ns += n.fire_ns;
  }
  EXPECT_GT(fire_ns, 0u);
  EXPECT_EQ(fire_ns, report.total_fire_ns);
  EXPECT_GT(report.total_queue_wait_ns, 0u);

  // The run phase was measured.
  ASSERT_EQ(report.phase_ns.size(), static_cast<size_t>(Phase::kPhaseCount));
  EXPECT_GT(report.phase_ns[static_cast<size_t>(Phase::kRun)], 0u);
}

TEST(ProfilerTest, DeterministicTcSccProtocolCounts) {
  auto result = RunProfiled(SchedulerKind::kDeterministic);
  ASSERT_TRUE(result.ok());
  const ProfileReport& report = *result->profile;

  // One nontrivial SCC: the recursive tc goal (#7), its recursive
  // rule (#10), and the cycle reference (#12); #7 is the leader and
  // the BFST below it has two levels (7 -> 10 -> 12).
  ASSERT_EQ(report.sccs.size(), 1u);
  const SccProfile& scc = report.sccs[0];
  EXPECT_EQ(scc.members, (std::vector<int32_t>{7, 10, 12}));
  EXPECT_EQ(scc.leader, 7);
  EXPECT_EQ(scc.tree_depth, 2);
  // Deterministic scheduler: the protocol needs exactly two waves
  // (one answered negative while work remained, one confirmed), and
  // conclusion propagates to all three members.
  EXPECT_EQ(scc.waves, 2u);
  EXPECT_EQ(scc.negative_answers, 2u);
  EXPECT_EQ(scc.confirmed_answers, 2u);
  EXPECT_EQ(scc.concluded, 3u);
  EXPECT_EQ(scc.waves, result->counters.protocol_waves);
}

// ---------------------------------------------------------------------------
// Schedule invariance: tuple totals are fixpoint properties

TEST(ProfilerTest, ThreadedTotalsMatchDeterministic) {
  auto det = RunProfiled(SchedulerKind::kDeterministic);
  ASSERT_TRUE(det.ok());
  auto thr = RunProfiled(SchedulerKind::kThreaded);
  ASSERT_TRUE(thr.ok());
  EXPECT_EQ(thr->answers.SortedTuples(), det->answers.SortedTuples());
  // Message counts, firings, and protocol waves vary with the
  // schedule, but the tuple flow is the fixpoint itself: every
  // derivation happens exactly once regardless of interleaving.
  EXPECT_EQ(thr->profile->total_tuples_in, det->profile->total_tuples_in);
  EXPECT_EQ(thr->profile->total_tuples_out, det->profile->total_tuples_out);
  EXPECT_EQ(thr->profile->total_dedup_hits, det->profile->total_dedup_hits);
  // And per node as well (pid == node id in every scheduler).
  for (const NodeProfile& d : det->profile->nodes) {
    const NodeProfile* t = FindNode(*thr->profile, d.node);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->tuples_in, d.tuples_in) << "node " << d.node;
    EXPECT_EQ(t->tuples_out, d.tuples_out) << "node " << d.node;
    EXPECT_EQ(t->dedup_hits, d.dedup_hits) << "node " << d.node;
    // A consumer requests each binding once, whatever the schedule.
    EXPECT_EQ(t->requests_in, d.requests_in) << "node " << d.node;
  }
}

// ---------------------------------------------------------------------------
// Cost model sizing from the database

TEST(ProfilerTest, CostModelParamsFromDatabaseUsesEdbSizes) {
  auto unit = Parse(kTcShortcut);
  ASSERT_TRUE(unit.ok());
  CostModelParams params =
      CostModelParamsFromDatabase(unit->program, unit->database);
  PredicateId edge = unit->program.predicates().Find("edge");
  PredicateId tc = unit->program.predicates().Find("tc");
  ASSERT_GE(edge, 0);
  ASSERT_GE(tc, 0);
  // edge has 3 facts -> log10(3); tc is IDB and falls back to the
  // largest EDB size.
  EXPECT_NEAR(params.LogSizeOf(edge), 0.4771, 1e-3);
  EXPECT_NEAR(params.LogSizeOf(tc), 0.4771, 1e-3);
  EXPECT_NEAR(params.log_relation_size, 0.4771, 1e-3);
}

// ---------------------------------------------------------------------------
// JSON report and the EXPLAIN renderer

TEST(ProfilerTest, JsonReportShape) {
  auto result = RunProfiled(SchedulerKind::kDeterministic);
  ASSERT_TRUE(result.ok());
  std::string json = result->profile->ToJson();
  EXPECT_NE(json.find("\"schema\": \"mpqe-profile-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"sccs\""), std::string::npos);
  EXPECT_NE(json.find("\"dup_hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"est_log10_tuples\""), std::string::npos);
  EXPECT_NE(json.find("\"tree_depth\": 2"), std::string::npos);
}

// The drain phase (result collection after the run) ends before the
// profile is finalized, so the report carries its time like every
// other phase's.
TEST(ProfilerTest, DrainPhaseIsTimed) {
  auto result = RunProfiled(SchedulerKind::kDeterministic);
  ASSERT_TRUE(result.ok());
  const ProfileReport& report = *result->profile;
  ASSERT_EQ(report.phase_ns.size(), static_cast<size_t>(Phase::kPhaseCount));
  EXPECT_GT(report.phase_ns[static_cast<size_t>(Phase::kDrain)], 0u);
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"drain_ns\": "), std::string::npos) << json;
  EXPECT_NE(json.find("\"run_ns\": "), std::string::npos) << json;
}

TEST(ProfilerTest, ExplainPlanModes) {
  auto unit = Parse(kTcShortcut);
  ASSERT_TRUE(unit.ok());
  Engine engine(EngineOptions{.workers = 2});
  auto snapshot = engine.Attach(std::move(unit->database));
  auto plan = engine.Prepare(snapshot, unit->program);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const RuleGoalGraph& graph = (*plan)->graph();
  const CostModelParams& params = (*plan)->cost_params();
  const SymbolTable* symbols = &snapshot->db().symbols();

  // Plain EXPLAIN: adorned nodes + estimates, no actuals.
  std::string plain = ExplainPlan(graph, params, nullptr, symbols);
  EXPECT_NE(plain.find("EXPLAIN"), std::string::npos);
  EXPECT_NE(plain.find("est: ~10^"), std::string::npos);
  EXPECT_NE(plain.find("sips:"), std::string::npos);
  EXPECT_NE(plain.find("^d"), std::string::npos);  // adornments render
  EXPECT_NE(plain.find("scc 7"), std::string::npos);
  EXPECT_EQ(plain.find("act:"), std::string::npos);

  // EXPLAIN ANALYZE: actuals beside the estimates.
  SessionOptions options;
  options.profile = true;
  auto session = engine.CreateSession(*plan, options);
  ASSERT_TRUE(session.ok()) << session.status();
  auto result = (*session)->Run();
  ASSERT_TRUE(result.ok());
  ExplainOptions explain_options;
  explain_options.analyze = true;
  std::string analyzed = ExplainPlan(graph, params, result->profile.get(),
                                     symbols, explain_options);
  EXPECT_NE(analyzed.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(analyzed.find("act:"), std::string::npos);
  EXPECT_NE(analyzed.find("waves 2"), std::string::npos);
  EXPECT_NE(analyzed.find("totals:"), std::string::npos);

  // A tight deviation threshold flags at least the recursive goal,
  // whose 8.8x deviation exceeds it.
  explain_options.deviation_factor = 2.0;
  std::string flagged = ExplainPlan(graph, params, result->profile.get(),
                                    symbols, explain_options);
  EXPECT_NE(flagged.find("!! deviates"), std::string::npos);
  EXPECT_EQ(analyzed.find("!! deviates"), std::string::npos)
      << "default x10 threshold should not flag this run";
}

// ---------------------------------------------------------------------------
// Per-node rows

TEST(ProfilerTest, AggregatedMetricsDumpedPerNode) {
  auto unit = Parse(kTcShortcut);
  ASSERT_TRUE(unit.ok());
  SessionOptions options;
  options.profile = true;
  auto result =
      TestEngine(std::move(unit->database)).Run(unit->program, {}, options);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->profile, nullptr);
  const NodeProfile* node0 = FindNode(*result->profile, 0);
  const NodeProfile* node2 = FindNode(*result->profile, 2);
  const NodeProfile* node5 = FindNode(*result->profile, 5);
  ASSERT_NE(node0, nullptr);
  ASSERT_NE(node2, nullptr);
  ASSERT_NE(node5, nullptr);
  EXPECT_EQ(node0->tuples_out, 2u);
  EXPECT_EQ(node2->dedup_hits, 1u);
  EXPECT_GT(node5->fires, 0u);
}

// Profiling only assembles the report: a session that does not profile
// keeps the same counts, handler time and queue wait included, and its
// query-log entry carries the queue wait.
TEST(ProfilerTest, SameCountsProfiledOrNot) {
  auto unit = Parse(kTcShortcut);
  ASSERT_TRUE(unit.ok());
  TestEngine engine(std::move(unit->database));
  SessionOptions profiled;
  profiled.profile = true;
  auto with = engine.Run(unit->program, {}, profiled);
  ASSERT_TRUE(with.ok()) << with.status();
  auto without = engine.Run(unit->program);
  ASSERT_TRUE(without.ok()) << without.status();
  ASSERT_NE(with->profile, nullptr);
  EXPECT_EQ(without->profile, nullptr);

  // Every count but the two clocked ones, per node.
  const auto untimed = [](const ProcessCounts& c) {
    return std::make_tuple(c.sent_by_kind, c.packaged_by_kind,
                           c.segments_out, c.segment_rows_out, c.delivered,
                           c.envelopes_in, c.requests_in, c.segments_in,
                           c.segment_rows_in);
  };
  ASSERT_EQ(with->node_counters.size(), without->node_counters.size());
  for (size_t i = 0; i < with->node_counters.size(); ++i) {
    EXPECT_TRUE(untimed(with->node_counters[i].traffic) ==
                untimed(without->node_counters[i].traffic))
        << "node " << with->node_counters[i].node;
  }
  EXPECT_TRUE(untimed(with->traffic) == untimed(without->traffic));

  EXPECT_GT(with->NodeTraffic().queue_wait_ns, 0u);
  EXPECT_GT(without->NodeTraffic().queue_wait_ns, 0u);
  EXPECT_EQ(with->profile->total_queue_wait_ns,
            with->NodeTraffic().queue_wait_ns);
  const std::vector<QueryLogEntry> log =
      engine.engine().telemetry().QueryLog();
  ASSERT_EQ(log.back().query_id, engine.last_query_id());
  EXPECT_EQ(log.back().queue_wait_ns, without->NodeTraffic().queue_wait_ns);
}

// ---------------------------------------------------------------------------
// Graph-less operation (raw Network benchmarks)

// Sends one tuple request to `peer` when started (kNoProcess: none).
class OneRequest : public Process {
 public:
  explicit OneRequest(ProcessId peer) : peer_(peer) {}
  void OnStart() override {
    if (peer_ != kNoProcess) Send(peer_, MakeTupleRequest({Value::Int(1)}));
  }
  void OnMessage(const Message&) override {}

 private:
  ProcessId peer_;
};

// The counts a profile is built from need no rule/goal graph: a raw
// network keeps one record per process.
TEST(ProfilerTest, WorksWithoutAttachedGraph) {
  Network net;
  net.AddProcess(std::make_unique<OneRequest>(1));
  net.AddProcess(std::make_unique<OneRequest>(kNoProcess));
  auto run = net.RunDeterministic();
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->delivered, 1u);
  EXPECT_EQ(net.counts(0).sent(), 1u);
  EXPECT_EQ(net.counts(0).delivered, 0u);
  EXPECT_EQ(net.counts(1).sent(), 0u);
  EXPECT_EQ(net.counts(1).delivered, 1u);
  EXPECT_EQ(net.counts(1).requests_in, 1u);
  EXPECT_EQ(net.counts(0).sent() + net.counts(1).sent(),
            net.stats().PhysicalTotal());
}

}  // namespace
}  // namespace mpqe
