// E13 (extension) — §2.2 end + footnote 4: node coalescing. "For
// single processor computation it is probably desirable to coalesce
// such nodes ... for distributed or parallel computation, combining
// nodes may well be counter-productive." Measures both sides of that
// trade-off:
//   * graph size: coalescing turns the worst-case exponential
//     expansion into one linear in the number of binding patterns;
//   * shared work: identical subqueries issued from different rules
//     are computed once;
//   * protocol cost: the conclusion must now be propagated around the
//     strong component (extra scc_concluded / work_notice traffic).

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "graph/rule_goal_graph.h"
#include "prepared_workload.h"
#include "sips/strategy.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

std::string LayeredProgram(int layers) {
  std::string text =
      "t0(X, Y) :- edge(X, Y).\nt0(X, Y) :- edge(X, Z), t0(Z, Y).\n";
  for (int i = 1; i <= layers; ++i) {
    text += StrCat("t", i, "(X, Y) :- t", i - 1, "(X, Y).\n");
    text += StrCat("t", i, "(X, Y) :- t", i - 1, "(X, Z), t", i, "(Z, Y).\n");
  }
  text += StrCat("?- t", layers, "(0, W).\n");
  return text;
}

void BM_GraphSizeLayered(benchmark::State& state) {
  bool coalesce = state.range(1) == 1;
  int layers = static_cast<int>(state.range(0));
  auto unit = Parse(LayeredProgram(layers));
  MPQE_CHECK(unit.ok());
  MPQE_CHECK(unit->program.Validate(&unit->database).ok());
  auto strategy = MakeGreedyStrategy();
  GraphBuildOptions options;
  options.coalesce_nodes = coalesce;
  options.max_nodes = 2000000;

  size_t nodes = 0;
  for (auto _ : state) {
    auto graph = RuleGoalGraph::Build(unit->program, *strategy, options);
    MPQE_CHECK(graph.ok()) << graph.status();
    nodes = (*graph)->size();
    benchmark::DoNotOptimize(graph);
  }
  state.SetLabel(coalesce ? "coalesced" : "distributed");
  state.counters["layers"] = layers;
  state.counters["graph_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_GraphSizeLayered)
    ->ArgsProduct({{2, 4, 8}, {0, 1}})
    ->Args({16, 1});  // 16 layers only fit when coalesced

// Shared subqueries: k query rules all touch the same bound tc.
void BM_SharedSubqueries(benchmark::State& state) {
  bool coalesce = state.range(1) == 1;
  int consumers = static_cast<int>(state.range(0));
  std::string text =
      "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- edge(X, Z), tc(Z, Y).\n";
  for (int i = 0; i < consumers; ++i) {
    text += StrCat("goal(X) :- tc(", i, ", X).\n");
  }
  Database db;
  MPQE_CHECK(workload::MakeChain(db, "edge", 64).ok());
  Program program;
  MPQE_CHECK(ParseInto(text, program, db).ok());
  PlanOptions options;
  options.graph_options.coalesce_nodes = coalesce;
  PreparedWorkload prepared(std::move(db), program, options);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  state.SetLabel(coalesce ? "coalesced" : "distributed");
  state.counters["consumers"] = consumers;
  state.counters["stored_tuples"] =
      static_cast<double>(result.counters.stored_tuples);
  state.counters["answer_rows"] =
      static_cast<double>(result.message_stats.segment_rows);
  state.counters["graph_nodes"] =
      static_cast<double>(result.graph_stats.node_count);
}
BENCHMARK(BM_SharedSubqueries)->ArgsProduct({{2, 4, 8}, {0, 1}});

// Protocol overhead of the footnote-4 extension on a plain recursive
// query (same workload both modes).
void BM_ProtocolOverhead(benchmark::State& state) {
  bool coalesce = state.range(1) == 1;
  int64_t n = state.range(0);
  Database db;
  MPQE_CHECK(workload::MakeCycle(db, "edge", n).ok());
  Program program;
  MPQE_CHECK(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  PlanOptions options;
  options.graph_options.coalesce_nodes = coalesce;
  PreparedWorkload prepared(std::move(db), program, options);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  state.SetLabel(coalesce ? "coalesced" : "distributed");
  state.counters["protocol_msgs"] =
      static_cast<double>(result.message_stats.ProtocolTotal());
  state.counters["concluded_msgs"] = static_cast<double>(
      result.message_stats.Count(MessageKind::kSccConcluded));
  state.counters["notices"] = static_cast<double>(
      result.message_stats.Count(MessageKind::kWorkNotice));
  state.counters["computation_msgs"] =
      static_cast<double>(result.message_stats.ComputationTotal());
}
BENCHMARK(BM_ProtocolOverhead)->ArgsProduct({{32, 128}, {0, 1}});

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
