// E15 (ablation) — design choices DESIGN.md calls out, measured on
// fixed workloads:
//
//   * EDB hash indexes: BM_EdbIndexed times the bound transitive
//     closure whose EDB leaves probe the index Engine::Prepare builds
//     (EXPERIMENTS.md E15 records it against the scan a leaf falls
//     back to when its index is missing);
//   * the information passing strategy (greedy vs left-to-right vs
//     qual-tree vs none);
//   * batching and coalescing appear in bench_batching /
//     bench_coalescing.
//
// Answers are identical across all configurations; the counters and
// times isolate each choice's contribution.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "datalog/parser.h"
#include "prepared_workload.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

void BM_EdbIndexed(benchmark::State& state) {
  int64_t n = state.range(0);
  Database db;
  MPQE_CHECK(workload::MakeChain(db, "edge", n).ok());
  Program program;
  MPQE_CHECK(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  PreparedWorkload prepared(std::move(db), program);
  size_t answers = 0;
  for (auto _ : state) {
    answers = prepared.Run().answers.size();
  }
  state.SetLabel("indexed");
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_EdbIndexed)->Arg(128)->Arg(512);

// Strategy ablation on the paper's P1: the same query under every
// strategy; stored tuples show what each strategy's restriction buys.
void BM_StrategyAblation(benchmark::State& state) {
  const char* names[] = {"greedy", "greedy_no_e", "left_to_right",
                         "qual_tree_or_greedy", "no_sips"};
  const char* name = names[state.range(0)];
  Database db;
  MPQE_CHECK(workload::MakeChain(db, "q", 48).ok());
  MPQE_CHECK(workload::MakeChain(db, "r", 48).ok());
  Program program;
  MPQE_CHECK(ParseInto(workload::P1Program(0), program, db).ok());
  PlanOptions options;
  options.strategy = name;
  PreparedWorkload prepared(std::move(db), program, options);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  state.SetLabel(name);
  state.counters["answers"] = static_cast<double>(result.answers.size());
  state.counters["stored_tuples"] =
      static_cast<double>(result.counters.stored_tuples);
  state.counters["answer_rows"] =
      static_cast<double>(result.message_stats.segment_rows);
}
BENCHMARK(BM_StrategyAblation)->DenseRange(0, 4);

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
