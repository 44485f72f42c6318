// E4 — §1.2/§3.1: sideways information passing ("class d functions as
// a semi-join operand") restricts the computation to relevant tuples.
// A bound transitive-closure query tc(k, W) is evaluated four ways:
//
//   greedy      — the paper's method (d bindings flow sideways);
//   no_sips     — same message framework, intermediate relations
//                 computed in full (McKay-Shapiro-style, [MS81]);
//   semi-naive  — bottom-up least fixpoint (whole minimum model);
//   naive       — brute force bottom-up.
//
// The shape to reproduce: greedy's derived-tuple count scales with the
// relevant region (suffix of the chain / subtree), the other three
// with the whole relation; greedy wins by a growing factor.

#include <benchmark/benchmark.h>

#include "baseline/bottom_up.h"
#include "baseline/magic_sets.h"
#include "common/logging.h"
#include "datalog/parser.h"
#include "prepared_workload.h"
#include "sips/strategy.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

struct Workload {
  Program program;
  Database db;
};

Workload ChainTc(int64_t n) {
  Workload w;
  MPQE_CHECK(workload::MakeChain(w.db, "edge", n).ok());
  // Bind the query to the midpoint: half the chain is irrelevant.
  MPQE_CHECK(
      ParseInto(workload::LinearTcProgram(n / 2), w.program, w.db).ok());
  return w;
}

// The engine on ChainTc(n), prepared once outside the timed loop. (The
// baselines below still build their workload inside the timed loop.)
void RunEngine(benchmark::State& state, const char* strategy) {
  Workload w = ChainTc(state.range(0));
  PlanOptions options;
  options.strategy = strategy;
  PreparedWorkload prepared(std::move(w.db), w.program, options);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  state.counters["answers"] = static_cast<double>(result.answers.size());
  state.counters["stored_tuples"] =
      static_cast<double>(result.counters.stored_tuples);
  state.counters["answer_rows"] =
      static_cast<double>(result.message_stats.segment_rows);
}

void BM_EngineGreedy(benchmark::State& state) { RunEngine(state, "greedy"); }
BENCHMARK(BM_EngineGreedy)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_EngineNoSips(benchmark::State& state) { RunEngine(state, "no_sips"); }
BENCHMARK(BM_EngineNoSips)->Arg(64)->Arg(128)->Arg(256);

void BM_SemiNaive(benchmark::State& state) {
  int64_t n = state.range(0);
  BottomUpResult result;
  for (auto _ : state) {
    Workload w = ChainTc(n);
    auto r = SemiNaiveBottomUp(w.program, w.db);
    MPQE_CHECK(r.ok());
    result = *std::move(r);
  }
  state.counters["answers"] = static_cast<double>(result.goal.size());
  state.counters["derived_tuples"] = static_cast<double>(result.total_derived);
}
BENCHMARK(BM_SemiNaive)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Magic sets: the compiled bottom-up counterpart of sideways
// information passing (same binding propagation, no messages).
void BM_MagicSets(benchmark::State& state) {
  int64_t n = state.range(0);
  auto strategy = MakeGreedyStrategy();
  MagicSetsResult result;
  for (auto _ : state) {
    Workload w = ChainTc(n);
    auto r = MagicSetsEvaluate(w.program, w.db, *strategy);
    MPQE_CHECK(r.ok()) << r.status();
    result = *std::move(r);
  }
  state.counters["answers"] =
      static_cast<double>(result.evaluation.goal.size());
  state.counters["derived_tuples"] =
      static_cast<double>(result.evaluation.total_derived);
  state.counters["magic_rules"] = static_cast<double>(result.magic_rules);
}
BENCHMARK(BM_MagicSets)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_Naive(benchmark::State& state) {
  int64_t n = state.range(0);
  BottomUpResult result;
  for (auto _ : state) {
    Workload w = ChainTc(n);
    auto r = NaiveBottomUp(w.program, w.db);
    MPQE_CHECK(r.ok());
    result = *std::move(r);
  }
  state.counters["answers"] = static_cast<double>(result.goal.size());
  state.counters["derived_tuples"] = static_cast<double>(result.total_derived);
}
BENCHMARK(BM_Naive)->Arg(64)->Arg(128);

// Tree-shaped data, bound to one subtree: the relevant region is a
// O(log)-deep subtree; the full relation is the whole closure.
void BM_TreeBoundQuery(benchmark::State& state) {
  const char* strategies[] = {"greedy", "no_sips"};
  const char* strategy = strategies[state.range(1)];
  int64_t n = state.range(0);
  Database db;
  MPQE_CHECK(workload::MakeBinaryTree(db, "edge", n).ok());
  Program program;
  // Query from an internal node one level below the root.
  MPQE_CHECK(ParseInto(workload::LinearTcProgram(1), program, db).ok());
  PlanOptions options;
  options.strategy = strategy;
  PreparedWorkload prepared(std::move(db), program, options);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  state.SetLabel(strategy);
  state.counters["answers"] = static_cast<double>(result.answers.size());
  state.counters["stored_tuples"] =
      static_cast<double>(result.counters.stored_tuples);
}
BENCHMARK(BM_TreeBoundQuery)
    ->ArgsProduct({{63, 255, 1023}, {0, 1}});

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
