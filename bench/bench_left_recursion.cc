// E9 — §1.2: "the method is certain to terminate, avoiding the
// well-known 'left recursion' problems of strictly top-down methods",
// and it "handles nonlinear recursion". Compares the engine against
// the SLD baseline on left-recursive and cyclic-data workloads, and
// linear vs nonlinear transitive closure on the engine.

#include <benchmark/benchmark.h>

#include "baseline/tabled_top_down.h"
#include "baseline/top_down_sld.h"
#include "common/logging.h"
#include "datalog/parser.h"
#include "prepared_workload.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

void BM_EngineLeftRecursiveTc(benchmark::State& state) {
  int64_t n = state.range(0);
  Database db;
  MPQE_CHECK(workload::MakeChain(db, "edge", n).ok());
  Program program;
  MPQE_CHECK(
      ParseInto(workload::LeftRecursiveTcProgram(0), program, db).ok());
  PreparedWorkload prepared(std::move(db), program);
  size_t answers = 0;
  for (auto _ : state) {
    EvaluationResult result = prepared.Run();
    MPQE_CHECK(result.ended_by_protocol);
    answers = result.answers.size();
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["terminates"] = 1;
}
BENCHMARK(BM_EngineLeftRecursiveTc)->Arg(32)->Arg(128)->Arg(512);

void BM_SldLeftRecursiveTc(benchmark::State& state) {
  int64_t n = state.range(0);
  SldResult result;
  for (auto _ : state) {
    Database db;
    MPQE_CHECK(workload::MakeChain(db, "edge", n).ok());
    Program program;
    MPQE_CHECK(
        ParseInto(workload::LeftRecursiveTcProgram(0), program, db).ok());
    SldOptions options;
    options.max_depth = 200;
    options.max_steps = 500000;
    auto r = TopDownSld(program, db, options);
    MPQE_CHECK(r.ok());
    result = *std::move(r);
  }
  // SLD burns its whole budget and still cannot answer completely.
  state.counters["complete"] = result.complete() ? 1 : 0;
  state.counters["steps_burned"] = static_cast<double>(result.steps);
  state.counters["answers_found"] = static_cast<double>(result.answers.size());
}
BENCHMARK(BM_SldLeftRecursiveTc)->Arg(32)->Arg(128);

// Tabled top-down (OLDT/QSQ-style, cf. the paper's [Vie85] citation):
// memo tables fix SLD's divergence while staying goal-directed.
void BM_TabledLeftRecursiveTc(benchmark::State& state) {
  int64_t n = state.range(0);
  TabledResult result;
  for (auto _ : state) {
    Database db;
    MPQE_CHECK(workload::MakeChain(db, "edge", n).ok());
    Program program;
    MPQE_CHECK(
        ParseInto(workload::LeftRecursiveTcProgram(0), program, db).ok());
    auto r = TabledTopDown(program, db);
    MPQE_CHECK(r.ok());
    result = *std::move(r);
  }
  state.counters["answers"] = static_cast<double>(result.answers.size());
  state.counters["tables"] = static_cast<double>(result.tables);
  state.counters["derived"] = static_cast<double>(result.derived);
  state.counters["terminates"] = 1;
}
BENCHMARK(BM_TabledLeftRecursiveTc)->Arg(32)->Arg(128)->Arg(512);

void BM_SldCyclicData(benchmark::State& state) {
  int64_t n = state.range(0);
  SldResult result;
  for (auto _ : state) {
    Database db;
    MPQE_CHECK(workload::MakeCycle(db, "edge", n).ok());
    Program program;
    MPQE_CHECK(ParseInto(workload::LinearTcProgram(0), program, db).ok());
    SldOptions options;
    options.max_depth = 200;
    options.max_steps = 500000;
    auto r = TopDownSld(program, db, options);
    MPQE_CHECK(r.ok());
    result = *std::move(r);
  }
  state.counters["complete"] = result.complete() ? 1 : 0;
  state.counters["steps_burned"] = static_cast<double>(result.steps);
}
BENCHMARK(BM_SldCyclicData)->Arg(8)->Arg(16);

void BM_EngineCyclicData(benchmark::State& state) {
  int64_t n = state.range(0);
  Database db;
  MPQE_CHECK(workload::MakeCycle(db, "edge", n).ok());
  Program program;
  MPQE_CHECK(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  PreparedWorkload prepared(std::move(db), program);
  size_t answers = 0;
  for (auto _ : state) {
    answers = prepared.Run().answers.size();
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["terminates"] = 1;
}
BENCHMARK(BM_EngineCyclicData)->Arg(8)->Arg(16)->Arg(64)->Arg(256);

// Nonlinear recursion ("frequently arises in divide-and-conquer
// algorithms"): tc(X,Y) :- tc(X,Z), tc(Z,Y) — cycles of messages
// through two recursive subgoals of the same rule.
void BM_EngineNonlinearTc(benchmark::State& state) {
  int64_t n = state.range(0);
  Database db;
  MPQE_CHECK(workload::MakeChain(db, "edge", n).ok());
  Program program;
  MPQE_CHECK(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
  PreparedWorkload prepared(std::move(db), program);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  state.counters["answers"] = static_cast<double>(result.answers.size());
  state.counters["answer_rows"] =
      static_cast<double>(result.message_stats.segment_rows);
}
BENCHMARK(BM_EngineNonlinearTc)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_EngineLinearTcReference(benchmark::State& state) {
  int64_t n = state.range(0);
  Database db;
  MPQE_CHECK(workload::MakeChain(db, "edge", n).ok());
  Program program;
  MPQE_CHECK(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  PreparedWorkload prepared(std::move(db), program);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  state.counters["answers"] = static_cast<double>(result.answers.size());
  state.counters["answer_rows"] =
      static_cast<double>(result.message_stats.segment_rows);
}
BENCHMARK(BM_EngineLinearTcReference)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
