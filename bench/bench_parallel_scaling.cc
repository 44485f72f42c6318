// E8 — §1.2: "this formulation is amenable to parallel computation".
// Evaluates a workload with several independent recursive components
// on the threaded scheduler with 1..8 workers (UseRealTime: worker
// threads don't count toward the main thread's CPU clock) against the
// single-threaded deterministic scheduler, which runs first. Setup
// (EDB, parse, plan compilation) happens once, outside the timed
// region: each iteration is one CreateSession + Run of the prepared
// plan.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "prepared_workload.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

constexpr int kComponents = 8;
constexpr int64_t kNodes = 200;

// k separate transitive closures over separate EDB graphs, unioned by
// the query — several strong components with concurrent work.
PreparedWorkload MakeFixture() {
  Database db;
  Rng rng(7);
  std::string text;
  for (int i = 0; i < kComponents; ++i) {
    MPQE_CHECK(
        workload::MakeRandomGraph(db, StrCat("edge", i), kNodes, 2, rng).ok());
    text += StrCat("t", i, "(X, Y) :- edge", i, "(X, Y).\n");
    text += StrCat("t", i, "(X, Y) :- edge", i, "(X, Z), t", i, "(Z, Y).\n");
    text += StrCat("goal(X) :- t", i, "(0, X).\n");
  }
  Program program;
  MPQE_CHECK(ParseInto(text, program, db).ok());
  return PreparedWorkload(std::move(db), program);
}

PreparedWorkload& GetFixture() {
  static PreparedWorkload fixture = MakeFixture();
  return fixture;
}

// Registered first, so it runs on a fresh heap rather than on the one
// the threaded rows leave behind.
void BM_DeterministicReference(benchmark::State& state) {
  PreparedWorkload& f = GetFixture();
  size_t answers = 0;
  for (auto _ : state) {
    EvaluationResult result = f.Run();
    answers = result.answers.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_DeterministicReference)->Unit(benchmark::kMillisecond);

void BM_ThreadedWorkers(benchmark::State& state) {
  PreparedWorkload& f = GetFixture();
  int workers = static_cast<int>(state.range(0));
  SessionOptions options;
  options.scheduler = SchedulerKind::kThreaded;
  options.workers = workers;
  size_t answers = 0;
  for (auto _ : state) {
    EvaluationResult result = f.Run(options);
    MPQE_CHECK(result.ended_by_protocol);
    answers = result.answers.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["workers"] = workers;
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_ThreadedWorkers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Message volume does not depend on the scheduler: the parallel run
// does the same logical work.
void BM_ThreadedMessageParity(benchmark::State& state) {
  PreparedWorkload& f = GetFixture();
  SessionOptions thr;
  thr.scheduler = SchedulerKind::kThreaded;
  thr.workers = 4;
  uint64_t det_msgs = 0, thr_msgs = 0;
  for (auto _ : state) {
    EvaluationResult r1 = f.Run();
    det_msgs = r1.message_stats.ComputationTotal();
    EvaluationResult r2 = f.Run(thr);
    thr_msgs = r2.message_stats.ComputationTotal();
    MPQE_CHECK(r1.answers == r2.answers);
    benchmark::DoNotOptimize(r2);
  }
  state.counters["det_msgs"] = static_cast<double>(det_msgs);
  state.counters["thr_msgs"] = static_cast<double>(thr_msgs);
  state.counters["ratio"] =
      static_cast<double>(thr_msgs) / static_cast<double>(det_msgs);
}
BENCHMARK(BM_ThreadedMessageParity)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
