// E10 — §2.2's class "e": a variable whose value is never used is
// marked existential and its values are not transmitted — "goal
// p(X^f, Y^e) can be satisfied by producing one tuple for each unique
// X even though there may be many Y values that go with a given X".
// Sweeps the fan-out (Y values per X) and compares tuple traffic with
// the e designation (greedy) against the same order with e disabled
// (greedy_no_e).

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "prepared_workload.h"

namespace mpqe {
namespace {

std::string FanOutProgram(int64_t xs, int64_t fan) {
  std::string text;
  for (int64_t x = 0; x < xs; ++x) {
    for (int64_t y = 0; y < fan; ++y) {
      text += StrCat("r(", x, ", ", x * fan + y + 1000, ").\n");
    }
  }
  text += "p(X) :- r(X, Y).\n?- p(W).\n";
  return text;
}

void RunFanOut(benchmark::State& state, const char* strategy) {
  int64_t fan = state.range(0);
  const int64_t xs = 16;
  auto unit = Parse(FanOutProgram(xs, fan));
  MPQE_CHECK(unit.ok());
  PlanOptions options;
  options.strategy = strategy;
  PreparedWorkload prepared(std::move(unit->database), unit->program,
                            options);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  MPQE_CHECK(result.answers.size() == static_cast<size_t>(xs));
  state.counters["fan_out"] = static_cast<double>(fan);
  state.counters["answer_rows"] =
      static_cast<double>(result.message_stats.segment_rows);
  state.counters["facts"] = static_cast<double>(xs * fan);
}

void BM_WithExistential(benchmark::State& state) {
  RunFanOut(state, "greedy");
}
BENCHMARK(BM_WithExistential)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_WithoutExistential(benchmark::State& state) {
  RunFanOut(state, "greedy_no_e");
}
BENCHMARK(BM_WithoutExistential)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

// e-positions inside a join pipeline: s(X) :- r(X, Y), t(X).
// Y is existential; with e disabled every (X, Y) pair flows into the
// rule node's temporary relation.
void RunPipelined(benchmark::State& state, const char* strategy) {
  int64_t fan = state.range(0);
  std::string text;
  for (int64_t x = 0; x < 8; ++x) {
    text += StrCat("t(", x, ").\n");
    for (int64_t y = 0; y < fan; ++y) {
      text += StrCat("r(", x, ", ", y, ").\n");
    }
  }
  text += "s(X) :- r(X, Y), t(X).\n?- s(W).\n";
  auto unit = Parse(text);
  MPQE_CHECK(unit.ok());
  PlanOptions options;
  options.strategy = strategy;
  PreparedWorkload prepared(std::move(unit->database), unit->program,
                            options);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  state.counters["answer_rows"] =
      static_cast<double>(result.message_stats.segment_rows);
  state.counters["contexts"] = static_cast<double>(result.counters.contexts);
}

void BM_PipelineWithExistential(benchmark::State& state) {
  RunPipelined(state, "greedy");
}
BENCHMARK(BM_PipelineWithExistential)->Arg(8)->Arg(64)->Arg(256);

void BM_PipelineWithoutExistential(benchmark::State& state) {
  RunPipelined(state, "greedy_no_e");
}
BENCHMARK(BM_PipelineWithoutExistential)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
