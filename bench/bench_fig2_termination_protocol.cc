// E3 — Fig. 2 / Theorem 3.1: cost and behavior of the asynchronous
// distributed termination protocol. Measures protocol traffic
// (end_request / end_negative / end_confirmed) against computation
// traffic as the recursive workload scales, under deterministic and
// random schedules.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "prepared_workload.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

// Linear TC over an n-cycle, prepared once.
PreparedWorkload CycleTc(int64_t n) {
  Database db;
  MPQE_CHECK(workload::MakeCycle(db, "edge", n).ok());
  Program program;
  MPQE_CHECK(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  return PreparedWorkload(std::move(db), program);
}

EvaluationResult RunCycleTc(PreparedWorkload& prepared,
                            SchedulerKind scheduler, uint64_t seed) {
  SessionOptions options;
  options.scheduler = scheduler;
  options.seed = seed;
  EvaluationResult result = prepared.Run(options);
  MPQE_CHECK(result.ended_by_protocol);
  return result;
}

void BM_ProtocolDeterministic(benchmark::State& state) {
  PreparedWorkload prepared = CycleTc(state.range(0));
  EvaluationResult result;
  for (auto _ : state) {
    result = RunCycleTc(prepared, SchedulerKind::kDeterministic, 0);
    benchmark::DoNotOptimize(result);
  }
  const MessageStats& s = result.message_stats;
  state.counters["computation_msgs"] =
      static_cast<double>(s.ComputationTotal());
  state.counters["protocol_msgs"] = static_cast<double>(s.ProtocolTotal());
  state.counters["waves"] = static_cast<double>(result.counters.protocol_waves);
  state.counters["protocol_share_pct"] =
      100.0 * static_cast<double>(s.ProtocolTotal()) /
      static_cast<double>(s.Total());
}
BENCHMARK(BM_ProtocolDeterministic)->Arg(16)->Arg(64)->Arg(256)->Arg(512);

void BM_ProtocolRandomSchedule(benchmark::State& state) {
  PreparedWorkload prepared = CycleTc(state.range(0));
  uint64_t seed = 1;
  EvaluationResult result;
  for (auto _ : state) {
    result = RunCycleTc(prepared, SchedulerKind::kRandom, seed++);
    benchmark::DoNotOptimize(result);
  }
  const MessageStats& s = result.message_stats;
  state.counters["computation_msgs"] =
      static_cast<double>(s.ComputationTotal());
  state.counters["protocol_msgs"] = static_cast<double>(s.ProtocolTotal());
  state.counters["waves"] = static_cast<double>(result.counters.protocol_waves);
}
BENCHMARK(BM_ProtocolRandomSchedule)->Arg(16)->Arg(64)->Arg(256);

// Deeper SCC nesting: layered transitive closures produce one
// nontrivial SCC per layer, each running its own protocol instance.
void BM_ProtocolNestedSccs(benchmark::State& state) {
  int64_t layers = state.range(0);
  std::string text = "t0(X, Y) :- edge(X, Y).\nt0(X, Y) :- edge(X, Z), t0(Z, Y).\n";
  for (int64_t i = 1; i <= layers; ++i) {
    text += StrCat("t", i, "(X, Y) :- t", i - 1, "(X, Y).\n");
    text += StrCat("t", i, "(X, Y) :- t", i - 1, "(X, Z), t", i, "(Z, Y).\n");
  }
  text += StrCat("?- t", layers, "(0, W).\n");

  Database db;
  MPQE_CHECK(workload::MakeChain(db, "edge", 12).ok());
  Program program;
  MPQE_CHECK(ParseInto(text, program, db).ok());
  PreparedWorkload prepared(std::move(db), program);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
    benchmark::DoNotOptimize(result);
  }
  state.counters["sccs"] =
      static_cast<double>(result.graph_stats.nontrivial_sccs);
  state.counters["waves"] = static_cast<double>(result.counters.protocol_waves);
  state.counters["protocol_msgs"] =
      static_cast<double>(result.message_stats.ProtocolTotal());
}
BENCHMARK(BM_ProtocolNestedSccs)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
