// E11 — §1.2/§3.1: "Deletion of duplicates in cycles ensures that
// nodes become idle when the computation is complete" and "Detection
// of duplicates is necessary to allow loops to terminate". Measures
// the duplicate-drop rate as graph density grows (denser graphs derive
// the same tuples along more paths) and the fraction of arrivals that
// dedup absorbs.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/random.h"
#include "datalog/parser.h"
#include "prepared_workload.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

void BM_DedupVsDensity(benchmark::State& state) {
  int64_t degree = state.range(0);
  const int64_t n = 48;
  Database db;
  Rng rng(11);
  MPQE_CHECK(workload::MakeRandomGraph(db, "edge", n, degree, rng).ok());
  Program program;
  MPQE_CHECK(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  PreparedWorkload prepared(std::move(db), program);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  uint64_t stored = result.counters.stored_tuples;
  uint64_t dropped = result.counters.duplicate_drops;
  state.counters["out_degree"] = static_cast<double>(degree);
  state.counters["stored"] = static_cast<double>(stored);
  state.counters["dup_dropped"] = static_cast<double>(dropped);
  state.counters["drop_share_pct"] =
      100.0 * static_cast<double>(dropped) /
      static_cast<double>(stored + dropped);
}
BENCHMARK(BM_DedupVsDensity)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// A cycle graph makes every tc tuple re-derivable forever; dedup is
// the only reason the fixpoint is reached. Scaling check: messages per
// derived tuple stay bounded.
void BM_DedupOnCycles(benchmark::State& state) {
  int64_t n = state.range(0);
  Database db;
  MPQE_CHECK(workload::MakeCycle(db, "edge", n).ok());
  Program program;
  MPQE_CHECK(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  PreparedWorkload prepared(std::move(db), program);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  state.counters["answers"] = static_cast<double>(result.answers.size());
  state.counters["dup_dropped"] =
      static_cast<double>(result.counters.duplicate_drops);
  state.counters["msgs_per_answer"] =
      static_cast<double>(result.message_stats.ComputationTotal()) /
      static_cast<double>(result.answers.size());
}
BENCHMARK(BM_DedupOnCycles)->Arg(8)->Arg(32)->Arg(128)->Arg(256);

// Nonlinear recursion multiplies derivation paths (each tc tuple can
// be assembled from many (Z) splits), so dedup absorbs much more.
void BM_DedupNonlinearVsLinear(benchmark::State& state) {
  bool nonlinear = state.range(1) == 1;
  int64_t n = state.range(0);
  Database db;
  MPQE_CHECK(workload::MakeChain(db, "edge", n).ok());
  Program program;
  std::string text = nonlinear ? workload::NonlinearTcProgram(0)
                               : workload::LinearTcProgram(0);
  MPQE_CHECK(ParseInto(text, program, db).ok());
  PreparedWorkload prepared(std::move(db), program);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  state.SetLabel(nonlinear ? "nonlinear" : "linear");
  state.counters["dup_dropped"] =
      static_cast<double>(result.counters.duplicate_drops);
  state.counters["stored"] =
      static_cast<double>(result.counters.stored_tuples);
}
BENCHMARK(BM_DedupNonlinearVsLinear)
    ->ArgsProduct({{32, 64}, {0, 1}});

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
