// E14 (extension) — footnote 2: "package a set of related tuple
// requests ... the retrieval can be done in one scan". Packaging is
// always on: at the end of each mailbox run a node sends what it
// emitted as one envelope per destination. This reports the logical
// messages, the physical messages (the quantity the paper's
// "communication is expensive" model charges for) and their ratio.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "prepared_workload.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

void ReportPackaging(benchmark::State& state, const MessageStats& s) {
  const double logical =
      static_cast<double>(s.Total() - s.Count(MessageKind::kBatch));
  const double physical = static_cast<double>(s.PhysicalTotal());
  state.counters["logical_msgs"] = logical;
  state.counters["physical_msgs"] = physical;
  state.counters["envelopes"] =
      static_cast<double>(s.Count(MessageKind::kBatch));
  state.counters["saving_factor"] = logical / physical;
}

void RunTc(benchmark::State& state, const std::string& shape) {
  int64_t n = state.range(0);
  Database db;
  if (shape == "tree") {
    MPQE_CHECK(workload::MakeBinaryTree(db, "edge", n).ok());
  } else {
    Rng rng(5);
    MPQE_CHECK(workload::MakeRandomGraph(db, "edge", n, 2, rng).ok());
  }
  Program program;
  MPQE_CHECK(ParseInto(workload::LinearTcProgram(0), program, db).ok());
  PreparedWorkload prepared(std::move(db), program);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  ReportPackaging(state, result.message_stats);
}

void BM_TreeTc(benchmark::State& state) { RunTc(state, "tree"); }
BENCHMARK(BM_TreeTc)->Arg(255)->Arg(1023);

void BM_RandomTc(benchmark::State& state) { RunTc(state, "random"); }
BENCHMARK(BM_RandomTc)->Arg(64)->Arg(128);

// Packaging composes with coalescing: the combination is the
// "single-processor, packaged" configuration.
void BM_CombinedExtensions(benchmark::State& state) {
  bool coalesce = state.range(0) == 1;
  Database db;
  MPQE_CHECK(workload::MakeBinaryTree(db, "edge", 255).ok());
  Program program;
  MPQE_CHECK(ParseInto(workload::NonlinearTcProgram(0), program, db).ok());
  PlanOptions options;
  options.graph_options.coalesce_nodes = coalesce;
  PreparedWorkload prepared(std::move(db), program, options);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  state.SetLabel(coalesce ? "coalesced" : "distributed");
  ReportPackaging(state, result.message_stats);
  state.counters["answers"] = static_cast<double>(result.answers.size());
}
BENCHMARK(BM_CombinedExtensions)->DenseRange(0, 1);

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
