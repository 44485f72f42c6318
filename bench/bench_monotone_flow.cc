// E5 — Example 4.1 / Figs. 3–4: the monotone flow property and its
// efficiency consequence. Rule R2's evaluation hypergraph is acyclic
// (its b and c branches are independent and safe to evaluate in
// parallel); rule R3's is cyclic through {Y, V, W}, and evaluating its
// b and c branches independently ("in parallel") produces an
// intermediate join that is far larger than the final result — even
// though a W binding would have made either order cheap sequentially.
//
// Three measurements per scale m:
//   * parallel-style two-phase evaluation of R3 with relational
//     operators (semijoin reduce, then join b'⋈c' on W): the
//     intermediate blows up to ~m^2/K;
//   * the engine's sequential greedy evaluation of R3 (W is passed
//     sideways as class d): contexts stay O(m);
//   * the engine on R2 (monotone flow): contexts stay O(m) too.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "prepared_workload.h"
#include "relational/operators.h"

namespace mpqe {
namespace {

constexpr int64_t kWBuckets = 4;  // join selectivity knob K

// EDB for R3: a(0,y,y); b(y, y%K, y); c(v, v%K, v); d(t); e(u,u).
// Pairwise consistent: every b tuple joins some c tuple on W and vice
// versa; the global join is still only m tuples because a forces Y=V.
std::string R3Facts(int64_t m) {
  std::string text;
  for (int64_t y = 0; y < m; ++y) {
    text += StrCat("a(0, ", y, ", ", y, ").\n");
    text += StrCat("b(", y, ", ", y % kWBuckets, ", ", y, ").\n");
    text += StrCat("c(", y, ", ", y % kWBuckets, ", ", y, ").\n");
    text += StrCat("d(", y, ").\n");
    text += StrCat("e(", y, ", ", y, ").\n");
  }
  return text;
}

std::string R2Facts(int64_t m) {
  std::string text;
  for (int64_t y = 0; y < m; ++y) {
    text += StrCat("a(0, ", y, ", ", y, ").\n");
    text += StrCat("b(", y, ", ", y, ").\n");
    text += StrCat("c(", y, ", ", y, ").\n");
    text += StrCat("d(", y, ").\n");
    text += StrCat("e(", y, ", ", y, ").\n");
  }
  return text;
}

constexpr const char* kR3Rule =
    "p(X, Z) :- a(X, Y, V), b(Y, W, U), c(V, W, T), d(T), e(U, Z).\n"
    "?- p(0, Z).\n";
constexpr const char* kR2Rule =
    "p(X, Z) :- a(X, Y, V), b(Y, U), c(V, T), d(T), e(U, Z).\n"
    "?- p(0, Z).\n";

// "Parallel" evaluation of R3's b and c branches: reduce each by its
// own flow from a, then join them on W without a sideways W binding.
void BM_R3ParallelBranches(benchmark::State& state) {
  int64_t m = state.range(0);
  auto unit = Parse(StrCat(R3Facts(m), kR3Rule));
  MPQE_CHECK(unit.ok());
  const Relation& a = *unit->database.GetRelation("a");
  const Relation& b = *unit->database.GetRelation("b");
  const Relation& c = *unit->database.GetRelation("c");

  size_t intermediate = 0, reduced_b = 0, reduced_c = 0, joined = 0;
  for (auto _ : state) {
    // Flow from a: Y values restrict b, V values restrict c — in
    // parallel, neither sees a W binding.
    Relation b_reduced = SemiJoin(b, a, {{0, 1}});  // b.Y = a.Y
    Relation c_reduced = SemiJoin(c, a, {{0, 2}});  // c.V = a.V
    Relation bc = Join(b_reduced, c_reduced, {{1, 1}});  // on W
    reduced_b = b_reduced.size();
    reduced_c = c_reduced.size();
    joined = bc.size();
    intermediate = std::max(joined, std::max(reduced_b, reduced_c));
    benchmark::DoNotOptimize(bc);
  }
  state.counters["reduced_b"] = static_cast<double>(reduced_b);
  state.counters["reduced_c"] = static_cast<double>(reduced_c);
  state.counters["bc_join"] = static_cast<double>(joined);
  state.counters["final_answers"] = static_cast<double>(m);
  state.counters["blowup_factor"] =
      static_cast<double>(joined) / static_cast<double>(m);
  (void)intermediate;
}
BENCHMARK(BM_R3ParallelBranches)->Arg(64)->Arg(256)->Arg(1024);

void RunEngine(benchmark::State& state, const std::string& facts,
               const char* rule, const PlanOptions& options = {}) {
  auto unit = Parse(StrCat(facts, rule));
  MPQE_CHECK(unit.ok());
  PreparedWorkload prepared(std::move(unit->database), unit->program,
                            options);
  EvaluationResult result;
  for (auto _ : state) {
    result = prepared.Run();
  }
  state.counters["answers"] = static_cast<double>(result.answers.size());
  state.counters["contexts"] = static_cast<double>(result.counters.contexts);
  state.counters["stored_tuples"] =
      static_cast<double>(result.counters.stored_tuples);
}

// The engine evaluates R3 sequentially with W passed sideways:
// contexts stay linear in m despite the cyclic hypergraph.
void BM_R3EngineSequential(benchmark::State& state) {
  RunEngine(state, R3Facts(state.range(0)), kR3Rule);
}
BENCHMARK(BM_R3EngineSequential)->Arg(64)->Arg(256)->Arg(1024);

// R2 (monotone flow): contexts stay linear as well — and here even a
// parallel branch evaluation would have been safe.
void BM_R2EngineSequential(benchmark::State& state) {
  RunEngine(state, R2Facts(state.range(0)), kR2Rule);
}
BENCHMARK(BM_R2EngineSequential)->Arg(64)->Arg(256)->Arg(1024);

// For contrast, R3 evaluated without any sideways passing at all
// (no_sips): the full-relation hazard on top of the cyclic structure.
void BM_R3EngineNoSips(benchmark::State& state) {
  PlanOptions options;
  options.strategy = "no_sips";
  RunEngine(state, R3Facts(state.range(0)), kR3Rule, options);
}
BENCHMARK(BM_R3EngineNoSips)->Arg(64)->Arg(128);

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
