// Same-generation with a bound first argument — the classic workload
// where sideways information passing (class d) pays off: only the
// cousins of the queried person are explored, not the whole sg
// relation. Compares the paper's greedy strategy against the
// full-relation (no-sips, McKay-Shapiro-style) mode.
//
//   $ ./same_generation [depth]
//
// Builds a complete binary family tree of the given depth.

#include <cstdlib>
#include <iostream>

#include "common/string_util.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "workload/generators.h"

namespace {

mpqe::Status BuildFamily(mpqe::Database& db, int depth) {
  int64_t n = (1LL << depth) - 1;  // complete binary tree
  for (int64_t child = 1; child < n; ++child) {
    MPQE_RETURN_IF_ERROR(
        db.InsertFact("par", {mpqe::Value::Int(child),
                              mpqe::Value::Int((child - 1) / 2)})
            .status());
  }
  for (int64_t person = 0; person < n; ++person) {
    MPQE_RETURN_IF_ERROR(
        db.InsertFact("person", {mpqe::Value::Int(person)}).status());
  }
  return mpqe::Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  int depth = argc > 1 ? std::atoi(argv[1]) : 6;
  int64_t n = (1LL << depth) - 1;
  int64_t who = n - 1;  // a leaf in the last generation

  mpqe::Database db;
  if (auto s = BuildFamily(db, depth); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  mpqe::Program program;
  std::string text = mpqe::workload::SameGenerationProgram(who);
  if (auto s = mpqe::ParseInto(text, program, db); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  mpqe::Engine engine;
  auto snapshot = engine.Attach(std::move(db), "family");
  for (const char* strategy : {"greedy", "no_sips"}) {
    // The information passing strategy is part of the compiled plan.
    mpqe::PlanOptions options;
    options.strategy = strategy;
    auto plan = engine.Prepare(snapshot, program, options);
    if (!plan.ok()) {
      std::cerr << plan.status() << "\n";
      return 1;
    }
    auto session = engine.CreateSession(*plan);
    if (!session.ok()) {
      std::cerr << session.status() << "\n";
      return 1;
    }
    auto result = (*session)->Run();
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      return 1;
    }
    std::cout << "strategy=" << strategy << "  sg(" << who << ", W): "
              << result->answers.size() << " answers"
              << "  stored_tuples=" << result->counters.stored_tuples
              << "  answer_rows=" << result->message_stats.segment_rows
              << "\n";
  }
  std::cout << "\n(The greedy run touches only " << who
            << "'s generation; the no-sips run computes the entire "
               "same-generation relation.)\n";
  return 0;
}
