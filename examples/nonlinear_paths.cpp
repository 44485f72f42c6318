// The paper's Example 2.1 end to end: program P1 with its nonlinear
// recursive rule, the greedy information passing rule/goal graph of
// Fig. 1, and the message-driven evaluation.
//
//   $ ./nonlinear_paths [n]
//
// q and r are chain relations over n nodes; the query is p(0, Z).

#include <cstdlib>
#include <iostream>

#include "datalog/parser.h"
#include "engine/engine.h"
#include "graph/rule_goal_graph.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  int64_t n = argc > 1 ? std::atoll(argv[1]) : 8;

  mpqe::Database db;
  if (!mpqe::workload::MakeChain(db, "q", n).ok() ||
      !mpqe::workload::MakeChain(db, "r", n).ok()) {
    std::cerr << "failed to build EDB\n";
    return 1;
  }
  mpqe::Program program;
  std::string text = mpqe::workload::P1Program(0);
  if (auto s = mpqe::ParseInto(text, program, db); !s.ok()) {
    std::cerr << "parse error: " << s << "\n";
    return 1;
  }
  std::cout << "program P1 (Example 2.1):\n" << text << "\n";

  // Compile the plan: validation, adornment and the greedy information
  // passing rule/goal graph (Fig. 1).
  mpqe::Engine engine;
  auto snapshot = engine.Attach(std::move(db));
  auto plan = engine.Prepare(snapshot, program);
  if (!plan.ok()) {
    std::cerr << plan.status() << "\n";
    return 1;
  }
  const mpqe::RuleGoalGraph& graph = (*plan)->graph();
  const mpqe::SymbolTable* symbols = &snapshot->db().symbols();
  std::cout << "greedy information passing rule/goal graph:\n"
            << graph.ToString(symbols) << "\n";
  std::cout << "graphviz:\n" << GraphToDot(graph, symbols) << "\n";

  // Run the message-driven evaluation over that graph.
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
  std::cout << "p(0, Z) has " << result->answers.size() << " answers: "
            << result->answers.ToString() << "\n\n"
            << "messages: " << result->message_stats.ToString() << "\n"
            << "counters: " << result->counters.ToString() << "\n";
  return 0;
}
