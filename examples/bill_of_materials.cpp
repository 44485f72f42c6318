// Bill of materials — the classic deductive-database workload of the
// era: which parts (transitively) go into a product, and which
// suppliers are therefore involved? Demonstrates a multi-relation
// program, a bound query (sideways information passing explores only
// the queried assembly), and TSV export of the answer.
//
//   $ ./bill_of_materials [assembly]
//
// The parts catalog is generated in code; pass an assembly name
// (bike, car, or plane) to pick the root.

#include <iostream>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "relational/io.h"

namespace {

// subpart(Assembly, Part, Qty); supplier sells parts.
constexpr const char* kCatalog = R"(
  subpart(bike, frame, 1).   subpart(bike, wheel, 2).
  subpart(wheel, rim, 1).    subpart(wheel, spoke, 32).
  subpart(wheel, tire, 1).   subpart(tire, tube, 1).
  subpart(frame, tubeset, 1).

  subpart(car, engine, 1).   subpart(car, wheel, 4).
  subpart(engine, piston, 4). subpart(engine, sparkplug, 4).

  subpart(plane, jet, 2).    subpart(jet, turbine, 1).
  subpart(turbine, blade, 64). subpart(jet, compressor, 1).

  sells(acme, frame).   sells(acme, rim).
  sells(globex, spoke). sells(globex, tire).
  sells(globex, tube).  sells(initech, piston).
  sells(initech, sparkplug). sells(umbrella, blade).
  sells(umbrella, turbine).  sells(umbrella, compressor).
  sells(acme, tubeset).
)";

}  // namespace

int main(int argc, char** argv) {
  std::string assembly = argc > 1 ? argv[1] : "bike";

  std::string text = mpqe::StrCat(kCatalog, R"(
    % A part is contained in an assembly directly or transitively.
    contains(A, P) :- subpart(A, P, Q).
    contains(A, P) :- subpart(A, S, Q), contains(S, P).

    % Suppliers involved in building the assembly.
    involved(Sup, P) :- contains()", assembly, R"(, P), sells(Sup, P).
    ?- involved(Sup, Part).
  )");

  auto unit = mpqe::Parse(text);
  if (!unit.ok()) {
    std::cerr << unit.status() << "\n";
    return 1;
  }
  // The catalog becomes the engine's snapshot; the rules compile into a
  // plan, and one session runs it.
  mpqe::Engine engine;
  auto snapshot = engine.Attach(std::move(unit->database), "catalog");
  auto plan = engine.Prepare(snapshot, unit->program);
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

  const mpqe::SymbolTable& symbols = snapshot->db().symbols();
  std::cout << "suppliers involved in building '" << assembly << "':\n";
  for (const mpqe::Tuple& t : result->answers.SortedTuples()) {
    std::cout << "  " << t[0].ToString(&symbols) << " -> "
              << t[1].ToString(&symbols) << "\n";
  }

  // Export the answer relation as TSV (demonstrates relational/io).
  std::ostringstream tsv;
  if (auto s = mpqe::SaveRelationTsv(result->answers, symbols, tsv);
      !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << "\nTSV export:\n" << tsv.str();

  std::cout << "\n(" << result->answers.size() << " rows; "
            << result->counters.stored_tuples
            << " tuples materialized; the bound query explored only the '"
            << assembly << "' assembly subtree)\n";
  return 0;
}
