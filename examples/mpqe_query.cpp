// mpqe_query: command-line Datalog evaluator over the message-passing
// engine. Reads a program (facts + rules + query) from a file or
// stdin, compiles it into one PreparedQuery via the engine lifecycle
// (engine/engine.h), runs it, and prints answers plus telemetry.
//
//   $ ./mpqe_query program.dl
//   $ ./mpqe_query --strategy=no_sips --scheduler=threaded program.dl
//   $ echo 'e(1,2). p(X,Y) :- e(X,Y). ?- p(1,W).' | ./mpqe_query -
//   $ ./mpqe_query --repeat=100 --stats program.dl   # plan-cache hits
//
// Options:
//   --strategy=<greedy|greedy_no_e|left_to_right|qual_tree|
//               qual_tree_or_greedy|no_sips>
//   --scheduler=<deterministic|random|threaded>
//   --seed=<n>         (random scheduler)
//   --workers=<n>      (threaded scheduler)
//   --repeat=<n>       prepare + run the query n times through the
//                      engine's plan cache (run 1 compiles, runs 2..n
//                      hit) and report per-run latency percentiles and
//                      the cache counters
//   --coalesce         coalesce goal nodes (single-processor variant)
//   --load=rel=file    bulk-load TSV facts into relation `rel`
//                      (repeatable; loaded before evaluation)
//   --graph            print the rule/goal graph before evaluating
//   --dot              print the graph in Graphviz DOT and exit
//   --stats            print message/engine statistics, the plan-cache
//                      counters, the session latency histogram, and the
//                      engine query log (one JSON entry per run:
//                      query id, text hash, plan reuse, rows, timings)
//   --metrics-out=<f>  write the engine-wide telemetry registry as
//                      Prometheus text exposition 0.0.4 to <f>
//                      (validate with scripts/check_trace.py
//                      --prometheus)
//   --slow-query-ms=<n>  flag runs over n ms as slow in the query log
//                      (default 100)
//   --explain          print the adorned plan with §4.3 cost estimates
//                      (sized from the EDB) and exit without running
//   --explain=analyze  run with the profiler, then print the plan with
//                      estimates and actuals side by side (suppresses
//                      the answer listing)
//   --profile-out=<f>  run with the profiler and write the
//                      mpqe-profile-v1 JSON report to <f>
//                      (validate with scripts/check_trace.py --profile)
//   --deviation-factor=<x>  flag nodes whose actuals deviate from the
//                      estimate by more than x (default 10)
//   --why='p(a,b)'     run with lineage recording and print the minimal
//                      proof tree for the matching answer (leaves are
//                      EDB facts; `_` matches anything); suppresses the
//                      answer listing; exits 1 if nothing matches
//   --lineage-out=<f>  run with lineage recording and write the
//                      mpqe-lineage-v1 JSON derivation DAG to <f>
//                      (validate with scripts/check_trace.py --lineage)
//   --log-level=<l>    engine log level (debug|info|warning|error|off;
//                      also settable via MPQE_LOG_LEVEL)
//   --watchdog-ms=<n>  stall-watchdog interval for the threaded
//                      scheduler: each n ms without delivery progress
//                      logs the queue depths, and the first snapshots
//                      a flight-recorder diagnostic bundle (0 keeps the
//                      engine default of 30s)
//   --flight-dump=<f>  after the run, write the engine's flight dump
//                      (the latest watchdog bundle, or a manual
//                      snapshot of the black box) as mpqe-flightdump-v1
//                      JSON to <f> (validate with scripts/check_trace.py
//                      --flight)
//   --park-scc         fault injection: park one member of the first
//                      nontrivial SCC for --park-ms on its first work
//                      message (wedges the SCC; pairs with
//                      --watchdog-ms to demo/test the watchdog)
//   --park-ms=<n>      park duration (default 1000)

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datalog/parser.h"
#include "engine/engine.h"
#include "engine/evaluator.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/telemetry.h"
#include "relational/io.h"
#include "graph/rule_goal_graph.h"

namespace {

int Fail(const std::string& message) {
  std::cerr << "mpqe_query: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string strategy = "greedy";
  std::string scheduler = "deterministic";
  uint64_t seed = 1;
  int workers = 4;
  int repeat = 1;
  bool show_graph = false, show_dot = false, show_stats = false;
  bool coalesce = false;
  bool explain = false, analyze = false;
  double deviation_factor = 10.0;
  std::string metrics_out;
  int slow_query_ms = 100;
  std::string profile_out;
  std::string why;
  std::string lineage_out;
  std::string log_level;
  int watchdog_ms = 0;
  std::string flight_dump_out;
  bool park_scc = false;
  int park_ms = 1000;
  std::vector<std::pair<std::string, std::string>> loads;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--strategy=", 0) == 0) {
      strategy = value("--strategy=");
    } else if (arg.rfind("--scheduler=", 0) == 0) {
      scheduler = value("--scheduler=");
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(value("--seed="));
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = std::stoi(value("--workers="));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::stoi(value("--repeat="));
      if (repeat < 1) return Fail("--repeat must be >= 1");
    } else if (arg == "--coalesce") {
      coalesce = true;
    } else if (arg.rfind("--load=", 0) == 0) {
      std::string spec = value("--load=");
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return Fail("--load expects rel=file: " + arg);
      }
      loads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--graph") {
      show_graph = true;
    } else if (arg == "--dot") {
      show_dot = true;
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--explain=analyze") {
      explain = analyze = true;
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = value("--metrics-out=");
    } else if (arg.rfind("--slow-query-ms=", 0) == 0) {
      slow_query_ms = std::stoi(value("--slow-query-ms="));
      if (slow_query_ms < 0) return Fail("--slow-query-ms must be >= 0");
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      profile_out = value("--profile-out=");
    } else if (arg.rfind("--deviation-factor=", 0) == 0) {
      deviation_factor = std::stod(value("--deviation-factor="));
    } else if (arg.rfind("--why=", 0) == 0) {
      why = value("--why=");
    } else if (arg.rfind("--lineage-out=", 0) == 0) {
      lineage_out = value("--lineage-out=");
    } else if (arg.rfind("--log-level=", 0) == 0) {
      log_level = value("--log-level=");
    } else if (arg.rfind("--watchdog-ms=", 0) == 0) {
      watchdog_ms = std::stoi(value("--watchdog-ms="));
      if (watchdog_ms < 0) return Fail("--watchdog-ms must be >= 0");
    } else if (arg.rfind("--flight-dump=", 0) == 0) {
      flight_dump_out = value("--flight-dump=");
    } else if (arg == "--park-scc") {
      park_scc = true;
    } else if (arg.rfind("--park-ms=", 0) == 0) {
      park_ms = std::stoi(value("--park-ms="));
      if (park_ms < 0) return Fail("--park-ms must be >= 0");
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return Fail("unknown option: " + arg);
    } else {
      path = arg;
    }
  }
  if (path.empty()) return Fail("usage: mpqe_query [options] <file|->");

  std::string text;
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(path);
    if (!in) return Fail("cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  auto unit = mpqe::Parse(text);
  if (!unit.ok()) return Fail(unit.status().ToString());
  for (const auto& [rel, file] : loads) {
    auto stats = mpqe::LoadRelationTsvFile(unit->database, rel, file);
    if (!stats.ok()) return Fail(stats.status().ToString());
    std::cerr << "loaded " << stats->rows << " rows into " << rel << " ("
              << stats->duplicates << " duplicates)\n";
  }

  // Parse the --why atom before the database moves into the snapshot
  // (the symbols it interns are shared with the program's).
  std::optional<mpqe::LineageQuery> why_query;
  if (!why.empty()) {
    auto parsed = mpqe::ParseLineageQuery(why, unit->database.symbols());
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    why_query = *std::move(parsed);
  }

  // The engine lifecycle: snapshot the EDB, compile the program into
  // one PreparedQuery (cached), run sessions over it.
  mpqe::EngineOptions engine_options;
  engine_options.telemetry_options.slow_query_ns =
      static_cast<uint64_t>(slow_query_ms) * 1'000'000;
  mpqe::Engine engine(engine_options);
  auto snapshot = engine.Attach(std::move(unit->database), path);
  const mpqe::SymbolTable& symbols = snapshot->db().symbols();

  mpqe::PlanOptions plan_options;
  plan_options.strategy = strategy;
  plan_options.graph_options.coalesce_nodes = coalesce;

  auto plan = engine.Prepare(snapshot, unit->program, plan_options);
  if (!plan.ok()) return Fail(plan.status().ToString());

  if (show_dot) {
    std::cout << GraphToDot((*plan)->graph(), &symbols);
    return 0;
  }
  if (show_graph) {
    std::cout << (*plan)->graph().ToString(&symbols) << "\n";
  }
  if (explain && !analyze) {
    // Plain EXPLAIN: estimates only, no evaluation.
    std::cout << mpqe::ExplainPlan((*plan)->graph(), (*plan)->cost_params(),
                                   nullptr, &symbols);
    return 0;
  }

  bool profiling = analyze || !profile_out.empty();
  mpqe::SessionOptions session_options;
  session_options.seed = seed;
  session_options.workers = workers;
  session_options.profile = profiling;
  bool lineage = !why.empty() || !lineage_out.empty();
  session_options.lineage = lineage;
  session_options.log_level = log_level;
  session_options.watchdog_stall_ms = watchdog_ms;
  if (park_scc) {
    // Park a member of the first nontrivial SCC — a non-leader where
    // one exists, so the wedge shows up as protocol state at the
    // leader rather than a parked leader.
    const mpqe::RuleGoalGraph& graph = (*plan)->graph();
    mpqe::NodeId pick = mpqe::kNoNode;
    for (mpqe::NodeId id = 0; id < static_cast<mpqe::NodeId>(graph.size());
         ++id) {
      const mpqe::GraphNode& n = graph.node(id);
      if (n.scc_is_trivial) continue;
      if (pick == mpqe::kNoNode) pick = id;
      if (!n.is_leader) {
        pick = id;
        break;
      }
    }
    if (pick == mpqe::kNoNode) {
      return Fail("--park-scc: the plan has no nontrivial SCC to park");
    }
    session_options.fault_park_node = pick;
    session_options.fault_park_ms = park_ms;
    std::cerr << "parking node " << pick << " (scc "
              << graph.node(pick).scc_id << ") for " << park_ms << "ms\n";
  }
  auto scheduler_kind = mpqe::SchedulerKindFromName(scheduler);
  if (!scheduler_kind.ok()) return Fail(scheduler_kind.status().ToString());
  session_options.scheduler = *scheduler_kind;

  // Run 1 pays the cold compile above; with --repeat every later
  // iteration re-Prepares (a plan-cache hit: no parse, no adornment,
  // no sips, no graph build) and runs a fresh session over the same
  // compiled plan.
  std::optional<mpqe::EvaluationResult> result;
  for (int run = 0; run < repeat; ++run) {
    if (run > 0) {
      plan = engine.Prepare(snapshot, unit->program, plan_options);
      if (!plan.ok()) return Fail(plan.status().ToString());
    }
    auto session = engine.CreateSession(*plan, session_options);
    if (!session.ok()) return Fail(session.status().ToString());
    auto run_result = (*session)->Run();
    if (!run_result.ok()) return Fail(run_result.status().ToString());
    if (!result.has_value()) result = *std::move(run_result);
  }

  if (analyze) {
    mpqe::ExplainOptions explain_options;
    explain_options.analyze = true;
    explain_options.deviation_factor = deviation_factor;
    std::cout << mpqe::ExplainPlan((*plan)->graph(), (*plan)->cost_params(),
                                   result->profile.get(), &symbols,
                                   explain_options);
  } else if (why_query.has_value()) {
    // WHY: print the minimal proof tree instead of the answer listing.
    auto matches = result->lineage->Match(*why_query);
    if (matches.empty()) {
      std::cerr << "no derivation matches " << why << " ("
                << result->lineage->derived << " derived tuples, "
                << result->answers.size() << " answer(s))\n";
      return 1;
    }
    std::cout << result->lineage->FormatProof(matches.front()->id);
    if (matches.size() > 1) {
      std::cerr << matches.size() << " tuples match " << why
                << "; showing the shallowest proof (depth "
                << matches.front()->depth << ")\n";
    }
  } else {
    for (const mpqe::Tuple& t : result->answers.SortedTuples()) {
      std::cout << mpqe::TupleToString(t, &symbols) << "\n";
    }
  }
  if (!lineage_out.empty()) {
    std::ofstream out(lineage_out);
    if (!out) return Fail("cannot write " + lineage_out);
    out << result->lineage->ToJson();
    std::cerr << "lineage written to " << lineage_out << " ("
              << result->lineage->records.size() << " records)\n";
  }
  if (!profile_out.empty()) {
    std::ofstream out(profile_out);
    if (!out) return Fail("cannot write " + profile_out);
    out << result->profile->ToJson();
    std::cerr << "profile written to " << profile_out << "\n";
  }
  std::cerr << result->answers.size() << " answer(s)\n";
  if (show_stats || repeat > 1) {
    std::cerr << engine.plan_cache_stats().ToString() << "\n"
              << "session latency: "
              << engine.telemetry()
                     .registry()
                     .GetHistogram("engine/session_latency_ns")
                     .ToString()
              << "\n";
  }
  if (show_stats) {
    std::cerr << "messages: " << result->message_stats.ToString() << "\n"
              << "counters: " << result->counters.ToString() << "\n"
              << "graph: nodes=" << result->graph_stats.node_count
              << " sccs=" << result->graph_stats.nontrivial_sccs
              << " cycle_edges=" << result->graph_stats.cycle_refs << "\n"
              << "ended_by_protocol: "
              << (result->ended_by_protocol ? "yes" : "no") << "\n";
    std::cerr << "query log: " << engine.telemetry().QueryLogJson();
  }
  if (!flight_dump_out.empty()) {
    std::ofstream out(flight_dump_out);
    if (!out) return Fail("cannot write " + flight_dump_out);
    out << engine.FlightDumpJson();
    std::cerr << "flight dump written to " << flight_dump_out << " ("
              << engine.watchdog_dumps() << " watchdog dump(s))\n";
  }
  if (!metrics_out.empty()) {
    engine.telemetry().SampleNow();
    std::ofstream out(metrics_out);
    if (!out) return Fail("cannot write " + metrics_out);
    out << mpqe::ToPrometheusText(engine.telemetry().registry());
    std::cerr << "metrics written to " << metrics_out << "\n";
  }
  return 0;
}
