// Watching the Fig. 2 termination protocol at work: transitive
// closure over a cyclic graph, where only duplicate elimination makes
// the strong component go idle and only the end-request/confirm waves
// can detect it. Prints per-kind message counts and wave statistics
// for increasing cycle sizes and several random schedules.
//
//   $ ./termination_trace [--trace=trace.json] [max_n]
//
// With --trace=<file>, the final run is re-executed and its records in
// the engine's flight ring are rendered as Chrome trace-event JSON —
// open it in chrome://tracing or https://ui.perfetto.dev to see one
// track per process, one slice per delivery and the protocol's
// end-request waves as instant events. A run whose records no longer
// all fit in the ring is refused, not drawn with a hole.

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "datalog/parser.h"
#include "engine/engine.h"
#include "obs/chrome_trace.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  int64_t max_n = 32;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else {
      max_n = std::atoll(arg.c_str());
    }
  }

  // One engine. Each cycle size becomes a snapshot with its compiled
  // plan; every run below is one session of a plan.
  mpqe::Engine engine;
  auto prepare_cycle_tc = [&engine](int64_t n)
      -> mpqe::StatusOr<std::shared_ptr<const mpqe::PreparedQuery>> {
    mpqe::Database db;
    MPQE_RETURN_IF_ERROR(mpqe::workload::MakeCycle(db, "edge", n));
    mpqe::Program program;
    MPQE_RETURN_IF_ERROR(
        mpqe::ParseInto(mpqe::workload::LinearTcProgram(0), program, db));
    return engine.Prepare(engine.Attach(std::move(db)), program);
  };

  std::cout << "cycle-graph transitive closure tc(0, W), deterministic "
               "schedule:\n";
  std::cout << "  n   answers  answer_rows  dup_drops  waves  end_req  "
               "end_neg  end_conf\n";
  for (int64_t n = 4; n <= max_n; n *= 2) {
    auto plan = prepare_cycle_tc(n);
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
    const mpqe::MessageStats& s = result->message_stats;
    std::printf("  %-4lld %-8zu %-11llu %-10llu %-6llu %-8llu %-8llu %llu\n",
                static_cast<long long>(n), result->answers.size(),
                static_cast<unsigned long long>(s.segment_rows),
                static_cast<unsigned long long>(
                    result->counters.duplicate_drops),
                static_cast<unsigned long long>(
                    result->counters.protocol_waves),
                static_cast<unsigned long long>(
                    s.Count(mpqe::MessageKind::kEndRequest)),
                static_cast<unsigned long long>(
                    s.Count(mpqe::MessageKind::kEndNegative)),
                static_cast<unsigned long long>(
                    s.Count(mpqe::MessageKind::kEndConfirmed)));
  }

  // The schedule is a session option: one plan runs unchanged under
  // several random interleavings.
  auto plan = prepare_cycle_tc(16);
  if (!plan.ok()) {
    std::cerr << plan.status() << "\n";
    return 1;
  }
  std::cout << "\nsame query (n=16) under random schedules — the protocol "
               "concludes correctly on every interleaving:\n";
  for (uint64_t seed = 0; seed < 5; ++seed) {
    mpqe::SessionOptions options;
    options.scheduler = mpqe::SchedulerKind::kRandom;
    options.seed = seed;
    auto session = engine.CreateSession(*plan, options);
    if (!session.ok()) {
      std::cerr << session.status() << "\n";
      return 1;
    }
    auto result = (*session)->Run();
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      return 1;
    }
    std::cout << "  seed=" << seed << "  answers=" << result->answers.size()
              << "  ended_by_protocol="
              << (result->ended_by_protocol ? "yes" : "no")
              << "  waves=" << result->counters.protocol_waves << "\n";
  }

  if (!trace_path.empty()) {
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
    auto trace = mpqe::RenderChromeTrace(
        engine.flight_recorder().Snapshot(), (*session)->query_id(),
        result->delivered, &(*plan)->graph(),
        &(*plan)->snapshot()->db().symbols());
    if (!trace.ok()) {
      std::cerr << trace.status() << "\n";
      return 1;
    }
    mpqe::Status written = trace->WriteFile(trace_path);
    if (!written.ok()) {
      std::cerr << written << "\n";
      return 1;
    }
    std::cout << "\nwrote " << trace->events.size() << " trace events ("
              << result->delivered << " deliveries) to " << trace_path
              << " (open in chrome://tracing)\n";
  }
  return 0;
}
