// The Chrome trace of one session, rendered from its flight-ring
// records (msg/flight_recorder.h) as Chrome trace-event JSON (the
// "JSON Object Format" chrome://tracing and Perfetto load). The ring
// already holds one record per delivery plus the session's phase and
// Fig. 2 records, so the trace costs the session nothing extra.
//
// Track model: one trace process (pid 0, "mpqe"); tid 0 is the
// evaluator, network process P is tid P+1, named by its graph-node
// label (the process after the graph's nodes is the sink).
//  * each kDeliver record is an "X" slice on the receiver's track from
//    ts_ns - aux (handler start) to ts_ns, named by message kind, with
//    args from, kind, rows (answer rows in) and rows_out;
//  * each kPhase begin/end pair is an "X" slice phase:<name> on tid 0;
//  * each kTermination record is an "i" instant term:<kind> on the
//    node's track, with args wave, idleness and open_work.
// The ring records no sends, so the trace has no flow arrows and no
// counter series. A "session" metadata event carries the query id and
// the delivery count, which scripts/check_trace.py checks the slices
// against.
//
//   auto trace = RenderChromeTrace(engine.flight_recorder().Snapshot(),
//                                  session->query_id(), result->delivered,
//                                  &plan->graph(), &db.symbols());
//   if (trace.ok()) trace->WriteFile("trace.json");

#ifndef MPQE_OBS_CHROME_TRACE_H_
#define MPQE_OBS_CHROME_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/rule_goal_graph.h"
#include "msg/flight_recorder.h"

namespace mpqe {

struct ChromeTrace {
  struct Event {
    char ph = 'X';          // 'X' slice or 'i' instant
    int32_t tid = 0;
    uint64_t ts_ns = 0;     // slice start or instant time
    uint64_t dur_ns = 0;    // slices only
    std::string name;
    std::string args_json;  // object body, may be empty
  };

  uint64_t query_id = 0;
  uint64_t delivered = 0;
  std::vector<Event> events;  // in record order
  // (tid, name) of every track an event uses, tid 0 first.
  std::vector<std::pair<int32_t, std::string>> tracks;

  /// {"displayTimeUnit": "ms", "traceEvents": [...]}, timestamps in
  /// microseconds from the session's first event.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteFile(const std::string& path) const;

  /// Timestamp-free rendering ("ph name tid=N" per line, in record
  /// order): stable for a fixed query under the deterministic
  /// scheduler, which makes golden-file tests possible.
  std::string NormalizedSummary() const;
};

/// Renders the records of session `query_id` from `records` (a
/// FlightRecorder::Snapshot). FailedPrecondition instead of a trace with
/// a hole when the ring lost part of the session: fewer kDeliver records
/// than `delivered` (the session's EvaluationResult::delivered), or a
/// phase missing its begin or end record. `graph` and `symbols` (both
/// optional) name the tracks.
StatusOr<ChromeTrace> RenderChromeTrace(
    const std::vector<FlightRecord>& records, uint64_t query_id,
    uint64_t delivered, const RuleGoalGraph* graph = nullptr,
    const SymbolTable* symbols = nullptr);

}  // namespace mpqe

#endif  // MPQE_OBS_CHROME_TRACE_H_
