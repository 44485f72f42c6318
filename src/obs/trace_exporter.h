// Chrome trace-event export: an ExecutionObserver that records every
// event of an evaluation and serializes it as Chrome trace-event JSON
// (the "JSON Array/Object Format" understood by chrome://tracing and
// Perfetto).
//
// Track model: one trace *process* (pid 0) per exporter; evaluator
// phases live on tid 0 ("evaluator"); network process P gets tid P+1,
// named with its graph-node label when AttachGraph was called.
// Message deliveries render as duration ("X") events on the receiving
// track; sends as flow arrows ("s" at the sender, "f" at the
// receiver) so chrome://tracing draws who-talked-to-whom; termination
// protocol events as instants ("i"); cumulative tuple/dedup totals as
// counter ("C") series.
//
// Thread safety: all callbacks lock one internal mutex — safe under
// every scheduler (and the serialization this imposes is exactly the
// per-event ordering the trace records). Validate exports with
// scripts/check_trace.py.

#ifndef MPQE_OBS_TRACE_EXPORTER_H_
#define MPQE_OBS_TRACE_EXPORTER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/rule_goal_graph.h"
#include "obs/observer.h"

namespace mpqe {

class TraceExporter : public ExecutionObserver {
 public:
  struct Options {
    // Emit flow arrows for every send. The dominant share of events;
    // disable for very large runs.
    bool flow_events = true;
    // Emit instant events for termination-protocol activity.
    bool instant_events = true;
    // Emit cumulative counter series (tuples_out, dedup_hits).
    bool counter_events = true;
    // Stop recording after this many events (0 = unlimited). The
    // trace stays valid; `dropped_events()` reports the overflow.
    size_t max_events = 0;
  };

  TraceExporter() : TraceExporter(Options()) {}
  explicit TraceExporter(Options options);

  /// Resolves track names to graph-node labels at serialization time
  /// (pass the graph the evaluation ran on; the one-past-the-end
  /// process renders as "sink").
  void AttachGraph(const RuleGoalGraph* graph, const SymbolTable* symbols);

  // ExecutionObserver:
  void OnSessionStart(const SessionStartEvent& event) override;
  void OnSend(const SendEvent& event) override;
  void OnDeliver(const DeliverEvent& event) override;
  void OnNodeFire(const NodeFireEvent& event) override;
  void OnPhase(const PhaseEvent& event) override;
  void OnTermination(const TerminationEvent& event) override;

  /// The complete trace as a Chrome trace-event JSON object:
  /// {"displayTimeUnit": "ms", "traceEvents": [...]}.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteFile(const std::string& path) const;

  size_t event_count() const;
  size_t dropped_events() const;

  /// The engine-minted query id of the traced session (0 = no id: a
  /// direct RunSession that set none; then absent from the JSON
  /// metadata too).
  uint64_t query_id() const;

  /// Timestamp-free rendering ("ph name tid ..." per line, in record
  /// order) — stable for a fixed query under the deterministic
  /// scheduler, which makes golden-file tests possible.
  std::string NormalizedSummary() const;

 private:
  struct Event {
    char ph = 'X';
    int32_t tid = 0;
    double ts_us = 0;
    double dur_us = -1;     // X only
    uint64_t flow_id = 0;   // s/f only
    bool has_flow_id = false;
    std::string name;
    std::string args_json;  // preformatted object body, may be empty
  };

  double NowUs() const;
  // All Push/record helpers require mutex_ held.
  void Push(Event event);
  static int32_t TrackOf(ProcessId pid) { return pid < 0 ? 0 : pid + 1; }

  Options options_;
  uint64_t origin_ns_ = 0;

  mutable std::mutex mutex_;
  uint64_t query_id_ = 0;
  std::vector<Event> events_;
  size_t dropped_ = 0;
  std::set<int32_t> tids_;
  // Per-channel FIFO indexes pairing the i-th send with the i-th
  // delivery; the pair (channel, index) is the flow id.
  std::map<std::pair<ProcessId, ProcessId>, uint64_t> channel_sends_;
  std::map<std::pair<ProcessId, ProcessId>, uint64_t> channel_delivers_;
  std::map<std::pair<ProcessId, ProcessId>, uint64_t> channel_ids_;
  uint64_t tuples_out_total_ = 0;
  uint64_t dedup_total_ = 0;
  double phase_begin_us_[static_cast<size_t>(Phase::kPhaseCount)] = {};

  const RuleGoalGraph* graph_ = nullptr;
  const SymbolTable* symbols_ = nullptr;
};

}  // namespace mpqe

#endif  // MPQE_OBS_TRACE_EXPORTER_H_
