// The run-time half of query evaluation: the options of a plan and of
// a session, the result of a run, and RunSession, which wires and runs
// the process network over a compiled rule/goal graph.
//
// The public way to evaluate a query is the prepared-query engine
// (engine/engine.h):
//   Engine engine;
//   auto unit = Parse("edge(a, b). edge(b, c). "
//                     "path(X, Y) :- edge(X, Y). "
//                     "path(X, Y) :- edge(X, Z), path(Z, Y). "
//                     "?- path(a, W).");
//   auto snapshot = engine.Attach(std::move(unit->database));
//   auto plan = engine.Prepare(snapshot, unit->program);   // PlanOptions
//   auto session = engine.CreateSession(*plan);            // SessionOptions
//   auto result = (*session)->Run();
//   // result->answers is the goal relation {(b), (c)}.
//
// Observability (see DESIGN.md § Observability): every session counts
// each process's traffic in its Network — handler time and queue wait
// included — and each node's relation and Fig. 2 work in its node
// processes; EvaluationResult carries those counts.
// SessionOptions::profile assembles them into a ProfileReport, and the
// engine's telemetry adds every session's totals to its registry — one
// source for both. The run itself is recorded in the engine's flight
// ring, one record per delivery; a Chrome trace is rendered from those
// records (obs/chrome_trace.h). SessionOptions::send_tap lets a test
// read each message on the wire.

#ifndef MPQE_ENGINE_EVALUATOR_H_
#define MPQE_ENGINE_EVALUATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/program.h"
#include "engine/node_processes.h"
#include "graph/rule_goal_graph.h"
#include "msg/network.h"
#include "obs/flight_dump.h"
#include "obs/lineage.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "relational/database.h"
#include "sips/strategy.h"

namespace mpqe {

// The options of an evaluation split along the engine lifecycle
// (DESIGN.md §11): PlanOptions govern query *compilation* (parse,
// validate, adorn, sips, graph build — everything a PreparedQuery
// caches), SessionOptions govern one *execution* of a compiled plan
// (scheduler, segment size, profile, lineage, logging).

struct PlanOptions {
  // Information passing strategy name (see MakeStrategyByName):
  // "greedy" (the paper's default), "left_to_right", "qual_tree",
  // "qual_tree_or_greedy", "no_sips" (McKay-Shapiro-style baseline).
  std::string strategy = "greedy";

  GraphBuildOptions graph_options;

  /// Checks the plan options for configuration errors. The Status
  /// message names the offending field ("strategy: ...").
  Status Validate() const;
};

struct SessionOptions {
  SchedulerKind scheduler = SchedulerKind::kDeterministic;
  uint64_t seed = 1;    // kRandom
  // kThreaded: the most threads the session runs on — the thread that
  // runs it plus up to workers - 1 helpers borrowed from the engine's
  // pool while processes wait in run queues (Network::RunThreaded).
  int workers = 4;

  // Answers travel as columnar TupleSegments (msg/segment.h): a node
  // accumulates the rows it emits on one stream during one mailbox run
  // into one shared kTupleSegment, and seals it early once it reaches
  // this many rows (bounds per-run buffering; must be >= 1). At run
  // end a node packages what it emitted into one batch envelope per
  // destination (the paper's footnote 2).
  size_t segment_max_rows = 1024;

  // Safety valve against runaway computations (0 = unlimited).
  uint64_t max_messages = 0;

  // Called once per physical send with the message on the wire (see
  // msg/network.h SendTap for when and on which thread). Tests use it
  // to check message contents; unset costs one branch per send.
  SendTap send_tap;

  // Fill EvaluationResult::profile with per-node / per-SCC attribution
  // and §4.3 cost estimates sized from the database (see
  // obs/profiler.h). Only assembles the report: the counts it reads,
  // handler time and queue wait included, are kept by every session.
  bool profile = false;

  // Record derivation provenance: every tuple first inserted into any
  // node relation gets a stable id and a derivation record (rule,
  // node, ordered input tuples, source message), assembled into
  // EvaluationResult::lineage at the end of the run. Supports WHY
  // queries / minimal proof trees; see obs/lineage.h. Adds one branch
  // per insert when off; roughly doubles per-hop cost when on.
  bool lineage = false;

  // Engine log level ("debug", "info", "warning", "error", "off").
  // Empty defers to the MPQE_LOG_LEVEL environment variable; when
  // neither names a level, engine logging stays off entirely (no line
  // is built). Logging goes to stderr with thread tags
  // (obs/engine_log.h) and never changes evaluation behavior or
  // results.
  std::string log_level;

  // Stall watchdog (threaded scheduler only): when > 0, the engine
  // pool's monitor thread checks the session's delivery progress at
  // this cadence while it runs. Each interval with no
  // delivery logs per-SCC queue depths and in-flight counts (WARNING)
  // and publishes them as telemetry gauges; the first stalled interval
  // of an episode also builds a FlightDump diagnostic bundle —
  // flight-recorder contents, per-SCC Fig. 2 protocol state, per-node
  // queue depths — and hands it to flight_dump_sink. Other schedulers
  // ignore it (they cannot stall silently). 0 disables.
  int watchdog_stall_ms = 0;

  // Receives the watchdog's diagnostic bundle. Called on the pool's
  // monitor thread while the session is stalled; must not block for
  // long (the monitor serves every session of the engine). Set
  // by Engine::CreateSession (serialize + persist to debug_dump_dir);
  // tests may set it directly. Unset drops dumps (the stall is still
  // logged and counted).
  std::function<void(const FlightDump&)> flight_dump_sink;

  // Fault injection for watchdog tests: park the process of this graph
  // node for fault_park_ms once, on its first work message
  // (node_processes.cc). kNoNode = off.
  NodeId fault_park_node = kNoNode;
  int fault_park_ms = 0;

  /// Checks the session options for configuration errors — workers <
  /// 1, out-of-range scheduler — and returns an InvalidArgument Status
  /// naming the offending field ("workers: ...") instead of letting
  /// the misconfiguration surface deep inside the run. Called by the
  /// session builder (Engine::CreateSession) and by RunSession before
  /// any work.
  Status Validate() const;
};

// One graph node's counts: its share of EvaluationResult::counters,
// and the network's record of its process's traffic.
struct NodeCounters {
  NodeId node = kNoNode;
  EngineCounters counters;
  ProcessCounts traffic;
};

struct EvaluationResult {
  // The goal relation (arity = the goal predicate's arity).
  Relation answers{0};

  // True when the computation finished through the end-message
  // protocol (the sink received `end`), as opposed to mere network
  // quiescence — Theorem 3.1 in action.
  bool ended_by_protocol = false;
  // True when every mailbox also drained (always checked after stop).
  bool quiescent_after = false;

  MessageStats message_stats;
  EngineCounters counters;
  GraphStats graph_stats;
  uint64_t delivered = 0;

  // The network's traffic records summed over every process, the sink
  // included: traffic.sent() == message_stats.PhysicalTotal() and
  // traffic.delivered == delivered.
  ProcessCounts traffic;

  // Wall time of each session phase, in Phase order.
  std::array<uint64_t, static_cast<size_t>(Phase::kPhaseCount)> phase_ns{};

  // One row per graph node, summing to `counters`. Use together with
  // RuleGoalGraph::NodeLabel to see where tuples accumulate.
  std::vector<NodeCounters> node_counters;

  /// The node rows' traffic summed, the sink excluded. A fire is one
  /// handler run at a graph node, so `delivered` is the session's
  /// fires and `handler_ns` its fire time — the profile's
  /// total_fire_ns and the query log's fire_ns.
  ProcessCounts NodeTraffic() const;

  // The profiler's report (set iff SessionOptions::profile), with
  // cost estimates already filled from the database. Shared so the
  // result stays copyable.
  std::shared_ptr<const ProfileReport> profile;

  // The derivation DAG (set iff SessionOptions::lineage): one
  // record per distinct tuple, EDB leaves resolved, minimal depths
  // computed. Query with Match/FormatProof; see obs/lineage.h. Shared
  // so the result stays copyable.
  std::shared_ptr<const LineageReport> lineage;
};

// The session-level metric families of a run: msg/sent/<kind>
// (physical sends), msg/delivered, msg/segment_rows, node/fires,
// dedup/hits, termination/<event>, engine/stored_tuples,
// engine/contexts, run/answers, run/ended_by_protocol, and the
// histograms phase/<name>/ns and engine/max_node_relation (one sample
// per session, so its max() is the largest node relation any session
// built). The handles are resolved once against one registry, so
// adding a session costs no name lookup: the engine keeps one over its
// telemetry registry and adds every session to it.
class SessionTotals {
 public:
  explicit SessionTotals(MetricsRegistry& registry);

  /// Adds one session's totals.
  void Add(const EvaluationResult& result) const;

 private:
  std::vector<Counter*> counters_;  // one per scalar family
  std::array<Counter*, static_cast<size_t>(MessageKind::kMessageKindCount)>
      sent_{};
  std::array<Histogram*, static_cast<size_t>(Phase::kPhaseCount)> phase_ns_{};
  Histogram* max_node_relation_ = nullptr;
};

// What the engine hands a session besides the caller's options: the
// session's identity and the engine-wide sinks it reports into.
// QuerySession::Run fills it from its Engine; a direct RunSession
// without one runs id-free and records into nothing.
struct SessionContext {
  // Engine-minted stable query id (DESIGN.md §12), minted by
  // Engine::CreateSession. The flight records, the profile, the
  // lineage report and the log lines all carry it; 0 = no id.
  uint64_t query_id = 0;
  // The engine's telemetry (not owned): the stall watchdog counts its
  // stalls and dumps there and publishes per-SCC queue depths as
  // gauges.
  EngineTelemetry* telemetry = nullptr;
  // The engine's flight recorder (not owned): the session's Network
  // writes one record per delivery, and the session records its phases,
  // Fig. 2 transitions and lifecycle (msg/flight_recorder.h).
  FlightRecorder* flight = nullptr;
  // The engine's worker pool (not owned): a threaded session borrows its
  // helper threads and its stall monitor. A threaded session without
  // one fails with FailedPrecondition.
  WorkerPool* pool = nullptr;
};

/// Executes one query session over an already-compiled plan: wires one
/// process per graph node plus the sink, runs the scheduler and
/// collects the result. EDB leaves probe the hash indexes already on
/// `db` (Engine::Prepare builds the ones the plan needs; a missing one
/// degrades to a scan) and never change it. With `options.lineage` the
/// session numbers the EDB rows and detaches that numbering again
/// before it returns, so it needs `db` to itself. QuerySession::Run
/// lands here; tests and micro-benchmarks that drive a hand-built graph
/// may call it directly.
StatusOr<EvaluationResult> RunSession(const RuleGoalGraph& graph, Database& db,
                                      const SessionOptions& options,
                                      const SessionContext& context = {});

}  // namespace mpqe

#endif  // MPQE_ENGINE_EVALUATOR_H_
