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
// Observability (see DESIGN.md § Observability): attach any number of
// ExecutionObservers via SessionOptions::observers — e.g. a
// TraceExporter for a chrome://tracing timeline or a custom observer
// for test assertions — and/or point SessionOptions::metrics at a
// MetricsRegistry to collect named counters and histograms.

#ifndef MPQE_ENGINE_EVALUATOR_H_
#define MPQE_ENGINE_EVALUATOR_H_

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
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "relational/database.h"
#include "sips/strategy.h"

namespace mpqe {

// The options of an evaluation split along the engine lifecycle
// (DESIGN.md §11): PlanOptions govern query *compilation* (parse,
// validate, adorn, sips, graph build — everything a PreparedQuery
// caches), SessionOptions govern one *execution* of a compiled plan
// (scheduler, wire format, observers).

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
  int workers = 4;      // kThreaded

  // Answers travel as columnar TupleSegments (msg/segment.h): a node
  // accumulates the rows it emits on one stream during one mailbox run
  // into one shared kTupleSegment, and seals it early once it reaches
  // this many rows (bounds per-run buffering; must be >= 1). At run
  // end a node packages what it emitted into one batch envelope per
  // destination (the paper's footnote 2).
  size_t segment_max_rows = 1024;

  // Safety valve against runaway computations (0 = unlimited).
  uint64_t max_messages = 0;

  // Ablation: disable EDB hash indexes (EDB leaves scan instead of
  // probe). Answers are unchanged; only time differs.
  bool use_edb_indexes = true;

  // Execution observers (not owned; must outlive the evaluation).
  // They receive typed events from every layer — sends, deliveries,
  // node firings, phases, termination protocol. See obs/observer.h
  // for the callback set and threading contract.
  std::vector<ExecutionObserver*> observers;

  // When set, the evaluation feeds this registry live (via an
  // internal MetricsObserver) and dumps the end-of-run engine /
  // per-predicate counters into it. Not owned.
  MetricsRegistry* metrics = nullptr;

  // Record per-arc send counters in `metrics` (cardinality = number
  // of live graph edges; off by default).
  bool metrics_per_arc = false;

  // Attach a ProfilingObserver for the run and fill
  // EvaluationResult::profile with per-node / per-SCC attribution and
  // §4.3 cost estimates sized from the database (see obs/profiler.h).
  // When `metrics` is also set, the per-node counters are additionally
  // dumped as aggregated/node/<id>/<field> entries.
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
  // neither names a level, engine logging stays off entirely (no
  // observer is attached). Logging goes to stderr with thread tags and
  // never changes evaluation behavior or results.
  std::string log_level;

  // Stall heartbeat for the threaded scheduler: when > 0 and no
  // message is delivered for this many milliseconds, log per-SCC queue
  // depths and in-flight counts (at WARNING, repeating each stalled
  // interval). 0 disables; other schedulers ignore it (they cannot
  // stall silently).
  int progress_interval_ms = 0;

  // Engine-minted stable query id (DESIGN.md §12), set by
  // Engine::CreateSession when the engine runs with telemetry; published
  // to every observer as a SessionStartEvent before any other event, so
  // trace spans, log lines, lineage dumps and the engine query log all
  // carry the same id. 0 (an engine with telemetry off, or a direct
  // RunSession) sends no event, and the outputs stay id-free.
  uint64_t query_id = 0;

  // Engine telemetry sink (not owned; set by Engine::CreateSession,
  // never by callers). When set, the stall heartbeat additionally
  // publishes per-SCC queue depths as live gauges.
  EngineTelemetry* telemetry = nullptr;

  // Flight recorder sink (not owned; set by Engine::CreateSession when
  // EngineOptions::flight_recorder is on, or directly by tests). When
  // set, the session's Network writes one record per delivery and the
  // engine records phases, Fig. 2 transitions and the session
  // lifecycle into the engine's black box (msg/flight_recorder.h). It
  // attaches no observer.
  FlightRecorder* flight = nullptr;

  // Stall watchdog (threaded scheduler only): when > 0 and the session
  // makes no delivery progress for this many milliseconds, build a
  // FlightDump diagnostic bundle — flight-recorder contents, per-SCC
  // Fig. 2 protocol state, per-node queue depths — and hand it to
  // flight_dump_sink (once per stall episode). Builds on the
  // progress_interval_ms heartbeat; both may be set, and the monitor
  // runs at the smaller interval. 0 disables.
  int watchdog_stall_ms = 0;

  // Receives the watchdog's diagnostic bundle. Called on the monitor
  // thread while the session is stalled; must not block for long. Set
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

// One graph node's share of EvaluationResult::counters.
struct NodeCounters {
  NodeId node = kNoNode;
  EngineCounters counters;
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

  // ExecutionObservers the session's network carried: 0 means every
  // send, delivery and node firing took the zero-observer fast path.
  size_t observer_count = 0;

  // One row per graph node, summing to `counters`. Use together with
  // RuleGoalGraph::NodeLabel to see where tuples accumulate.
  std::vector<NodeCounters> node_counters;

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
                                      const SessionOptions& options);

}  // namespace mpqe

#endif  // MPQE_ENGINE_EVALUATOR_H_
