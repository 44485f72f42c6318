#include "engine/evaluator.h"

#include <algorithm>
#include <map>
#include <optional>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/logging_observer.h"

namespace mpqe {

Status PlanOptions::Validate() const {
  StatusOr<std::unique_ptr<SipsStrategy>> made =
      MakeStrategyByName(strategy);
  if (!made.ok()) {
    return InvalidArgumentError(
        StrCat("strategy: ", made.status().message()));
  }
  if (graph_options.max_nodes < 1) {
    return InvalidArgumentError(
        StrCat("graph_options.max_nodes: must be >= 1, got ",
               graph_options.max_nodes));
  }
  return Status::Ok();
}

Status SessionOptions::Validate() const {
  switch (scheduler) {
    case SchedulerKind::kDeterministic:
    case SchedulerKind::kRandom:
    case SchedulerKind::kThreaded:
      break;
    default:
      return InvalidArgumentError(
          StrCat("scheduler: invalid value ", static_cast<int>(scheduler)));
  }
  // `workers` only drives the threaded scheduler, but a non-positive
  // count is nonsense under every configuration — reject it early so
  // a later scheduler switch does not start failing mysteriously.
  if (workers < 1) {
    return InvalidArgumentError(
        StrCat("workers: must be >= 1, got ", workers));
  }
  if (segment_max_rows < 1) {
    return InvalidArgumentError("segment_max_rows: must be >= 1");
  }
  // Empty log_level is fine (defers to MPQE_LOG_LEVEL); an explicit
  // but unknown name is a configuration error.
  StatusOr<std::optional<LogLevel>> level = EngineLogLevelFromName(log_level);
  if (!level.ok()) {
    return InvalidArgumentError(
        StrCat("log_level: ", level.status().message()));
  }
  if (progress_interval_ms < 0) {
    return InvalidArgumentError(
        StrCat("progress_interval_ms: must be >= 0, got ",
               progress_interval_ms));
  }
  if (watchdog_stall_ms < 0) {
    return InvalidArgumentError(
        StrCat("watchdog_stall_ms: must be >= 0, got ", watchdog_stall_ms));
  }
  if (fault_park_ms < 0) {
    return InvalidArgumentError(
        StrCat("fault_park_ms: must be >= 0, got ", fault_park_ms));
  }
  return Status::Ok();
}

namespace {

// The observers of one session: the caller's ExecutionObservers, plus
// (when configured) an internal MetricsObserver and the observers
// backing SessionOptions::profile, ::lineage and ::log_level. The
// internal observers live exactly as long as the session.
struct ScopedObservers {
  ObserverList list;
  std::optional<MetricsObserver> metrics;
  std::optional<ProfilingObserver> profiler;
  std::optional<LineageObserver> lineage;
  std::optional<LoggingObserver> logger;

  explicit ScopedObservers(const SessionOptions& options) {
    for (ExecutionObserver* o : options.observers) list.Add(o);
    if (options.metrics != nullptr) {
      MetricsObserver::Options metrics_options;
      metrics_options.per_arc = options.metrics_per_arc;
      metrics.emplace(options.metrics, metrics_options);
      list.Add(&*metrics);
    }
    if (options.profile) {
      profiler.emplace();
      list.Add(&*profiler);
    }
    if (options.lineage) {
      lineage.emplace();
      list.Add(&*lineage);
    }
    // No level resolved (neither the option nor MPQE_LOG_LEVEL names
    // one) means no observer at all — the zero-observer fast path
    // stays intact by default.
    std::optional<LogLevel> level = ResolveEngineLogLevel(options.log_level);
    if (level.has_value()) {
      logger.emplace(*level);
      list.Add(&*logger);
    }
  }
};

// RAII phase reporter: begin on construction, end on destruction, to
// the observers and straight to the flight recorder.
class ScopedPhase {
 public:
  ScopedPhase(const ObserverList& list, const SessionOptions& options,
              Phase phase)
      : list_(list), options_(options), phase_(phase) {
    Report(/*begin=*/true);
  }
  ~ScopedPhase() { Report(/*begin=*/false); }

 private:
  void Report(bool begin) const {
    if (options_.flight != nullptr) {
      options_.flight->RecordEvent(FlightEventType::kPhase, options_.query_id,
                                   begin ? 1 : 0, -1, 0, 0,
                                   static_cast<uint8_t>(phase_));
    }
    if (!list_.empty()) list_.NotifyPhase(PhaseEvent{phase_, begin});
  }

  const ObserverList& list_;
  const SessionOptions& options_;
  Phase phase_;
};

// The predicate a graph node computes/serves (for the per-predicate
// metric dump).
PredicateId NodePredicate(const GraphNode& node) {
  return node.kind == NodeKind::kRule ? node.rule.head.predicate
                                      : node.atom.predicate;
}

void DumpMetrics(const SessionOptions& options, const RuleGoalGraph& graph,
                 const EvaluationResult& result) {
  MetricsRegistry& registry = *options.metrics;
  registry.GetCounter("engine/stored_tuples")
      .Increment(result.counters.stored_tuples);
  registry.GetCounter("engine/duplicate_drops")
      .Increment(result.counters.duplicate_drops);
  registry.GetCounter("engine/contexts").Increment(result.counters.contexts);
  registry.GetCounter("engine/max_node_relation")
      .Increment(result.counters.max_node_relation);
  registry.GetCounter("engine/protocol_waves")
      .Increment(result.counters.protocol_waves);
  registry.GetCounter("run/answers").Increment(result.answers.size());
  registry.GetCounter("run/delivered").Increment(result.delivered);
  registry.GetCounter("run/ended_by_protocol")
      .Increment(result.ended_by_protocol ? 1 : 0);

  const PredicatePool& predicates = graph.program().predicates();
  for (const NodeCounters& row : result.node_counters) {
    const std::string& name =
        predicates.Name(NodePredicate(graph.node(row.node)));
    registry.GetCounter(StrCat("predicate/", name, "/stored_tuples"))
        .Increment(row.counters.stored_tuples);
    registry.GetCounter(StrCat("predicate/", name, "/dedup_hits"))
        .Increment(row.counters.duplicate_drops);
  }
}

// Per-node profiler counters as aggregated/node/<id>/<field> metric
// entries (the MetricsRegistry dump is the one sink CI scrapes).
void DumpProfileMetrics(const ProfileReport& report,
                        MetricsRegistry& registry) {
  for (const NodeProfile& n : report.nodes) {
    std::string prefix = StrCat("aggregated/node/", n.node, "/");
    registry.GetCounter(StrCat(prefix, "fires")).Increment(n.fires);
    registry.GetCounter(StrCat(prefix, "tuples_in")).Increment(n.tuples_in);
    registry.GetCounter(StrCat(prefix, "tuples_out")).Increment(n.tuples_out);
    registry.GetCounter(StrCat(prefix, "dedup_hits")).Increment(n.dedup_hits);
    registry.GetCounter(StrCat(prefix, "msgs_in")).Increment(n.msgs_in);
    registry.GetCounter(StrCat(prefix, "msgs_out")).Increment(n.msgs_out);
    registry.GetCounter(StrCat(prefix, "segments_out")).Increment(n.segments_out);
    registry.GetCounter(StrCat(prefix, "segment_rows_out"))
        .Increment(n.segment_rows_out);
    registry.GetCounter(StrCat(prefix, "batch_rows_in"))
        .Increment(n.batch_rows_in);
    registry.GetCounter(StrCat(prefix, "batch_dedup_hits"))
        .Increment(n.batch_dedup_hits);
    registry.GetCounter(StrCat(prefix, "fire_ns")).Increment(n.fire_ns);
    registry.GetCounter(StrCat(prefix, "queue_wait_ns"))
        .Increment(n.queue_wait_ns);
  }
}

// The stall-heartbeat sink: one WARNING line with the nonempty
// mailboxes grouped by strong component (runs on the monitor thread;
// MPQE_LOG serializes whole lines).
void LogStall(const RuleGoalGraph& graph, const StallInfo& info) {
  std::map<int64_t, std::vector<std::pair<ProcessId, size_t>>> by_scc;
  std::string sink_detail;
  for (const auto& entry : info.queue_depths) {
    if (entry.first < static_cast<ProcessId>(graph.size())) {
      by_scc[graph.node(entry.first).scc_id].push_back(entry);
    } else {
      sink_detail += StrCat(" sink(depth ", entry.second, ")");
    }
  }
  std::string detail;
  for (const auto& [scc, rows] : by_scc) {
    detail += StrCat(" scc ", scc, "{");
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) detail += ", ";
      detail += StrCat("node ", rows[i].first, ": depth ", rows[i].second);
    }
    detail += "}";
  }
  MPQE_LOG(kWarning) << "[" << ThreadTag() << "] threaded run stalled "
                     << info.stalled_ms << "ms: delivered=" << info.delivered
                     << " in_flight=" << info.in_flight << detail
                     << sink_detail;
}

// Assembles the watchdog's diagnostic bundle: per-SCC Fig. 2 protocol
// state (leaders' TerminationParticipant exports), per-node queue
// depths and recent-activity accounting, and the time-ordered flight
// records of this session. Runs on the monitor thread while the
// workers are (by definition of a stall) not delivering; every source
// it reads is either immutable wiring state or a relaxed atomic.
FlightDump BuildFlightDump(const RuleGoalGraph& graph, const Database& db,
                           const std::vector<NodeProcessBase*>& node_processes,
                           const SessionOptions& options,
                           const StallInfo& info) {
  FlightDump dump;
  dump.reason = "stall";
  dump.query_id = options.query_id;
  dump.stalled_ms = info.stalled_ms;
  dump.delivered = info.delivered;
  dump.in_flight = info.in_flight;

  std::vector<uint64_t> depth_by_node(graph.size(), 0);
  std::map<int64_t, uint64_t> depth_by_scc;
  for (const auto& [pid, depth] : info.queue_depths) {
    if (pid < static_cast<ProcessId>(graph.size())) {
      depth_by_node[pid] = depth;
      depth_by_scc[graph.node(pid).scc_id] += depth;
    }
  }

  std::map<int64_t, FlightDumpScc> sccs;
  for (NodeId id = 0; id < static_cast<NodeId>(graph.size()); ++id) {
    const GraphNode& n = graph.node(id);
    FlightDumpScc& row = sccs[n.scc_id];
    row.scc = n.scc_id;
    ++row.members;
    if (!n.scc_is_trivial) {
      row.nontrivial = true;
      if (n.is_leader) {
        row.leader = id;
        TerminationState st = node_processes[id]->termination_state();
        row.wave_active = st.wave_active;
        row.wave = st.wave;
        row.waves_started = st.waves_started;
        row.waiting_for = st.waiting_for;
        row.all_confirmed = st.all_confirmed;
        row.idleness = st.idleness;
        row.open_work = st.subtree_open_work;
        row.notice_pending = st.notice_pending;
      }
    }
  }
  for (auto& [scc, row] : sccs) {
    auto it = depth_by_scc.find(scc);
    if (it != depth_by_scc.end()) row.queue_depth = it->second;
  }

  // The wedged component: deepest queues win; with every queue empty
  // (a protocol-level wedge), the first nontrivial SCC whose protocol
  // is visibly mid-flight.
  uint64_t best_depth = 0;
  for (const auto& [scc, depth] : depth_by_scc) {
    if (depth > best_depth) {
      best_depth = depth;
      dump.stuck_scc = scc;
    }
  }
  if (dump.stuck_scc == -1) {
    for (const auto& [scc, row] : sccs) {
      if (row.nontrivial &&
          (row.wave_active || row.waiting_for > 0 || row.notice_pending)) {
        dump.stuck_scc = scc;
        break;
      }
    }
  }
  dump.sccs.reserve(sccs.size());
  for (auto& [scc, row] : sccs) dump.sccs.push_back(row);

  if (options.flight != nullptr) {
    for (FlightRecord& r : options.flight->Snapshot()) {
      // The recorder is engine-wide; keep this session's records plus
      // engine-level ones (query_id 0: plan cache, lifecycle).
      if (options.query_id == 0 || r.query_id == options.query_id ||
          r.query_id == 0) {
        dump.events.push_back(r);
      }
    }
  }

  dump.nodes.reserve(graph.size());
  for (NodeId id = 0; id < static_cast<NodeId>(graph.size()); ++id) {
    FlightDumpNode row;
    row.node = id;
    row.label = graph.NodeLabel(id, &db.symbols());
    row.scc = graph.node(id).scc_id;
    row.queue_depth = depth_by_node[id];
    dump.nodes.push_back(std::move(row));
  }
  // One kDeliver record per handler run: it is the receiver's fire and
  // delivery, and the sender's (delivered) send.
  const auto is_node = [&](int32_t id) {
    return id >= 0 && id < static_cast<int32_t>(dump.nodes.size());
  };
  for (const FlightRecord& r : dump.events) {
    if (r.type != static_cast<uint8_t>(FlightEventType::kDeliver)) continue;
    if (is_node(r.a)) ++dump.nodes[r.a].sends;
    if (is_node(r.b)) {
      FlightDumpNode& to = dump.nodes[r.b];
      ++to.fires;
      ++to.deliveries;
      to.last_fire_ts_ns = r.ts_ns;
      to.last_delivery_ts_ns = r.ts_ns;
    }
  }
  return dump;
}

// Detaches lineage from the EDB relations a session numbered, on every
// path out of RunSession: no relation may keep the session's allocator
// (it dies with the session), and the next lineage session over the
// same database must renumber the rows from its own allocator.
struct EdbLineageGuard {
  EdbLineageGuard() = default;
  EdbLineageGuard(const EdbLineageGuard&) = delete;
  EdbLineageGuard& operator=(const EdbLineageGuard&) = delete;
  ~EdbLineageGuard() {
    for (Relation* relation : relations) relation->DisableLineage();
  }

  std::vector<Relation*> relations;
};

}  // namespace

StatusOr<EvaluationResult> RunSession(const RuleGoalGraph& graph, Database& db,
                                      const SessionOptions& options) {
  MPQE_RETURN_IF_ERROR(options.Validate());
  ScopedObservers scoped(options);
  // Identify the session before any other event so every observer can
  // stamp its output with the engine-minted query id. 0 means no id
  // (telemetry off, or a direct call): no event, outputs stay id-free.
  if (options.query_id != 0 && !scoped.list.empty()) {
    scoped.list.NotifySessionStart(SessionStartEvent{options.query_id});
  }
  if (options.flight != nullptr) {
    // The session header: scheduler kind and worker count.
    options.flight->RecordEvent(FlightEventType::kSessionStart,
                                options.query_id,
                                static_cast<int32_t>(options.scheduler),
                                options.workers);
  }
  if (scoped.profiler.has_value()) {
    scoped.profiler->AttachGraph(&graph, &db.symbols());
  }
  if (scoped.lineage.has_value()) {
    scoped.lineage->AttachGraph(&graph, &db.symbols());
  }

  Network network;
  for (ExecutionObserver* o : scoped.list.items()) network.AddObserver(o);
  if (options.flight != nullptr) {
    network.SetFlightRecorder(options.flight, options.query_id);
  }
  EngineShared shared;
  shared.graph = &graph;
  shared.db = &db;
  shared.segment_max_rows = options.segment_max_rows;
  shared.use_edb_indexes = options.use_edb_indexes;
  EdbLineageGuard edb_lineage;
  if (scoped.lineage.has_value()) {
    // Ids must be flowing before any process stores or serves a tuple:
    // number the EDB rows first (they are the smallest ids — leaves),
    // then hand the allocator to every node process via shared.
    shared.lineage_ids = scoped.lineage->ids();
    // Sorted so EDB fact ids (and thus pinned proof trees) are
    // deterministic — RelationNames follows hash-map order.
    std::vector<std::string> names = db.RelationNames();
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      Relation* relation = db.GetMutableRelation(name);
      relation->EnableLineage(shared.lineage_ids);
      edb_lineage.relations.push_back(relation);
      scoped.lineage->AttachEdbRelation(name, relation);
    }
  }
  shared.fault_park_node = options.fault_park_node;
  shared.fault_park_ms = options.fault_park_ms;

  std::vector<NodeProcessBase*> node_processes;
  SinkProcess* sink_ptr = nullptr;
  {
    ScopedPhase phase(scoped.list, options, Phase::kNetworkWiring);
    // One process per graph node (pid == node id), plus the sink. The
    // pid map is filled up front because process constructors plan
    // against it.
    for (NodeId id = 0; id < static_cast<NodeId>(graph.size()); ++id) {
      shared.node_pid.push_back(id);
    }
    node_processes.reserve(graph.size());
    for (NodeId id = 0; id < static_cast<NodeId>(graph.size()); ++id) {
      auto process = MakeNodeProcess(shared, id);
      node_processes.push_back(process.get());
      ProcessId pid = network.AddProcess(std::move(process));
      MPQE_CHECK(pid == id);
    }
    size_t goal_arity =
        graph.program().predicates().Arity(graph.program().GoalPredicate());
    auto sink = std::make_unique<SinkProcess>(shared.node_pid[graph.root()],
                                              goal_arity);
    sink_ptr = sink.get();
    shared.sink_pid = network.AddProcess(std::move(sink));

    // Engage the Fig. 2 protocol for members of nontrivial SCCs.
    for (NodeId id = 0; id < static_cast<NodeId>(graph.size()); ++id) {
      const GraphNode& n = graph.node(id);
      if (n.scc_is_trivial) continue;
      std::vector<ProcessId> children;
      for (NodeId c : n.bfst_children) children.push_back(shared.node_pid[c]);
      NodeId leader = graph.scc_leader(n.scc_id);
      node_processes[id]->ConfigureTermination(
          &network, n.is_leader, shared.node_pid[leader],
          n.bfst_parent == kNoNode ? kNoProcess
                                   : shared.node_pid[n.bfst_parent],
          std::move(children));
    }
    network.Start();
  }

  // Stall heartbeat + watchdog. Configured after wiring so the monitor
  // handler can read the node processes' termination state; the
  // monitor thread only exists while Network::Run executes, so every
  // capture below outlives it.
  if (options.scheduler == SchedulerKind::kThreaded &&
      (options.progress_interval_ms > 0 || options.watchdog_stall_ms > 0)) {
    EngineTelemetry* telemetry = options.telemetry;
    const uint64_t query_id = options.query_id;
    // Report at the finer of the two cadences so a watchdog threshold
    // is noticed within one interval of being crossed.
    int interval = options.progress_interval_ms;
    if (options.watchdog_stall_ms > 0 &&
        (interval <= 0 || options.watchdog_stall_ms < interval)) {
      interval = options.watchdog_stall_ms;
    }
    // One dump per stall episode: a delivery in between starts a new
    // episode (only the monitor thread touches this state).
    struct WatchdogState {
      bool dumped = false;
      uint64_t delivered_at_dump = 0;
    };
    auto watchdog = std::make_shared<WatchdogState>();
    network.ConfigureStallMonitor(
        interval,
        [&graph, &db, &node_processes, &options, telemetry, query_id,
         watchdog](const StallInfo& info) {
          LogStall(graph, info);
          if (options.flight != nullptr) {
            options.flight->RecordEvent(
                FlightEventType::kStall, query_id,
                static_cast<int32_t>(
                    std::min<uint64_t>(info.in_flight, INT32_MAX)),
                -1, 0,
                static_cast<uint32_t>(
                    std::min<int64_t>(info.stalled_ms, UINT32_MAX)));
          }
          if (telemetry != nullptr) {
            // Fold the nonempty mailboxes into per-SCC totals (the
            // sink pseudo-process has no SCC and is covered by
            // in_flight).
            std::map<int64_t, uint64_t> by_scc;
            for (const auto& [pid, depth] : info.queue_depths) {
              if (pid < static_cast<ProcessId>(graph.size())) {
                by_scc[graph.node(pid).scc_id] += depth;
              }
            }
            telemetry->ReportQueueDepths(
                query_id,
                std::vector<std::pair<int64_t, uint64_t>>(by_scc.begin(),
                                                          by_scc.end()),
                info.in_flight);
          }
          if (options.watchdog_stall_ms <= 0 ||
              info.stalled_ms < options.watchdog_stall_ms) {
            return;
          }
          if (watchdog->dumped &&
              watchdog->delivered_at_dump == info.delivered) {
            return;  // already dumped this episode
          }
          watchdog->dumped = true;
          watchdog->delivered_at_dump = info.delivered;
          if (telemetry != nullptr) {
            telemetry->registry().GetCounter("watchdog/stalls").Increment();
          }
          FlightDump dump =
              BuildFlightDump(graph, db, node_processes, options, info);
          if (options.flight != nullptr) {
            options.flight->RecordEvent(
                FlightEventType::kWatchdogDump, query_id,
                static_cast<int32_t>(dump.stuck_scc));
          }
          if (options.flight_dump_sink) {
            if (telemetry != nullptr) {
              telemetry->registry().GetCounter("watchdog/dumps").Increment();
            }
            options.flight_dump_sink(dump);
          }
        });
  }

  StatusOr<RunResult> run = InternalError("scheduler did not run");
  {
    ScopedPhase phase(scoped.list, options, Phase::kRun);
    SchedulerParams params;
    params.seed = options.seed;
    params.workers = options.workers;
    params.max_messages = options.max_messages;
    run = network.Run(options.scheduler, params);
  }
  if (!run.ok()) return run.status();

  EvaluationResult result;
  {
    // Ends before the profile and lineage finalizers below, so the
    // profile reports the drain phase's time too.
    ScopedPhase phase(scoped.list, options, Phase::kDrain);
    result.answers = sink_ptr->answers();
    result.ended_by_protocol = sink_ptr->done();
    result.quiescent_after = network.TotalPending() == 0;
    result.message_stats = network.stats();
    result.graph_stats = graph.Stats();
    result.delivered = run->delivered;
    result.observer_count = network.observers().size();
    result.node_counters.reserve(node_processes.size());
    for (NodeProcessBase* p : node_processes) {
      NodeCounters row;
      row.node = p->node_id();
      p->AccumulateCounters(row.counters);
      p->AccumulateCounters(result.counters);
      result.node_counters.push_back(std::move(row));
    }
    if (options.metrics != nullptr) {
      DumpMetrics(options, graph, result);
    }
  }
  if (scoped.profiler.has_value()) {
    auto report = std::make_shared<ProfileReport>(scoped.profiler->Finalize());
    FillCostEstimates(graph,
                      CostModelParamsFromDatabase(graph.program(), db),
                      *report);
    if (options.metrics != nullptr) {
      DumpProfileMetrics(*report, *options.metrics);
    }
    result.profile = std::move(report);
  }
  if (scoped.lineage.has_value()) {
    result.lineage =
        std::make_shared<const LineageReport>(scoped.lineage->Finalize());
  }
  if (!result.ended_by_protocol && !run->quiescent) {
    return InternalError(
        "evaluation stopped without protocol end or quiescence");
  }
  return result;
}

}  // namespace mpqe
