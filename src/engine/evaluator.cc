#include "engine/evaluator.h"

#include <algorithm>
#include <map>
#include <optional>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/engine_log.h"

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

// RAII phase reporter: begin on construction, end on destruction, to
// the flight recorder and the session's log. The end stores the phase's
// wall time in `result.phase_ns`.
class ScopedPhase {
 public:
  ScopedPhase(const SessionContext& context, const EngineLog* log,
              Phase phase, EvaluationResult& result)
      : context_(context), log_(log), phase_(phase), result_(result) {
    Report(/*begin=*/true);
    begin_ns_ = FlightRecorder::NowNs();
  }
  ~ScopedPhase() {
    result_.phase_ns[static_cast<size_t>(phase_)] =
        FlightRecorder::NowNs() - begin_ns_;
    Report(/*begin=*/false);
  }

 private:
  void Report(bool begin) const {
    if (context_.flight != nullptr) {
      context_.flight->RecordEvent(FlightEventType::kPhase, context_.query_id,
                                   begin ? 1 : 0, -1, 0, 0,
                                   static_cast<uint8_t>(phase_));
    }
    if (log_ != nullptr) log_->PhaseLine(phase_, begin);
  }

  const SessionContext& context_;
  const EngineLog* log_;
  Phase phase_;
  EvaluationResult& result_;
  uint64_t begin_ns_ = 0;
};

// The scalar families SessionTotals writes, each with the count it
// reads from a session's result.
struct CounterFamily {
  const char* name;
  uint64_t (*count)(const EvaluationResult&);
};

const CounterFamily kCounterFamilies[] = {
    {"msg/delivered",
     [](const EvaluationResult& r) { return r.traffic.delivered; }},
    {"msg/segment_rows",
     [](const EvaluationResult& r) { return r.message_stats.segment_rows; }},
    {"node/fires",
     [](const EvaluationResult& r) { return r.NodeTraffic().delivered; }},
    {"dedup/hits",
     [](const EvaluationResult& r) { return r.counters.duplicate_drops; }},
    {"termination/wave_started",
     [](const EvaluationResult& r) { return r.counters.protocol_waves; }},
    {"termination/answer_negative",
     [](const EvaluationResult& r) { return r.counters.negative_answers; }},
    {"termination/answer_confirmed",
     [](const EvaluationResult& r) { return r.counters.confirmed_answers; }},
    {"termination/concluded",
     [](const EvaluationResult& r) { return r.counters.conclusions; }},
    {"termination/work_notice",
     [](const EvaluationResult& r) { return r.counters.work_notices; }},
    {"engine/stored_tuples",
     [](const EvaluationResult& r) { return r.counters.stored_tuples; }},
    {"engine/contexts",
     [](const EvaluationResult& r) { return r.counters.contexts; }},
    {"run/answers",
     [](const EvaluationResult& r) {
       return static_cast<uint64_t>(r.answers.size());
     }},
    {"run/ended_by_protocol",
     [](const EvaluationResult& r) {
       return static_cast<uint64_t>(r.ended_by_protocol ? 1 : 0);
     }},
};

// The session's profile, assembled from the counts every session keeps:
// per node the network's traffic record and the node's relation and
// Fig. 2 counters, per run the phase times.
ProfileReport BuildProfile(const RuleGoalGraph& graph, const Database& db,
                           uint64_t query_id, const EvaluationResult& result) {
  ProfileReport report;
  report.query_id = query_id;
  report.phase_ns.assign(result.phase_ns.begin(), result.phase_ns.end());
  report.total_msgs_sent = result.traffic.sent();
  report.total_msgs_delivered = result.traffic.delivered;
  for (const NodeCounters& row : result.node_counters) {
    const GraphNode& n = graph.node(row.node);
    const ProcessCounts& t = row.traffic;
    NodeProfile p;
    p.node = row.node;
    p.role = NodeRoleOf(n.kind);
    p.label = graph.NodeLabel(row.node, &db.symbols());
    p.scc_id = n.scc_id;
    p.fires = t.delivered;
    p.requests_in = t.requests_in;
    p.tuples_in = t.segment_rows_in;
    p.tuples_out = t.segment_rows_out;
    p.dedup_hits = row.counters.duplicate_drops;
    p.msgs_in = t.delivered;
    p.msgs_out = t.sent();
    p.batch_envelopes_in = t.envelopes_in;
    p.batch_envelopes_out =
        t.sent_by_kind[static_cast<size_t>(MessageKind::kBatch)];
    p.segments_in = t.segments_in;
    p.segments_out = t.segments_out;
    p.segment_rows_in = t.segment_rows_in;
    p.segment_rows_out = t.segment_rows_out;
    p.fire_ns = t.handler_ns;
    p.queue_wait_ns = t.queue_wait_ns;
    report.total_fires += p.fires;
    report.total_tuples_in += p.tuples_in;
    report.total_tuples_out += p.tuples_out;
    report.total_dedup_hits += p.dedup_hits;
    report.total_fire_ns += p.fire_ns;
    report.total_queue_wait_ns += p.queue_wait_ns;
    report.nodes.push_back(std::move(p));
  }
  // One SccProfile per nontrivial component, its members' Fig. 2
  // counts summed.
  for (int scc = 0; scc < graph.scc_count(); ++scc) {
    const std::vector<NodeId>& members = graph.scc_members(scc);
    if (members.empty() || graph.node(members.front()).scc_is_trivial) {
      continue;
    }
    SccProfile row;
    row.scc_id = scc;
    row.members.assign(members.begin(), members.end());
    row.leader = graph.scc_leader(scc);
    row.tree_depth = graph.BfstHeight(scc);
    for (NodeId m : members) {
      const EngineCounters& c = result.node_counters[m].counters;
      row.waves += c.protocol_waves;
      row.negative_answers += c.negative_answers;
      row.confirmed_answers += c.confirmed_answers;
      row.work_notices += c.work_notices;
      row.concluded += c.conclusions;
    }
    report.sccs.push_back(std::move(row));
  }
  FillCostEstimates(graph, CostModelParamsFromDatabase(graph.program(), db),
                    report);
  return report;
}

// The stall watchdog's log line: one WARNING with the nonempty
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
                           const SessionContext& context,
                           const StallInfo& info) {
  FlightDump dump;
  dump.reason = "stall";
  dump.query_id = context.query_id;
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

  if (context.flight != nullptr) {
    for (FlightRecord& r : context.flight->Snapshot()) {
      // The recorder is engine-wide; keep this session's records plus
      // engine-level ones (query_id 0: plan cache, lifecycle).
      if (context.query_id == 0 || r.query_id == context.query_id ||
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

ProcessCounts EvaluationResult::NodeTraffic() const {
  ProcessCounts sum;
  for (const NodeCounters& row : node_counters) sum.Add(row.traffic);
  return sum;
}

SessionTotals::SessionTotals(MetricsRegistry& registry) {
  for (const CounterFamily& family : kCounterFamilies) {
    counters_.push_back(&registry.GetCounter(family.name));
  }
  for (size_t k = 0; k < sent_.size(); ++k) {
    sent_[k] = &registry.GetCounter(
        StrCat("msg/sent/", MessageKindToString(static_cast<MessageKind>(k))));
  }
  for (size_t p = 0; p < phase_ns_.size(); ++p) {
    phase_ns_[p] = &registry.GetHistogram(
        StrCat("phase/", PhaseToString(static_cast<Phase>(p)), "/ns"));
  }
  max_node_relation_ = &registry.GetHistogram("engine/max_node_relation");
}

void SessionTotals::Add(const EvaluationResult& result) const {
  for (size_t i = 0; i < counters_.size(); ++i) {
    const uint64_t count = kCounterFamilies[i].count(result);
    if (count != 0) counters_[i]->Increment(count);
  }
  for (size_t k = 0; k < sent_.size(); ++k) {
    if (result.traffic.sent_by_kind[k] != 0) {
      sent_[k]->Increment(result.traffic.sent_by_kind[k]);
    }
  }
  for (size_t p = 0; p < phase_ns_.size(); ++p) {
    phase_ns_[p]->Record(result.phase_ns[p]);
  }
  max_node_relation_->Record(result.counters.max_node_relation);
}

StatusOr<EvaluationResult> RunSession(const RuleGoalGraph& graph, Database& db,
                                      const SessionOptions& options,
                                      const SessionContext& context) {
  MPQE_RETURN_IF_ERROR(options.Validate());
  // No level resolved (neither the option nor MPQE_LOG_LEVEL names
  // one) means no log: every log site is one null check.
  std::optional<EngineLog> log;
  if (std::optional<LogLevel> level =
          ResolveEngineLogLevel(options.log_level)) {
    log.emplace(*level, context.query_id);
    log->Line(LogLevel::kInfo, "session start");
  }
  // Declared before the network: node relations draw ids from its
  // allocator until the processes are gone.
  std::optional<LineageCollector> lineage;
  if (context.flight != nullptr) {
    // The session header: scheduler kind and worker count.
    context.flight->RecordEvent(FlightEventType::kSessionStart,
                                context.query_id,
                                static_cast<int32_t>(options.scheduler),
                                options.workers);
  }

  // Destroyed inside the drain phase, so the phase covers teardown.
  std::optional<Network> owned_network(std::in_place);
  Network& network = *owned_network;
  if (options.send_tap) network.SetSendTap(options.send_tap);
  if (context.flight != nullptr) {
    network.SetFlightRecorder(context.flight, context.query_id);
  }
  EngineShared shared;
  shared.graph = &graph;
  shared.db = &db;
  shared.segment_max_rows = options.segment_max_rows;
  shared.log = log.has_value() ? &*log : nullptr;
  EdbLineageGuard edb_lineage;
  if (options.lineage) {
    lineage.emplace(context.query_id);
    lineage->AttachGraph(&graph, &db.symbols());
    // Ids must be flowing before any process stores or serves a tuple:
    // number the EDB rows first (they are the smallest ids — leaves),
    // then hand the collector to every node process via shared.
    shared.lineage = &*lineage;
    // Sorted so EDB fact ids (and thus pinned proof trees) are
    // deterministic — RelationNames follows hash-map order.
    std::vector<std::string> names = db.RelationNames();
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      Relation* relation = db.GetMutableRelation(name);
      relation->EnableLineage(lineage->ids());
      edb_lineage.relations.push_back(relation);
      lineage->AttachEdbRelation(name, relation);
    }
  }
  shared.fault_park_node = options.fault_park_node;
  shared.fault_park_ms = options.fault_park_ms;

  EvaluationResult result;
  std::vector<NodeProcessBase*> node_processes;
  SinkProcess* sink_ptr = nullptr;
  {
    ScopedPhase phase(context, shared.log, Phase::kNetworkWiring, result);
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

  // Stall watchdog. Configured after wiring so the monitor handler can
  // read the node processes' termination state; the run registers it
  // with the pool's monitor thread only while Network::Run executes, so
  // every capture below outlives its calls.
  if (options.scheduler == SchedulerKind::kThreaded &&
      options.watchdog_stall_ms > 0) {
    // One dump per stall episode: a delivery in between starts a new
    // episode (only the monitor thread touches this state).
    struct WatchdogState {
      bool dumped = false;
      uint64_t delivered_at_dump = 0;
    };
    auto watchdog = std::make_shared<WatchdogState>();
    network.ConfigureStallMonitor(
        options.watchdog_stall_ms,
        [&graph, &db, &node_processes, &options, &context,
         watchdog](const StallInfo& info) {
          LogStall(graph, info);
          EngineTelemetry* telemetry = context.telemetry;
          if (context.flight != nullptr) {
            context.flight->RecordEvent(
                FlightEventType::kStall, context.query_id,
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
                context.query_id,
                std::vector<std::pair<int64_t, uint64_t>>(by_scc.begin(),
                                                          by_scc.end()),
                info.in_flight);
          }
          if (watchdog->dumped &&
              watchdog->delivered_at_dump == info.delivered) {
            return;  // already dumped this episode
          }
          watchdog->dumped = true;
          watchdog->delivered_at_dump = info.delivered;
          FlightDump dump =
              BuildFlightDump(graph, db, node_processes, context, info);
          // Counted once, here, whichever sink receives the dump.
          if (telemetry != nullptr) {
            telemetry->watchdog_stalls().Increment();
            telemetry->watchdog_dumps().Increment();
          }
          if (context.flight != nullptr) {
            context.flight->RecordEvent(
                FlightEventType::kWatchdogDump, context.query_id,
                static_cast<int32_t>(dump.stuck_scc));
          }
          if (options.flight_dump_sink) options.flight_dump_sink(dump);
        });
  }

  StatusOr<RunResult> run = InternalError("scheduler did not run");
  {
    ScopedPhase phase(context, shared.log, Phase::kRun, result);
    SchedulerParams params;
    params.seed = options.seed;
    params.workers = options.workers;
    params.pool = context.pool;
    params.max_messages = options.max_messages;
    run = network.Run(options.scheduler, params);
  }
  if (!run.ok()) return run.status();

  {
    // Ends before the profile and lineage below, so they carry the
    // drain phase's time too. They read only the result, the graph
    // and the collector, so the network goes here.
    ScopedPhase phase(context, shared.log, Phase::kDrain, result);
    result.answers = sink_ptr->TakeAnswers();
    result.ended_by_protocol = sink_ptr->done();
    result.quiescent_after = network.TotalPending() == 0;
    result.message_stats = network.stats();
    result.graph_stats = graph.Stats();
    result.delivered = run->delivered;
    result.node_counters.reserve(node_processes.size());
    for (NodeProcessBase* p : node_processes) {
      NodeCounters row;
      row.node = p->node_id();
      p->AccumulateCounters(row.counters);
      p->AccumulateCounters(result.counters);
      row.traffic = network.counts(p->process_id());
      result.traffic.Add(row.traffic);
      result.node_counters.push_back(std::move(row));
    }
    result.traffic.Add(network.counts(shared.sink_pid));
    owned_network.reset();
  }
  if (options.profile) {
    result.profile = std::make_shared<const ProfileReport>(
        BuildProfile(graph, db, context.query_id, result));
  }
  if (lineage.has_value()) {
    result.lineage = std::make_shared<const LineageReport>(lineage->Finalize());
  }
  if (!result.ended_by_protocol && !run->quiescent) {
    return InternalError(
        "evaluation stopped without protocol end or quiescence");
  }
  return result;
}

}  // namespace mpqe
