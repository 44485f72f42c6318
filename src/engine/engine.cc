#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "obs/prometheus.h"
#include "sips/strategy.h"

namespace mpqe {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The pool size EngineOptions::workers asks for.
int PoolThreads(int workers) {
  if (workers > 0) return workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 2u, 8u));
}

// The non-text part of a plan-cache key: every input that changes the
// compiled plan besides the program itself.
std::string KeyPrefix(const DatabaseSnapshot& snapshot,
                      const PlanOptions& options) {
  return StrCat("snap=", snapshot.uid(), ";strategy=", options.strategy,
                ";max_nodes=", options.graph_options.max_nodes,
                ";coalesce=", options.graph_options.coalesce_nodes ? 1 : 0,
                ";");
}

// The program's shape: its text with each constant replaced by a typed
// placeholder ($i1 for an integer, $s2 for a symbol), numbered by first
// occurrence so equal constants share one; `constants` receives them in
// that order. Graph construction compares constants only for equality
// (E2), so programs of one shape build one graph up to the constants.
std::string ShapeOf(const Program& program, std::vector<Value>& constants) {
  return program.Print([&constants](std::string& out, const Value& v) {
    auto slot = std::find(constants.begin(), constants.end(), v);
    if (slot == constants.end()) slot = constants.insert(slot, v);
    out += v.is_int() ? "$i" : "$s";
    out += std::to_string(slot - constants.begin() + 1);
  });
}

// The constants part of an instance's key: each one's payload. The
// shape's placeholder gives its kind, and the snapshot uid in the
// prefix scopes a symbol's intern id.
std::string ConstantsKey(const std::vector<Value>& constants) {
  std::string out;
  for (const Value& v : constants) {
    out += std::to_string(v.payload());
    out += ',';
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// EngineOptions

Status EngineOptions::Validate() const {
  if (workers < 0) {
    return InvalidArgumentError(
        StrCat("workers: must be >= 0 (0 = auto), got ", workers));
  }
  if (plan_cache_capacity < 1) {
    return InvalidArgumentError("plan_cache_capacity: must be >= 1");
  }
  MPQE_RETURN_IF_ERROR(telemetry_options.Validate());
  if (stats_port > 65535) {
    return InvalidArgumentError(
        StrCat("stats_port: must be <= 65535, got ", stats_port));
  }
  if (watchdog_stall_ms < 0) {
    return InvalidArgumentError(
        StrCat("watchdog_stall_ms: must be >= 0, got ", watchdog_stall_ms));
  }
  if (flight_recorder_options.ring_capacity < 1 ||
      flight_recorder_options.ring_count < 1) {
    return InvalidArgumentError(
        "flight_recorder_options: ring_capacity and ring_count must be "
        ">= 1");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// DatabaseSnapshot

int DatabaseSnapshot::running_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

Status DatabaseSnapshot::ValidateProgram(const Program& program) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_ == 0 && !exclusive_running_) {
    return program.Validate(&db_);
  }
  // Sessions in flight: the catalog is frozen under them. Validate
  // without a database, then check EDB atoms against the catalog
  // read-only — a relation Program::Validate would have created is a
  // FailedPrecondition here.
  MPQE_RETURN_IF_ERROR(program.Validate(nullptr));
  for (const Rule& rule : program.rules()) {
    for (const Atom& atom : rule.body) {
      if (!program.IsEdb(atom.predicate)) continue;
      const std::string& name = program.predicates().Name(atom.predicate);
      const Relation* relation = db_.GetRelation(name);
      if (relation == nullptr) {
        return FailedPreconditionError(
            StrCat("EDB relation ", name,
                   " does not exist and cannot be created while ", running_,
                   " session(s) are running on snapshot ", uid_));
      }
      if (relation->arity() != atom.args.size()) {
        return InvalidArgumentError(
            StrCat("EDB predicate ", name, " used with arity ",
                   atom.args.size(), " but relation has arity ",
                   relation->arity()));
      }
    }
  }
  return Status::Ok();
}

size_t DatabaseSnapshot::EnsureIndexes(
    const std::vector<EdbIndexSpec>& specs) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t skipped = 0;
  for (const EdbIndexSpec& spec : specs) {
    Relation* relation = db_.GetMutableRelation(spec.relation);
    if (relation == nullptr) continue;
    size_t handle = 0;
    if (relation->FindIndex(spec.key_columns, &handle)) continue;
    if (running_ > 0 || exclusive_running_) {
      // Sessions are probing these relations right now; building would
      // race them. The plan's leaves degrade to scans for this index.
      ++skipped;
      continue;
    }
    relation->EnsureIndex(spec.key_columns);
  }
  return skipped;
}

Status DatabaseSnapshot::BeginSession(bool exclusive) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (exclusive_running_) {
    return FailedPreconditionError(
        StrCat("snapshot ", uid_,
               " is held exclusively by a lineage session"));
  }
  if (exclusive && running_ > 0) {
    return FailedPreconditionError(
        StrCat("lineage requires exclusive snapshot access, but ", running_,
               " session(s) are running on snapshot ", uid_));
  }
  ++running_;
  exclusive_running_ = exclusive;
  return Status::Ok();
}

void DatabaseSnapshot::EndSession(bool exclusive) {
  std::lock_guard<std::mutex> lock(mutex_);
  --running_;
  if (exclusive) exclusive_running_ = false;
}

// ---------------------------------------------------------------------------
// PreparedQuery

std::string PreparedQuery::Describe() const {
  GraphStats stats = graph_->Stats();
  return StrCat("plan: nodes=", stats.node_count,
                " nontrivial_sccs=", stats.nontrivial_sccs,
                " strategy=", plan_options_.strategy,
                " edb_indexes=", index_specs_.size(),
                " prepare_ns=", prepare_ns_);
}

// ---------------------------------------------------------------------------
// QuerySession

StatusOr<EvaluationResult> QuerySession::Run() {
  bool expected = false;
  if (!ran_.compare_exchange_strong(expected, true)) {
    return FailedPreconditionError(
        "QuerySession::Run called twice; sessions are single-use");
  }
  DatabaseSnapshot& snapshot = *plan_->snapshot();
  // Lineage instrumentation writes tuple-id allocators into the shared
  // EDB relations, so it needs the snapshot to itself; everything else
  // shares.
  const bool exclusive = options_.lineage;
  MPQE_RETURN_IF_ERROR(snapshot.BeginSession(exclusive));

  engine_->telemetry_.OnSessionStart();

  const uint64_t start = NowNs();
  StatusOr<EvaluationResult> result =
      RunSession(plan_->graph(), snapshot.db_, options_,
                 SessionContext{query_id_, &engine_->telemetry_,
                                &engine_->flight_, &engine_->pool_});
  latency_ns_ = NowNs() - start;
  snapshot.EndSession(exclusive);
  engine_->session_latency_ns_.Record(latency_ns_);

  const uint64_t rows = result.ok() ? result.value().answers.size() : 0;
  engine_->flight_.RecordEvent(
      FlightEventType::kSessionEnd, query_id_, result.ok() ? 1 : 0,
      -1, static_cast<uint32_t>(std::min<uint64_t>(rows, UINT32_MAX)));

  QueryLogEntry entry;
  entry.query_id = query_id_;
  entry.text_hash = HashQueryText(plan_->canonical_text());
  entry.plan_reused = plan_reused_;
  entry.rows_out = rows;
  entry.wall_ns = latency_ns_;
  entry.status =
      result.ok() ? "ok" : StatusCodeToString(result.status().code());
  if (result.ok()) {
    // Every session adds its totals once; its query-log entry carries
    // the handler time and queue wait every session keeps.
    engine_->session_totals_.Add(*result);
    const ProcessCounts nodes = result->NodeTraffic();
    entry.fire_ns = nodes.handler_ns;
    entry.queue_wait_ns = nodes.queue_wait_ns;
  }
  engine_->telemetry_.OnSessionComplete(std::move(entry));
  return result;
}

// ---------------------------------------------------------------------------
// Engine

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      plan_cache_(options_.plan_cache_capacity),
      flight_(options_.flight_recorder_options),
      telemetry_(options_.telemetry_options),
      plan_cache_hits_(telemetry_.registry().GetCounter("plan_cache/hit")),
      plan_cache_misses_(telemetry_.registry().GetCounter("plan_cache/miss")),
      plan_cache_evictions_(
          telemetry_.registry().GetCounter("plan_cache/evictions")),
      index_builds_skipped_(
          telemetry_.registry().GetCounter("plan_cache/index_builds_skipped")),
      sessions_(telemetry_.registry().GetCounter("engine/sessions")),
      prepare_ns_(telemetry_.registry().GetHistogram("engine/prepare_ns")),
      session_latency_ns_(
          telemetry_.registry().GetHistogram("engine/session_latency_ns")),
      session_totals_(telemetry_.registry()),
      pool_(PoolThreads(options_.workers)) {
  const Status valid = options_.Validate();
  MPQE_CHECK(valid.ok()) << "EngineOptions: " << valid;

  telemetry_.StartSampling(
      [this](MetricsRegistry& r) { SampleEngineGauges(r); });

  if (options_.stats_port >= 0) {
    StatsServerOptions server_options;
    server_options.port = options_.stats_port;
    server_options.bind_address = options_.stats_bind_address;
    stats_server_ = std::make_unique<StatsServer>(server_options);
    stats_server_->AddRoute("/metrics", PrometheusContentType(), [this] {
      telemetry_.SampleNow();
      return ToPrometheusText(telemetry_.registry());
    });
    stats_server_->AddRoute("/queries", "application/json",
                            [this] { return telemetry_.QueryLogJson(); });
    stats_server_->AddRoute("/healthz", "text/plain",
                            [] { return std::string("ok\n"); });
    stats_server_->AddRoute("/debug/flight", "application/json",
                            [this] { return FlightDumpJson(); });
    stats_server_status_ = stats_server_->Start();
    if (!stats_server_status_.ok()) stats_server_.reset();
  }
}

Engine::~Engine() {
  // The stats server's handlers read the telemetry and the recorder, so
  // it goes first. The pool goes next, as the first member destroyed:
  // it runs every queued task during shutdown, and pending RunAsync
  // sessions report into telemetry_ and flight_.
  stats_server_.reset();
}

void Engine::SampleEngineGauges(MetricsRegistry& registry) {
  const PlanCacheStats cache = plan_cache_.stats();
  registry.GetGauge("plan_cache/size").Set(static_cast<double>(cache.size));
  registry.GetGauge("plan_cache/capacity")
      .Set(static_cast<double>(cache.capacity));
  const uint64_t lookups = cache.hits + cache.misses;
  registry.GetGauge("plan_cache/hit_rate")
      .Set(lookups == 0 ? 0.0
                        : static_cast<double>(cache.hits) /
                              static_cast<double>(lookups));
  registry.GetGauge("engine/pool_queue_depth")
      .Set(static_cast<double>(pool_.queue_depth()));
  const int workers = pool_.threads();
  registry.GetGauge("engine/workers").Set(static_cast<double>(workers));
  registry.GetGauge("engine/pool_utilization")
      .Set(static_cast<double>(pool_.busy()) / static_cast<double>(workers));
}

std::future<void> Engine::Submit(std::function<void()> fn) {
  return pool_.Submit(std::move(fn));
}

std::shared_ptr<DatabaseSnapshot> Engine::Attach(Database db,
                                                 std::string name) {
  uint64_t uid = next_snapshot_uid_.fetch_add(1, std::memory_order_relaxed);
  if (name.empty()) name = StrCat("snapshot-", uid);
  return std::shared_ptr<DatabaseSnapshot>(
      new DatabaseSnapshot(std::move(db), std::move(name), uid));
}

StatusOr<std::shared_ptr<const PreparedQuery>> Engine::Prepare(
    const std::shared_ptr<DatabaseSnapshot>& snapshot,
    std::string_view program_text, const PlanOptions& options) {
  return PrepareImpl(snapshot, nullptr, program_text, options);
}

StatusOr<std::shared_ptr<const PreparedQuery>> Engine::Prepare(
    const std::shared_ptr<DatabaseSnapshot>& snapshot, const Program& program,
    const PlanOptions& options) {
  return PrepareImpl(snapshot, &program, std::string_view(), options);
}

StatusOr<std::shared_ptr<const PreparedQuery>> Engine::PrepareImpl(
    const std::shared_ptr<DatabaseSnapshot>& snapshot, const Program* program,
    std::string_view program_text, const PlanOptions& options) {
  if (snapshot == nullptr) {
    return InvalidArgumentError("Prepare: snapshot must not be null");
  }
  MPQE_RETURN_IF_ERROR(options.Validate());
  const uint64_t start = NowNs();
  // Times the call and counts the lookup, once per plan returned.
  auto found = [this, start](bool hit) {
    const uint64_t ns = NowNs() - start;
    last_prepare_ns_.store(ns, std::memory_order_relaxed);
    prepare_ns_.Record(ns);
    (hit ? plan_cache_hits_ : plan_cache_misses_).Increment();
    flight_.RecordEvent(FlightEventType::kPlanPrepare, 0, /*a=*/hit ? 1 : 0);
  };

  const std::string prefix = KeyPrefix(*snapshot, options);

  // Fast path: the raw text of a cached plan's own program — no parse
  // at all.
  std::string raw_key;
  if (program == nullptr) {
    raw_key = StrCat("raw;", prefix, program_text);
    if (std::shared_ptr<const PreparedQuery> plan =
            plan_cache_.Lookup(raw_key, /*count_miss=*/false)) {
      found(/*hit=*/true);
      return plan;
    }
  }

  // Parse (text path) and key.
  Program parsed;
  if (program == nullptr) {
    Status parse_status =
        ParseRulesInto(program_text, parsed, snapshot->db_.symbols());
    if (!parse_status.ok()) {
      plan_cache_misses_.Increment();
      return parse_status;
    }
    program = &parsed;
  }
  std::vector<Value> constants;
  const std::string shape_key =
      StrCat("shape;", prefix, ShapeOf(*program, constants));
  const std::string instance_key =
      StrCat(shape_key, "|", ConstantsKey(constants));

  // A cached instance for these constants, else the plan compiled for
  // the first text of the shape, else a compile.
  const std::string* entry_key = &instance_key;
  std::shared_ptr<const PreparedQuery> plan =
      plan_cache_.Lookup(instance_key, /*count_miss=*/false);
  bool hit = plan != nullptr;
  if (!hit) {
    entry_key = &shape_key;
    plan = plan_cache_.Lookup(shape_key);
    hit = plan != nullptr;
    if (!hit) {
      MPQE_ASSIGN_OR_RETURN(
          plan, Compile(snapshot, *program, std::move(constants), options));
      plan_cache_evictions_.Increment(plan_cache_.Insert(shape_key, plan));
    } else if (plan->constants_ != constants) {
      MPQE_ASSIGN_OR_RETURN(plan, Instantiate(*plan, std::move(constants)));
      entry_key = &instance_key;
      plan_cache_evictions_.Increment(plan_cache_.Insert(instance_key, plan));
    }
  }
  if (!raw_key.empty()) plan_cache_.AddAlias(raw_key, *entry_key, plan.get());

  found(hit);
  return plan;
}

StatusOr<std::shared_ptr<const PreparedQuery>> Engine::Compile(
    const std::shared_ptr<DatabaseSnapshot>& snapshot, const Program& program,
    std::vector<Value> constants, const PlanOptions& options) {
  const uint64_t start = NowNs();
  auto plan = std::shared_ptr<PreparedQuery>(new PreparedQuery());
  plan->snapshot_ = snapshot;
  plan->plan_options_ = options;
  plan->constants_ = std::move(constants);
  // The graph keeps a pointer to its program, so the plan owns a copy
  // with the same lifetime.
  plan->program_ = std::make_unique<Program>(program);
  plan->canonical_text_ = program.ToString(&snapshot->db().symbols());

  MPQE_RETURN_IF_ERROR(snapshot->ValidateProgram(*plan->program_));
  MPQE_ASSIGN_OR_RETURN(std::unique_ptr<SipsStrategy> strategy,
                        MakeStrategyByName(options.strategy));
  MPQE_ASSIGN_OR_RETURN(
      plan->graph_, RuleGoalGraph::Build(*plan->program_, *strategy,
                                         options.graph_options));
  // Decide and build physical access paths now so sessions never touch
  // the relation catalog.
  plan->index_specs_ = ComputeEdbIndexSpecs(*plan->graph_);
  index_builds_skipped_.Increment(
      snapshot->EnsureIndexes(plan->index_specs_));
  plan->cost_params_ =
      CostModelParamsFromDatabase(*plan->program_, snapshot->db());
  plan->prepare_ns_ = NowNs() - start;
  return std::shared_ptr<const PreparedQuery>(std::move(plan));
}

StatusOr<std::shared_ptr<const PreparedQuery>> Engine::Instantiate(
    const PreparedQuery& shape, std::vector<Value> constants) {
  const uint64_t start = NowNs();
  auto plan = std::shared_ptr<PreparedQuery>(new PreparedQuery());
  plan->snapshot_ = shape.snapshot_;
  plan->plan_options_ = shape.plan_options_;
  // Copy the cached program, not this text's parse: two texts of one
  // shape may intern their predicates in different orders, and the
  // cached graph's atoms carry the cached program's ids.
  plan->program_ = std::make_unique<Program>(*shape.program_);
  plan->program_->SubstituteConstants(shape.constants_, constants);
  plan->canonical_text_ =
      plan->program_->ToString(&plan->snapshot_->db().symbols());
  MPQE_RETURN_IF_ERROR(plan->snapshot_->ValidateProgram(*plan->program_));
  plan->graph_ = shape.graph_->Instantiate(*plan->program_, shape.constants_,
                                           constants);
  plan->index_specs_ = shape.index_specs_;
  index_builds_skipped_.Increment(
      plan->snapshot_->EnsureIndexes(plan->index_specs_));
  plan->cost_params_ = shape.cost_params_;
  plan->constants_ = std::move(constants);
  plan->instantiated_ = true;
  plan->prepare_ns_ = NowNs() - start;
  return std::shared_ptr<const PreparedQuery>(std::move(plan));
}

StatusOr<std::unique_ptr<QuerySession>> Engine::CreateSession(
    std::shared_ptr<const PreparedQuery> plan, const SessionOptions& options) {
  if (plan == nullptr) {
    return InvalidArgumentError("CreateSession: plan must not be null");
  }
  MPQE_RETURN_IF_ERROR(options.Validate());
  sessions_.Increment();
  SessionOptions session_options = options;
  const bool plan_reused =
      plan->sessions_created_.fetch_add(1, std::memory_order_relaxed) > 0 ||
      plan->instantiated_;
  // Engine-level watchdog default; a session may set a tighter (or
  // looser) threshold of its own. The sink persists through the
  // engine unless the caller installed one.
  if (session_options.watchdog_stall_ms == 0) {
    session_options.watchdog_stall_ms = options_.watchdog_stall_ms;
  }
  if (session_options.watchdog_stall_ms > 0 &&
      !session_options.flight_dump_sink) {
    session_options.flight_dump_sink = [this](const FlightDump& dump) {
      HandleFlightDump(dump);
    };
  }
  // Mint the stable query id here — it identifies the session from
  // birth, whether or not Run is ever called.
  auto session = std::unique_ptr<QuerySession>(
      new QuerySession(this, std::move(plan), std::move(session_options),
                       telemetry_.MintQueryId()));
  session->plan_reused_ = plan_reused;
  return session;
}

std::future<StatusOr<EvaluationResult>> Engine::RunAsync(
    std::shared_ptr<const PreparedQuery> plan, const SessionOptions& options) {
  auto promise =
      std::make_shared<std::promise<StatusOr<EvaluationResult>>>();
  std::future<StatusOr<EvaluationResult>> future = promise->get_future();
  StatusOr<std::unique_ptr<QuerySession>> session =
      CreateSession(std::move(plan), options);
  if (!session.ok()) {
    promise->set_value(session.status());
    return future;
  }
  auto shared_session =
      std::shared_ptr<QuerySession>(std::move(session).value());
  Submit([promise, shared_session] {
    promise->set_value(shared_session->Run());
  });
  return future;
}

void Engine::HandleFlightDump(const FlightDump& dump) {
  // Runs on the pool's monitor thread while a session is stalled:
  // serialize once here so /debug/flight is a string copy under the
  // mutex.
  std::string json = dump.ToJson();
  {
    std::lock_guard<std::mutex> lock(flight_dump_mutex_);
    latest_flight_dump_json_ = json;
  }
  MPQE_LOG(kWarning) << "watchdog: stall dump for query " << dump.query_id
                     << " (stuck_scc=" << dump.stuck_scc << ", "
                     << dump.events.size() << " events)";
  if (!options_.debug_dump_dir.empty()) {
    const std::string path = StrCat(options_.debug_dump_dir, "/flight-",
                                    dump.query_id, ".json");
    std::ofstream out(path, std::ios::trunc);
    if (out) {
      out << json;
    } else {
      MPQE_LOG(kWarning) << "watchdog: cannot write dump to " << path;
    }
  }
}

std::string Engine::FlightDumpJson() const {
  {
    std::lock_guard<std::mutex> lock(flight_dump_mutex_);
    if (!latest_flight_dump_json_.empty()) return latest_flight_dump_json_;
  }
  // No watchdog has fired: a manual snapshot of the black box.
  FlightDump dump;
  dump.events = flight_.Snapshot();
  return dump.ToJson();
}

PlanCacheStats Engine::plan_cache_stats() const {
  PlanCacheStats stats = plan_cache_.stats();
  stats.last_prepare_ns = last_prepare_ns_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mpqe
