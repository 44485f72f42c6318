// The prepared-query engine API (DESIGN.md §11): the three-object
// lifecycle that splits evaluation into compile-once / run-many.
//
//   Engine engine;                                 // worker pool + plan cache
//   auto snap = engine.Attach(std::move(db));      // immutable EDB snapshot
//   auto plan = engine.Prepare(snap, program_text) // parse+adorn+sips+graph,
//                                                  //   LRU-cached
//   auto session = engine.CreateSession(*plan);    // per-execution state
//   auto result = (*session)->Run();               // or engine.RunAsync(...)
//
// * Engine owns the worker pool (msg/worker_pool.h; RunAsync sessions
//   run on it and threaded sessions borrow helper threads from it), the
//   plan cache, the telemetry (DESIGN.md §12) and the flight recorder
//   (§14). Prepare compiles a program against one snapshot and caches
//   the result keyed on the plan options, the snapshot uid and the
//   program's *shape*: its canonical text (which carries the goal
//   adornment) with every constant as a placeholder. The same rules
//   with other constants then instantiate the cached plan instead of
//   compiling (Thm. 2.1: the graph does not depend on a class-c
//   value), and the instance is cached too. A repeat of a cached
//   plan's own *raw* text hits an alias key before the parser even
//   runs, so that hit path is a hash lookup (prepare_ns ~ 0).
//
// * DatabaseSnapshot wraps a Database the engine treats as immutable.
//   All catalog mutation — hash-index builds for the plan's EDB leaves,
//   relation creation inside Program::Validate — happens at prepare
//   time under the snapshot mutex, and only while no session is
//   running. Sessions then execute with shared reads, no locks, no
//   writes: an EDB leaf only looks up its pre-built index.
//
// * PreparedQuery is an immutable compiled plan: its own Program copy,
//   the adorned rule/goal graph with sips choices baked in, the EDB
//   index specs, and the §4.3 cost-model parameters sized from the
//   snapshot. Any number of concurrent sessions may share one plan.
//
// * QuerySession is one execution: scheduler choice, segment size,
//   profile, lineage (SessionOptions). Every session adds its totals
//   to the engine's one registry. Sessions with lineage enabled
//   take the snapshot exclusively (provenance instrumentation numbers
//   the shared relations' rows for the session, and detaches again
//   when it ends); everything else runs concurrently.
//
// This lifecycle is the only way to evaluate a query; RunSession in
// engine/evaluator.h is its run-time half.

#ifndef MPQE_ENGINE_ENGINE_H_
#define MPQE_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "datalog/program.h"
#include "engine/evaluator.h"
#include "engine/plan.h"
#include "engine/plan_cache.h"
#include "engine/stats_server.h"
#include "graph/rule_goal_graph.h"
#include "msg/flight_recorder.h"
#include "msg/worker_pool.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "relational/database.h"
#include "sips/cost_model.h"

namespace mpqe {

class Engine;
class PreparedQuery;
class QuerySession;

struct EngineOptions {
  // Worker-pool size; 0 picks from the hardware concurrency
  // (clamped to [2, 8]). RunAsync sessions run on the pool, and a
  // threaded session borrows up to SessionOptions::workers - 1 helper
  // threads from it while its processes wait in run queues; no thread
  // is created per query.
  int workers = 0;

  // Max resident plans in the LRU plan cache (>= 1).
  size_t plan_cache_capacity = 64;

  // Query-log capacity and slow-query threshold of the engine's
  // telemetry (DESIGN.md §12, obs/telemetry.h).
  TelemetryOptions telemetry_options = {};

  // TCP port of the built-in stats endpoint (GET /metrics, /queries,
  // /healthz on loopback; engine/stats_server.h). -1 = off (default);
  // 0 = ephemeral port (tests: read it back from stats_port());
  // >0 = that port.
  int stats_port = -1;

  // Bind address of the stats endpoint. Loopback unless explicitly
  // widened.
  std::string stats_bind_address = "127.0.0.1";

  // Retention (per ring / ring count) of the engine's flight recorder
  // (msg/flight_recorder.h), the lock-free ring of recent events every
  // session feeds: per delivery, two clock reads and one 48-byte ring
  // write (CI guards the cost on single-row engine hops,
  // bench_guard.py --flight).
  FlightRecorderOptions flight_recorder_options = {};

  // Default stall-watchdog threshold stamped into every session that
  // does not set its own SessionOptions::watchdog_stall_ms (threaded
  // scheduler only): a session with no delivery progress for this long
  // gets a diagnostic FlightDump (counted as watchdog/stalls +
  // watchdog/dumps, written to debug_dump_dir, served at
  // /debug/flight). The pool's one monitor thread checks every running
  // threaded session; it starts with the first one. 0 disables the
  // engine-level default.
  int watchdog_stall_ms = 30000;

  // Directory for watchdog dump files (flight-<query_id>.json). Empty
  // = keep dumps in memory only (still served via /debug/flight).
  std::string debug_dump_dir = "";

  /// InvalidArgument naming the offending field. The Engine constructor
  /// enforces it.
  Status Validate() const;
};

// An EDB the engine treats as immutable. All plan-time mutation
// (validation-created relations, index builds) is serialized under the
// snapshot mutex and refused or degraded while sessions are running;
// run-time access is lock-free shared reads.
class DatabaseSnapshot {
 public:
  const Database& db() const { return db_; }
  // Distinguishes snapshots in plan-cache keys (plans bind to the
  // symbol table and catalog of one snapshot).
  uint64_t uid() const { return uid_; }
  const std::string& name() const { return name_; }

  /// Sessions currently executing against this snapshot.
  int running_sessions() const;

 private:
  friend class Engine;
  friend class QuerySession;

  DatabaseSnapshot(Database db, std::string name, uint64_t uid)
      : db_(std::move(db)), name_(std::move(name)), uid_(uid) {}

  /// Validates `program` against the snapshot catalog. With no session
  /// running this is Program::Validate(&db) (which may create missing
  /// EDB relations, empty). With sessions in flight the catalog is
  /// frozen: validation is read-only and a missing EDB relation is a
  /// FailedPrecondition instead of an implicit create.
  Status ValidateProgram(const Program& program);

  /// Builds the hash indexes in `specs` that do not exist yet. Builds
  /// happen only while no session is running (BeginSession shares this
  /// mutex, so there is no window); otherwise the missing ones are
  /// skipped and the plan's EDB leaves degrade to scans. Returns the
  /// number skipped.
  size_t EnsureIndexes(const std::vector<EdbIndexSpec>& specs);

  /// Registers a session start. Non-exclusive sessions admit any
  /// number of peers but no exclusive one; an exclusive session
  /// (lineage) requires the snapshot to itself.
  Status BeginSession(bool exclusive);
  void EndSession(bool exclusive);

  Database db_;
  std::string name_;
  uint64_t uid_;
  mutable std::mutex mutex_;
  int running_ = 0;
  bool exclusive_running_ = false;
};

// An immutable compiled plan. Produced by Engine::Prepare, shared (via
// shared_ptr) between the plan cache and any number of sessions.
class PreparedQuery {
 public:
  const Program& program() const { return *program_; }
  const RuleGoalGraph& graph() const { return *graph_; }
  const PlanOptions& plan_options() const { return plan_options_; }
  const std::shared_ptr<DatabaseSnapshot>& snapshot() const {
    return snapshot_;
  }

  /// The canonical program text (Program::ToString) of this plan.
  const std::string& canonical_text() const { return canonical_text_; }

  /// The (relation, key columns) hash indexes the plan's EDB leaves
  /// probe, pre-built on the snapshot at prepare time.
  const std::vector<EdbIndexSpec>& index_specs() const {
    return index_specs_;
  }

  /// §4.3 cost-model parameters sized from the snapshot's actual EDB
  /// cardinalities (what EXPLAIN and the profiler use).
  const CostModelParams& cost_params() const { return cost_params_; }

  GraphStats graph_stats() const { return graph_->Stats(); }

  /// Wall time of the cold compile, or of the instantiation, that built
  /// this plan (a cache hit returns the same object, so this does not
  /// change on hits — per-call timing lives in
  /// Engine::plan_cache_stats()).
  uint64_t prepare_ns() const { return prepare_ns_; }

  /// One-line human summary: nodes/edges/SCCs, strategy, indexes.
  std::string Describe() const;

 private:
  friend class Engine;
  PreparedQuery() = default;

  std::shared_ptr<DatabaseSnapshot> snapshot_;
  std::unique_ptr<Program> program_;  // graph_ points into this copy
  std::unique_ptr<RuleGoalGraph> graph_;
  PlanOptions plan_options_;
  std::string canonical_text_;
  std::vector<EdbIndexSpec> index_specs_;
  CostModelParams cost_params_;
  uint64_t prepare_ns_ = 0;
  // The program's constants in the order of its shape's placeholders.
  std::vector<Value> constants_;
  // Made by Engine::Instantiate from the cached plan of its shape, so
  // even its first session runs on a reused plan.
  bool instantiated_ = false;
  // Sessions created over this plan so far — mutable bookkeeping on an
  // otherwise-immutable object; feeds QueryLogEntry::plan_reused
  // (every session after the first ran on a reused plan).
  mutable std::atomic<uint64_t> sessions_created_{0};
};

// One execution of a compiled plan. Single-use: Run() evaluates once
// (on the calling thread, with pool helpers when threaded — use
// Engine::RunAsync or Engine::Submit to run it on the worker pool) and
// stores the result.
class QuerySession {
 public:
  const SessionOptions& options() const { return options_; }
  const std::shared_ptr<const PreparedQuery>& plan() const { return plan_; }

  /// Evaluates the plan. Acquires the snapshot (shared, or exclusive
  /// when options().lineage is set), runs the process network, and
  /// releases it. Calling Run twice returns FailedPrecondition.
  StatusOr<EvaluationResult> Run();

  /// Wall time of the completed Run (0 before).
  uint64_t latency_ns() const { return latency_ns_; }

  /// The engine-minted stable query id correlating this session across
  /// flight records, log lines, lineage dumps and the query log.
  uint64_t query_id() const { return query_id_; }

 private:
  friend class Engine;
  QuerySession(Engine* engine, std::shared_ptr<const PreparedQuery> plan,
               SessionOptions options, uint64_t query_id)
      : engine_(engine),
        plan_(std::move(plan)),
        options_(std::move(options)),
        query_id_(query_id) {}

  Engine* engine_;
  std::shared_ptr<const PreparedQuery> plan_;
  SessionOptions options_;
  uint64_t query_id_;
  // Whether this session reuses a plan another session already ran
  // (stamped at CreateSession; reported in the query log).
  bool plan_reused_ = false;
  std::atomic<bool> ran_{false};
  uint64_t latency_ns_ = 0;
};

class Engine {
 public:
  /// Aborts (MPQE_CHECK) when `options` fail Validate().
  explicit Engine(EngineOptions options = {});
  ~Engine();  // runs every queued task and joins the pool

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Takes ownership of `db` as an immutable snapshot.
  std::shared_ptr<DatabaseSnapshot> Attach(Database db,
                                           std::string name = "");

  /// Compiles `program_text` (rules and queries only — facts belong in
  /// the snapshot) against `snapshot`, or returns a plan from the
  /// cache.
  ///
  /// The cache keys on the program's shape: the canonical text with
  /// each constant replaced by a typed placeholder, numbered by first
  /// occurrence so equal constants share one (tc(3, 3) and tc(3, 4)
  /// differ in shape). The shape's entry holds the plan compiled for
  /// the first text of the shape. A program of that shape with the
  /// same constants gets that plan; one with other constants gets an
  /// instance — a plan whose program and graph are copies of the
  /// compiled ones with the constants swapped, equal to a fresh
  /// compile, sharing its index specs and cost parameters — cached
  /// under the shape and its constants, so a repeat returns it. Each
  /// is a plan_cache/hit.
  ///
  /// The raw text of a cached plan's own program is an alias key: a
  /// repeat Prepare with byte-identical text skips the parser
  /// entirely.
  StatusOr<std::shared_ptr<const PreparedQuery>> Prepare(
      const std::shared_ptr<DatabaseSnapshot>& snapshot,
      std::string_view program_text, const PlanOptions& options = {});

  /// As above for an already-parsed Program (constants must be
  /// interned in the snapshot's symbol table). Keyed the same way;
  /// there is no raw text to alias.
  StatusOr<std::shared_ptr<const PreparedQuery>> Prepare(
      const std::shared_ptr<DatabaseSnapshot>& snapshot,
      const Program& program, const PlanOptions& options = {});

  /// Builds a session over `plan` after validating `options`
  /// (InvalidArgument naming the offending field on misconfiguration).
  StatusOr<std::unique_ptr<QuerySession>> CreateSession(
      std::shared_ptr<const PreparedQuery> plan,
      const SessionOptions& options = {});

  /// Creates a session and runs it on the worker pool.
  std::future<StatusOr<EvaluationResult>> RunAsync(
      std::shared_ptr<const PreparedQuery> plan,
      const SessionOptions& options = {});

  /// Runs `fn` on the worker pool.
  std::future<void> Submit(std::function<void()> fn);

  /// Cache counters plus the duration of the most recent Prepare call
  /// (hit or cold) in last_prepare_ns.
  PlanCacheStats plan_cache_stats() const;

  int workers() const { return pool_.threads(); }

  /// The engine-wide telemetry: the engine's registry, the query log,
  /// the /metrics payload source.
  EngineTelemetry& telemetry() { return telemetry_; }

  /// The bound port of the stats endpoint, or -1 when it is not
  /// running (off, or the bind failed — see stats_server_status()).
  int stats_port() const {
    return stats_server_ != nullptr ? stats_server_->port() : -1;
  }

  /// OK when the stats endpoint was not requested or is serving; the
  /// bind/listen error otherwise (the engine itself still works).
  const Status& stats_server_status() const { return stats_server_status_; }

  /// The engine's black box. Sessions record into it; the watchdog and
  /// /debug/flight read it.
  FlightRecorder& flight_recorder() { return flight_; }

  /// The most recent watchdog diagnostic bundle as mpqe-flightdump-v1
  /// JSON — or, when no watchdog has fired, a fresh "manual" dump of
  /// the recorder's current contents. This is what GET /debug/flight
  /// and `mpqe_query --flight-dump` serve.
  std::string FlightDumpJson() const;

  /// Dumps the watchdog has produced over the engine's lifetime: the
  /// telemetry's watchdog/dumps counter.
  uint64_t watchdog_dumps() const {
    return telemetry_.watchdog_dumps().value();
  }

 private:
  friend class QuerySession;

  StatusOr<std::shared_ptr<const PreparedQuery>> PrepareImpl(
      const std::shared_ptr<DatabaseSnapshot>& snapshot,
      const Program* program, std::string_view program_text,
      const PlanOptions& options);

  /// Compiles a plan (cold path; no cache involvement). `constants`
  /// are the program's constants in shape order.
  StatusOr<std::shared_ptr<const PreparedQuery>> Compile(
      const std::shared_ptr<DatabaseSnapshot>& snapshot,
      const Program& program, std::vector<Value> constants,
      const PlanOptions& options);

  /// The plan for `shape`'s program with `constants` in place of
  /// shape.constants_: copies of its program and graph with the
  /// constants swapped, its index specs and cost parameters. The
  /// snapshot still validates the program and ensures the indexes.
  StatusOr<std::shared_ptr<const PreparedQuery>> Instantiate(
      const PreparedQuery& shape, std::vector<Value> constants);

  /// The session watchdogs' dump sink: serialize once, retain as the
  /// latest dump, persist to debug_dump_dir when set.
  void HandleFlightDump(const FlightDump& dump);
  /// The gauge-refresh hook telemetry samples: plan-cache size /
  /// capacity / hit-rate, pool queue depth, worker count/utilization.
  void SampleEngineGauges(MetricsRegistry& registry);

  EngineOptions options_;
  PlanCache plan_cache_;
  std::atomic<uint64_t> last_prepare_ns_{0};
  std::atomic<uint64_t> next_snapshot_uid_{1};

  // The black box and the telemetry. Sessions hold raw pointers to both
  // through their SessionContext; ~Engine stops the stats server (whose
  // handlers read them), and the pool, declared last, is joined before
  // any other member is destroyed, so no thread outlives them.
  FlightRecorder flight_;
  // Latest watchdog bundle, pre-serialized (the monitor thread pays
  // the serialization once; /debug/flight is then a string copy).
  mutable std::mutex flight_dump_mutex_;
  std::string latest_flight_dump_json_;

  EngineTelemetry telemetry_;
  // The engine's telemetry families, resolved once at construction
  // (which registers them, so a scrape sees them at zero before the
  // first Prepare or Run).
  Counter& plan_cache_hits_;
  Counter& plan_cache_misses_;
  Counter& plan_cache_evictions_;
  Counter& index_builds_skipped_;
  Counter& sessions_;
  Histogram& prepare_ns_;
  Histogram& session_latency_ns_;
  // The session families; every completed session adds its totals here.
  SessionTotals session_totals_;
  std::unique_ptr<StatsServer> stats_server_;
  Status stats_server_status_;

  // Declared last, so destroyed first: its destructor runs every queued
  // session and helper task while everything above is still alive.
  WorkerPool pool_;
};

}  // namespace mpqe

#endif  // MPQE_ENGINE_ENGINE_H_
