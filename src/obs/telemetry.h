// Engine-wide telemetry (DESIGN.md §12): the always-on, engine-scoped
// aggregation layer that every QuerySession reports into. Where a
// session's own MetricsRegistry (SessionOptions::metrics) belongs to its
// caller, EngineTelemetry outlives every session and is what the ops
// surface — the Prometheus exposition (obs/prometheus.h), the /metrics
// and /queries endpoints (engine/stats_server.h) and `mpqe_query
// --stats` — reads.
//
// Three pieces:
//
//  * an engine-lifetime MetricsRegistry. Every completed session adds
//    its totals — messages by kind, deliveries, segment rows, node
//    fires, dedup hits, Fig. 2 events, phase times — exactly once,
//    through counter handles the Engine resolves when it starts
//    (engine/evaluator.h SessionTotals), so every session counts and
//    none pays a name lookup. Per-node and per-predicate rows stay out:
//    node ids are plan-local. Live *gauges* — active sessions,
//    plan-cache size/hit-rate, worker-pool utilization, per-SCC queue
//    depths from the stall watchdog — are written in place and
//    re-sampled by a background thread at `sample_interval_ms` via the
//    sampler hook the Engine installs (and once more, synchronously, on
//    every scrape).
//
//  * a structured query log: a fixed-capacity ring buffer of
//    QueryLogEntry rows (query id, query text hash, plan reuse, rows
//    out, wall/queue/fire time, status), with a slow-query threshold
//    that marks and counts entries over `slow_query_ns`. Exposed as
//    JSON (QueryLogJson — the /queries payload) and by
//    `mpqe_query --stats`.
//
//  * the query-id mint: MintQueryId() hands out the stable ids
//    Engine::CreateSession stamps onto sessions; the id then travels
//    through trace spans, log lines, lineage output and the query log
//    (SessionStartEvent in obs/observer.h).
//
// Thread safety: the registry is internally synchronized; the ring and
// the sampler hook are guarded by one telemetry mutex. RecordQueryDone
// and scrapes may run concurrently with sessions and with each other.

#ifndef MPQE_OBS_TELEMETRY_H_
#define MPQE_OBS_TELEMETRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace mpqe {

struct TelemetryOptions {
  // Ring-buffer capacity of the query log (>= 1).
  size_t query_log_capacity = 256;

  // Sessions whose wall time exceeds this are flagged slow in the
  // query log and counted under telemetry/slow_queries. 0 disables.
  uint64_t slow_query_ns = 100'000'000;  // 100 ms

  // Gauge re-sampling period of the background thread. 0 disables the
  // thread; gauges are then refreshed only on demand (every scrape
  // calls SampleNow, so /metrics is never stale either way).
  int sample_interval_ms = 0;

  Status Validate() const;
};

// One completed query execution, as the ops surface sees it.
struct QueryLogEntry {
  uint64_t query_id = 0;
  // FNV-1a hash of the canonicalized program text — correlates repeats
  // of one query without retaining (possibly sensitive) query text.
  uint64_t text_hash = 0;
  // True when the session ran over a plan that was already compiled
  // (every session after a plan's first — the plan-cache payoff).
  bool plan_reused = false;
  uint64_t rows_out = 0;
  uint64_t wall_ns = 0;
  // Handler time and scheduler-queue wait summed over the session's
  // graph-node processes: the profile's total_fire_ns and
  // total_queue_wait_ns. Queue wait is stamped only in sessions that
  // profile (0 otherwise); handler time is clocked on every tapped
  // delivery (0 on an engine with the flight recorder off, unless the
  // session profiles).
  uint64_t queue_wait_ns = 0;
  uint64_t fire_ns = 0;
  std::string status = "ok";  // "ok" or the failing Status code name
  bool slow = false;

  std::string ToJson() const;
};

/// The stable hash used for QueryLogEntry::text_hash (FNV-1a 64).
uint64_t HashQueryText(const std::string& text);

class EngineTelemetry {
 public:
  explicit EngineTelemetry(TelemetryOptions options = {});
  ~EngineTelemetry();  // stops the sampler thread

  EngineTelemetry(const EngineTelemetry&) = delete;
  EngineTelemetry& operator=(const EngineTelemetry&) = delete;

  const TelemetryOptions& options() const { return options_; }

  /// The engine-lifetime registry every scrape serializes.
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  /// Next stable query id (1, 2, 3, ...).
  uint64_t MintQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Installs the gauge-refresh hook (the Engine's: plan-cache
  /// size/hit-rate, pool queue depth, utilization) and starts the
  /// background sampler when sample_interval_ms > 0. Call once.
  void StartSampling(std::function<void(MetricsRegistry&)> sampler);

  /// Runs the sampler hook synchronously (scrape freshness).
  void SampleNow();

  /// Session lifecycle: bumps the engine/active_sessions gauge.
  void OnSessionStart();

  /// Session completion: appends the query-log entry (stamping `slow`
  /// from the threshold) and updates the engine counters/histograms
  /// (telemetry/queries, telemetry/slow_queries, engine/query_wall_ns,
  /// engine/query_rows_out). A driver that collected a registry of its
  /// own for just this session may pass it to be merged, and the
  /// entry's queue wait then adds the registry's
  /// aggregated/node/<id>/queue_wait_ns rows. Engine sessions pass
  /// nullptr: their totals arrive through SessionTotals.
  void OnSessionComplete(QueryLogEntry entry,
                         const MetricsRegistry* session_metrics);

  /// Stall-watchdog sink: publishes per-SCC queue depths and the
  /// total in-flight count as gauges (scc/<id>/queue_depth,
  /// engine/in_flight_messages). Stall state is tracked per query so
  /// concurrent sessions compose: each gauge is the sum over the live
  /// stalled sessions, and a session completing clears only its own
  /// contribution (OnSessionComplete matches on query_id).
  void ReportQueueDepths(
      uint64_t query_id,
      const std::vector<std::pair<int64_t, uint64_t>>& scc_depths,
      uint64_t in_flight);

  /// Oldest-to-newest snapshot of the query log ring.
  std::vector<QueryLogEntry> QueryLog() const;

  /// {"queries": [...]} — the /queries payload.
  std::string QueryLogJson() const;

  uint64_t completed_queries() const {
    return completed_.load(std::memory_order_relaxed);
  }
  uint64_t slow_queries() const {
    return slow_.load(std::memory_order_relaxed);
  }

 private:
  // One session's latest stall report.
  struct StallState {
    std::vector<std::pair<int64_t, uint64_t>> scc_depths;
    uint64_t in_flight = 0;
  };

  void SamplerLoop();

  // Re-derives the stall gauges from stalls_by_query_: per-SCC depth
  // summed across sessions, SCCs that dropped out zeroed. Caller holds
  // mutex_.
  void RepublishStallGaugesLocked();

  TelemetryOptions options_;
  MetricsRegistry registry_;
  std::atomic<uint64_t> next_query_id_{1};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> slow_{0};

  mutable std::mutex mutex_;  // ring + sampler hook + stall state
  std::deque<QueryLogEntry> ring_;
  std::function<void(MetricsRegistry&)> sampler_;
  // Live stall report per query id, so one session completing (or
  // recovering) cannot clobber the gauges of another still-stalled
  // session. published_sccs_ is the set of SCC ids whose gauge is
  // currently nonzero, so a recovered stall resets its gauges instead
  // of pinning them.
  std::map<uint64_t, StallState> stalls_by_query_;
  std::vector<int64_t> published_sccs_;

  std::mutex sampler_mutex_;
  std::condition_variable sampler_cv_;
  bool stopping_ = false;
  std::thread sampler_thread_;
};

}  // namespace mpqe

#endif  // MPQE_OBS_TELEMETRY_H_
