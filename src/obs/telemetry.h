// Engine-wide telemetry (DESIGN.md §12): the always-on, engine-scoped
// aggregation layer that every QuerySession reports into. It outlives
// every session, holds the engine's only registry, and is what the ops
// surface — the Prometheus exposition (obs/prometheus.h), the /metrics
// and /queries endpoints (engine/stats_server.h) and `mpqe_query
// --stats` — reads.
//
// Three pieces:
//
//  * an engine-lifetime MetricsRegistry, the engine's only registry.
//    Every completed session adds its totals — messages by kind,
//    deliveries, segment rows, node fires, dedup hits, Fig. 2 events,
//    phase times, the largest node relation — exactly once, through counter handles the Engine
//    resolves when it starts (engine/evaluator.h SessionTotals), so
//    every session counts and none pays a name lookup. The engine's
//    plan-cache, prepare and session families and this layer's own
//    query families are written through handles resolved the same way.
//    Per-node and per-predicate rows stay out: node ids are plan-local.
//    Live *gauges* — active sessions, plan-cache size/hit-rate,
//    worker-pool utilization, per-SCC queue depths from the stall
//    watchdog — are written in place or refreshed by the sampler hook
//    the Engine installs, which every scrape runs synchronously.
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
//    through flight records, log lines, lineage output and the query log
//    (SessionContext in engine/evaluator.h).
//
// Thread safety: the registry is internally synchronized; the ring and
// the sampler hook are guarded by one telemetry mutex. Session
// completions and scrapes may run concurrently with sessions and with
// each other.

#ifndef MPQE_OBS_TELEMETRY_H_
#define MPQE_OBS_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
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
  // total_queue_wait_ns. The network clocks every delivery and stamps
  // every message's send time, so every entry carries both, profiled
  // or not.
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
  /// size/hit-rate, pool queue depth, utilization) and runs it once.
  /// Call once; every scrape then runs it through SampleNow.
  void StartSampling(std::function<void(MetricsRegistry&)> sampler);

  /// Runs the sampler hook synchronously (scrape freshness).
  void SampleNow();

  /// Session lifecycle: bumps the engine/active_sessions gauge.
  void OnSessionStart();

  /// Session completion: appends the query-log entry (stamping `slow`
  /// from the threshold) and updates the query counters/histograms
  /// (telemetry/queries, telemetry/slow_queries,
  /// telemetry/failed_queries, engine/query_wall_ns,
  /// engine/query_rows_out). The session's totals arrive separately,
  /// through the engine's SessionTotals.
  void OnSessionComplete(QueryLogEntry entry);

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

  uint64_t completed_queries() const { return queries_.value(); }
  uint64_t slow_queries() const { return slow_queries_.value(); }

  /// The stall watchdog's counters (watchdog/stalls, watchdog/dumps):
  /// one stall episode and one dump each time a session's watchdog
  /// builds a FlightDump, whichever sink then receives it.
  Counter& watchdog_stalls() const { return watchdog_stalls_; }
  Counter& watchdog_dumps() const { return watchdog_dumps_; }

 private:
  // One session's latest stall report.
  struct StallState {
    std::vector<std::pair<int64_t, uint64_t>> scc_depths;
    uint64_t in_flight = 0;
  };

  // Re-derives the stall gauges from stalls_by_query_: per-SCC depth
  // summed across sessions, SCCs that dropped out zeroed. Caller holds
  // mutex_.
  void RepublishStallGaugesLocked();

  TelemetryOptions options_;
  MetricsRegistry registry_;
  // This layer's families, resolved once at construction (which also
  // registers them, so a scrape exposes them at zero before the first
  // query completes).
  Counter& queries_;
  Counter& slow_queries_;
  Counter& failed_queries_;
  Counter& watchdog_stalls_;
  Counter& watchdog_dumps_;
  Histogram& query_wall_ns_;
  Histogram& query_rows_out_;
  Gauge& active_sessions_;
  Gauge& in_flight_messages_;
  std::atomic<uint64_t> next_query_id_{1};

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
};

}  // namespace mpqe

#endif  // MPQE_OBS_TELEMETRY_H_
