#include "obs/telemetry.h"

#include <utility>

#include "common/string_util.h"

namespace mpqe {

Status TelemetryOptions::Validate() const {
  if (query_log_capacity < 1) {
    return InvalidArgumentError("query_log_capacity: must be >= 1");
  }
  return Status::Ok();
}

uint64_t HashQueryText(const std::string& text) {
  uint64_t h = 14695981039346656037ULL;  // FNV-1a 64 offset basis
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  return h;
}

std::string QueryLogEntry::ToJson() const {
  return StrCat("{\"query_id\": ", query_id, ", \"text_hash\": \"",
                text_hash,  // string: JSON numbers lose 64-bit precision
                "\", \"plan_reused\": ", plan_reused ? "true" : "false",
                ", \"rows_out\": ", rows_out, ", \"wall_ns\": ", wall_ns,
                ", \"queue_wait_ns\": ", queue_wait_ns,
                ", \"fire_ns\": ", fire_ns, ", \"status\": \"", status,
                "\", \"slow\": ", slow ? "true" : "false", "}");
}

EngineTelemetry::EngineTelemetry(TelemetryOptions options)
    : options_(std::move(options)),
      queries_(registry_.GetCounter("telemetry/queries")),
      slow_queries_(registry_.GetCounter("telemetry/slow_queries")),
      failed_queries_(registry_.GetCounter("telemetry/failed_queries")),
      watchdog_stalls_(registry_.GetCounter("watchdog/stalls")),
      watchdog_dumps_(registry_.GetCounter("watchdog/dumps")),
      query_wall_ns_(registry_.GetHistogram("engine/query_wall_ns")),
      query_rows_out_(registry_.GetHistogram("engine/query_rows_out")),
      active_sessions_(registry_.GetGauge("engine/active_sessions")),
      in_flight_messages_(registry_.GetGauge("engine/in_flight_messages")) {
  if (options_.query_log_capacity < 1) options_.query_log_capacity = 1;
}

void EngineTelemetry::StartSampling(
    std::function<void(MetricsRegistry&)> sampler) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sampler_ = std::move(sampler);
  }
  SampleNow();
}

void EngineTelemetry::SampleNow() {
  std::function<void(MetricsRegistry&)> sampler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sampler = sampler_;
  }
  if (sampler) sampler(registry_);
}

void EngineTelemetry::OnSessionStart() { active_sessions_.Add(1.0); }

void EngineTelemetry::OnSessionComplete(QueryLogEntry entry) {
  active_sessions_.Add(-1.0);
  entry.slow =
      options_.slow_query_ns > 0 && entry.wall_ns > options_.slow_query_ns;
  queries_.Increment();
  if (entry.slow) slow_queries_.Increment();
  if (entry.status != "ok") failed_queries_.Increment();
  query_wall_ns_.Record(entry.wall_ns);
  query_rows_out_.Record(entry.rows_out);

  const uint64_t completed_query = entry.query_id;
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.push_back(std::move(entry));
  while (ring_.size() > options_.query_log_capacity) ring_.pop_front();
  // A completed session means ITS stall (if any) resolved; other
  // sessions may still be stalled, so drop only this query's
  // contribution and re-derive the gauges from what remains.
  if (stalls_by_query_.erase(completed_query) > 0) {
    RepublishStallGaugesLocked();
  }
}

void EngineTelemetry::ReportQueueDepths(
    uint64_t query_id,
    const std::vector<std::pair<int64_t, uint64_t>>& scc_depths,
    uint64_t in_flight) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (scc_depths.empty() && in_flight == 0) {
    stalls_by_query_.erase(query_id);
  } else {
    stalls_by_query_[query_id] = StallState{scc_depths, in_flight};
  }
  RepublishStallGaugesLocked();
}

void EngineTelemetry::RepublishStallGaugesLocked() {
  std::map<int64_t, uint64_t> by_scc;
  uint64_t in_flight = 0;
  for (const auto& [unused_query, stall] : stalls_by_query_) {
    for (const auto& [scc, depth] : stall.scc_depths) by_scc[scc] += depth;
    in_flight += stall.in_flight;
  }
  // Zero the gauges of SCCs that were published before but have no
  // stalled session anymore, so a recovered stall does not pin a stale
  // snapshot forever.
  for (int64_t scc : published_sccs_) {
    if (by_scc.find(scc) == by_scc.end()) {
      registry_.GetGauge(StrCat("scc/", scc, "/queue_depth")).Set(0.0);
    }
  }
  published_sccs_.clear();
  for (const auto& [scc, depth] : by_scc) {
    registry_.GetGauge(StrCat("scc/", scc, "/queue_depth"))
        .Set(static_cast<double>(depth));
    published_sccs_.push_back(scc);
  }
  in_flight_messages_.Set(static_cast<double>(in_flight));
}

std::vector<QueryLogEntry> EngineTelemetry::QueryLog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<QueryLogEntry>(ring_.begin(), ring_.end());
}

std::string EngineTelemetry::QueryLogJson() const {
  std::vector<QueryLogEntry> entries = QueryLog();
  std::string out = StrCat(
      "{\n  \"schema\": \"mpqe-querylog-v1\",\n  \"completed\": ",
      completed_queries(), ",\n  \"slow\": ", slow_queries(),
      ",\n  \"capacity\": ", options_.query_log_capacity,
      ",\n  \"queries\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    out += StrCat("    ", entries[i].ToJson(),
                  i + 1 < entries.size() ? ",\n" : "\n");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace mpqe
