#include "obs/telemetry.h"

#include <chrono>
#include <utility>

#include "common/string_util.h"

namespace mpqe {

Status TelemetryOptions::Validate() const {
  if (query_log_capacity < 1) {
    return InvalidArgumentError("query_log_capacity: must be >= 1");
  }
  if (sample_interval_ms < 0) {
    return InvalidArgumentError(
        StrCat("sample_interval_ms: must be >= 0, got ", sample_interval_ms));
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
    : options_(std::move(options)) {
  if (options_.query_log_capacity < 1) options_.query_log_capacity = 1;
  // Register the always-present families up front so a scrape exposes
  // them (at zero) before the first query completes — scrapers rely on
  // family existence, not on traffic having happened.
  registry_.GetCounter("telemetry/queries");
  registry_.GetCounter("telemetry/slow_queries");
  registry_.GetCounter("telemetry/failed_queries");
  registry_.GetHistogram("engine/query_wall_ns");
  registry_.GetGauge("engine/active_sessions");
  registry_.GetGauge("engine/in_flight_messages");
}

EngineTelemetry::~EngineTelemetry() {
  {
    std::lock_guard<std::mutex> lock(sampler_mutex_);
    stopping_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_thread_.joinable()) sampler_thread_.join();
}

void EngineTelemetry::StartSampling(
    std::function<void(MetricsRegistry&)> sampler) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sampler_ = std::move(sampler);
  }
  SampleNow();
  if (options_.sample_interval_ms > 0 && !sampler_thread_.joinable()) {
    sampler_thread_ = std::thread([this] { SamplerLoop(); });
  }
}

void EngineTelemetry::SamplerLoop() {
  std::unique_lock<std::mutex> lock(sampler_mutex_);
  while (!stopping_) {
    sampler_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.sample_interval_ms),
        [this] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    SampleNow();
    lock.lock();
  }
}

void EngineTelemetry::SampleNow() {
  std::function<void(MetricsRegistry&)> sampler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sampler = sampler_;
  }
  if (sampler) sampler(registry_);
}

void EngineTelemetry::OnSessionStart() {
  registry_.GetGauge("engine/active_sessions").Add(1.0);
}

void EngineTelemetry::OnSessionComplete(
    QueryLogEntry entry, const MetricsRegistry* session_metrics) {
  registry_.GetGauge("engine/active_sessions").Add(-1.0);
  if (session_metrics != nullptr) {
    // Queue wait exists only when the session profiled
    // (aggregated/node/<id>/queue_wait_ns counters).
    constexpr char kQueueWaitSuffix[] = "/queue_wait_ns";
    constexpr size_t kSuffixLen = sizeof(kQueueWaitSuffix) - 1;
    for (const auto& [name, value] : session_metrics->CounterRows()) {
      if (name.size() >= kSuffixLen &&
          name.compare(name.size() - kSuffixLen, kSuffixLen,
                       kQueueWaitSuffix) == 0) {
        entry.queue_wait_ns += value;
      }
    }
    registry_.MergeFrom(*session_metrics);
  }
  entry.slow =
      options_.slow_query_ns > 0 && entry.wall_ns > options_.slow_query_ns;

  completed_.fetch_add(1, std::memory_order_relaxed);
  registry_.GetCounter("telemetry/queries").Increment();
  if (entry.slow) {
    slow_.fetch_add(1, std::memory_order_relaxed);
    registry_.GetCounter("telemetry/slow_queries").Increment();
  }
  if (entry.status != "ok") {
    registry_.GetCounter("telemetry/failed_queries").Increment();
  }
  registry_.GetHistogram("engine/query_wall_ns").Record(entry.wall_ns);
  registry_.GetHistogram("engine/query_rows_out").Record(entry.rows_out);

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
  registry_.GetGauge("engine/in_flight_messages")
      .Set(static_cast<double>(in_flight));
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
