// mpqe_bench_concurrent: load benchmark for the prepared-query engine
// — N concurrent session streams x M queries each over one
// PreparedQuery and one shared DatabaseSnapshot, reporting throughput
// (qps), per-query latency percentiles, and the plan-cache prepare
// cost cold vs. hit, on the raw-text alias and on the plan's shape.
//
//   $ ./mpqe_bench_concurrent --sessions=8 --queries=50 --scale=512
//   $ ./mpqe_bench_concurrent --json=BENCH_engine.json
//
// Options:
//   --sessions=<n>   concurrent session streams          (default 8)
//   --queries=<m>    queries per stream                  (default 25)
//   --scale=<k>      chain EDB size for the TC workload  (default 256)
//   --workers=<n>    engine worker-pool size             (default = sessions)
//   --repeats=<r>    Prepare calls to sample per hit path (default 64)
//   --json=<file>    write the machine-readable summary  (default stdout only)
//   --scrape-out=<f> serve GET /metrics on an ephemeral loopback port,
//                    scrape it REPEATEDLY WHILE THE LOAD RUNS, and
//                    write the final post-load scrape to <f> (validate
//                    with scripts/check_trace.py --prometheus)
//   --queries-out=<f> write the engine query log (GET /queries JSON)
//                    captured after the load to <f>
//
// The prepare_hit_ns figure is the MEDIAN of `repeats` cache-hit
// Prepare calls with byte-identical text (the raw-text alias path: no
// parse, no adornment, no sips, no graph build). prepare_shape_hit_ns
// is the MEDIAN of `repeats` Prepare calls of the same rules with a new
// query constant each time (the shape path: parse, key, copy the
// cached program and graph with the constant swapped, and cache the
// copy). bench_guard.py
// --prepare asserts a floor on prepare_cold_ns over each.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "workload/generators.h"

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int Fail(const std::string& message) {
  std::cerr << "mpqe_bench_concurrent: " << message << "\n";
  return 1;
}

// One blocking HTTP/1.0 GET against the engine's loopback stats
// endpoint. Returns the response body, or empty on any failure — the
// in-flight scraper treats a miss as "try again next tick".
std::string HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\nHost: bench\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  if (response.rfind("HTTP/", 0) != 0) return "";
  size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) return "";
  if (response.find(" 200 ") == std::string::npos ||
      response.find(" 200 ") > response.find("\r\n")) {
    return "";
  }
  return response.substr(head_end + 4);
}

}  // namespace

int main(int argc, char** argv) {
  int sessions = 8;
  int queries = 25;
  int64_t scale = 256;
  int workers = 0;
  int repeats = 64;
  std::string json_path;
  std::string scrape_path;
  std::string queries_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--sessions=", 0) == 0) {
      sessions = std::stoi(value("--sessions="));
    } else if (arg.rfind("--queries=", 0) == 0) {
      queries = std::stoi(value("--queries="));
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = std::stoll(value("--scale="));
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = std::stoi(value("--workers="));
    } else if (arg.rfind("--repeats=", 0) == 0) {
      repeats = std::stoi(value("--repeats="));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = value("--json=");
    } else if (arg.rfind("--scrape-out=", 0) == 0) {
      scrape_path = value("--scrape-out=");
    } else if (arg.rfind("--queries-out=", 0) == 0) {
      queries_path = value("--queries-out=");
    } else {
      return Fail("unknown option: " + arg);
    }
  }
  if (sessions < 1 || queries < 1 || scale < 2 || repeats < 1) {
    return Fail("sessions/queries/repeats must be >= 1 and scale >= 2");
  }
  const bool scraping = !scrape_path.empty() || !queries_path.empty();

  // The TC-over-a-chain example: one plan, shared by every stream.
  mpqe::Database db;
  if (auto s = mpqe::workload::MakeChain(db, "edge", scale); !s.ok()) {
    return Fail(s.ToString());
  }
  const std::string program_text = mpqe::workload::LinearTcProgram(0);

  mpqe::EngineOptions engine_options;
  engine_options.workers = workers > 0 ? workers : sessions;
  if (scraping) engine_options.stats_port = 0;  // ephemeral loopback port
  mpqe::Engine engine(engine_options);
  if (scraping) {
    if (!engine.stats_server_status().ok()) {
      return Fail("stats server: " + engine.stats_server_status().ToString());
    }
    std::cerr << "stats endpoint on 127.0.0.1:" << engine.stats_port() << "\n";
  }
  auto snapshot = engine.Attach(std::move(db), "chain");

  // Cold compile.
  auto plan = engine.Prepare(snapshot, program_text);
  if (!plan.ok()) return Fail(plan.status().ToString());
  const uint64_t prepare_cold_ns = engine.plan_cache_stats().last_prepare_ns;

  // Hit path: byte-identical text, median of `repeats` samples.
  std::vector<uint64_t> hit_samples;
  hit_samples.reserve(static_cast<size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    auto hit = engine.Prepare(snapshot, program_text);
    if (!hit.ok()) return Fail(hit.status().ToString());
    if (hit->get() != plan->get()) return Fail("cache hit rebuilt the plan");
    hit_samples.push_back(engine.plan_cache_stats().last_prepare_ns);
  }
  std::sort(hit_samples.begin(), hit_samples.end());
  const uint64_t prepare_hit_ns = hit_samples[hit_samples.size() / 2];

  // Shape path: a new constant each time, median of `repeats` samples.
  std::vector<uint64_t> shape_samples;
  shape_samples.reserve(static_cast<size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const uint64_t hits = engine.plan_cache_stats().hits;
    auto instance =
        engine.Prepare(snapshot, mpqe::workload::LinearTcProgram(i + 1));
    if (!instance.ok()) return Fail(instance.status().ToString());
    const mpqe::PlanCacheStats stats = engine.plan_cache_stats();
    if (stats.hits != hits + 1 || instance->get() == plan->get()) {
      return Fail("a new constant did not instantiate the cached plan");
    }
    shape_samples.push_back(stats.last_prepare_ns);
  }
  std::sort(shape_samples.begin(), shape_samples.end());
  const uint64_t prepare_shape_hit_ns =
      shape_samples[shape_samples.size() / 2];

  // N streams x M queries. Each stream task runs its queries
  // back-to-back; streams overlap on the worker pool.
  mpqe::Histogram latency;
  std::atomic<uint64_t> failures{0};
  const size_t expected_answers =
      static_cast<size_t>(scale) - 1;  // tc(0, W) reaches 1..scale-1

  // Scrape /metrics WHILE the load runs: the point is that the
  // exposition path is safe against concurrent sessions, not just
  // quiescent engines. Every successful in-flight scrape is counted.
  std::atomic<bool> stop_scraper{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper;
  if (scraping) {
    scraper = std::thread([&] {
      while (!stop_scraper.load(std::memory_order_relaxed)) {
        if (!HttpGet(engine.stats_port(), "/metrics").empty()) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  const uint64_t wall_start = NowNs();
  std::vector<std::future<void>> streams;
  streams.reserve(static_cast<size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    streams.push_back(engine.Submit([&] {
      for (int q = 0; q < queries; ++q) {
        auto session = engine.CreateSession(*plan);
        if (!session.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto result = (*session)->Run();
        if (!result.ok() || result->answers.size() != expected_answers) {
          failures.fetch_add(1);
          continue;
        }
        latency.Record((*session)->latency_ns());
      }
    }));
  }
  for (auto& stream : streams) stream.get();
  const uint64_t wall_ns = NowNs() - wall_start;

  if (scraper.joinable()) {
    stop_scraper.store(true);
    scraper.join();
  }
  if (!scrape_path.empty()) {
    const std::string body = HttpGet(engine.stats_port(), "/metrics");
    if (body.empty()) return Fail("final /metrics scrape failed");
    std::ofstream out(scrape_path);
    if (!out) return Fail("cannot write " + scrape_path);
    out << body;
    std::cerr << "wrote " << scrape_path << "\n";
  }
  if (!queries_path.empty()) {
    const std::string body = HttpGet(engine.stats_port(), "/queries");
    if (body.empty()) return Fail("/queries fetch failed");
    std::ofstream out(queries_path);
    if (!out) return Fail("cannot write " + queries_path);
    out << body;
    std::cerr << "wrote " << queries_path << "\n";
  }

  if (failures.load() != 0) {
    return Fail(mpqe::StrCat(failures.load(), " of ", sessions * queries,
                             " queries failed or returned wrong answers"));
  }

  const uint64_t total_queries =
      static_cast<uint64_t>(sessions) * static_cast<uint64_t>(queries);
  const double qps =
      wall_ns == 0 ? 0.0
                   : static_cast<double>(total_queries) * 1e9 /
                         static_cast<double>(wall_ns);
  mpqe::PlanCacheStats cache = engine.plan_cache_stats();

  auto speedup = [prepare_cold_ns](uint64_t hit_ns) {
    return hit_ns == 0 ? static_cast<double>(prepare_cold_ns)
                       : static_cast<double>(prepare_cold_ns) /
                             static_cast<double>(hit_ns);
  };
  std::ostringstream json;
  json << "{\n"
       << "  \"workload\": \"linear_tc_chain\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"sessions\": " << sessions << ",\n"
       << "  \"queries_per_session\": " << queries << ",\n"
       << "  \"total_queries\": " << total_queries << ",\n"
       << "  \"engine_workers\": " << engine.workers() << ",\n"
       << "  \"scrapes\": " << scrapes.load() << ",\n"
       << "  \"wall_ns\": " << wall_ns << ",\n"
       << "  \"qps\": " << qps << ",\n"
       << "  \"latency_ns\": {\n"
       << "    \"count\": " << latency.count() << ",\n"
       << "    \"mean\": " << latency.mean() << ",\n"
       << "    \"min\": " << latency.min() << ",\n"
       << "    \"max\": " << latency.max() << ",\n"
       << "    \"p50\": " << latency.Percentile(50) << ",\n"
       << "    \"p95\": " << latency.Percentile(95) << ",\n"
       << "    \"p99\": " << latency.Percentile(99) << "\n"
       << "  },\n"
       << "  \"prepare_cold_ns\": " << prepare_cold_ns << ",\n"
       << "  \"prepare_hit_ns\": " << prepare_hit_ns << ",\n"
       << "  \"prepare_speedup\": " << speedup(prepare_hit_ns) << ",\n"
       << "  \"prepare_shape_hit_ns\": " << prepare_shape_hit_ns << ",\n"
       << "  \"prepare_shape_speedup\": " << speedup(prepare_shape_hit_ns)
       << ",\n"
       << "  \"plan_cache\": {\n"
       << "    \"hits\": " << cache.hits << ",\n"
       << "    \"misses\": " << cache.misses << ",\n"
       << "    \"evictions\": " << cache.evictions << ",\n"
       << "    \"size\": " << cache.size << "\n"
       << "  }\n"
       << "}\n";

  std::cout << json.str();
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) return Fail("cannot write " + json_path);
    out << json.str();
    std::cerr << "wrote " << json_path << "\n";
  }
  return 0;
}
