// mpqe_bench_e2e: the end-to-end query benchmark. One workload runs per
// process, through the public engine lifecycle (Engine -> Prepare ->
// CreateSession -> QuerySession::Run) with default engine options, and
// every answer relation is checked against the SemiNaiveBottomUp
// oracle. Layers are timed only from outside: steady_clock spans around
// the public calls into each layer, plus the counts the engine already
// returns (MessageStats, EngineCounters, and the ProfileReport when
// SessionOptions::profile is set).
//
//   $ mpqe_bench_e2e --workload=tc_chain_bulk --seed=3 --seconds=20 --trace=0
//
// Options:
//   --workload=<name>  serve_point | tc_chain_bulk | nl_cycle_dedup |
//                      scc_parallel (bench/e2e/README.md says why each)
//   --seed=<n>         node relabeling and query streams   (default 1)
//   --edb-seed=<n>     EDB structure and key ranking       (default 7)
//   --seconds=<s>      measurement window                  (default 20)
//   --trace=<0|1>      0: end-to-end metrics; 1: the per-layer split from
//                      a profiled pass, plus trace_<workload>.json
//   --trace-dir=<dir>  where trace_<workload>.json goes    (default .)
//
// The last line on stdout is one JSON object with the keys correct,
// attempted, failed and metrics. A readable summary, the sample counts
// and (traced) the span self-time table go to stderr. Any set-up error
// exits 1 without printing a result.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/bottom_up.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "graph/rule_goal_graph.h"
#include "sips/strategy.h"

namespace {

using mpqe::Database;
using mpqe::Engine;
using mpqe::EvaluationResult;
using mpqe::Rng;
using mpqe::SchedulerKind;
using mpqe::SessionOptions;
using mpqe::StrCat;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "mpqe_bench_e2e: " << message << "\n";
  std::exit(1);
}

void CheckOk(const mpqe::Status& status, const char* what) {
  if (!status.ok()) Die(StrCat(what, ": ", status.ToString()));
}

// Exact nearest-rank order statistic over raw samples, p in (0, 100].
template <typename T>
T Percentile(std::vector<T> samples, double p) {
  if (samples.empty()) return T{};
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

template <typename T>
T Median(std::vector<T> samples) {
  return Percentile(std::move(samples), 50);
}

// The value one tenth of the way from the best of `values` to the worst
// (the 3rd best of 20). Timings are reported this way over the
// sub-windows of a run: a shared host (a 4-vCPU KVM guest, in the
// calibration runs under results/) runs up to 1.6x slower for seconds
// to minutes at a time while co-tenants load it, and the faster tenth
// tracks what the program itself costs.
double FastTenth(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) return 0;
  if (higher_is_better) {
    std::sort(values.begin(), values.end(), std::greater<>());
  } else {
    std::sort(values.begin(), values.end());
  }
  return values[values.size() / 10];
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
uint64_t SecondsToNs(double s) { return static_cast<uint64_t>(s * 1e9); }

// An independent RNG seed per (seed, stream) pair.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return mpqe::Mix64(seed * 0x9E3779B97F4A7C15ULL + stream);
}

// ---------------------------------------------------------------------------
// Workloads. The EDB's shape comes from --edb-seed; --seed relabels its
// nodes with a random permutation and drives the query streams. So each
// seed gives different inputs of the same size and shape, and the work
// per query does not depend on the seed.

struct WorkloadDef {
  const char* name;
  int clients;  // closed-loop clients, each blocking on its request
  SchedulerKind scheduler;
};

// serve_point runs 2 clients, not 4. Its p99 falls among the ~2% of
// requests whose keys sit at depth 5 of the tree, and their latency
// takes one of two values (about 5.3 and 7.7 ms) in a share that drifts
// with the host's load. At 4 clients about half were slow, so the p99
// flipped between the two from run to run; at 2 about three quarters
// are, and it stays on the slower one.
constexpr WorkloadDef kWorkloads[] = {
    {"serve_point", 2, SchedulerKind::kDeterministic},
    {"tc_chain_bulk", 4, SchedulerKind::kDeterministic},
    {"nl_cycle_dedup", 4, SchedulerKind::kDeterministic},
    {"scc_parallel", 1, SchedulerKind::kThreaded},
};
constexpr int kSessionWorkers = 4;  // threaded-scheduler sessions
// setup_s is the median of kSetupRepeats set-ups, each kSetupGapMs
// after the last. Back to back they alternate between two speeds (3.3
// and 5.3 ms on serve_point) and their median flips between runs;
// spaced out, each starts from an idle process and the median holds to
// a few percent.
constexpr int kSetupRepeats = 21;
constexpr int kSetupGapMs = 25;
constexpr int kPrepareSamples = 256;
constexpr size_t kRankBlock = 4096;
constexpr int kWindows = 20;  // sub-windows of a measurement
constexpr uint64_t kTicksPerWindow = 10;
constexpr size_t kMaxTracedRequests = 2000;

constexpr char kLinearTc[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";
constexpr char kNonlinearTc[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), tc(Z, Y).\n";

struct EdgeList {
  std::string relation;
  std::vector<std::pair<int64_t, int64_t>> edges;
};

// The generated inputs of one workload.
struct Inputs {
  std::vector<EdgeList> edb;
  // One query text per key, in Zipf rank order (rank 0 is drawn most).
  std::vector<std::string> texts;
  // kRankBlock ranks at the Zipf(s=1) quantiles: the multiset every
  // client draws from (see QueryStream).
  std::vector<size_t> rank_block;
  // Evaluated once by the oracle. When `keys` is nonempty its goal is
  // goal(X, W), grouped by X: keys[r] is the constant of texts[r].
  std::string oracle_text;
  std::vector<int64_t> keys;
};

std::vector<int64_t> Permutation(int64_t n, Rng& rng) {
  std::vector<int64_t> items(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) items[static_cast<size_t>(i)] = i;
  rng.Shuffle(items);
  return items;
}

Inputs MakeInputs(std::string_view workload, uint64_t edb_seed,
                  uint64_t seed) {
  Inputs in;
  auto relabeled = [](const std::vector<int64_t>& label, int64_t a,
                      int64_t b) {
    return std::make_pair(label[static_cast<size_t>(a)],
                          label[static_cast<size_t>(b)]);
  };
  if (workload == "serve_point") {
    // Point lookups tc(k, W) over a complete binary tree; k is drawn
    // Zipf(s=1) over a fixed ranking of the nodes.
    const int64_t n = 4095;
    Rng relabel(SubSeed(seed, 1));
    const std::vector<int64_t> label = Permutation(n, relabel);
    EdgeList tree{"edge", {}};
    for (int64_t i = 0; i < n; ++i) {
      if (2 * i + 1 < n) tree.edges.push_back(relabeled(label, i, 2 * i + 1));
      if (2 * i + 2 < n) tree.edges.push_back(relabeled(label, i, 2 * i + 2));
    }
    in.edb.push_back(std::move(tree));
    Rng structure(SubSeed(edb_seed, 1));
    for (int64_t node : Permutation(n, structure)) {
      const int64_t key = label[static_cast<size_t>(node)];
      in.keys.push_back(key);
      in.texts.push_back(StrCat(kLinearTc, "?- tc(", key, ", W).\n"));
    }
    in.oracle_text = StrCat(kLinearTc, "?- tc(X, W).\n");
  } else if (workload == "tc_chain_bulk" || workload == "nl_cycle_dedup") {
    const bool chain = workload == "tc_chain_bulk";
    const int64_t n = chain ? 160 : 32;
    Rng relabel(SubSeed(seed, 2));
    const std::vector<int64_t> label = Permutation(n, relabel);
    EdgeList graph{"edge", {}};
    for (int64_t i = 0; i < n; ++i) {
      if (chain && i + 1 == n) break;
      graph.edges.push_back(relabeled(label, i, (i + 1) % n));
    }
    in.edb.push_back(std::move(graph));
    in.texts.push_back(StrCat(chain ? kLinearTc : kNonlinearTc, "?- tc(",
                              label[0], ", W).\n"));
    in.oracle_text = in.texts[0];
  } else if (workload == "scc_parallel") {
    // Eight independent linear TCs over random graphs, unioned into
    // goal: eight recursive SCCs the threaded scheduler can overlap.
    const int graphs = 8;
    const int64_t n = 40;
    const int64_t out_degree = 2;
    std::string text;
    std::string goals;
    for (int g = 0; g < graphs; ++g) {
      Rng structure(SubSeed(edb_seed, 100 + static_cast<uint64_t>(g)));
      Rng relabel(SubSeed(seed, 100 + static_cast<uint64_t>(g)));
      const std::vector<int64_t> label = Permutation(n, relabel);
      EdgeList graph{StrCat("e", g), {}};
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t k = 0; k < out_degree; ++k) {
          const auto j =
              static_cast<int64_t>(structure.Below(static_cast<uint64_t>(n)));
          graph.edges.push_back(relabeled(label, i, j));
        }
      }
      text += StrCat("tc", g, "(X, Y) :- e", g, "(X, Y).\n", "tc", g,
                     "(X, Y) :- e", g, "(X, Z), tc", g, "(Z, Y).\n");
      goals += StrCat("goal(W) :- tc", g, "(", label[0], ", W).\n");
      in.edb.push_back(std::move(graph));
    }
    in.texts.push_back(text + goals);
    in.oracle_text = in.texts[0];
  } else {
    Die(StrCat("unknown workload: ", workload));
  }

  std::vector<double> cdf;
  double total = 0;
  for (size_t r = 0; r < in.texts.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf.push_back(total);
  }
  for (size_t j = 0; j < kRankBlock; ++j) {
    const double u = (static_cast<double>(j) + 0.5) / kRankBlock * total;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    in.rank_block.push_back(std::min<size_t>(
        static_cast<size_t>(it - cdf.begin()), cdf.size() - 1));
  }
  return in;
}

// A client's query stream: the rank block, reshuffled by the client's
// RNG each time it is used up. Every block holds the same multiset of
// keys (stratified Zipf sampling), so the query mix, and with it the
// work per query, does not drift with the seed; the order does.
class QueryStream {
 public:
  QueryStream(const Inputs& in, uint64_t seed)
      : block_(in.rank_block), rng_(seed), next_(block_.size()) {}

  size_t Next() {
    if (next_ == block_.size()) {
      rng_.Shuffle(block_);
      next_ = 0;
    }
    return block_[next_++];
  }

 private:
  std::vector<size_t> block_;
  Rng rng_;
  size_t next_;
};

Database ToDatabase(const Inputs& in) {
  Database db;
  for (const EdgeList& list : in.edb) {
    CheckOk(db.CreateRelation(list.relation, 2), "create relation");
    for (const auto& [a, b] : list.edges) {
      CheckOk(db.InsertFact(list.relation,
                            {mpqe::Value::Int(a), mpqe::Value::Int(b)})
                  .status(),
              "insert fact");
    }
  }
  return db;
}

// The oracle: expected answer values (sorted) per query rank, from one
// SemiNaiveBottomUp run over a separately built copy of the EDB.
std::vector<std::vector<int64_t>> ComputeOracle(const Inputs& in) {
  Database db = ToDatabase(in);
  mpqe::Program program;
  CheckOk(mpqe::ParseRulesInto(in.oracle_text, program, db.symbols()),
          "oracle parse");
  auto result = mpqe::SemiNaiveBottomUp(program, db);
  CheckOk(result.status(), "oracle");
  const mpqe::Relation& goal = result->goal;

  std::vector<std::vector<int64_t>> expected(in.texts.size());
  if (in.keys.empty()) {
    for (mpqe::TupleRef row : goal.tuples()) {
      expected[0].push_back(row[0].payload());
    }
  } else {
    std::unordered_map<int64_t, std::vector<int64_t>> by_key;
    for (mpqe::TupleRef row : goal.tuples()) {
      by_key[row[0].payload()].push_back(row[1].payload());
    }
    for (size_t r = 0; r < in.keys.size(); ++r) {
      expected[r] = std::move(by_key[in.keys[r]]);
    }
  }
  for (auto& values : expected) std::sort(values.begin(), values.end());
  return expected;
}

// What set-up produces: an engine with the EDB attached and, for the
// fixed-query workloads, the plan compiled.
struct Deployment {
  std::unique_ptr<Engine> engine;
  std::shared_ptr<mpqe::DatabaseSnapshot> snapshot;
};

Deployment Deploy(const Inputs& in) {
  Deployment d;
  d.engine = std::make_unique<Engine>();
  d.snapshot = d.engine->Attach(ToDatabase(in), "e2e");
  if (in.texts.size() == 1) {
    CheckOk(d.engine->Prepare(d.snapshot, in.texts[0]).status(),
            "cold prepare");
  }
  return d;
}

// ---------------------------------------------------------------------------
// Closed-loop passes.

// One span from the benchmark's own calls (Chrome trace "X" event).
struct Span {
  const char* name;
  uint64_t begin_ns;
  uint64_t end_ns;
  int track;       // client index; decomposed prepares get their own
  int64_t parent;  // index in the same span list, -1 for a root
};

// Per-request sums and samples over the measured requests of a pass.
struct Tally {
  uint64_t requests = 0;
  std::vector<uint64_t> latency_ns;
  std::vector<uint64_t> done_ns;  // completion time, parallel to latency_ns
  std::vector<uint64_t> pool_wait_ns;
  std::vector<uint64_t> create_ns;
  uint64_t rows_shipped = 0;
  uint64_t physical_msgs = 0;
  uint64_t protocol_msgs = 0;
  uint64_t segments = 0;
  uint64_t segment_rows = 0;
  uint64_t stored_tuples = 0;
  uint64_t contexts = 0;
  uint64_t duplicate_drops = 0;
  uint64_t protocol_waves = 0;
  // From the ProfileReport (profiled passes only).
  std::vector<uint64_t> wiring_ns;
  std::vector<uint64_t> run_ns;
  std::vector<uint64_t> finish_ns;
  uint64_t thread_run_ns = 0;  // run phase x session threads
  uint64_t fire_ns = 0;
  uint64_t goal_fire_ns = 0;
  uint64_t rule_fire_ns = 0;
  uint64_t edb_fire_ns = 0;
  uint64_t queue_wait_ns = 0;
  std::vector<Span> spans;

  void Add(Tally&& o) {
    requests += o.requests;
    auto append = [](std::vector<uint64_t>& to, std::vector<uint64_t>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(latency_ns, o.latency_ns);
    append(done_ns, o.done_ns);
    append(pool_wait_ns, o.pool_wait_ns);
    append(create_ns, o.create_ns);
    append(wiring_ns, o.wiring_ns);
    append(run_ns, o.run_ns);
    append(finish_ns, o.finish_ns);
    rows_shipped += o.rows_shipped;
    physical_msgs += o.physical_msgs;
    protocol_msgs += o.protocol_msgs;
    segments += o.segments;
    segment_rows += o.segment_rows;
    stored_tuples += o.stored_tuples;
    contexts += o.contexts;
    duplicate_drops += o.duplicate_drops;
    protocol_waves += o.protocol_waves;
    thread_run_ns += o.thread_run_ns;
    fire_ns += o.fire_ns;
    goal_fire_ns += o.goal_fire_ns;
    rule_fire_ns += o.rule_fire_ns;
    edb_fire_ns += o.edb_fire_ns;
    queue_wait_ns += o.queue_wait_ns;
    const auto base = static_cast<int64_t>(spans.size());
    for (Span s : o.spans) {
      if (s.parent >= 0) s.parent += base;
      spans.push_back(s);
    }
  }

  // Mean of a per-query sum.
  double PerQuery(double total) const {
    return Ratio(total, static_cast<double>(requests));
  }
};

// Everything a pass needs; shared read-only by the client threads.
struct Context {
  const Inputs* inputs;
  const std::vector<std::vector<int64_t>>* expected;
  Engine* engine;
  std::shared_ptr<mpqe::DatabaseSnapshot> snapshot;
  uint64_t seed;
};

// One request, timed at each public call.
struct Outcome {
  uint64_t submit = 0;
  uint64_t start = 0;     // a pool worker picked it up
  uint64_t prepared = 0;  // Prepare returned
  uint64_t created = 0;   // CreateSession returned
  uint64_t ran = 0;       // Run returned
  uint64_t done = 0;      // the client saw the result
  mpqe::StatusOr<EvaluationResult> result = mpqe::InternalError("not run");
};

Outcome Issue(const Context& ctx, size_t rank, const SessionOptions& options) {
  Outcome o;
  o.submit = NowNs();
  ctx.engine
      ->Submit([&] {
        o.start = NowNs();
        auto plan = ctx.engine->Prepare(ctx.snapshot, ctx.inputs->texts[rank]);
        o.prepared = NowNs();
        if (!plan.ok()) {
          o.result = plan.status();
          return;
        }
        auto session = ctx.engine->CreateSession(*plan, options);
        o.created = NowNs();
        if (!session.ok()) {
          o.result = session.status();
          return;
        }
        o.result = (*session)->Run();
        o.ran = NowNs();
      })
      .get();
  o.done = NowNs();
  return o;
}

// Full answer relation equal to the oracle's, ended by the protocol.
bool Matches(const mpqe::StatusOr<EvaluationResult>& result,
             const std::vector<int64_t>& expected,
             std::vector<int64_t>& scratch) {
  if (!result.ok() || !result->ended_by_protocol) return false;
  const mpqe::Relation& answers = result->answers;
  if (answers.arity() != 1 || answers.size() != expected.size()) return false;
  scratch.clear();
  for (mpqe::TupleRef row : answers.tuples()) {
    scratch.push_back(row[0].payload());
  }
  std::sort(scratch.begin(), scratch.end());
  return scratch == expected;
}

void Record(const Outcome& o, int session_threads, bool spans, int track,
            Tally& t) {
  ++t.requests;
  t.latency_ns.push_back(o.done - o.submit);
  t.done_ns.push_back(o.done);
  if (!o.result.ok()) return;
  t.pool_wait_ns.push_back(o.start - o.submit);
  t.create_ns.push_back(o.created - o.prepared);
  const EvaluationResult& r = *o.result;
  t.rows_shipped += r.message_stats.ComputationTotal();
  t.physical_msgs += r.message_stats.PhysicalTotal();
  t.protocol_msgs += r.message_stats.ProtocolTotal();
  t.segments += r.message_stats.Count(mpqe::MessageKind::kTupleSegment);
  t.segment_rows += r.message_stats.segment_rows;
  t.stored_tuples += r.counters.stored_tuples;
  t.contexts += r.counters.contexts;
  t.duplicate_drops += r.counters.duplicate_drops;
  t.protocol_waves += r.counters.protocol_waves;
  if (r.profile != nullptr) {
    const mpqe::ProfileReport& p = *r.profile;
    auto phase = [&p](mpqe::Phase ph) {
      const auto i = static_cast<size_t>(ph);
      return i < p.phase_ns.size() ? p.phase_ns[i] : 0;
    };
    const uint64_t wiring = phase(mpqe::Phase::kNetworkWiring);
    const uint64_t run = phase(mpqe::Phase::kRun);
    t.wiring_ns.push_back(wiring);
    t.run_ns.push_back(run);
    // The profile is finalized inside the drain phase, so its kDrain
    // entry stays 0. The rest of Run() after wiring and the scheduler
    // loop (result collection, profile finalize, network teardown) is
    // measured from outside instead.
    const uint64_t session_ns = o.ran - o.created;
    t.finish_ns.push_back(session_ns - std::min(session_ns, wiring + run));
    t.thread_run_ns += run * static_cast<uint64_t>(session_threads);
    t.fire_ns += p.total_fire_ns;
    t.queue_wait_ns += p.total_queue_wait_ns;
    for (const mpqe::NodeProfile& node : p.nodes) {
      switch (node.role) {
        case mpqe::NodeRole::kGoal:
          t.goal_fire_ns += node.fire_ns;
          break;
        case mpqe::NodeRole::kRule:
          t.rule_fire_ns += node.fire_ns;
          break;
        case mpqe::NodeRole::kEdbLeaf:
          t.edb_fire_ns += node.fire_ns;
          break;
        case mpqe::NodeRole::kCycleRef:
          break;
      }
    }
  }
  if (spans && t.requests <= kMaxTracedRequests) {
    const auto root = static_cast<int64_t>(t.spans.size());
    t.spans.push_back({"request", o.submit, o.done, track, -1});
    t.spans.push_back({"prepare", o.start, o.prepared, track, root});
    t.spans.push_back({"create_session", o.prepared, o.created, track, root});
    t.spans.push_back({"run", o.created, o.ran, track, root});
  }
}

struct PassConfig {
  int clients = 1;
  SessionOptions session;
  double warmup_s = 0;
  double measure_s = 1;
  bool spans = false;
  uint64_t stream = 0;  // distinguishes the query streams of passes
};

struct PassResult {
  Tally tally;             // the measured requests
  uint64_t attempted = 0;  // every request, warm-up included
  uint64_t failed = 0;
  // Per sub-window of the measurement (kWindows of them): throughput,
  // median latency and process CPU time per completed query.
  std::vector<double> window_qps;
  std::vector<double> window_p50_ms;
  std::vector<double> window_cpu_ms;
  double mean_heap_mb = 0;  // heap in use, sampled while measuring

  double qps() const { return FastTenth(window_qps, /*higher_is_better=*/true); }
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Bytes the allocator has handed out and not yet got back, over all
// arenas. Unlike the resident set it does not include memory the
// allocator keeps after a free, which varies by ±20% between identical
// runs of serve_point.
double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

void SleepUntilNs(uint64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

// Closed loop: each client issues its next request when the previous
// one returns. Requests issued during the warm-up are checked but not
// measured; measurement covers requests issued in the window, and each
// client measures at least one.
//
// The window is cut into kWindows sub-windows; throughput, median
// latency and CPU per query are computed per sub-window and reported as
// their FastTenth.
PassResult RunPass(const Context& ctx, const PassConfig& cfg) {
  struct Client {
    Tally tally;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    // (submit, done) of every request that ended after the warm-up.
    std::vector<std::pair<uint64_t, uint64_t>> intervals;
  };
  std::vector<Client> clients(static_cast<size_t>(cfg.clients));
  const int session_threads = cfg.session.scheduler == SchedulerKind::kThreaded
                                  ? cfg.session.workers
                                  : 1;
  const uint64_t begin = NowNs() + SecondsToNs(cfg.warmup_s);
  const uint64_t end = begin + SecondsToNs(cfg.measure_s);

  std::atomic<int> running{cfg.clients};
  std::vector<std::thread> threads;
  for (int c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      Client& me = clients[static_cast<size_t>(c)];
      QueryStream stream(*ctx.inputs,
                         SubSeed(ctx.seed, cfg.stream * 64 +
                                               static_cast<uint64_t>(c)));
      std::vector<int64_t> scratch;
      for (;;) {
        const uint64_t now = NowNs();
        if (now >= end && me.tally.requests > 0) break;
        const size_t rank = stream.Next();
        const Outcome o = Issue(ctx, rank, cfg.session);
        ++me.attempted;
        if (!Matches(o.result, (*ctx.expected)[rank], scratch)) ++me.failed;
        if (o.done > begin) me.intervals.emplace_back(o.submit, o.done);
        if (now >= begin) Record(o, session_threads, cfg.spans, c, me.tally);
      }
      running.fetch_sub(1);
    });
  }
  // While the clients run: process CPU time at every sub-window
  // boundary, and the heap in use kTicksPerWindow times per sub-window.
  const uint64_t window_ns = (end - begin) / kWindows;
  const uint64_t tick_ns = window_ns / kTicksPerWindow;
  std::vector<double> cpu_at_boundary;
  double heap_sum = 0;
  uint64_t ticks = 0;
  for (;; ++ticks) {
    SleepUntilNs(begin + ticks * tick_ns);
    if (ticks % kTicksPerWindow == 0 &&
        cpu_at_boundary.size() <= static_cast<size_t>(kWindows)) {
      cpu_at_boundary.push_back(CpuSeconds());
    }
    heap_sum += HeapInUseMb();
    if (running.load() == 0 && ticks >= kWindows * kTicksPerWindow) break;
  }
  for (std::thread& t : threads) t.join();

  PassResult result;
  result.mean_heap_mb = heap_sum / static_cast<double>(ticks + 1);
  // Queries done per sub-window: each request counts in every window
  // its interval overlaps, by the share of the interval inside it, so
  // the count is not rounded to whole queries.
  std::vector<double> queries(kWindows, 0.0);
  for (Client& c : clients) {
    result.attempted += c.attempted;
    result.failed += c.failed;
    result.tally.Add(std::move(c.tally));
    for (const auto& [submit, done] : c.intervals) {
      const auto length =
          static_cast<double>(std::max<uint64_t>(done - submit, 1));
      for (uint64_t w = submit > begin ? (submit - begin) / window_ns : 0;
           w < static_cast<uint64_t>(kWindows); ++w) {
        const uint64_t lo = std::max(submit, begin + w * window_ns);
        const uint64_t hi = std::min(done, begin + (w + 1) * window_ns);
        if (hi <= lo) break;
        queries[w] += static_cast<double>(hi - lo) / length;
      }
    }
  }
  const Tally& t = result.tally;
  std::vector<std::vector<uint64_t>> latency_by_window(kWindows);
  for (size_t i = 0; i < t.done_ns.size(); ++i) {
    const uint64_t w = (t.done_ns[i] - begin) / window_ns;
    if (w < static_cast<uint64_t>(kWindows)) {
      latency_by_window[w].push_back(t.latency_ns[i]);
    }
  }
  const double window_s = static_cast<double>(window_ns) / 1e9;
  for (size_t w = 0; w < static_cast<size_t>(kWindows); ++w) {
    result.window_qps.push_back(queries[w] / window_s);
    if (latency_by_window[w].empty()) continue;
    result.window_p50_ms.push_back(Ms(Median(latency_by_window[w])));
    result.window_cpu_ms.push_back(
        (cpu_at_boundary[w + 1] - cpu_at_boundary[w]) * 1e3 / queries[w]);
  }
  return result;
}

// ---------------------------------------------------------------------------
// The decomposed prepare: each compile layer timed directly on the
// workload's query texts, plus cold and cached Engine::Prepare on a
// probe engine whose one-entry plan cache is flushed before each miss.

struct PrepareLayers {
  std::vector<uint64_t> parse_ns;
  std::vector<uint64_t> validate_ns;
  std::vector<uint64_t> build_ns;
  std::vector<uint64_t> nodes;
  std::vector<uint64_t> miss_ns;
  std::vector<uint64_t> hit_ns;
};

PrepareLayers TimePrepareLayers(const Inputs& in, uint64_t seed, int track,
                                std::vector<Span>& spans) {
  PrepareLayers out;
  Database db = ToDatabase(in);
  mpqe::EngineOptions probe_options;
  probe_options.plan_cache_capacity = 1;
  Engine probe(probe_options);
  auto snapshot = probe.Attach(ToDatabase(in), "probe");
  const std::string flush =
      StrCat("goal(X) :- ", in.edb[0].relation, "(X, Y).\n");
  const std::string strategy_name = mpqe::PlanOptions().strategy;

  QueryStream stream(in, SubSeed(seed, 999));
  for (int i = 0; i < kPrepareSamples; ++i) {
    const std::string& text = in.texts[stream.Next()];
    mpqe::Program program;
    const uint64_t t0 = NowNs();
    CheckOk(mpqe::ParseRulesInto(text, program, db.symbols()), "parse");
    const uint64_t t1 = NowNs();
    CheckOk(program.Validate(&db), "validate");
    const uint64_t t2 = NowNs();
    auto strategy = mpqe::MakeStrategyByName(strategy_name);
    CheckOk(strategy.status(), "strategy");
    auto graph = mpqe::RuleGoalGraph::Build(program, **strategy);
    CheckOk(graph.status(), "graph build");
    const uint64_t t3 = NowNs();
    out.parse_ns.push_back(t1 - t0);
    out.validate_ns.push_back(t2 - t1);
    out.build_ns.push_back(t3 - t2);
    out.nodes.push_back((*graph)->size());
    const auto root = static_cast<int64_t>(spans.size());
    spans.push_back({"prepare_decomposed", t0, t3, track, -1});
    spans.push_back({"parse", t0, t1, track, root});
    spans.push_back({"validate", t1, t2, track, root});
    spans.push_back({"build", t2, t3, track, root});

    CheckOk(probe.Prepare(snapshot, flush).status(), "flush prepare");
    const uint64_t t4 = NowNs();
    CheckOk(probe.Prepare(snapshot, text).status(), "cold prepare");
    const uint64_t t5 = NowNs();
    CheckOk(probe.Prepare(snapshot, text).status(), "cached prepare");
    const uint64_t t6 = NowNs();
    out.miss_ns.push_back(t5 - t4);
    out.hit_ns.push_back(t6 - t5);
  }
  const mpqe::PlanCacheStats stats = probe.plan_cache_stats();
  if (stats.hits != static_cast<uint64_t>(kPrepareSamples)) {
    std::cerr << "warning: probe engine saw " << stats.hits << " plan-cache hits, expected "
              << kPrepareSamples << "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
void WriteTrace(const std::string& path, const std::vector<Span>& spans,
                int tracks) {
  std::ofstream out(path);
  if (!out) Die("cannot write " + path);
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans) origin = std::min(origin, s.begin_ns);
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\": [\n";
  for (int t = 0; t < tracks; ++t) {
    out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
        << t << ", \"args\": {\"name\": \""
        << (t + 1 == tracks ? std::string("decomposed prepare")
                            : StrCat("client ", t))
        << "\"}},\n";
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\": \"" << s.name << "\", \"cat\": \"e2e\", \"ph\": \"X\""
        << ", \"ts\": " << static_cast<double>(s.begin_ns - origin) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.begin_ns) / 1e3
        << ", \"pid\": 1, \"tid\": " << s.track << "}"
        << (i + 1 == spans.size() ? "\n" : ",\n");
  }
  out << "], \"displayTimeUnit\": \"ms\"}\n";
}

// Self time = a span's duration minus what its child spans cover.
void PrintSelfTimes(const std::vector<Span>& spans) {
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.begin_ns;
  }
  struct Row {
    std::string name;
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  std::vector<Row> rows;
  uint64_t all_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const Row& r) { return r.name == s.name; });
    if (it == rows.end()) it = rows.insert(rows.end(), Row{s.name});
    const uint64_t dur = s.end_ns - s.begin_ns;
    const uint64_t self = dur - std::min(dur, child_ns[i]);
    ++it->count;
    it->total_ns += dur;
    it->self_ns += self;
    all_self += self;
  }
  std::cerr << "span self times (traced pass):\n"
            << "  span                   count    total_ms     self_ms  self%\n";
  for (const Row& r : rows) {
    std::cerr << "  " << std::left << std::setw(20) << r.name << std::right
              << std::setw(8) << r.count << std::fixed << std::setprecision(2)
              << std::setw(12) << Ms(r.total_ns) << std::setw(12)
              << Ms(r.self_ns) << std::setw(7)
              << 100.0 * Ratio(static_cast<double>(r.self_ns),
                               static_cast<double>(all_self))
              << "\n";
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json << std::setprecision(std::numeric_limits<double>::max_digits10)
       << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) Die("metric " + m.name + " is not finite");
    json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  for (const Metric& m : metrics) {
    std::cerr << "  " << std::left << std::setw(36) << m.name << std::right
              << std::setprecision(6) << std::defaultfloat << m.value << " "
              << m.unit << "\n";
  }
  std::cout << json.str() << std::endl;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint64_t edb_seed = 7;
  double seconds = 20;
  bool trace = false;
  std::string trace_dir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("expected --name=value, got: " + arg);
    }
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    try {
      if (name == "workload") {
        args.workload = value;
      } else if (name == "seed") {
        args.seed = std::stoull(value);
      } else if (name == "edb-seed") {
        args.edb_seed = std::stoull(value);
      } else if (name == "seconds") {
        args.seconds = std::stod(value);
      } else if (name == "trace") {
        if (value != "0" && value != "1") Die("--trace expects 0 or 1");
        args.trace = value == "1";
      } else if (name == "trace-dir") {
        args.trace_dir = value;
      } else {
        Die("unknown option: " + arg);
      }
    } catch (const std::exception&) {
      Die("bad value: " + arg);
    }
  }
  if (!(args.seconds > 0)) Die("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (args.workload == w.name) def = &w;
  }
  if (def == nullptr) Die("unknown or missing --workload=" + args.workload);

  // Set-up several times; the last deployment serves the run. The
  // previous deployment is torn down first.
  std::vector<double> setup_s;
  Inputs inputs;
  Deployment deployment;
  for (int i = 0; i < kSetupRepeats; ++i) {
    deployment = Deployment();
    std::this_thread::sleep_for(std::chrono::milliseconds(kSetupGapMs));
    const uint64_t t0 = NowNs();
    inputs = MakeInputs(def->name, args.edb_seed, args.seed);
    deployment = Deploy(inputs);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const std::vector<std::vector<int64_t>> expected = ComputeOracle(inputs);
  const Context ctx{&inputs, &expected, deployment.engine.get(),
                    deployment.snapshot, args.seed};

  SessionOptions session;
  session.scheduler = def->scheduler;
  session.workers = kSessionWorkers;
  PassConfig cfg;
  cfg.clients = def->clients;
  cfg.session = session;
  cfg.warmup_s = 0.1 * args.seconds;

  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::cerr << "workload " << def->name << " seed " << args.seed
            << " edb_seed " << args.edb_seed << " trace " << args.trace
            << "\n";
  if (!args.trace) {
    cfg.measure_s = args.seconds;
    const PassResult pass = RunPass(ctx, cfg);
    attempted = pass.attempted;
    failed = pass.failed;
    const Tally& t = pass.tally;
    std::cerr << "  samples " << t.requests << " (" << pass.attempted
              << " checked incl. warm-up)\n"
              << "  pooled latency ms p50 " << Ms(Percentile(t.latency_ns, 50))
              << " p90 " << Ms(Percentile(t.latency_ns, 90)) << " p99 "
              << Ms(Percentile(t.latency_ns, 99)) << " p99.9 "
              << Ms(Percentile(t.latency_ns, 99.9)) << " max "
              << Ms(Percentile(t.latency_ns, 100)) << "\n"
              << "  sub-window qps median " << Median(pass.window_qps)
              << ", p50 ms median " << Median(pass.window_p50_ms)
              << ", peak rss " << PeakRssMb() << " MB\n";
    // The tail comes from the pooled samples: p99 needs at least ten
    // beyond it, and it is where the host's slow stretches belong.
    metrics = {
        {"qps", pass.qps(), "1/s"},
        {"latency_p50_ms", FastTenth(pass.window_p50_ms, false), "ms"},
        {"latency_p99_ms", Ms(Percentile(t.latency_ns, 99)), "ms"},
        {"cpu_ms_per_query", FastTenth(pass.window_cpu_ms, false), "ms"},
        {"rows_shipped_per_query",
         t.PerQuery(static_cast<double>(t.rows_shipped)), "rows"},
        {"heap_mb", pass.mean_heap_mb, "MB"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    // A: untraced, the base of the tracing overhead.
    cfg.measure_s = 0.3 * args.seconds;
    cfg.stream = 1;
    const PassResult untraced = RunPass(ctx, cfg);
    // B: profiled, with spans; the per-layer numbers come from here.
    const mpqe::PlanCacheStats cache_before =
        ctx.engine->plan_cache_stats();
    cfg.warmup_s = 0;
    cfg.measure_s = 0.4 * args.seconds;
    cfg.session.profile = true;
    cfg.spans = true;
    cfg.stream = 2;
    PassResult traced = RunPass(ctx, cfg);
    const mpqe::PlanCacheStats cache_after = ctx.engine->plan_cache_stats();
    // One client at 1 and at 4 session workers (threaded scheduler):
    // how much of one query the scheduler can run in parallel.
    PassConfig scaling;
    scaling.session.scheduler = SchedulerKind::kThreaded;
    scaling.warmup_s = 0.02 * args.seconds;
    scaling.measure_s = 0.1 * args.seconds;
    scaling.session.workers = 1;
    scaling.stream = 3;
    const PassResult one_worker = RunPass(ctx, scaling);
    scaling.session.workers = kSessionWorkers;
    scaling.stream = 4;
    const PassResult four_workers = RunPass(ctx, scaling);

    Tally& t = traced.tally;
    const PrepareLayers layers =
        TimePrepareLayers(inputs, args.seed, def->clients, t.spans);
    for (const PassResult* p : std::initializer_list<const PassResult*>{
             &untraced, &traced, &one_worker, &four_workers}) {
      attempted += p->attempted;
      failed += p->failed;
    }
    std::cerr << "  traced samples " << t.requests << "\n";
    const double hits =
        static_cast<double>(cache_after.hits - cache_before.hits);
    const double misses =
        static_cast<double>(cache_after.misses - cache_before.misses);
    metrics = {
        {"datalog.parse_us", Us(Median(layers.parse_ns)), "us"},
        {"datalog.validate_us", Us(Median(layers.validate_ns)), "us"},
        {"graph.build_us", Us(Median(layers.build_ns)), "us"},
        {"graph.nodes", static_cast<double>(Median(layers.nodes)), "count"},
        {"engine.prepare_hit_us", Us(Median(layers.hit_ns)), "us"},
        {"engine.prepare_miss_us", Us(Median(layers.miss_ns)), "us"},
        {"engine.plan_cache_hit_rate", Ratio(hits, hits + misses), "ratio"},
        {"engine.create_session_us", Us(Median(t.create_ns)), "us"},
        {"engine.pool_wait_us", Us(Median(t.pool_wait_ns)), "us"},
        {"engine.wiring_us", Us(Median(t.wiring_ns)), "us"},
        {"engine.run_ms", Ms(Median(t.run_ns)), "ms"},
        {"engine.finish_us", Us(Median(t.finish_ns)), "us"},
        {"msg.physical_msgs_per_query",
         t.PerQuery(static_cast<double>(t.physical_msgs)), "count"},
        {"msg.rows_per_segment",
         Ratio(static_cast<double>(t.segment_rows),
               static_cast<double>(t.segments)),
         "rows"},
        {"msg.queue_wait_ms_per_query",
         t.PerQuery(Ms(t.queue_wait_ns)), "ms"},
        {"msg.handler_share",
         Ratio(static_cast<double>(t.fire_ns),
               static_cast<double>(t.thread_run_ns)),
         "ratio"},
        {"msg.speedup_4w_over_1w", Ratio(four_workers.qps(), one_worker.qps()),
         "ratio"},
        {"relational.goal_absorb_ms", t.PerQuery(Ms(t.goal_fire_ns)), "ms"},
        {"relational.rule_probe_ms", t.PerQuery(Ms(t.rule_fire_ns)), "ms"},
        {"relational.edb_probe_ms", t.PerQuery(Ms(t.edb_fire_ns)), "ms"},
        {"relational.stored_tuples_per_query",
         t.PerQuery(static_cast<double>(t.stored_tuples)), "count"},
        {"relational.contexts_per_query",
         t.PerQuery(static_cast<double>(t.contexts)), "count"},
        {"relational.dup_drop_rate",
         Ratio(static_cast<double>(t.duplicate_drops),
               static_cast<double>(t.duplicate_drops + t.stored_tuples)),
         "ratio"},
        {"termination.protocol_msgs_per_query",
         t.PerQuery(static_cast<double>(t.protocol_msgs)), "count"},
        {"termination.waves_per_query",
         t.PerQuery(static_cast<double>(t.protocol_waves)), "count"},
        {"termination.protocol_share",
         Ratio(static_cast<double>(t.protocol_msgs),
               static_cast<double>(t.physical_msgs)),
         "ratio"},
        {"obs.trace_overhead_ratio", Ratio(untraced.qps(), traced.qps()),
         "ratio"},
    };
    const std::string path =
        StrCat(args.trace_dir, "/trace_", def->name, ".json");
    WriteTrace(path, t.spans, def->clients + 1);
    std::cerr << "  wrote " << path << "\n";
    PrintSelfTimes(t.spans);
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}
