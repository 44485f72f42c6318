// E12 — micro-costs of the substrates: message delivery throughput of
// the simulated network (per scheduler), relation insert/probe, and
// the join/semijoin kernels. These put the end-to-end numbers in
// context ("communication is expensive" is a model assumption; here
// it is a few hundred nanoseconds per hop).

#include <benchmark/benchmark.h>

#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datalog/parser.h"
#include "engine/evaluator.h"
#include "graph/rule_goal_graph.h"
#include "msg/flight_recorder.h"
#include "msg/network.h"
#include "msg/worker_pool.h"
#include "obs/lineage.h"
#include "relational/operators.h"
#include "sips/strategy.h"

namespace mpqe {
namespace {

// Hash for the row-at-a-time reference containers keyed by Tuple.
struct TupleHash {
  size_t operator()(TupleRef tuple) const { return HashTuple(tuple); }
};

// Ping-pong process: forwards a tuple request whose one-value binding
// counts the hops left to a peer.
class PingPong : public Process {
 public:
  explicit PingPong(ProcessId peer) : peer_(peer) {}
  void OnMessage(const Message& m) override {
    int64_t hops = m.binding[0].payload();
    if (hops > 0) Send(peer_, MakeTupleRequest({Value::Int(hops - 1)}));
  }

 private:
  ProcessId peer_;
};

void BM_MessageHopDeterministic(benchmark::State& state) {
  const int64_t kHops = 10000;
  for (auto _ : state) {
    Network net;
    net.AddProcess(std::make_unique<PingPong>(1));
    net.AddProcess(std::make_unique<PingPong>(0));
    net.Start();
    net.Send(kNoProcess, 0, MakeTupleRequest({Value::Int(kHops)}));
    auto run = net.RunDeterministic();
    MPQE_CHECK(run.ok() && run->quiescent);
  }
  state.SetItemsProcessed(state.iterations() * (kHops + 1));
}
BENCHMARK(BM_MessageHopDeterministic);

void BM_MessageHopThreaded(benchmark::State& state) {
  const int64_t kHops = 10000;
  int workers = static_cast<int>(state.range(0));
  // Helpers come from a pool built once, outside the timed loop, as an
  // Engine's is.
  WorkerPool pool(workers);
  for (auto _ : state) {
    Network net;
    net.AddProcess(std::make_unique<PingPong>(1));
    net.AddProcess(std::make_unique<PingPong>(0));
    net.Start();
    net.Send(kNoProcess, 0, MakeTupleRequest({Value::Int(kHops)}));
    auto run = net.RunThreaded(pool, workers);
    MPQE_CHECK(run.ok() && run->quiescent);
  }
  state.SetItemsProcessed(state.iterations() * (kHops + 1));
}
BENCHMARK(BM_MessageHopThreaded)->Arg(1)->Arg(4);

// ---------------------------------------------------------------------------
// Columnar segment hops

constexpr size_t kSegmentRows = 128;

// Forwards the SAME shared 128-row segment back and forth: one
// envelope per hop carries kSegmentRows tuples with zero row copies
// (the pair shares one countdown of the hops left). Items = rows
// transported; compare per-item against BM_MessageHopDeterministic
// (one single-binding message per hop) for what a row costs when it
// rides in a shared segment.
class SegmentForward : public Process {
 public:
  SegmentForward(ProcessId peer, int64_t* hops_left)
      : peer_(peer), hops_left_(hops_left) {}
  void OnMessage(const Message& m) override {
    if ((*hops_left_)-- > 0) Send(peer_, MakeTupleSegment(m.segment_ptr()));
  }

 private:
  ProcessId peer_;
  int64_t* hops_left_;
};

std::shared_ptr<TupleSegment> MakeSeedSegment(int64_t hops) {
  auto seed = std::make_shared<TupleSegment>();
  seed->binding.assign({Value::Int(hops)});
  seed->arity = 1;
  for (size_t i = 0; i < kSegmentRows; ++i) {
    seed->AppendRow(Tuple{Value::Int(static_cast<int64_t>(i))});
  }
  return seed;
}

void BM_SegmentHopDeterministic(benchmark::State& state) {
  const int64_t kHops = 10000;
  for (auto _ : state) {
    int64_t hops_left = kHops;
    Network net;
    net.AddProcess(std::make_unique<SegmentForward>(1, &hops_left));
    net.AddProcess(std::make_unique<SegmentForward>(0, &hops_left));
    net.Start();
    net.Send(kNoProcess, 0, MakeTupleSegment(MakeSeedSegment(kHops)));
    auto run = net.RunDeterministic();
    MPQE_CHECK(run.ok() && run->quiescent);
  }
  state.SetItemsProcessed(state.iterations() * (kHops + 1) *
                          static_cast<int64_t>(kSegmentRows));
}
BENCHMARK(BM_SegmentHopDeterministic);

// The engine's per-arriving-segment sequence without lineage: insert
// every row into a relation (duplicate elimination), build the next
// hop's segment columnar, forward it. This is the lineage-off baseline
// for the segmented overhead guard in BENCH_obs.json.
class SegmentDedupHop : public Process {
 public:
  SegmentDedupHop(ProcessId peer, LineageCollector* lineage)
      : peer_(peer), lineage_(lineage), seen_(1) {
    if (lineage != nullptr) seen_.EnableLineage(lineage->ids());
  }

  void OnMessage(const Message& m) override {
    const TupleSegment& in = m.segment();
    // The hop count rides in the segment's binding.
    int64_t hops = in.binding[0].payload();
    bool lineage = seen_.lineage_enabled();
    auto out = std::make_shared<TupleSegment>();
    out->binding.assign({Value::Int(hops - 1)});
    out->arity = 1;
    out->values.reserve(in.num_rows);
    std::vector<uint64_t> inputs;
    if (lineage) {
      out->lineage.reserve(in.num_rows);
      inputs.reserve(in.num_rows);
    }
    for (size_t r = 0; r < in.num_rows; ++r) {
      // A fresh value per hop: every insert derives a new tuple, as in
      // a growing node relation.
      Tuple row{Value::Int(in.row(r)[0].payload() +
                           static_cast<int64_t>(kSegmentRows))};
      Relation::InsertResult ins = seen_.InsertRow(row);
      MPQE_CHECK(ins.inserted);
      out->AppendRow(row);
      if (lineage) {
        out->lineage.push_back(seen_.row_id(ins.row));
        inputs.push_back(in.row_lineage(r));
      }
    }
    if (lineage) {
      // One batched derive record per absorbed segment — the engine's
      // vectorized lineage path.
      DeriveBatchEvent event;
      event.kind = DeriveKind::kUnion;
      event.segment = out;
      event.inputs = inputs.data();
      lineage_->RecordBatch(event);
    }
    if (hops > 0) Send(peer_, MakeTupleSegment(std::move(out)));
  }

 private:
  ProcessId peer_;
  LineageCollector* lineage_;
  Relation seen_;
};

void BM_SegmentHopDedup(benchmark::State& state) {
  const int64_t kHops = 1000;
  for (auto _ : state) {
    Network net;
    net.AddProcess(std::make_unique<SegmentDedupHop>(1, nullptr));
    net.AddProcess(std::make_unique<SegmentDedupHop>(0, nullptr));
    net.Start();
    net.Send(kNoProcess, 0, MakeTupleSegment(MakeSeedSegment(kHops)));
    auto run = net.RunDeterministic();
    MPQE_CHECK(run.ok() && run->quiescent);
  }
  state.SetItemsProcessed(state.iterations() * (kHops + 1) *
                          static_cast<int64_t>(kSegmentRows));
}
BENCHMARK(BM_SegmentHopDedup);

// As BM_SegmentHopDedup with full lineage recording: per row an id
// assignment and a lineage-column push, per segment ONE batched derive
// record (delta-encoded by the LineageCollector) instead of one
// record per tuple. The tracked lineage-on overhead ratio in
// BENCH_obs.json is this against BM_SegmentHopDedup.
void BM_SegmentHopLineage(benchmark::State& state) {
  const int64_t kHops = 1000;
  for (auto _ : state) {
    Network net;
    LineageCollector lineage;
    net.AddProcess(std::make_unique<SegmentDedupHop>(1, &lineage));
    net.AddProcess(std::make_unique<SegmentDedupHop>(0, &lineage));
    net.Start();
    // Seed rows draw real ids so every hop's inputs resolve.
    Relation seed_rel(1);
    seed_rel.EnableLineage(lineage.ids());
    auto seed = MakeSeedSegment(kHops);
    for (size_t i = 0; i < kSegmentRows; ++i) {
      Relation::InsertResult ins = seed_rel.InsertRow(seed->row(i));
      seed->lineage.push_back(seed_rel.row_id(ins.row));
    }
    net.Send(kNoProcess, 0, MakeTupleSegment(std::move(seed)));
    auto run = net.RunDeterministic();
    MPQE_CHECK(run.ok() && run->quiescent);
    MPQE_CHECK(lineage.record_count() ==
               static_cast<size_t>(kHops + 1) * kSegmentRows);
    benchmark::DoNotOptimize(lineage);
  }
  state.SetItemsProcessed(state.iterations() * (kHops + 1) *
                          static_cast<int64_t>(kSegmentRows));
}
BENCHMARK(BM_SegmentHopLineage);

// The segment-path check of the flight recorder: the same dedup hop as
// BM_SegmentHopDedup, with the network's flight tap attached (one
// kDeliver record per hop, written from the two clock reads every
// delivery takes, so the pair prices the ring write). The recorder lives outside the timing loop like the
// engine's does (one recorder per Engine, not per session).
void BM_SegmentHopFlight(benchmark::State& state) {
  const int64_t kHops = 1000;
  FlightRecorder recorder;
  uint64_t query_id = 0;
  for (auto _ : state) {
    Network net;
    net.SetFlightRecorder(&recorder, ++query_id);
    net.AddProcess(std::make_unique<SegmentDedupHop>(1, nullptr));
    net.AddProcess(std::make_unique<SegmentDedupHop>(0, nullptr));
    net.Start();
    net.Send(kNoProcess, 0, MakeTupleSegment(MakeSeedSegment(kHops)));
    auto run = net.RunDeterministic();
    MPQE_CHECK(run.ok() && run->quiescent);
  }
  MPQE_CHECK(recorder.recorded() > 0);
  state.SetItemsProcessed(state.iterations() * (kHops + 1) *
                          static_cast<int64_t>(kSegmentRows));
}
BENCHMARK(BM_SegmentHopFlight);

// ---------------------------------------------------------------------------
// Single-row engine hops

// The shape where a delivery's fixed cost is the query's cost: linear
// TC down a chain, evaluated by real node processes (goal, rule, EDB
// leaf, Fig. 2 protocol), where almost every answer travels as its own
// one-row message — tc_chain_bulk in miniature. Items = deliveries.
// BM_SingleRowHopFlight runs the identical session with the engine's
// always-on flight recorder attached. Both clock every delivery, so
// the ratio of the pair, which bench_guard.py --flight holds, prices
// the ring write.
constexpr int64_t kChainNodes = 64;

struct ChainTc {
  ParsedUnit unit;
  std::unique_ptr<RuleGoalGraph> graph;
};

// The graph refers into the program, so the pair is built in place.
std::unique_ptr<ChainTc> MakeChainTc() {
  std::string text =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
      "?- tc(0, W).\n";
  for (int64_t i = 0; i + 1 < kChainNodes; ++i) {
    text += StrCat("edge(", i, ", ", i + 1, ").\n");
  }
  StatusOr<ParsedUnit> unit = Parse(text);
  MPQE_CHECK(unit.ok()) << unit.status();
  auto chain = std::make_unique<ChainTc>();
  chain->unit = std::move(unit).value();
  MPQE_CHECK(chain->unit.program.Validate(&chain->unit.database).ok());
  StatusOr<std::unique_ptr<SipsStrategy>> strategy =
      MakeStrategyByName("greedy");
  MPQE_CHECK(strategy.ok());
  StatusOr<std::unique_ptr<RuleGoalGraph>> graph =
      RuleGoalGraph::Build(chain->unit.program, **strategy);
  MPQE_CHECK(graph.ok()) << graph.status();
  chain->graph = std::move(graph).value();
  return chain;
}

void RunSingleRowHops(benchmark::State& state, FlightRecorder* recorder) {
  std::unique_ptr<ChainTc> chain = MakeChainTc();
  const SessionOptions options;
  SessionContext context;
  context.flight = recorder;
  uint64_t delivered = 0;
  for (auto _ : state) {
    ++context.query_id;
    StatusOr<EvaluationResult> result =
        RunSession(*chain->graph, chain->unit.database, options, context);
    MPQE_CHECK(result.ok()) << result.status();
    MPQE_CHECK(result->answers.size() ==
               static_cast<size_t>(kChainNodes - 1));
    delivered += result->delivered;
  }
  state.SetItemsProcessed(static_cast<int64_t>(delivered));
}

void BM_SingleRowHop(benchmark::State& state) {
  RunSingleRowHops(state, nullptr);
}
BENCHMARK(BM_SingleRowHop);

void BM_SingleRowHopFlight(benchmark::State& state) {
  FlightRecorder recorder;
  RunSingleRowHops(state, &recorder);
  MPQE_CHECK(recorder.recorded() > 0);
}
BENCHMARK(BM_SingleRowHopFlight);

// ---------------------------------------------------------------------------
// Vectorized segment kernels (PR 9): row-at-a-time vs. batch absorption
// and probing. Arg(0) = the pre-vectorization per-row path, Arg(1) =
// the batch kernels; items = rows/s. bench_guard.py --absorb enforces
// the Arg(1)/Arg(0) speedup floor recorded in BENCH_relational.json.

// The absorb workload models a goal node over a full query lifetime:
// the relation starts empty and absorbs a stream of fat segments
// (4096 rows each: the shape a session with segment_max_rows raised to
// 4096 ships; the default cap is 1024 rows). The goal has a
// free head variable in its d-projection, so a segment's rows split
// across kAbsorbGroups distinct output bindings — the multi-group
// case whose O(groups)-per-row linear scan the vectorized path
// replaces with one hash-map lookup per surviving row. Every eighth
// segment is a wholesale re-derivation of an earlier one (the
// duplicate traffic §1.2's elimination exists for).
constexpr size_t kAbsorbSegmentRows = 4096;
constexpr size_t kAbsorbStreamSegments = 64;
constexpr int64_t kAbsorbGroups = 256;

std::shared_ptr<TupleSegment> MakeAbsorbSegment(int64_t first) {
  auto seg = std::make_shared<TupleSegment>();
  seg->arity = 2;
  seg->values.reserve(kAbsorbSegmentRows * 2);
  for (size_t r = 0; r < kAbsorbSegmentRows; ++r) {
    int64_t v = first + static_cast<int64_t>(r);
    // Column 0 is the d-projected head variable (kAbsorbGroups
    // distinct values interleaved); column 1 keeps the row globally
    // unique.
    seg->values.push_back(Value::Int(v % kAbsorbGroups));
    seg->values.push_back(Value::Int(v));
    ++seg->num_rows;
  }
  return seg;
}

// Goal-node absorption. Arg(0) is the row-at-a-time reference the
// batch kernels replaced in GoalProcess — one InsertRow per row, the
// per-row linear scan over open output groups, one AppendRow copy per
// survivor. Arg(1) mirrors the vectorized OnTupleSegment — one
// InsertSegment call per segment, then the grouping pass over the
// survivor bitmap with a hash map keyed on the d-projection. Both
// arms build and flush the same output segments, so the measured gap
// is exactly the batch-kernel + grouping difference.
void BM_SegmentAbsorb(benchmark::State& state) {
  const bool batch = state.range(0) != 0;
  std::vector<std::shared_ptr<TupleSegment>> stream;
  Rng rng(11);
  int64_t next = 0;
  size_t fresh_rows = 0;
  for (size_t s = 0; s < kAbsorbStreamSegments; ++s) {
    if (s % 8 == 7) {
      // Wholesale re-derivation of an earlier stream segment.
      stream.push_back(stream[rng.Below(s)]);
    } else {
      stream.push_back(MakeAbsorbSegment(next));
      next += static_cast<int64_t>(kAbsorbSegmentRows);
      fresh_rows += kAbsorbSegmentRows;
    }
  }
  const size_t stream_rows = kAbsorbStreamSegments * kAbsorbSegmentRows;

  struct OutGroup {
    std::shared_ptr<TupleSegment> segment;
  };
  for (auto _ : state) {
    Relation answers(2);
    size_t forwarded = 0;
    size_t drops = 0;
    Tuple dproj(1, Value());
    for (const auto& seg : stream) {
      if (batch) {
        const BatchInsertResult& ins = answers.InsertSegment(*seg);
        drops += seg->num_rows - ins.num_inserted;
        if (ins.num_inserted == 0) continue;
        std::unordered_map<Tuple, OutGroup, TupleHash> groups;
        std::vector<OutGroup*> group_order;
        for (size_t r = 0; r < seg->num_rows; ++r) {
          if (!ins.inserted(r)) continue;
          TupleRef row = seg->row(r);
          dproj[0] = row[0];
          auto [it, is_new] = groups.try_emplace(dproj);
          OutGroup& group = it->second;
          if (is_new) {
            group.segment = std::make_shared<TupleSegment>();
            group.segment->binding.assign(dproj);
            group.segment->arity = seg->arity;
            group_order.push_back(&group);
          }
          group.segment->AppendRow(row);
        }
        for (OutGroup* group : group_order) {
          group->segment->CheckConsistent();
          forwarded += group->segment->num_rows;
          benchmark::DoNotOptimize(group->segment);
        }
      } else {
        std::vector<OutGroup> groups;
        for (size_t r = 0; r < seg->num_rows; ++r) {
          TupleRef row = seg->row(r);
          Relation::InsertResult ins = answers.InsertRow(row);
          if (!ins.inserted) {
            ++drops;
            continue;
          }
          dproj[0] = row[0];
          OutGroup* group = nullptr;
          for (OutGroup& g : groups) {
            if (g.segment->binding == dproj) {
              group = &g;
              break;
            }
          }
          if (group == nullptr) {
            OutGroup g;
            g.segment = std::make_shared<TupleSegment>();
            g.segment->binding.assign(dproj);
            g.segment->arity = seg->arity;
            groups.push_back(std::move(g));
            group = &groups.back();
          }
          group->segment->AppendRow(row);
        }
        for (OutGroup& group : groups) {
          group.segment->CheckConsistent();
          forwarded += group.segment->num_rows;
          benchmark::DoNotOptimize(group.segment);
        }
      }
    }
    MPQE_CHECK(forwarded == fresh_rows);
    MPQE_CHECK(drops == stream_rows - fresh_rows);
    MPQE_CHECK(answers.size() == fresh_rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream_rows));
}
BENCHMARK(BM_SegmentAbsorb)->Arg(0)->Arg(1);

// The rule-node probe: dedup an inbound child-answer segment against
// the per-request answer set before the waiter-extension join. Arg(0)
// is the pre-vectorization RuleProcess idiom this PR replaced — copy
// each row into a scratch Tuple, re-hash it into a
// std::unordered_set<Tuple> (one node allocation per fresh row, a
// pointer-chasing probe per duplicate), and keep a parallel
// std::vector<Tuple> of accepted answers for later waiters. Arg(1) is
// the flat-arena batch kernel: one InsertSegment per segment, rows
// live in the arena, survivors read straight off the bitmap. Both
// arms hand every survivor to the same consumer loop.
void BM_SegmentJoin(benchmark::State& state) {
  const bool batch = state.range(0) != 0;
  constexpr size_t kJoinSegmentRows = 1024;
  constexpr size_t kJoinStreamSegments = 256;
  std::vector<std::shared_ptr<TupleSegment>> stream;
  Rng rng(17);
  int64_t next = 0;
  size_t fresh_rows = 0;
  for (size_t s = 0; s < kJoinStreamSegments; ++s) {
    if (s % 4 == 3) {
      // A re-derived child stream: the same answers arrive again via
      // another derivation path and must all dedup away.
      stream.push_back(stream[rng.Below(s)]);
    } else {
      auto seg = std::make_shared<TupleSegment>();
      seg->arity = 2;
      seg->values.reserve(kJoinSegmentRows * 2);
      for (size_t r = 0; r < kJoinSegmentRows; ++r) {
        seg->values.push_back(Value::Int(next));
        seg->values.push_back(Value::Int(next * 3));
        ++next;
        ++seg->num_rows;
      }
      stream.push_back(std::move(seg));
      fresh_rows += kJoinSegmentRows;
    }
  }
  const size_t stream_rows = kJoinStreamSegments * kJoinSegmentRows;

  uint64_t consumed = 0;
  for (auto _ : state) {
    size_t drops = 0;
    consumed = 0;
    if (batch) {
      Relation answers(2);
      for (const auto& seg : stream) {
        const BatchInsertResult& ins = answers.InsertSegment(*seg);
        drops += seg->num_rows - ins.num_inserted;
        if (ins.num_inserted == 0) continue;
        for (size_t r = 0; r < seg->num_rows; ++r) {
          if (!ins.inserted(r)) continue;
          consumed += static_cast<uint64_t>(seg->row(r)[1].payload());
        }
      }
      MPQE_CHECK(answers.size() == fresh_rows);
    } else {
      std::vector<Tuple> answers;
      std::unordered_set<Tuple, TupleHash> answer_set;
      Tuple row_buf(2, Value());
      for (const auto& seg : stream) {
        for (size_t r = 0; r < seg->num_rows; ++r) {
          TupleRef row = seg->row(r);
          row_buf[0] = row[0];
          row_buf[1] = row[1];
          if (!answer_set.insert(row_buf).second) {
            ++drops;
            continue;
          }
          answers.push_back(row_buf);
          consumed += static_cast<uint64_t>(row[1].payload());
        }
      }
      MPQE_CHECK(answers.size() == fresh_rows);
    }
    MPQE_CHECK(drops == stream_rows - fresh_rows);
    benchmark::DoNotOptimize(consumed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream_rows));
}
BENCHMARK(BM_SegmentJoin)->Arg(0)->Arg(1);

void BM_RelationInsert(benchmark::State& state) {
  int64_t n = state.range(0);
  for (auto _ : state) {
    Relation r(2);
    for (int64_t i = 0; i < n; ++i) {
      r.Insert({Value::Int(i), Value::Int(i + 1)});
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RelationInsert)->Arg(1000)->Arg(100000);

void BM_IndexedProbe(benchmark::State& state) {
  int64_t n = state.range(0);
  Relation r(2);
  for (int64_t i = 0; i < n; ++i) {
    r.Insert({Value::Int(i % (n / 10)), Value::Int(i)});
  }
  size_t idx = r.EnsureIndex({0});
  Rng rng(3);
  for (auto _ : state) {
    Tuple key{Value::Int(static_cast<int64_t>(rng.Below(
        static_cast<uint64_t>(n / 10))))};
    benchmark::DoNotOptimize(r.Probe(idx, key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedProbe)->Arg(100000);

void BM_HashJoin(benchmark::State& state) {
  int64_t n = state.range(0);
  Relation left(2), right(2);
  Rng rng(5);
  for (int64_t i = 0; i < n; ++i) {
    left.Insert({Value::Int(i), Value::Int(static_cast<int64_t>(
                                    rng.Below(static_cast<uint64_t>(n))))});
    right.Insert({Value::Int(static_cast<int64_t>(
                      rng.Below(static_cast<uint64_t>(n)))),
                  Value::Int(i)});
  }
  size_t out = 0;
  for (auto _ : state) {
    Relation j = Join(left, right, {{1, 0}});
    out = j.size();
    benchmark::DoNotOptimize(j);
  }
  state.counters["output"] = static_cast<double>(out);
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SemiJoin(benchmark::State& state) {
  int64_t n = state.range(0);
  Relation left(2), right(1);
  for (int64_t i = 0; i < n; ++i) {
    left.Insert({Value::Int(i), Value::Int(i)});
    if (i % 3 == 0) right.Insert({Value::Int(i)});
  }
  for (auto _ : state) {
    Relation s = SemiJoin(left, right, {{0, 0}});
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SemiJoin)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace mpqe

BENCHMARK_MAIN();
