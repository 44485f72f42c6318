// The per-node query profiler: a ProfilingObserver that attributes an
// evaluation's runtime to rule/goal-graph structure, and the
// JSON-serializable ProfileReport it produces. This is the layer that
// closes the loop between the §4.3 cost model's order-of-magnitude
// estimates and what the engine actually did — per node it records
// tuples consumed/produced, duplicate-elimination hit rate, join
// selectivity (input vs. output cardinality), messages in/out (and
// batch envelope counts), wall time spent firing, and queue-wait time
// (send-to-delivery latency, recovered from the per-channel FIFO
// pairing of OnSend and OnDeliver); per strong component it records
// Fig. 2 protocol rounds and the termination tree's depth.
//
// Usage: set SessionOptions::profile and read
// EvaluationResult::profile, or attach a ProfilingObserver manually:
//   ProfilingObserver profiler;
//   profiler.AttachGraph(graph.get(), &db.symbols());
//   options.observers.push_back(&profiler);
//   ... evaluate ...
//   ProfileReport report = profiler.Finalize();
//   std::cout << report.ToJson();
//
// Overhead: profiling is opt-in; every callback takes one internal
// mutex (the zero-observer fast path is untouched, and with the
// profiler off no event is even constructed). See BENCH_obs.json for
// the tracked profiler-on vs. profiler-off message-hop numbers.

#ifndef MPQE_OBS_PROFILER_H_
#define MPQE_OBS_PROFILER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/rule_goal_graph.h"
#include "obs/observer.h"
#include "sips/cost_model.h"

namespace mpqe {

// Sentinel for "no cost-model estimate" (non-rule nodes, or profiles
// collected without a database to size the estimates against).
inline constexpr double kNoEstimate = -1.0;

// Per-node attribution row. Counters cover the whole evaluation; the
// estimate fields are filled by the evaluator (or ExplainPlan) from
// the §4.3 cost model for rule nodes.
struct NodeProfile {
  int32_t node = -1;
  NodeRole role = NodeRole::kGoal;
  std::string label;  // RuleGoalGraph::NodeLabel when a graph is attached
  int scc_id = -1;

  uint64_t fires = 0;         // messages handled (all kinds)
  uint64_t requests_in = 0;   // kTupleRequest deliveries
  uint64_t tuples_in = 0;     // answer rows consumed
  uint64_t tuples_out = 0;    // answer rows emitted
  uint64_t dedup_hits = 0;    // arrivals/results rejected by dedup
  uint64_t msgs_in = 0;       // physical deliveries
  uint64_t msgs_out = 0;      // physical sends
  uint64_t batch_envelopes_in = 0;
  uint64_t batch_envelopes_out = 0;
  // Columnar segments (bare kTupleSegment messages plus segments
  // packaged inside batch envelopes) and the rows they carried.
  uint64_t segments_in = 0;
  uint64_t segments_out = 0;
  uint64_t segment_rows_in = 0;
  uint64_t segment_rows_out = 0;
  // Rows that arrived in batched envelopes (kTupleSegment or kBatch
  // fires) and the dedup hits those firings produced — the traffic the
  // vectorized batch kernels absorb.
  uint64_t batch_rows_in = 0;
  uint64_t batch_dedup_hits = 0;
  uint64_t fire_ns = 0;        // wall time inside message handling
  uint64_t queue_wait_ns = 0;  // send-to-delivery-start latency

  /// Mean rows per emitted segment (0 when none were emitted).
  double RowsPerSegmentOut() const;

  /// Mean rows per arriving segment (0 when none arrived).
  double RowsPerSegmentIn() const;

  /// Fraction of batch-delivered rows rejected by dedup:
  /// batch_dedup_hits / batch_rows_in; 0 when no batches arrived.
  double BatchDedupHitRate() const;

  // §4.3 estimates (rule nodes; kNoEstimate elsewhere). The estimate
  // is per tuple request, so the comparable figure is
  // 10^est_log10_tuples * max(requests_in, 1) vs. tuples_out.
  double est_log10_tuples = kNoEstimate;
  double est_total_cost = kNoEstimate;

  /// Fraction of arriving/produced tuples rejected by duplicate
  /// elimination: dedup_hits / (tuples_in + dedup_hits); 0 when idle.
  double DupHitRate() const;

  /// Join/semijoin selectivity: output vs. input cardinality
  /// (tuples_out / tuples_in); 0 when no input arrived.
  double Selectivity() const;

  /// Ratio by which the actual output cardinality deviates from the
  /// cost-model estimate (always >= 1; symmetric in direction).
  /// Returns 0 when no estimate is available.
  double DeviationFactor() const;
};

// Per-strong-component protocol attribution (nontrivial SCCs only).
struct SccProfile {
  int scc_id = -1;
  std::vector<int32_t> members;
  int32_t leader = -1;
  int tree_depth = 0;        // depth of the BFST the protocol runs over
  uint64_t waves = 0;        // Fig. 2 end-request waves (protocol rounds)
  uint64_t negative_answers = 0;
  uint64_t confirmed_answers = 0;
  uint64_t work_notices = 0;
  uint64_t concluded = 0;
};

struct ProfileReport {
  std::vector<NodeProfile> nodes;
  std::vector<SccProfile> sccs;
  // The engine-minted query id of the profiled session (0 = no id;
  // then omitted from ToJson).
  uint64_t query_id = 0;
  // Wall time per evaluator phase, in Phase order (0 if unobserved).
  std::vector<uint64_t> phase_ns;

  // Whole-evaluation sums (include the sink's message traffic, which
  // has no NodeProfile row).
  uint64_t total_fires = 0;
  uint64_t total_tuples_in = 0;
  uint64_t total_tuples_out = 0;
  uint64_t total_dedup_hits = 0;
  uint64_t total_msgs_sent = 0;
  uint64_t total_msgs_delivered = 0;
  uint64_t total_fire_ns = 0;
  uint64_t total_queue_wait_ns = 0;

  /// Flags rule nodes whose actual output cardinality deviates from
  /// the cost-model estimate by more than `deviation_factor` in
  /// either direction.
  std::vector<int32_t> DeviatingNodes(double deviation_factor) const;

  /// Machine-readable report ("mpqe-profile-v1"; validated by
  /// scripts/check_trace.py --profile).
  std::string ToJson() const;
};

// The observer. All callbacks lock one mutex — correct under every
// scheduler; profiling is opt-in, so the serialization cost is paid
// only when asked for (tracked in BENCH_obs.json).
class ProfilingObserver : public ExecutionObserver {
 public:
  ProfilingObserver() = default;

  /// Resolves node labels, roles, and SCC structure at Finalize time.
  /// Without a graph the report still carries per-pid counters (rows
  /// are labeled "pid<N>") — useful for raw Network benchmarks.
  void AttachGraph(const RuleGoalGraph* graph, const SymbolTable* symbols);

  // ExecutionObserver:
  void OnSessionStart(const SessionStartEvent& event) override;
  void OnSend(const SendEvent& event) override;
  void OnDeliver(const DeliverEvent& event) override;
  void OnNodeFire(const NodeFireEvent& event) override;
  void OnPhase(const PhaseEvent& event) override;
  void OnTermination(const TerminationEvent& event) override;

  /// Builds the report from everything observed so far. Estimate
  /// fields are left at kNoEstimate — callers with a database fill
  /// them via FillCostEstimates (the evaluator does both).
  ProfileReport Finalize() const;

 private:
  // Raw per-pid accumulation (graph nodes and the sink alike).
  struct PidStats {
    uint64_t fires = 0;
    uint64_t requests_in = 0;
    uint64_t tuples_in = 0;
    uint64_t tuples_out = 0;
    uint64_t dedup_hits = 0;
    uint64_t msgs_in = 0;
    uint64_t msgs_out = 0;
    uint64_t batch_envelopes_in = 0;
    uint64_t batch_envelopes_out = 0;
    uint64_t segments_in = 0;
    uint64_t segments_out = 0;
    uint64_t segment_rows_in = 0;
    uint64_t segment_rows_out = 0;
    uint64_t batch_rows_in = 0;
    uint64_t batch_dedup_hits = 0;
    uint64_t fire_ns = 0;
    uint64_t queue_wait_ns = 0;
    NodeRole role = NodeRole::kGoal;
    int32_t node = -1;
    bool fired = false;  // saw a NodeFireEvent (i.e. is a graph node)
  };

  struct SccStats {
    uint64_t waves = 0;
    uint64_t negative_answers = 0;
    uint64_t confirmed_answers = 0;
    uint64_t work_notices = 0;
    uint64_t concluded = 0;
  };

  PidStats& Stats(ProcessId pid);  // requires mutex_ held; grows store

  uint64_t query_id_ = 0;  // set before any other event
  mutable std::mutex mutex_;
  std::vector<PidStats> by_pid_;
  // Send timestamps per (from, to) channel; channels are FIFO, so the
  // front entry pairs with the next delivery on that channel.
  std::map<std::pair<ProcessId, ProcessId>, std::deque<uint64_t>>
      in_flight_sends_;
  // Termination-protocol events by participant pid; Finalize groups
  // them into SCCs via the attached graph.
  std::map<ProcessId, SccStats> term_by_pid_;
  std::vector<uint64_t> phase_ns_;
  std::vector<uint64_t> phase_begin_ns_;
  uint64_t total_sends_ = 0;
  uint64_t total_delivers_ = 0;

  const RuleGoalGraph* graph_ = nullptr;
  const SymbolTable* symbols_ = nullptr;
};

/// Fills the §4.3 estimate fields of `report` for every rule node of
/// `graph`, using `params` (typically CostModelParamsFromDatabase so
/// estimates reflect the actual EDB cardinalities). Goal nodes get the
/// log-sum of their rule children's estimates.
void FillCostEstimates(const RuleGoalGraph& graph,
                       const CostModelParams& params, ProfileReport& report);

}  // namespace mpqe

#endif  // MPQE_OBS_PROFILER_H_
