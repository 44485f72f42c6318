// The per-node query profile: the JSON-serializable ProfileReport that
// attributes a session's runtime to rule/goal-graph structure, and the
// §4.3 cost-model hookup that closes the loop between the estimates and
// what the engine actually did. Per node it reports tuples consumed and
// produced, the duplicate-elimination hit rate, join selectivity
// (input vs. output cardinality), messages and envelopes in and out,
// handler time and queue wait; per strong component, the Fig. 2
// protocol rounds and the termination tree's depth.
//
// Usage: set SessionOptions::profile and read EvaluationResult::profile:
//   SessionOptions options;
//   options.profile = true;
//   auto result = (*engine.CreateSession(plan, options))->Run();
//   std::cout << result->profile->ToJson();
//
// The report is not observed but assembled at the end of the session
// (engine/evaluator.cc) from counts every session keeps: the network's
// per-process records (msg/network.h ProcessCounts, handler time and
// queue wait included), the node processes' relation and Fig. 2
// counters (EngineCounters) and the phase timers. Profiling changes
// nothing the network measures; it costs the node labels and the §4.3
// estimates of the report.

#ifndef MPQE_OBS_PROFILER_H_
#define MPQE_OBS_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/rule_goal_graph.h"
#include "obs/events.h"
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
  std::string label;  // RuleGoalGraph::NodeLabel
  int scc_id = -1;

  uint64_t fires = 0;         // messages handled (= msgs_in)
  uint64_t requests_in = 0;   // tuple requests, bare or packaged
  uint64_t tuples_in = 0;     // answer rows consumed (= segment_rows_in)
  uint64_t tuples_out = 0;    // answer rows emitted (= segment_rows_out)
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
  // Handler time: each delivery's OnMessage plus the run-end flush it
  // closes (ProcessCounts::handler_ns).
  uint64_t fire_ns = 0;
  uint64_t queue_wait_ns = 0;  // send-to-delivery-start latency

  /// Mean rows per emitted segment (0 when none were emitted).
  double RowsPerSegmentOut() const;

  /// Mean rows per arriving segment (0 when none arrived).
  double RowsPerSegmentIn() const;

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

  // Whole-evaluation sums: the node rows summed, except the message
  // totals, which also count the sink's traffic (it has no row).
  uint64_t total_fires = 0;
  uint64_t total_tuples_in = 0;
  uint64_t total_tuples_out = 0;
  uint64_t total_dedup_hits = 0;
  uint64_t total_msgs_sent = 0;
  uint64_t total_msgs_delivered = 0;
  uint64_t total_fire_ns = 0;
  uint64_t total_queue_wait_ns = 0;

  /// Machine-readable report ("mpqe-profile-v1"; validated by
  /// scripts/check_trace.py --profile).
  std::string ToJson() const;
};

/// The role a graph node of `kind` plays.
NodeRole NodeRoleOf(NodeKind kind);

/// Fills the §4.3 estimate fields of `report` for every rule node of
/// `graph`, using `params` (typically CostModelParamsFromDatabase so
/// estimates reflect the actual EDB cardinalities). Goal nodes get the
/// log-sum of their rule children's estimates.
void FillCostEstimates(const RuleGoalGraph& graph,
                       const CostModelParams& params, ProfileReport& report);

}  // namespace mpqe

#endif  // MPQE_OBS_PROFILER_H_
