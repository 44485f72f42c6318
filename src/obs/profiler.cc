#include "obs/profiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace mpqe {

namespace {

std::string JsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// NodeProfile / ProfileReport
// ---------------------------------------------------------------------------

double NodeProfile::DupHitRate() const {
  uint64_t seen = tuples_in + dedup_hits;
  return seen == 0 ? 0.0
                   : static_cast<double>(dedup_hits) /
                         static_cast<double>(seen);
}

double NodeProfile::RowsPerSegmentOut() const {
  return segments_out == 0 ? 0.0
                           : static_cast<double>(segment_rows_out) /
                                 static_cast<double>(segments_out);
}

double NodeProfile::RowsPerSegmentIn() const {
  return segments_in == 0 ? 0.0
                          : static_cast<double>(segment_rows_in) /
                                static_cast<double>(segments_in);
}

double NodeProfile::Selectivity() const {
  return tuples_in == 0 ? 0.0
                        : static_cast<double>(tuples_out) /
                              static_cast<double>(tuples_in);
}

double NodeProfile::DeviationFactor() const {
  if (est_log10_tuples == kNoEstimate) return 0.0;
  // The §4.3 estimate is per tuple request; scale by the observed
  // request count to compare against the whole-run output. max(·, 1)
  // keeps the ratio finite for empty results.
  double expected = std::pow(10.0, est_log10_tuples) *
                    static_cast<double>(std::max<uint64_t>(requests_in, 1));
  double actual = static_cast<double>(std::max<uint64_t>(tuples_out, 1));
  expected = std::max(expected, 1.0);
  return expected > actual ? expected / actual : actual / expected;
}

std::string ProfileReport::ToJson() const {
  std::string out = "{\n  \"schema\": \"mpqe-profile-v1\",\n";
  if (query_id != 0) out += StrCat("  \"query_id\": ", query_id, ",\n");
  out += "  \"totals\": {";
  out += StrCat("\"fires\": ", total_fires,
                ", \"tuples_in\": ", total_tuples_in,
                ", \"tuples_out\": ", total_tuples_out,
                ", \"dedup_hits\": ", total_dedup_hits,
                ", \"msgs_sent\": ", total_msgs_sent,
                ", \"msgs_delivered\": ", total_msgs_delivered,
                ", \"fire_ns\": ", total_fire_ns,
                ", \"queue_wait_ns\": ", total_queue_wait_ns, "},\n");
  out += "  \"phases\": {";
  bool first = true;
  for (size_t i = 0; i < phase_ns.size(); ++i) {
    if (phase_ns[i] == 0) continue;
    out += StrCat(first ? "" : ", ", "\"",
                  PhaseToString(static_cast<Phase>(i)), "_ns\": ",
                  phase_ns[i]);
    first = false;
  }
  out += "},\n  \"nodes\": [";
  first = true;
  for (const NodeProfile& n : nodes) {
    out += StrCat(first ? "\n" : ",\n", "    {\"id\": ", n.node,
                  ", \"role\": \"", NodeRoleToString(n.role), "\"",
                  ", \"label\": \"", JsonEscape(n.label), "\"",
                  ", \"scc\": ", n.scc_id, ", \"fires\": ", n.fires,
                  ", \"requests_in\": ", n.requests_in,
                  ", \"tuples_in\": ", n.tuples_in,
                  ", \"tuples_out\": ", n.tuples_out,
                  ", \"dedup_hits\": ", n.dedup_hits,
                  ", \"dup_hit_rate\": ", JsonDouble(n.DupHitRate()),
                  ", \"selectivity\": ", JsonDouble(n.Selectivity()),
                  ", \"msgs_in\": ", n.msgs_in, ", \"msgs_out\": ", n.msgs_out,
                  ", \"batch_envelopes_in\": ", n.batch_envelopes_in,
                  ", \"batch_envelopes_out\": ", n.batch_envelopes_out,
                  ", \"segments_in\": ", n.segments_in,
                  ", \"segments_out\": ", n.segments_out,
                  ", \"segment_rows_in\": ", n.segment_rows_in,
                  ", \"segment_rows_out\": ", n.segment_rows_out,
                  ", \"rows_per_segment_out\": ",
                  JsonDouble(n.RowsPerSegmentOut()),
                  ", \"rows_per_segment_in\": ",
                  JsonDouble(n.RowsPerSegmentIn()),
                  ", \"fire_ns\": ", n.fire_ns,
                  ", \"queue_wait_ns\": ", n.queue_wait_ns);
    if (n.est_log10_tuples != kNoEstimate) {
      out += StrCat(", \"est_log10_tuples\": ",
                    JsonDouble(n.est_log10_tuples));
      if (n.est_total_cost != kNoEstimate) {
        out += StrCat(", \"est_total_cost\": ", JsonDouble(n.est_total_cost));
      }
      out += StrCat(", \"deviation_factor\": ",
                    JsonDouble(n.DeviationFactor()));
    }
    out += "}";
    first = false;
  }
  out += "\n  ],\n  \"sccs\": [";
  first = true;
  for (const SccProfile& s : sccs) {
    out += StrCat(first ? "\n" : ",\n", "    {\"id\": ", s.scc_id,
                  ", \"members\": [", StrJoin(s.members, ","),
                  "], \"leader\": ", s.leader,
                  ", \"tree_depth\": ", s.tree_depth, ", \"waves\": ", s.waves,
                  ", \"negative_answers\": ", s.negative_answers,
                  ", \"confirmed_answers\": ", s.confirmed_answers,
                  ", \"work_notices\": ", s.work_notices,
                  ", \"concluded\": ", s.concluded, "}");
    first = false;
  }
  out += "\n  ]\n}\n";
  return out;
}

NodeRole NodeRoleOf(NodeKind kind) {
  switch (kind) {
    case NodeKind::kGoal:
      return NodeRole::kGoal;
    case NodeKind::kRule:
      return NodeRole::kRule;
    case NodeKind::kEdbLeaf:
      return NodeRole::kEdbLeaf;
    case NodeKind::kCycleRef:
      return NodeRole::kCycleRef;
  }
  return NodeRole::kGoal;
}

// ---------------------------------------------------------------------------
// Cost-model hookup
// ---------------------------------------------------------------------------

void FillCostEstimates(const RuleGoalGraph& graph,
                       const CostModelParams& params, ProfileReport& report) {
  // report.nodes is indexed by position, not id — build an id map.
  std::vector<NodeProfile*> by_node(graph.size(), nullptr);
  for (NodeProfile& n : report.nodes) {
    if (n.node >= 0 && static_cast<size_t>(n.node) < by_node.size()) {
      by_node[static_cast<size_t>(n.node)] = &n;
    }
  }
  for (const GraphNode& n : graph.nodes()) {
    if (n.kind != NodeKind::kRule) continue;
    NodeProfile* row = by_node[static_cast<size_t>(n.id)];
    if (row == nullptr) continue;
    OrderCost cost =
        EstimateOrderCost(n.rule, n.adornment, n.sips.order, params);
    row->est_log10_tuples = cost.log_final;
    row->est_total_cost = cost.total_cost;
  }
  // Goal nodes: union of the rule children's relations — sum the
  // children's (linear-scale) estimates.
  for (const GraphNode& n : graph.nodes()) {
    if (n.kind != NodeKind::kGoal || n.rule_children.empty()) continue;
    NodeProfile* row = by_node[static_cast<size_t>(n.id)];
    if (row == nullptr) continue;
    double sum = 0.0;
    bool any = false;
    for (NodeId c : n.rule_children) {
      NodeProfile* child = by_node[static_cast<size_t>(c)];
      if (child == nullptr || child->est_log10_tuples == kNoEstimate) continue;
      sum += std::pow(10.0, child->est_log10_tuples);
      any = true;
    }
    if (any) row->est_log10_tuples = std::log10(std::max(sum, 1.0));
  }
}

}  // namespace mpqe
