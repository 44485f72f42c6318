// Prometheus text exposition (format version 0.0.4) over a
// MetricsRegistry — what `GET /metrics` on the engine's StatsServer
// serves and what scripts/check_trace.py --prometheus validates.
//
// Naming scheme (DESIGN.md §12): registry paths are '/'-separated with
// the lowest-cardinality prefix first; the serializer folds the
// high-cardinality middle segment into a label so one *family* covers
// all of its series:
//
//   plan_cache/hit               -> mpqe_plan_cache_hit
//   engine/session_latency_ns    -> mpqe_engine_session_latency_ns
//   node/7/fires                 -> mpqe_node_fires{node="7"}
//   predicate/path/stored_tuples -> mpqe_predicate_stored_tuples{predicate="path"}
//   scc/3/queue_depth            -> mpqe_scc_queue_depth{scc="3"}
//   phase/run/ns                 -> mpqe_phase_ns{phase="run"}
//   msg/sent/tuple_segment       -> mpqe_msg_sent{kind="tuple_segment"}
//   termination/wave_started     -> mpqe_termination_events{event="wave_started"}
//   aggregated/node/7/fires      -> mpqe_profile_node_fires{node="7"}
//
// Counters serialize as `counter`, gauges as `gauge`, histograms as
// native Prometheus `histogram` families with the log2 bucket
// boundaries as cumulative `le` bounds (le="2^b - 1" for bucket b,
// trailing empty buckets folded into +Inf) plus `_sum` and `_count`.
// Families are emitted once, sorted by family name, each preceded by
// its # HELP / # TYPE header — so two scrapes of the same state are
// byte-identical regardless of metric registration order.

#ifndef MPQE_OBS_PROMETHEUS_H_
#define MPQE_OBS_PROMETHEUS_H_

#include <string>

#include "obs/metrics.h"

namespace mpqe {

struct PrometheusOptions {
  // Prepended to every family name (the `mpqe` of mpqe_node_fires).
  std::string prefix = "mpqe";
};

/// Serializes `registry` in Prometheus text exposition format 0.0.4.
/// Deterministic: families and series come out sorted by name.
std::string ToPrometheusText(const MetricsRegistry& registry,
                             const PrometheusOptions& options = {});

/// The content type a conforming HTTP endpoint must serve.
inline const char* PrometheusContentType() {
  return "text/plain; version=0.0.4; charset=utf-8";
}

}  // namespace mpqe

#endif  // MPQE_OBS_PROMETHEUS_H_
