// The flight dump (DESIGN.md §14): the diagnostic bundle a stall
// watchdog (engine/evaluator.cc) or an operator snapshot builds from
// the flight recorder (msg/flight_recorder.h), serialized as
// `mpqe-flightdump-v1` JSON: the merged recorder contents plus per-SCC
// termination-protocol state, and per-node queue and delivery
// accounting. scripts/check_trace.py --flight validates the schema.

#ifndef MPQE_OBS_FLIGHT_DUMP_H_
#define MPQE_OBS_FLIGHT_DUMP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "msg/flight_recorder.h"

namespace mpqe {

// Fig. 2 protocol state of one strong component at snapshot time, as
// exported by the leader's TerminationParticipant (plain data here so
// obs/ stays independent of engine/).
struct FlightDumpScc {
  int64_t scc = -1;
  int32_t leader = -1;       // graph node id of the BFST leader
  uint64_t queue_depth = 0;  // undelivered messages across members
  size_t members = 0;
  bool nontrivial = false;
  // Leader protocol state (meaningful iff nontrivial).
  bool wave_active = false;
  int64_t wave = 0;
  int64_t waves_started = 0;
  int32_t waiting_for = 0;  // children yet to answer the open wave
  bool all_confirmed = false;
  int64_t idleness = 0;
  bool open_work = false;
  bool notice_pending = false;
};

// Per-node accounting at snapshot time: live queue depth plus counts
// and last-activity timestamps derived from the retained kDeliver
// records of the dumped session. Every delivery to a node runs its
// handler once, so `fires` equals `deliveries`; `sends` counts the
// retained deliveries of messages this node sent (undelivered sends
// show up as queue depth instead).
struct FlightDumpNode {
  int32_t node = -1;
  std::string label;
  int64_t scc = -1;
  uint64_t queue_depth = 0;
  uint64_t fires = 0;
  uint64_t last_fire_ts_ns = 0;  // 0 = no retained delivery record
  uint64_t sends = 0;
  uint64_t deliveries = 0;
  uint64_t last_delivery_ts_ns = 0;
};

struct FlightDump {
  // "stall" (watchdog-triggered) or "manual" (--flight-dump /
  // GET /debug/flight with no stall on record).
  std::string reason = "manual";
  uint64_t query_id = 0;
  int64_t stalled_ms = 0;
  uint64_t delivered = 0;
  uint64_t in_flight = 0;
  // The wedged strong component: the one holding the deepest queues
  // (protocol state as tiebreaker); -1 when nothing is stuck.
  int64_t stuck_scc = -1;
  std::vector<FlightDumpScc> sccs;
  std::vector<FlightDumpNode> nodes;
  std::vector<FlightRecord> events;  // time-ordered

  /// Serializes the bundle as mpqe-flightdump-v1 JSON.
  std::string ToJson() const;
};

}  // namespace mpqe

#endif  // MPQE_OBS_FLIGHT_DUMP_H_
