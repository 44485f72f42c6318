// The engine's event vocabulary: session phases, graph-node roles,
// derivation kinds and the Fig. 2 termination-protocol events. Their
// serialized names are shared by the flight ring (msg/flight_recorder.h)
// and everything rendered from it — the flight dump, the Chrome trace
// (obs/chrome_trace.h) — and by the profile, lineage and engine log.

#ifndef MPQE_OBS_EVENTS_H_
#define MPQE_OBS_EVENTS_H_

#include <cstdint>

#include "msg/message.h"

namespace mpqe {

// Coarse phases of one session, reported by RunSession in order. Plan
// compilation (parse, adornment, graph build) happens once per
// PreparedQuery, before any session: see engine/prepare_ns and
// PreparedQuery::prepare_ns().
enum class Phase : uint8_t {
  kNetworkWiring = 0,  // process creation + termination configuration
  kRun = 1,            // scheduler loop (bulk of the evaluation)
  kDrain = 2,          // result collection and teardown
  kPhaseCount = 3,
};

const char* PhaseToString(Phase phase);

// The role a graph-node process plays (mirror of graph NodeKind, kept
// here so obs/ does not depend on graph/).
enum class NodeRole : uint8_t {
  kGoal = 0,
  kRule = 1,
  kEdbLeaf = 2,
  kCycleRef = 3,
};

const char* NodeRoleToString(NodeRole role);

// How a tuple came to exist at a node. Only a tuple's *first*
// derivation is recorded — duplicate re-derivations are dropped by the
// node relations exactly as before, which is also why cyclic programs
// still terminate. See obs/lineage.h for the DAG assembled from these.
enum class DeriveKind : uint8_t {
  kEdbFact = 0,   // a base fact (ids pre-assigned at wiring; no record)
  kRuleFire = 1,  // a rule head instance joined from the input tuples
  kUnion = 2,     // a goal node absorbed a child's tuple into its union
};

const char* DeriveKindToString(DeriveKind kind);

// One Fig. 2 end-message-protocol event (engine/termination.cc),
// written to the flight ring and the engine log.
struct TerminationEvent {
  enum class Kind : uint8_t {
    kWaveStarted = 0,      // leader initiated an end-request wave
    kAnswerNegative = 1,   // member answered `end negative`
    kAnswerConfirmed = 2,  // member answered `end confirmed`
    kConcluded = 3,        // protocol succeeded at this node
    kWorkNotice = 4,       // member pinged the leader (footnote 4)
    kKindCount = 5,
  };

  Kind kind = Kind::kWaveStarted;
  ProcessId node = kNoProcess;
  int64_t wave = 0;
  int64_t idleness = 0;
  bool open_work = false;

  static const char* KindToString(Kind kind);
};

}  // namespace mpqe

#endif  // MPQE_OBS_EVENTS_H_
