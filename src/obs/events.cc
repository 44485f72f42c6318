#include "obs/events.h"

namespace mpqe {

const char* PhaseToString(Phase phase) {
  switch (phase) {
    case Phase::kNetworkWiring:
      return "network_wiring";
    case Phase::kRun:
      return "run";
    case Phase::kDrain:
      return "drain";
    case Phase::kPhaseCount:
      break;
  }
  return "?";
}

const char* NodeRoleToString(NodeRole role) {
  switch (role) {
    case NodeRole::kGoal:
      return "goal";
    case NodeRole::kRule:
      return "rule";
    case NodeRole::kEdbLeaf:
      return "edb";
    case NodeRole::kCycleRef:
      return "cycle_ref";
  }
  return "?";
}

const char* DeriveKindToString(DeriveKind kind) {
  switch (kind) {
    case DeriveKind::kEdbFact:
      return "edb";
    case DeriveKind::kRuleFire:
      return "rule";
    case DeriveKind::kUnion:
      return "union";
  }
  return "?";
}

const char* TerminationEvent::KindToString(Kind kind) {
  switch (kind) {
    case Kind::kWaveStarted:
      return "wave_started";
    case Kind::kAnswerNegative:
      return "answer_negative";
    case Kind::kAnswerConfirmed:
      return "answer_confirmed";
    case Kind::kConcluded:
      return "concluded";
    case Kind::kWorkNotice:
      return "work_notice";
    case Kind::kKindCount:
      break;
  }
  return "?";
}

}  // namespace mpqe
