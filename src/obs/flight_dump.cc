#include "obs/flight_dump.h"

#include "common/string_util.h"
#include "msg/message.h"
#include "obs/events.h"

namespace mpqe {
namespace {

// One flight record as a JSON object. Numeric raw fields are always
// present; the decoded `type`/detail names make dumps grep-able
// without a record-layout decoder at hand.
std::string RecordJson(const FlightRecord& r) {
  const auto type = static_cast<FlightEventType>(r.type);
  std::string detail;
  switch (type) {
    case FlightEventType::kDeliver:
      detail = StrCat(", \"kind\": \"",
                      MessageKindToString(static_cast<MessageKind>(r.kind)),
                      "\", \"rows_out\": ", r.rows_out);
      break;
    case FlightEventType::kPhase:
      detail = StrCat(", \"phase\": \"",
                      PhaseToString(static_cast<Phase>(r.kind)),
                      "\", \"begin\": ", r.a == 1 ? "true" : "false");
      break;
    case FlightEventType::kTermination:
      detail = StrCat(", \"event\": \"",
                      TerminationEvent::KindToString(
                          static_cast<TerminationEvent::Kind>(r.kind)),
                      "\"");
      break;
    default:
      break;
  }
  return StrCat("{\"ts_ns\": ", r.ts_ns, ", \"type\": \"",
                FlightEventTypeToString(type), "\", \"query_id\": ",
                r.query_id, ", \"a\": ", r.a, ", \"b\": ", r.b,
                ", \"rows\": ", r.rows, ", \"aux\": ", r.aux, detail, "}");
}

std::string SccJson(const FlightDumpScc& s) {
  return StrCat(
      "{\"scc\": ", s.scc, ", \"leader\": ", s.leader,
      ", \"queue_depth\": ", s.queue_depth, ", \"members\": ", s.members,
      ", \"nontrivial\": ", s.nontrivial ? "true" : "false",
      ", \"wave_active\": ", s.wave_active ? "true" : "false",
      ", \"wave\": ", s.wave, ", \"waves_started\": ", s.waves_started,
      ", \"waiting_for\": ", s.waiting_for,
      ", \"all_confirmed\": ", s.all_confirmed ? "true" : "false",
      ", \"idleness\": ", s.idleness,
      ", \"open_work\": ", s.open_work ? "true" : "false",
      ", \"notice_pending\": ", s.notice_pending ? "true" : "false", "}");
}

std::string NodeJson(const FlightDumpNode& n) {
  return StrCat("{\"node\": ", n.node, ", \"label\": \"",
                JsonEscape(n.label), "\", \"scc\": ", n.scc,
                ", \"queue_depth\": ", n.queue_depth,
                ", \"fires\": ", n.fires,
                ", \"last_fire_ts_ns\": ", n.last_fire_ts_ns,
                ", \"sends\": ", n.sends,
                ", \"deliveries\": ", n.deliveries,
                ", \"last_delivery_ts_ns\": ", n.last_delivery_ts_ns, "}");
}

template <typename Container, typename Formatter>
void AppendJsonArray(std::string* out, std::string_view key,
                     const Container& items, Formatter&& fmt) {
  *out += StrCat("  \"", key, "\": [\n");
  size_t i = 0;
  for (const auto& item : items) {
    *out += StrCat("    ", fmt(item), ++i < items.size() ? ",\n" : "\n");
  }
  *out += "  ]";
}

}  // namespace

std::string FlightDump::ToJson() const {
  std::string out = StrCat(
      "{\n  \"schema\": \"mpqe-flightdump-v1\",\n  \"reason\": \"",
      JsonEscape(reason), "\",\n  \"query_id\": ", query_id,
      ",\n  \"stalled_ms\": ", stalled_ms, ",\n  \"delivered\": ", delivered,
      ",\n  \"in_flight\": ", in_flight, ",\n  \"stuck_scc\": ", stuck_scc,
      ",\n");
  AppendJsonArray(&out, "sccs", sccs, SccJson);
  out += ",\n";
  AppendJsonArray(&out, "nodes", nodes, NodeJson);
  out += ",\n";
  AppendJsonArray(&out, "events", events, RecordJson);
  out += "\n}\n";
  return out;
}

}  // namespace mpqe
