#include "obs/chrome_trace.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <set>

#include "common/string_util.h"
#include "msg/message.h"
#include "obs/events.h"

namespace mpqe {
namespace {

constexpr size_t kPhases = static_cast<size_t>(Phase::kPhaseCount);

int32_t TrackOf(int32_t pid) { return pid < 0 ? 0 : pid + 1; }

std::string FormatUs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

std::string TrackName(int32_t tid, const RuleGoalGraph* graph,
                      const SymbolTable* symbols) {
  if (tid == 0) return "evaluator";
  const auto pid = static_cast<size_t>(tid - 1);
  if (graph != nullptr && pid < graph->size()) {
    return graph->NodeLabel(static_cast<NodeId>(pid), symbols);
  }
  if (graph != nullptr && pid == graph->size()) return "sink";
  return StrCat("process ", pid);
}

}  // namespace

StatusOr<ChromeTrace> RenderChromeTrace(
    const std::vector<FlightRecord>& records, uint64_t query_id,
    uint64_t delivered, const RuleGoalGraph* graph,
    const SymbolTable* symbols) {
  ChromeTrace trace;
  trace.query_id = query_id;
  trace.delivered = delivered;
  uint64_t deliveries = 0;
  std::array<bool, kPhases> phase_open{};
  std::array<uint64_t, kPhases> phase_begin_ns{};
  size_t phases_lost = 0;
  for (const FlightRecord& r : records) {
    if (r.query_id != query_id) continue;
    ChromeTrace::Event e;
    switch (static_cast<FlightEventType>(r.type)) {
      case FlightEventType::kDeliver: {
        ++deliveries;
        const char* kind =
            MessageKindToString(static_cast<MessageKind>(r.kind));
        e.tid = TrackOf(r.b);
        e.ts_ns = r.ts_ns - std::min<uint64_t>(r.aux, r.ts_ns);
        e.dur_ns = r.aux;
        e.name = kind;
        e.args_json = StrCat("\"from\": ", r.a, ", \"kind\": \"", kind,
                             "\", \"rows\": ", r.rows,
                             ", \"rows_out\": ", r.rows_out);
        break;
      }
      case FlightEventType::kPhase: {
        const size_t p = r.kind;
        if (p >= kPhases) continue;
        if (r.a == 1) {
          phase_open[p] = true;
          phase_begin_ns[p] = r.ts_ns;
          continue;
        }
        if (!phase_open[p]) {
          ++phases_lost;  // its begin was overwritten
          continue;
        }
        phase_open[p] = false;
        e.ts_ns = phase_begin_ns[p];
        e.dur_ns = r.ts_ns - phase_begin_ns[p];
        e.name = StrCat("phase:", PhaseToString(static_cast<Phase>(p)));
        break;
      }
      case FlightEventType::kTermination:
        e.ph = 'i';
        e.tid = TrackOf(r.a);
        e.ts_ns = r.ts_ns;
        e.name = StrCat("term:", TerminationEvent::KindToString(
                                     static_cast<TerminationEvent::Kind>(
                                         r.kind)));
        e.args_json =
            StrCat("\"wave\": ", r.b, ", \"idleness\": ", r.rows,
                   ", \"open_work\": ", r.aux != 0 ? "true" : "false");
        break;
      default:
        continue;
    }
    trace.events.push_back(std::move(e));
  }
  phases_lost += static_cast<size_t>(
      std::count(phase_open.begin(), phase_open.end(), true));
  if (deliveries < delivered || phases_lost > 0) {
    return FailedPreconditionError(StrCat(
        "the flight ring lost part of query ", query_id, ": it holds ",
        deliveries, " of ", delivered, " deliveries and lost ", phases_lost,
        " phase record(s); a session must fit in one ring "
        "(EngineOptions::flight_recorder_options.ring_capacity)"));
  }
  std::set<int32_t> tids = {0};
  for (const ChromeTrace::Event& e : trace.events) tids.insert(e.tid);
  for (int32_t tid : tids) {
    trace.tracks.emplace_back(tid, TrackName(tid, graph, symbols));
  }
  return trace;
}

std::string ChromeTrace::ToJson() const {
  uint64_t origin = UINT64_MAX;
  for (const Event& e : events) origin = std::min(origin, e.ts_ns);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out += "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 0, \"tid\": 0, "
         "\"args\": {\"name\": \"mpqe\"}}";
  out += StrCat(",\n{\"ph\": \"M\", \"name\": \"session\", \"pid\": 0, "
                "\"tid\": 0, \"args\": {\"query_id\": ",
                query_id, ", \"delivered\": ", delivered, "}}");
  for (const auto& [tid, name] : tracks) {
    out += StrCat(",\n{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, "
                  "\"tid\": ",
                  tid, ", \"args\": {\"name\": \"", JsonEscape(name), "\"}}");
  }
  for (const Event& e : events) {
    out += StrCat(",\n{\"ph\": \"", e.ph, "\", \"name\": \"", e.name,
                  "\", \"pid\": 0, \"tid\": ", e.tid,
                  ", \"ts\": ", FormatUs(e.ts_ns - origin));
    if (e.ph == 'X') out += StrCat(", \"dur\": ", FormatUs(e.dur_ns));
    if (e.ph == 'i') out += ", \"s\": \"t\"";
    if (!e.args_json.empty()) out += StrCat(", \"args\": {", e.args_json, "}");
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

Status ChromeTrace::WriteFile(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) {
    return InvalidArgumentError(StrCat("cannot open trace file: ", path));
  }
  file << ToJson();
  file.close();
  if (!file.good()) {
    return InternalError(StrCat("failed writing trace file: ", path));
  }
  return Status::Ok();
}

std::string ChromeTrace::NormalizedSummary() const {
  std::string out;
  for (const Event& e : events) {
    out += StrCat(e.ph, " ", e.name, " tid=", e.tid, "\n");
  }
  return out;
}

}  // namespace mpqe
