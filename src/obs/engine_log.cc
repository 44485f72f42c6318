#include "obs/engine_log.h"

#include <cstdlib>
#include <iostream>
#include <mutex>

#include "common/string_util.h"

namespace mpqe {

void EngineLog::Line(LogLevel level, const std::string& text) const {
  if (level < level_) return;
  std::string line =
      StrCat("[", LogLevelName(level), " ", ThreadTag(), " engine] ",
             query_id_ != 0 ? StrCat("q", query_id_, " ") : std::string(),
             text, "\n");
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  std::cerr << line << std::flush;
}

void EngineLog::PhaseLine(Phase phase, bool begin) const {
  Line(LogLevel::kInfo,
       StrCat("phase ", PhaseToString(phase), begin ? " begin" : " end"));
}

void EngineLog::TerminationLine(const TerminationEvent& event) const {
  switch (event.kind) {
    case TerminationEvent::Kind::kWaveStarted:
      Line(LogLevel::kInfo, StrCat("wave ", event.wave, " started at node ",
                                   event.node, " (idleness=", event.idleness,
                                   ")"));
      break;
    case TerminationEvent::Kind::kConcluded:
      Line(LogLevel::kInfo,
           StrCat("wave ", event.wave, " concluded at node ", event.node));
      break;
    case TerminationEvent::Kind::kAnswerNegative:
    case TerminationEvent::Kind::kAnswerConfirmed:
      Line(LogLevel::kDebug,
           StrCat("wave ", event.wave, ": node ", event.node, " answered ",
                  event.kind == TerminationEvent::Kind::kAnswerNegative
                      ? "end_negative"
                      : "end_confirmed",
                  " (open_work=", event.open_work ? 1 : 0, ")"));
      break;
    case TerminationEvent::Kind::kWorkNotice:
      Line(LogLevel::kDebug,
           StrCat("work notice from node ", event.node, " (wave ", event.wave,
                  ")"));
      break;
    case TerminationEvent::Kind::kKindCount:
      break;
  }
}

StatusOr<std::optional<LogLevel>> EngineLogLevelFromName(
    const std::string& name) {
  if (name.empty() || name == "off" || name == "none") {
    return std::optional<LogLevel>();
  }
  if (name == "debug") return std::optional<LogLevel>(LogLevel::kDebug);
  if (name == "info") return std::optional<LogLevel>(LogLevel::kInfo);
  if (name == "warning") return std::optional<LogLevel>(LogLevel::kWarning);
  if (name == "error") return std::optional<LogLevel>(LogLevel::kError);
  return InvalidArgumentError(
      StrCat("unknown log level \"", name,
             "\" (expected debug, info, warning, error, or off)"));
}

std::optional<LogLevel> ResolveEngineLogLevel(const std::string& option_value) {
  std::string name = option_value;
  if (name.empty()) {
    const char* env = std::getenv("MPQE_LOG_LEVEL");
    if (env == nullptr) return std::nullopt;
    name = env;
  }
  auto parsed = EngineLogLevelFromName(name);
  if (!parsed.ok()) return std::nullopt;
  return *parsed;
}

}  // namespace mpqe
