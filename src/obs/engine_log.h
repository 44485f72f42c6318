// Engine log lines: a session with a log level (SessionOptions::
// log_level, or the MPQE_LOG_LEVEL environment variable) writes
// leveled, thread-tagged lines to stderr at the three places that
// produce them — session start and phase boundaries (RunSession) and
// Fig. 2 protocol events (TerminationParticipant::Publish). Off by
// default, so the deterministic scheduler tests see no extra output.
//
//   $ MPQE_LOG_LEVEL=debug ./mpqe_query examples/transitive_closure.dl
//   [INFO t0 engine] q1 phase run begin
//   [DEBUG t2 engine] q1 wave 1: node 3 answered end_negative (open_work=0)
//   [INFO t1 engine] q1 wave 2 concluded at node 1

#ifndef MPQE_OBS_ENGINE_LOG_H_
#define MPQE_OBS_ENGINE_LOG_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/logging.h"
#include "common/status.h"
#include "obs/events.h"

namespace mpqe {

// One session's log: kInfo keeps to the coarse story (session start,
// phase boundaries, wave starts and conclusions); kDebug adds every
// protocol answer and work notice. Lines are written whole, so
// threaded runs interleave complete lines only.
class EngineLog {
 public:
  /// Logs at `level` and above; every line carries "q<query_id> "
  /// (no prefix when the id is 0).
  EngineLog(LogLevel level, uint64_t query_id)
      : level_(level), query_id_(query_id) {}

  void Line(LogLevel level, const std::string& text) const;
  void PhaseLine(Phase phase, bool begin) const;
  void TerminationLine(const TerminationEvent& event) const;

 private:
  LogLevel level_;
  uint64_t query_id_;
};

/// Parses an engine log-level name: "debug", "info", "warning" and
/// "error" enable logging at that level; "off", "none" and "" disable
/// (empty optional). InvalidArgument for anything else.
StatusOr<std::optional<LogLevel>> EngineLogLevelFromName(
    const std::string& name);

/// The effective engine log level: `option_value` when non-empty, else
/// the MPQE_LOG_LEVEL environment variable. Unset/invalid env means
/// disabled (option values are validated earlier, by
/// SessionOptions::Validate).
std::optional<LogLevel> ResolveEngineLogLevel(const std::string& option_value);

}  // namespace mpqe

#endif  // MPQE_OBS_ENGINE_LOG_H_
