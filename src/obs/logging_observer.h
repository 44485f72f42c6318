// Wires common/logging into the engine: a LoggingObserver turns
// evaluation phases and Fig. 2 termination-protocol waves into
// leveled, thread-tagged log lines. Off by default — RunSession
// attaches one only when SessionOptions::log_level (or the
// MPQE_LOG_LEVEL environment variable) asks for it, so the
// deterministic scheduler tests see no extra output or state.
//
//   $ MPQE_LOG_LEVEL=debug ./mpqe_query examples/transitive_closure.dl
//   [INFO t0 engine] q1 phase run begin
//   [DEBUG t2 engine] wave 1: node 3 answered end_negative (open_work=0)
//   [INFO t1 engine] wave 2 concluded at node 1

#ifndef MPQE_OBS_LOGGING_OBSERVER_H_
#define MPQE_OBS_LOGGING_OBSERVER_H_

#include <mutex>
#include <optional>
#include <ostream>
#include <string>

#include "common/logging.h"
#include "common/status.h"
#include "obs/observer.h"

namespace mpqe {

// Emits engine events at `level` and above to one stream. kInfo keeps
// to the coarse story (phase boundaries, wave starts/conclusions);
// kDebug adds every protocol answer and work notice. Lines are written
// whole under an internal mutex, so threaded runs interleave complete
// lines only.
class LoggingObserver : public ExecutionObserver {
 public:
  /// Logs to `out`, or std::cerr when null.
  explicit LoggingObserver(LogLevel level, std::ostream* out = nullptr);

  void OnSessionStart(const SessionStartEvent& event) override;
  void OnPhase(const PhaseEvent& event) override;
  void OnTermination(const TerminationEvent& event) override;

 private:
  void Line(LogLevel level, const std::string& text);

  LogLevel level_;
  std::ostream* out_;
  // Engine query id prefixed to every line ("q17 ...") once a
  // SessionStartEvent arrives. A session without an id (a direct
  // RunSession that set none) sends none, and its lines carry no prefix.
  // Set before any other event is published.
  uint64_t query_id_ = 0;
  std::mutex mutex_;
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

#endif  // MPQE_OBS_LOGGING_OBSERVER_H_
