// The distributed termination protocol of §3.2 (Fig. 2), extended for
// coalesced graphs (footnote 4).
//
// Within a strong component, one or a few answer tuples may be
// "trickling through" even though every node happens to be caught up
// when asked. The protocol therefore requires two consecutive idle
// waves: the BFST leader floods `end request` messages down the
// breadth-first spanning tree; leaves answer `end negative` the first
// time; a node answers `end confirmed` only if it has been idle for
// the entire period between two end requests (idleness >= 2) and all
// its BFST children confirmed. The leader repeats waves after each
// negative answer and, once every node confirms and it has itself
// stayed idle, concludes the protocol.
//
// A node's empty-queues() is: no unprocessed messages in its own
// mailbox AND end messages received from all its feeders (owner's
// LocallyIdle()).
//
// Coalesced strong components (several members with outside customers)
// add three mechanisms, per the paper's footnote 4 ("the leader must
// propagate the end message around the strong component, as other
// nodes may have customers"):
//   * `work notice` — a member that receives an outside tuple request
//     pings the leader so it knows to run the protocol at all;
//   * wave answers carry an *open work* bit, OR-aggregated up the
//     BFST, so the leader keeps cycling until every member's outside
//     requests are served;
//   * `scc concluded` — broadcast down the BFST after a successful
//     protocol; every member then ends the outside requests captured
//     in the *snapshot* it took when it last answered `end confirmed`
//     (requests that arrived after that snapshot are not ended — they
//     belong to the next protocol round).

#ifndef MPQE_ENGINE_TERMINATION_H_
#define MPQE_ENGINE_TERMINATION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "msg/message.h"
#include "msg/network.h"
#include "obs/engine_log.h"
#include "obs/events.h"

namespace mpqe {

// A point-in-time copy of one participant's Fig. 2 protocol state, for
// diagnostics (the stall watchdog folds leaders' states into the
// flight dump). Exportable from any thread while the run is live.
struct TerminationState {
  bool configured = false;
  bool is_leader = false;
  bool wave_active = false;
  int64_t wave = 0;
  int64_t waves_started = 0;
  int waiting_for = 0;
  bool all_confirmed = false;
  int64_t idleness = 0;
  bool subtree_open_work = false;
  bool notice_pending = false;
};

// Owner hooks; implemented by the engine node processes.
class TerminationOwner {
 public:
  virtual ~TerminationOwner() = default;

  /// True iff all tuple requests this node issued to feeders (children
  /// outside its strong component) have been answered with `end`.
  virtual bool LocallyIdle() const = 0;

  /// True while some customer tuple request at THIS node has not yet
  /// been ended (drives leader initiation and the open-work bit in
  /// wave answers).
  virtual bool HasOpenCustomerWork() const = 0;

  /// Record the set of customer requests that the next ConcludeScc()
  /// may end. Called when this node answers `end confirmed` (and on
  /// the leader just before it concludes).
  virtual void SnapshotForConclusion() = 0;

  /// The protocol succeeded: send `end` for the snapshotted open
  /// customer requests.
  virtual void ConcludeScc() = 0;
};

class TerminationParticipant {
 public:
  /// A participant is inert (all methods no-ops) until Configure() is
  /// called; trivial-SCC nodes stay inert.
  TerminationParticipant() = default;

  /// `log` (may be null) receives the protocol's log lines.
  void Configure(TerminationOwner* owner, Network* network,
                 const EngineLog* log, ProcessId self, bool is_leader,
                 ProcessId leader, ProcessId bfst_parent,
                 std::vector<ProcessId> bfst_children);

  bool configured() const { return owner_ != nullptr; }
  int64_t idleness() const {
    return idleness_.load(std::memory_order_relaxed);
  }
  int64_t waves_started() const {
    return waves_started_.load(std::memory_order_relaxed);
  }
  /// How many events of `kind` this participant published. Read after
  /// the run.
  uint64_t events(TerminationEvent::Kind kind) const {
    return events_[static_cast<size_t>(kind)];
  }

  /// Snapshot of the protocol fields. Safe from any thread at any time
  /// (the fields are relaxed atomics with the owner process as the
  /// only writer); the copy may mix fields across a transition, which
  /// is fine for the diagnostics it feeds.
  TerminationState ExportState() const;

  /// Any non-protocol message resets idleness ("it resets idleness to
  /// zero whenever it receives work").
  void OnWorkMessage();

  /// Non-leader members call this when an outside tuple request
  /// arrives for a binding that is not yet complete: pings the leader
  /// (no-op on the leader itself or when unconfigured).
  void NotifyExternalWork();

  /// Leader: start a wave if idle with open work and no wave in
  /// flight. Call after processing every message.
  void MaybeInitiate();

  void OnEndRequest(const Message& m);
  void OnEndNegative(const Message& m);
  void OnEndConfirmed(const Message& m);
  void OnSccConcluded(const Message& m);
  void OnWorkNotice(const Message& m);

 private:
  bool EmptyQueues() const;
  // Counts a protocol event and reports it to the network's flight
  // recorder and the session's log.
  void Publish(TerminationEvent::Kind kind);
  void StartWave();
  // Shared tail of process-end-request: record idleness, fan out to
  // children or answer immediately.
  void ProcessEndRequest();
  void AnswerParent();
  void OnWaveComplete();
  void ConcludeAndBroadcast();

  TerminationOwner* owner_ = nullptr;
  Network* network_ = nullptr;
  const EngineLog* log_ = nullptr;
  ProcessId self_ = kNoProcess;
  bool is_leader_ = false;
  ProcessId leader_ = kNoProcess;
  ProcessId bfst_parent_ = kNoProcess;
  std::vector<ProcessId> bfst_children_;

  // Protocol state. Mutated only by the owner process (the network
  // serializes a process's message handling), but read by the stall
  // watchdog's monitor thread via ExportState() — hence relaxed
  // atomics: single-writer, so relaxed read-modify-writes stay exact,
  // and cross-thread reads are race-free.
  std::atomic<int64_t> idleness_{0};
  std::atomic<int> waiting_for_{0};
  std::atomic<bool> all_confirmed_{false};
  std::atomic<bool> subtree_open_work_{false};  // OR over own + children
  std::atomic<bool> notice_pending_{false};  // leader: a member has work
  std::atomic<bool> wave_active_{false};     // leader: wave in flight
  std::atomic<int64_t> wave_{0};
  std::atomic<int64_t> waves_started_{0};
  // Events published, by kind. Only the owner writes them and nothing
  // reads them during the run.
  std::array<uint64_t, static_cast<size_t>(TerminationEvent::Kind::kKindCount)>
      events_{};
};

}  // namespace mpqe

#endif  // MPQE_ENGINE_TERMINATION_H_
