// The execution observability layer (src/obs/): structured,
// composable observers receive typed events from every layer of an
// evaluation — message sends and deliveries (msg/network), node
// firings (engine/node_processes), evaluator phases
// (engine/evaluator), and the Fig. 2 termination protocol
// (engine/termination) — and can be stacked: tracing, lineage, logging
// and test assertions all run side by side on one evaluation.
// Observers serve event streams only: per-process counts come from the
// network's records (msg/network.h ProcessCounts), which every session
// keeps without an observer.
//
// Threading contract (see DESIGN.md § Observability):
//  * OnSend fires in the *sending* process's execution context, after
//    the message is stamped and before it is enqueued. Under the
//    threaded scheduler, sends from different processes may invoke an
//    observer concurrently; observers must synchronize themselves.
//  * OnDeliver and OnNodeFire for one process are serialized (the
//    network is an actor system: at most one message of a process is
//    in flight), but callbacks for *different* processes may run
//    concurrently. OnDeliver fires after the process finished handling
//    the message (and, for a run's last delivery, its run-end hook)
//    and carries the measured handling duration.
//  * The send of a message happens-before its delivery callback: for
//    every (from, to) channel the i-th OnSend precedes the i-th
//    OnDeliver (per-channel FIFO).
//  * OnPhase and OnTermination events for a single evaluation are
//    serialized with the callbacks of the process that produced them.
//  * All callbacks must return; they run on the engine's hot path.
//    With no observers installed the engine skips event construction
//    entirely (one empty() branch per site).
//  * The engine's always-on flight recorder is not an observer but a
//    direct Network tap (msg/flight_recorder.h), and the profile and
//    metrics read the network's counts, so a default engine session
//    keeps this fast path.

#ifndef MPQE_OBS_OBSERVER_H_
#define MPQE_OBS_OBSERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "msg/message.h"

namespace mpqe {

// Coarse phases of one session, reported by RunSession in order. Plan
// compilation (parse, adornment, graph build) happens once per
// PreparedQuery, before any session: see engine/prepare_ns and
// PreparedQuery::prepare_ns().
enum class Phase : uint8_t {
  kNetworkWiring = 0,  // process creation + termination configuration
  kRun = 1,            // scheduler loop (bulk of the evaluation)
  kDrain = 2,          // result collection after the run
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

// One message send (msg/network.cc, before enqueue).
struct SendEvent {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  // Valid only for the duration of the callback.
  const Message* message = nullptr;
};

// One message delivery, reported after the receiving process handled
// it (msg/network.cc).
struct DeliverEvent {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  MessageKind kind = MessageKind::kRelationRequest;
  // Answer tuples that traveled inside this message's columnar
  // segment(s): the segment's row count for kTupleSegment, the sum
  // over packaged segments for kBatch, 0 otherwise.
  uint64_t payload_rows = 0;
  // Columnar segments inside this message: 1 for kTupleSegment, the
  // packaged-segment count for kBatch, 0 otherwise.
  uint64_t payload_segments = 0;
  // Wall time the receiver spent inside OnMessage; for the last
  // delivery of a mailbox run, also inside the OnRunEnd that follows
  // it (a node's outbox flush).
  uint64_t handle_ns = 0;
};

// One node-process firing: a graph node handled one message
// (engine/node_processes.cc). `tuples_in`/`tuples_out` count answer
// tuples consumed/emitted during this firing — the rows of the
// columnar segments involved, whether sent alone or packaged in a
// batch; `dedup_hits` is how many arrivals/results duplicate
// elimination rejected. The firing's time is its delivery's
// DeliverEvent::handle_ns.
struct NodeFireEvent {
  int32_t node = -1;  // graph NodeId
  ProcessId pid = kNoProcess;
  NodeRole role = NodeRole::kGoal;
  MessageKind trigger = MessageKind::kRelationRequest;
  uint32_t tuples_in = 0;
  uint32_t tuples_out = 0;
  uint64_t dedup_hits = 0;
};

// How a tuple came to exist at a node. Only a tuple's *first*
// derivation is reported — duplicate re-derivations are dropped by the
// node relations exactly as before, which is also why cyclic programs
// still terminate. See obs/lineage.h for the DAG assembled from these.
enum class DeriveKind : uint8_t {
  kEdbFact = 0,   // a base fact (ids pre-assigned at wiring; no event)
  kRuleFire = 1,  // a rule head instance joined from the input tuples
  kUnion = 2,     // a goal node absorbed a child's tuple into its union
};

const char* DeriveKindToString(DeriveKind kind);

// One first-derivation of a tuple (engine/node_processes.cc, fired
// only when lineage tracking is enabled). Serialized per deriving
// process like OnNodeFire; derivations at different processes may
// report concurrently. `inputs` and `values` point into the deriving
// process's storage and are valid only for the duration of the
// callback.
struct DeriveEvent {
  uint64_t tuple_id = kNoLineage;  // the derived tuple's lineage id
  int32_t node = -1;               // graph NodeId of the deriving node
  NodeRole role = NodeRole::kGoal;
  DeriveKind kind = DeriveKind::kRuleFire;
  int32_t rule_index = -1;         // program rule index (kRuleFire only)
  uint64_t source_msg = kNoLineage;  // lineage id of the trigger message
  const uint64_t* inputs = nullptr;  // ordered input ids (sips order)
  size_t num_inputs = 0;
  TupleRef values;                 // the derived tuple's values
};

// A run of first-derivations published as one event: the deriving node
// absorbed a whole columnar segment in one firing
// (engine/node_processes.cc, lineage tracking only).
// Row i of `segment` was derived with id `segment->lineage[i]` from
// the single input `inputs[i]` (segment-batched derivations are
// single-input unions; rule firings keep per-tuple DeriveEvents
// because their input lists vary in length). The segment handle may be
// retained — it is the same shared object the consumers receive — but
// `inputs` is valid only for the duration of the callback. Serialized
// per deriving process like OnDerive.
struct DeriveBatchEvent {
  int32_t node = -1;  // graph NodeId of the deriving node
  NodeRole role = NodeRole::kGoal;
  DeriveKind kind = DeriveKind::kUnion;
  std::shared_ptr<const TupleSegment> segment;
  const uint64_t* inputs = nullptr;  // one id per segment row
};

// Session identification, published once at the top of RunSession
// before any other event (engine/evaluator.cc). `query_id` is the
// engine-minted stable id correlating this execution across every
// artifact — trace spans, log lines, lineage dumps, profiler reports,
// the engine query log and the /queries endpoint (DESIGN.md §12).
// 0 means no id (a direct RunSession that set none), in which case no
// event is published and all outputs stay id-free.
struct SessionStartEvent {
  uint64_t query_id = 0;
};

// A phase boundary (engine/evaluator.cc). Phases nest at most one
// level deep and begin/end events alternate per phase.
struct PhaseEvent {
  Phase phase = Phase::kRun;
  bool begin = true;
};

// One Fig. 2 end-message-protocol event (engine/termination.cc).
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

// The observer interface. All callbacks default to no-ops so
// implementations override only what they consume.
class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;

  virtual void OnSessionStart(const SessionStartEvent& event) { (void)event; }
  virtual void OnSend(const SendEvent& event) { (void)event; }
  virtual void OnDeliver(const DeliverEvent& event) { (void)event; }
  virtual void OnNodeFire(const NodeFireEvent& event) { (void)event; }
  virtual void OnDerive(const DeriveEvent& event) { (void)event; }
  virtual void OnDeriveBatch(const DeriveBatchEvent& event) { (void)event; }
  virtual void OnPhase(const PhaseEvent& event) { (void)event; }
  virtual void OnTermination(const TerminationEvent& event) { (void)event; }
};

// A non-owning, ordered collection of observers. Composition is
// sequential: every event is delivered to each observer in
// registration order. Mutation (Add) is only legal before the
// evaluation starts; notification is lock-free and the empty() check
// is the entire zero-observer fast path.
class ObserverList {
 public:
  ObserverList() = default;

  void Add(ExecutionObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }

  bool empty() const { return observers_.empty(); }
  size_t size() const { return observers_.size(); }
  const std::vector<ExecutionObserver*>& items() const { return observers_; }

  void NotifySessionStart(const SessionStartEvent& event) const {
    for (ExecutionObserver* o : observers_) o->OnSessionStart(event);
  }
  void NotifySend(const SendEvent& event) const {
    for (ExecutionObserver* o : observers_) o->OnSend(event);
  }
  void NotifyDeliver(const DeliverEvent& event) const {
    for (ExecutionObserver* o : observers_) o->OnDeliver(event);
  }
  void NotifyNodeFire(const NodeFireEvent& event) const {
    for (ExecutionObserver* o : observers_) o->OnNodeFire(event);
  }
  void NotifyDerive(const DeriveEvent& event) const {
    for (ExecutionObserver* o : observers_) o->OnDerive(event);
  }
  void NotifyDeriveBatch(const DeriveBatchEvent& event) const {
    for (ExecutionObserver* o : observers_) o->OnDeriveBatch(event);
  }
  void NotifyPhase(const PhaseEvent& event) const {
    for (ExecutionObserver* o : observers_) o->OnPhase(event);
  }
  void NotifyTermination(const TerminationEvent& event) const {
    for (ExecutionObserver* o : observers_) o->OnTermination(event);
  }

 private:
  std::vector<ExecutionObserver*> observers_;
};

}  // namespace mpqe

#endif  // MPQE_OBS_OBSERVER_H_
