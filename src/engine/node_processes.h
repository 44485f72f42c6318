// The node processes of the message-controlled computation (§3):
//
//  * GoalProcess      — "predicate nodes with rule-children compute the
//                       union of the relations computed by their
//                       children"; stores its temporary relation,
//                       forwards only genuinely new answer tuples, and
//                       serves each successor a separate stream
//                       restricted to the bindings it requested.
//  * RuleProcess      — "rule nodes combine their subgoal relations
//                       using join, select, and project"; stores its
//                       subgoals' temporary relations and, when a tuple
//                       arrives that does not duplicate one already
//                       received, matches it against the others to form
//                       new tuples via joins; issues tuple requests per
//                       its information passing strategy.
//  * CycleRefProcess  — "the predicate nodes that are connected to an
//                       ancestor predicate node by a cyclic edge
//                       perform a selection on the relation computed by
//                       the ancestor".
//  * EdbProcess       — a leaf serving an EDB relation with the c/d
//                       arguments as an indexed selection; answers each
//                       tuple request completely and ends it.
//  * SinkProcess      — the evaluator's query client: subscribes to the
//                       top goal node, accumulates answers, and stops
//                       the network when the top-level end arrives.
//
// Request-side state is flat (DESIGN.md §13): a process interns the
// bindings it is asked for into a binding table, a Relation whose row
// number is the binding's id, and keeps per-binding state in vectors
// indexed by that id.
//
// End-message discipline: per-tuple-request `end`s cross strong-
// component boundaries only. Inside a nontrivial SCC the Fig. 2
// protocol (engine/termination.h) detects quiescence, after which the
// component's leader ends all open customer requests.

#ifndef MPQE_ENGINE_NODE_PROCESSES_H_
#define MPQE_ENGINE_NODE_PROCESSES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/termination.h"
#include "graph/rule_goal_graph.h"
#include "msg/network.h"
#include "obs/engine_log.h"
#include "obs/lineage.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace mpqe {

// Aggregated evaluation-side counters (summed over all node
// processes at the end of a run).
struct EngineCounters {
  uint64_t stored_tuples = 0;      // tuples kept in temporary relations
  uint64_t duplicate_drops = 0;    // arrivals rejected by dedup
  // Rule-node join results: the partial contexts stored per stage,
  // plus full contexts, which are counted but not stored.
  uint64_t contexts = 0;
  uint64_t max_node_relation = 0;  // largest single temporary relation
  uint64_t protocol_waves = 0;     // Fig. 2 waves initiated
  // The Fig. 2 participants' other events: wave answers sent, work
  // notices sent (footnote 4) and conclusions reached.
  uint64_t negative_answers = 0;
  uint64_t confirmed_answers = 0;
  uint64_t work_notices = 0;
  uint64_t conclusions = 0;

  std::string ToString() const;
};

// Immutable state shared by all node processes of one evaluation.
struct EngineShared {
  const RuleGoalGraph* graph = nullptr;
  // Read-only: EDB leaves look up their relations and the hash indexes
  // built at prepare time, concurrently with other sessions.
  const Database* db = nullptr;
  // Seal an accumulating segment early once it reaches this many rows
  // (bounds per-run buffering; >= 1). Every segment a node builds,
  // accumulated or pre-built, is capped here.
  size_t segment_max_rows = 1024;
  // node id -> process id (processes are registered in node order, so
  // this is the identity; kept explicit for clarity).
  std::vector<ProcessId> node_pid;
  ProcessId sink_pid = kNoProcess;
  // Derivation provenance (obs/lineage.h): when set, node relations
  // draw per-row ids from the collector's allocator and processes fill
  // segment lineage columns and record their derivations in it. Null
  // keeps the lineage-off fast path to one branch per insert site.
  LineageCollector* lineage = nullptr;
  // The session's log (obs/engine_log.h); null when logging is off.
  const EngineLog* log = nullptr;
  // Fault injection for watchdog tests: the process for this node
  // sleeps fault_park_ms once, on its first work message, wedging its
  // SCC long enough for the stall watchdog to fire. kNoNode (the
  // default) keeps the hook to one compare per message.
  NodeId fault_park_node = kNoNode;
  int fault_park_ms = 0;
};

// Base for graph-node processes: message dispatch, the termination
// participant, counters.
class NodeProcessBase : public Process, public TerminationOwner {
 public:
  ~NodeProcessBase() override = default;

  /// Dispatches one message. Emitted work stays in the outbox until
  /// the run ends; a protocol message flushes it first, so no wave
  /// answer, forwarded end request or conclusion overtakes it.
  void OnMessage(const Message& message) final;

  /// Flushes the run's outbox (footnote-2 packaging) and checks Fig. 2
  /// initiation.
  void OnRunEnd() final;

  /// Engages the Fig. 2 protocol for members of nontrivial SCCs
  /// (called by the evaluator during wiring, before Network::Start).
  void ConfigureTermination(Network* network, bool is_leader,
                            ProcessId leader, ProcessId bfst_parent,
                            std::vector<ProcessId> bfst_children);

  // TerminationOwner defaults; subclasses override as needed.
  bool LocallyIdle() const override { return true; }
  bool HasOpenCustomerWork() const override { return false; }
  void SnapshotForConclusion() override {}
  void ConcludeScc() override {}

  /// Contributes this node's counters into `out`.
  virtual void AccumulateCounters(EngineCounters& out) const;

  /// This node's Fig. 2 protocol state, for diagnostics (safe from any
  /// thread; see TerminationParticipant::ExportState).
  TerminationState termination_state() const {
    return termination_.ExportState();
  }

  NodeId node_id() const { return node_id_; }

 protected:
  NodeProcessBase(const EngineShared& shared, NodeId node_id)
      : shared_(shared),
        node_id_(node_id),
        fault_park_armed_(shared.fault_park_node == node_id &&
                          shared.fault_park_ms > 0) {}

  const GraphNode& gnode() const { return shared_.graph->node(node_id_); }
  ProcessId Pid(NodeId n) const { return shared_.node_pid[n]; }
  bool SameScc(NodeId other) const {
    return shared_.graph->node(other).scc_id == gnode().scc_id;
  }

  virtual void HandleWork(const Message& message) = 0;

  /// Queues `m` for `to` until the run-end flush, so an `end` emitted
  /// after buffered answer rows cannot overtake them. All computation
  /// messages from HandleWork should go through this.
  void Emit(ProcessId to, Message m);

  /// Emits one answer tuple on the (`to`, `binding`) stream: the row
  /// lands in that stream's accumulating segment (opened at the
  /// emission point to preserve stream order, sealed at run end, before
  /// a protocol message, or at segment_max_rows rows; a lone row ships
  /// as a one-row segment, a single allocation when the binding and
  /// row fit the segment's inline block).
  void EmitTuple(ProcessId to, TupleRef binding, TupleRef values,
                 uint64_t lineage_id);

  /// Emits a pre-built (sealed, immutable) segment. Fan-out call sites
  /// pass the same handle to several consumers — no per-tuple copy.
  void EmitSegment(ProcessId to, std::shared_ptr<const TupleSegment> segment);

  bool lineage_on() const { return shared_.lineage != nullptr; }

  /// Records the first derivation of tuple `id` in the session's
  /// lineage collector (obs/lineage.h). `inputs` and `values` need
  /// only stay valid through the call.
  void RecordDerive(uint64_t id, DeriveKind kind, uint64_t source,
                    const uint64_t* inputs, size_t num_inputs,
                    TupleRef values);

  /// Records the derivations of a whole segment at once (row i of
  /// `segment` derived from the single input `inputs[i]`; see
  /// DeriveBatchEvent): one collector call per segment instead of one
  /// per row.
  void RecordDeriveBatch(DeriveKind kind,
                         const std::shared_ptr<const TupleSegment>& segment,
                         const std::vector<uint64_t>& inputs);

  const EngineShared& shared_;
  NodeId node_id_;
  TerminationParticipant termination_;

 private:
  void Dispatch(const Message& message);
  // Seals the open segments and sends the outbox, one batch envelope
  // per destination that has more than one message (footnote 2).
  void FlushEmits();

  // A segment still accepting rows. Its (const-aliased) handle already
  // sits in outbox_ — queued at first-row time so later non-tuple
  // emissions to the same destination cannot overtake the rows.
  // Nothing reads the payload until FlushEmits sends it.
  struct OpenSegment {
    ProcessId to = kNoProcess;
    std::shared_ptr<TupleSegment> segment;
  };

  std::vector<std::pair<ProcessId, Message>> outbox_;
  std::vector<OpenSegment> open_segments_;
  // FlushEmits' grouping scratch, reused across flushes: destinations
  // in first-appearance order and each one's message count.
  std::vector<ProcessId> flush_dests_;
  std::vector<size_t> flush_counts_;
  // Fault injection (EngineShared::fault_park_node): armed at
  // construction, disarmed after the one park.
  bool fault_park_armed_ = false;
};

/// Creates the process for graph node `id`.
std::unique_ptr<NodeProcessBase> MakeNodeProcess(const EngineShared& shared,
                                                 NodeId id);

// The query client at the top of the network.
class SinkProcess : public Process {
 public:
  SinkProcess(ProcessId root_pid, size_t answer_arity)
      : root_pid_(root_pid), answers_(answer_arity) {}

  void OnStart() override;
  void OnMessage(const Message& message) override;

  bool done() const { return done_; }
  /// Moves the accumulated answers out (once, after the run).
  Relation TakeAnswers() { return std::move(answers_); }

 private:
  ProcessId root_pid_;
  Relation answers_;
  bool done_ = false;
};

}  // namespace mpqe

#endif  // MPQE_ENGINE_NODE_PROCESSES_H_
