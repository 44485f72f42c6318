// Derivation provenance (lineage): record, for every tuple first
// inserted into any node's relation, how it came to exist — the
// deriving graph node, the program rule (for rule firings), the
// ordered input tuple ids, and the lineage id of the message whose
// handling produced it — and answer "WHY is this an answer?" with a
// minimal proof tree grounding out in EDB facts.
//
// Ids: every relation of an evaluation draws row ids from one shared
// TupleIdAllocator (Relation::EnableLineage), so ids are globally
// unique and numerically consistent with derivation order — a tuple's
// inputs were allocated strictly before it (the input exists at its
// producer before the carrying message is sent, the send
// happens-before the delivery, and the delivery is what derives the
// new tuple). Every record's inputs therefore carry smaller ids than
// the record itself: the derivation structure is a DAG by
// construction. scripts/check_trace.py --lineage re-checks this
// invariant on the exported JSON.
//
// First-derivation semantics: duplicate insertions map to the
// existing row (and its id) and produce no record, exactly mirroring
// the duplicate elimination that makes cyclic programs terminate
// (§1.2). Each id thus has exactly one derivation record, and proof
// extraction needs no cycle breaking — though FormatProof still
// guards against malformed input.
//
// Usage: set SessionOptions::lineage and read EvaluationResult::lineage.
// RunSession owns the session's LineageCollector and hands it to the
// node processes through EngineShared::lineage; a hand-built network
// (bench_runtime_micro's segment hops) drives one directly:
//   LineageCollector lineage;
//   lineage.AttachGraph(graph.get(), &db.symbols());
//   ... EnableLineage(lineage.ids()) + AttachEdbRelation per EDB relation ...
//   ... deriving processes call lineage.Record / RecordBatch ...
//   LineageReport report = lineage.Finalize();
//   std::cout << report.FormatProof(report.Match("tc", args)[0]->id);
//
// Overhead: opt-in like the profiler. With lineage off a node process
// pays one null-pointer branch per insert site, and segments carry no
// lineage column. BENCH_obs.json tracks the lineage-on cost
// (BM_SegmentHopLineage against BM_SegmentHopDedup;
// scripts/bench_guard.py holds the ratio <= 1.5).

#ifndef MPQE_OBS_LINEAGE_H_
#define MPQE_OBS_LINEAGE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/rule_goal_graph.h"
#include "msg/segment.h"
#include "obs/events.h"
#include "relational/relation.h"

namespace mpqe {

// One first-derivation of a tuple, recorded by the deriving node
// process (engine/node_processes.cc). `inputs` and `values` point into
// the deriving process's storage and need only stay valid through the
// call.
struct DeriveEvent {
  uint64_t tuple_id = kNoLineage;  // the derived tuple's lineage id
  int32_t node = -1;               // graph NodeId of the deriving node
  DeriveKind kind = DeriveKind::kRuleFire;
  int32_t rule_index = -1;         // program rule index (kRuleFire only)
  uint64_t source_msg = kNoLineage;  // lineage id of the trigger message
  const uint64_t* inputs = nullptr;  // ordered input ids (sips order)
  size_t num_inputs = 0;
  TupleRef values;                 // the derived tuple's values
};

// A run of first-derivations recorded at once: the deriving node
// absorbed a whole columnar segment in one firing. Row i of `segment`
// was derived with id `segment->lineage[i]` from the single input
// `inputs[i]` (segment-batched derivations are single-input unions;
// rule firings keep per-tuple DeriveEvents because their input lists
// vary in length). The collector retains the segment handle — the same
// shared object the consumers receive — but `inputs` need only stay
// valid through the call.
struct DeriveBatchEvent {
  int32_t node = -1;  // graph NodeId of the deriving node
  DeriveKind kind = DeriveKind::kUnion;
  std::shared_ptr<const TupleSegment> segment;
  const uint64_t* inputs = nullptr;  // one id per segment row
};

// One node of the derivation DAG: how the tuple with this id was
// first derived. EDB facts are leaves (no inputs, depth 0).
struct LineageRecord {
  uint64_t id = kNoTupleId;
  DeriveKind kind = DeriveKind::kEdbFact;
  int32_t node = -1;        // graph NodeId; -1 for EDB facts
  int32_t rule_index = -1;  // program rule index (kRuleFire only)
  uint64_t source_msg = kNoTupleId;  // trigger message's lineage id
  int64_t depth = 0;        // minimal proof depth; EDB facts are 0
  Tuple values;             // the stored tuple (output positions)
  std::vector<uint64_t> inputs;  // ordered input ids; empty for EDB

  std::string predicate;  // predicate / relation name ("" for rules)
  std::string display;    // rendered atom or rule instance
  // The full atom image for query matching: one entry per atom
  // argument, nullopt at existential positions (not transmitted, so
  // any value matches there).
  std::vector<std::optional<Value>> atom_args;
};

struct ProofFormatOptions {
  bool include_ids = true;   // append "#<id>" to every line
  size_t max_lines = 10000;  // rendering budget (defensive)
};

// A parsed --why query: predicate name plus ground arguments, with
// nullopt for `_` wildcards.
struct LineageQuery {
  std::string predicate;
  std::vector<std::optional<Value>> args;
};

/// Parses a ground query atom such as "tc(a, c)", "edge(a, _)" or
/// "p(3)". Identifiers intern into `symbols`, integer literals parse
/// as ints, `_` is a wildcard; "p" and "p()" both mean zero arity.
StatusOr<LineageQuery> ParseLineageQuery(const std::string& text,
                                         SymbolTable& symbols);

// The assembled derivation DAG. Self-contained after Finalize():
// display strings and atom images are baked in, so the report outlives
// the database, graph and evaluation that produced it.
struct LineageReport {
  std::vector<LineageRecord> records;  // sorted by ascending id
  int32_t root_node = -1;              // the top goal's graph node
  size_t edb_facts = 0;
  size_t derived = 0;
  int64_t max_depth = 0;
  // The engine-minted query id of the session that produced this
  // report (0 when the session had none — a direct RunSession; then
  // omitted from the JSON dump).
  uint64_t query_id = 0;

  /// The record for `id`, or nullptr (binary search; records are
  /// sorted by id).
  const LineageRecord* Find(uint64_t id) const;

  /// Records whose atom matches `predicate(args...)` — goal unions and
  /// EDB facts only (rule instances are not atoms). nullopt arguments
  /// are wildcards, and existential positions match anything. Sorted
  /// by ascending proof depth, then id, so front() roots the minimal
  /// proof tree.
  std::vector<const LineageRecord*> Match(
      const std::string& predicate,
      const std::vector<std::optional<Value>>& args) const;
  std::vector<const LineageRecord*> Match(const LineageQuery& query) const {
    return Match(query.predicate, query.args);
  }

  /// The indented proof tree rooted at `id`, grounding out in EDB
  /// facts. Deterministic: each tuple has exactly one (first)
  /// derivation. Cycle-safe: a repeated id on the current path renders
  /// as "(cycle)" and recursion stops — impossible for well-formed
  /// reports, where inputs precede their derivation.
  std::string FormatProof(uint64_t id,
                          const ProofFormatOptions& options = {}) const;

  /// Machine-readable dump (schema "mpqe-lineage-v1"), validated by
  /// scripts/check_trace.py --lineage.
  std::string ToJson() const;
};

// Assembles one session's DAG. Owns the session's TupleIdAllocator;
// the evaluator enables lineage on every relation against ids() and
// registers the EDB relations so Finalize() can resolve referenced base
// facts into leaf records.
//
// Thread-safe: Record/RecordBatch calls from different processes may
// arrive concurrently (threaded scheduler) and append under one mutex.
class LineageCollector {
 public:
  /// `query_id` is the engine-minted id of the session (0 = none).
  explicit LineageCollector(uint64_t query_id = 0) : query_id_(query_id) {}

  /// Attaches the rule/goal graph + symbols used to render node
  /// predicates, atoms and rule instances. Optional: without a graph,
  /// records keep numeric node ids and empty displays.
  void AttachGraph(const RuleGoalGraph* graph, const SymbolTable* symbols);

  /// Registers an EDB relation (call after Relation::EnableLineage
  /// against ids()). The relation must stay alive until Finalize().
  void AttachEdbRelation(const std::string& name, const Relation* relation);

  /// The evaluation's id allocator: pass to Relation::EnableLineage.
  TupleIdAllocator* ids() { return &ids_; }

  void Record(const DeriveEvent& event);

  /// One entry per absorbed segment instead of one record per row:
  /// retains the (shared, immutable) segment — the derived ids ride in
  /// its lineage column for free — plus a delta-encoded input column
  /// (id - input per row; always positive, inputs precede their
  /// derivation). Finalize() expands the rows into LineageRecords.
  void RecordBatch(const DeriveBatchEvent& event);

  /// Records captured so far, counting each batched segment row.
  size_t record_count() const;

  /// Builds the self-contained report: resolves referenced EDB facts
  /// into leaf records, computes minimal proof depths, and bakes
  /// display strings. Call after the evaluation, while the attached
  /// relations (and graph) are still alive.
  LineageReport Finalize() const;

 private:
  struct EdbRange {
    std::string name;
    const Relation* relation = nullptr;
    uint64_t first = 0;  // row_id(0); rows are numbered contiguously
  };

  // A segment absorbed whole (see RecordBatch): row i was first
  // derived as id segment->lineage[i] from the single input
  // segment->lineage[i] - input_deltas[i].
  struct BatchEntry {
    int32_t node = -1;
    DeriveKind kind = DeriveKind::kUnion;
    std::shared_ptr<const TupleSegment> segment;
    std::vector<uint64_t> input_deltas;
  };

  TupleIdAllocator ids_;
  uint64_t query_id_ = 0;
  mutable std::mutex mutex_;
  std::vector<LineageRecord> records_;  // raw: display fields unset
  std::vector<BatchEntry> batches_;     // raw: expanded by Finalize
  size_t batch_rows_ = 0;               // rows across batches_
  std::vector<EdbRange> edb_;
  const RuleGoalGraph* graph_ = nullptr;
  const SymbolTable* symbols_ = nullptr;
};

}  // namespace mpqe

#endif  // MPQE_OBS_LINEAGE_H_
