#include "engine/node_processes.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "engine/plan.h"
#include "relational/operators.h"

namespace mpqe {

std::string EngineCounters::ToString() const {
  return StrCat("{stored=", stored_tuples, " dups=", duplicate_drops,
                " contexts=", contexts, " max_rel=", max_node_relation,
                " waves=", protocol_waves, "}");
}

void NodeProcessBase::ConfigureTermination(
    Network* network, bool is_leader, ProcessId leader, ProcessId bfst_parent,
    std::vector<ProcessId> bfst_children) {
  termination_.Configure(this, network, shared_.log, process_id(), is_leader,
                         leader, bfst_parent, std::move(bfst_children));
}

void NodeProcessBase::OnMessage(const Message& message) {
  if (fault_park_armed_ && !IsProtocolMessage(message.kind)) {
    // Watchdog fault injection: wedge this node (and with it, its
    // SCC's progress) once, before handling its first work message.
    fault_park_armed_ = false;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(shared_.fault_park_ms));
  }
  // Fig. 2 lets a wave message answer, forward or conclude: the work
  // this run emitted so far must already sit in its receivers'
  // mailboxes (DESIGN.md §10).
  if (IsProtocolMessage(message.kind)) FlushEmits();
  Dispatch(message);
}

void NodeProcessBase::OnRunEnd() {
  FlushEmits();
  termination_.MaybeInitiate();
}

void NodeProcessBase::Dispatch(const Message& message) {
  switch (message.kind) {
    case MessageKind::kEndRequest:
      termination_.OnEndRequest(message);
      break;
    case MessageKind::kEndNegative:
      termination_.OnEndNegative(message);
      break;
    case MessageKind::kEndConfirmed:
      termination_.OnEndConfirmed(message);
      break;
    case MessageKind::kSccConcluded:
      termination_.OnSccConcluded(message);
      break;
    case MessageKind::kWorkNotice:
      termination_.OnWorkNotice(message);
      break;
    case MessageKind::kBatch:
      termination_.OnWorkMessage();
      for (const Message& packaged : message.batch()) HandleWork(packaged);
      break;
    default:
      termination_.OnWorkMessage();
      HandleWork(message);
      break;
  }
}

void NodeProcessBase::Emit(ProcessId to, Message m) {
  outbox_.emplace_back(to, std::move(m));
}

void NodeProcessBase::EmitTuple(ProcessId to, TupleRef binding,
                                TupleRef values, uint64_t lineage_id) {
  size_t i = 0;
  while (i < open_segments_.size() &&
         (open_segments_[i].to != to ||
          TupleRef(open_segments_[i].segment->binding) != binding)) {
    ++i;
  }
  if (i == open_segments_.size()) {
    auto segment = std::make_shared<TupleSegment>();
    segment->binding.assign(binding);
    segment->arity = values.size();
    OpenSegment open;
    open.to = to;
    open.segment = segment;
    outbox_.emplace_back(to, MakeTupleSegment(std::move(segment)));
    open_segments_.push_back(std::move(open));
  }
  OpenSegment& open = open_segments_[i];
  open.segment->AppendRow(values);
  if (lineage_id != kNoLineage) open.segment->lineage.push_back(lineage_id);
  if (open.segment->num_rows >= shared_.segment_max_rows) {
    // Seal at the size cap (a new segment's first row included, so a
    // cap of 1 ships one row per segment): the handle stays at its
    // outbox position; further rows on this stream open a new (later)
    // segment, so per-stream order is preserved.
    open.segment->CheckConsistent();
    open_segments_.erase(open_segments_.begin() + static_cast<ptrdiff_t>(i));
  }
}

void NodeProcessBase::EmitSegment(ProcessId to,
                                  std::shared_ptr<const TupleSegment> segment) {
  // Every pre-built segment passes through here: the one place to
  // catch a values/lineage column that desynchronized from num_rows
  // before it reaches the wire.
  segment->CheckConsistent();
  Emit(to, MakeTupleSegment(std::move(segment)));
}

void NodeProcessBase::FlushEmits() {
  // Open segments are sealed simply by dropping the mutable handle.
  for (OpenSegment& open : open_segments_) open.segment->CheckConsistent();
  open_segments_.clear();
  if (outbox_.empty()) return;
  if (outbox_.size() == 1) {  // a lone message goes bare
    Send(outbox_.front().first, std::move(outbox_.front().second));
    outbox_.clear();
    return;
  }
  // Group by destination, preserving per-destination send order and
  // first-appearance destination order. Counting first sizes each
  // envelope exactly.
  flush_dests_.clear();
  flush_counts_.clear();
  for (const auto& [to, m] : outbox_) {
    const size_t g = static_cast<size_t>(
        std::find(flush_dests_.begin(), flush_dests_.end(), to) -
        flush_dests_.begin());
    if (g == flush_dests_.size()) {
      flush_dests_.push_back(to);
      flush_counts_.push_back(0);
    }
    ++flush_counts_[g];
  }
  for (size_t g = 0; g < flush_dests_.size(); ++g) {
    const ProcessId to = flush_dests_[g];
    std::vector<Message> batch;
    batch.reserve(flush_counts_[g]);
    for (auto& [dest, m] : outbox_) {
      if (dest != to) continue;
      // Packaged messages carry the envelope's sender, so receivers
      // handle them in place.
      m.from = process_id();
      batch.push_back(std::move(m));
    }
    Send(to, batch.size() == 1 ? std::move(batch.front())
                               : MakeBatch(std::move(batch)));
  }
  outbox_.clear();
}

void NodeProcessBase::AccumulateCounters(EngineCounters& out) const {
  using Kind = TerminationEvent::Kind;
  out.protocol_waves += static_cast<uint64_t>(termination_.waves_started());
  out.negative_answers += termination_.events(Kind::kAnswerNegative);
  out.confirmed_answers += termination_.events(Kind::kAnswerConfirmed);
  out.work_notices += termination_.events(Kind::kWorkNotice);
  out.conclusions += termination_.events(Kind::kConcluded);
}

void NodeProcessBase::RecordDerive(uint64_t id, DeriveKind kind,
                                   uint64_t source, const uint64_t* inputs,
                                   size_t num_inputs, TupleRef values) {
  DeriveEvent event;
  event.tuple_id = id;
  event.node = node_id_;
  event.kind = kind;
  if (gnode().kind == NodeKind::kRule) {
    event.rule_index = static_cast<int32_t>(gnode().program_rule_index);
  }
  event.source_msg = source;
  event.inputs = inputs;
  event.num_inputs = num_inputs;
  event.values = values;
  shared_.lineage->Record(event);
}

void NodeProcessBase::RecordDeriveBatch(
    DeriveKind kind, const std::shared_ptr<const TupleSegment>& segment,
    const std::vector<uint64_t>& inputs) {
  DeriveBatchEvent event;
  event.node = node_id_;
  event.kind = kind;
  event.segment = segment;
  event.inputs = inputs.data();
  shared_.lineage->RecordBatch(event);
}

namespace {

// Per-consumer stream state at a producer (§3.1: "A goal node with
// multiple out-edges needs to furnish answers in separate streams to
// each successor node ... different successors normally will have
// requested different subsets of the total temporary relation").
struct ConsumerStream {
  bool external = false;  // in a different SCC (or the sink)
  // Probed with segment bindings in place (TupleEq is transparent).
  std::unordered_set<Tuple, TupleHash, TupleEq> bindings;
  std::unordered_set<Tuple, TupleHash> ended;
};

// ---------------------------------------------------------------------------
// GoalProcess
// ---------------------------------------------------------------------------

class GoalProcess : public NodeProcessBase {
 public:
  GoalProcess(const EngineShared& shared, NodeId id)
      : NodeProcessBase(shared, id),
        answers_(gnode().OutputPositions().size()) {
    out_positions_ = gnode().OutputPositions();
    d_positions_ = PositionsWithClass(gnode().adornment,
                                      BindingClass::kDynamic);
    for (size_t dp : d_positions_) {
      auto it = std::find(out_positions_.begin(), out_positions_.end(), dp);
      MPQE_CHECK(it != out_positions_.end());
      d_in_out_.push_back(static_cast<size_t>(it - out_positions_.begin()));
    }
    d_index_ = answers_.EnsureIndex(d_in_out_);
    if (lineage_on()) {
      answers_.EnableLineage(shared_.lineage->ids());
    }
    for (NodeId rc : gnode().rule_children) {
      if (!SameScc(rc)) ++ending_children_;
    }
  }

  bool LocallyIdle() const override { return open_feeder_requests_ == 0; }

  bool HasOpenCustomerWork() const override {
    for (const auto& [pid, c] : consumers_) {
      if (c.external && c.ended.size() < c.bindings.size()) return true;
    }
    return false;
  }

  void SnapshotForConclusion() override { snapshot_ = requested_; }

  void ConcludeScc() override {
    // The component was quiescent with feeders ended throughout the
    // confirming waves: every binding in the snapshot is final.
    // Bindings requested after the snapshot belong to the next
    // protocol round.
    for (const Tuple& b : snapshot_) completed_.insert(b);
    for (auto& [pid, c] : consumers_) {
      if (!c.external) continue;
      for (const Tuple& b : c.bindings) {
        if (snapshot_.count(b) != 0 && c.ended.insert(b).second) {
          Emit(pid, MakeEnd(b));
        }
      }
    }
  }

  void AccumulateCounters(EngineCounters& out) const override {
    NodeProcessBase::AccumulateCounters(out);
    out.stored_tuples += answers_.size();
    out.duplicate_drops += duplicate_drops_;
    out.max_node_relation =
        std::max(out.max_node_relation, static_cast<uint64_t>(answers_.size()));
  }

 protected:
  void HandleWork(const Message& m) override {
    switch (m.kind) {
      case MessageKind::kRelationRequest:
        OnRelationRequest(m);
        break;
      case MessageKind::kTupleRequest:
        OnTupleRequest(m);
        break;
      case MessageKind::kTupleSegment:
        OnTupleSegment(m);
        break;
      case MessageKind::kEnd:
        OnEnd(m);
        break;
      default:
        MPQE_CHECK(false) << "unexpected " << m.ToString();
    }
  }

 private:
  bool IsExternal(ProcessId from) const {
    if (from == shared_.sink_pid) return true;
    return shared_.graph->node(static_cast<NodeId>(from)).scc_id !=
           gnode().scc_id;
  }

  void OnRelationRequest(const Message& m) {
    ConsumerStream& c = consumers_[m.from];
    c.external = IsExternal(m.from);
    if (!activated_) {
      activated_ = true;
      for (NodeId rc : gnode().rule_children) {
        Emit(Pid(rc), MakeRelationRequest());
      }
    }
  }

  void OnTupleRequest(const Message& m) {
    ConsumerStream& c = consumers_[m.from];
    if (!c.bindings.insert(m.binding).second) return;  // duplicate request

    // Replay the stored stream restricted to this binding as shared
    // segments of at most the row cap.
    const std::vector<size_t>* hits = answers_.Probe(d_index_, m.binding);
    if (hits != nullptr) {
      const size_t cap = shared_.segment_max_rows;
      auto replay = std::make_shared<TupleSegment>();
      replay->binding.assign(m.binding);
      replay->arity = out_positions_.size();
      for (size_t pos : *hits) {
        replay->AppendRow(answers_.tuple(pos));
        if (lineage_on()) replay->lineage.push_back(answers_.row_id(pos));
        if (replay->num_rows >= cap) {
          auto next = std::make_shared<TupleSegment>();
          next->binding = replay->binding;
          next->arity = replay->arity;
          EmitSegment(m.from, std::move(replay));
          replay = std::move(next);
        }
      }
      if (!replay->empty()) EmitSegment(m.from, std::move(replay));
    }
    if (completed_.count(m.binding) != 0) {
      if (c.external && c.ended.insert(m.binding).second) {
        Emit(m.from, MakeEnd(m.binding));
      }
      return;
    }
    // Coalesced components may be entered at any member; tell the
    // leader there is work to conclude (footnote 4).
    if (c.external && !gnode().scc_is_trivial) {
      termination_.NotifyExternalWork();
    }
    if (requested_.insert(m.binding).second) {
      outstanding_[m.binding] = ending_children_;
      open_feeder_requests_ += ending_children_;
      for (NodeId rc : gnode().rule_children) {
        Emit(Pid(rc), MakeTupleRequest(m.binding));
      }
      if (gnode().rule_children.empty()) {
        // No rule unified with this goal: the relation is empty/final.
        CompleteBinding(m.binding);
      }
    }
  }

  // Vectorized union: absorb the whole segment through the batch
  // insert kernel (one hashing pass, one capacity reservation, one
  // dedup probe per row), then hand each consumer one shared
  // out-segment of the genuinely new rows. Rows are grouped by their
  // d-projection (normally a single group — answers echo the request
  // binding at d positions — but constants or repeated head variables
  // can split a stream). In the common case — nothing deduped, every
  // row's d-projection equal to the stream binding, lineage off — the
  // inbound shared segment handle is forwarded wholesale: zero row
  // copies and zero per-row work beyond the kernel.
  void OnTupleSegment(const Message& m) {
    const TupleSegment& in = m.segment();
    if (in.num_rows == 0) return;
    const BatchInsertResult& ins = answers_.InsertSegment(in);
    duplicate_drops_ += in.num_rows - ins.num_inserted;
    if (ins.num_inserted == 0) return;

    if (!lineage_on() && ins.all_inserted() && AllRowsMatchBinding(in)) {
      for (auto& [pid, c] : consumers_) {
        if (c.bindings.count(TupleRef(in.binding)) != 0) {
          EmitSegment(pid, m.segment_ptr());
        }
      }
      return;
    }

    // General path: group surviving rows by d-projection. A hash map
    // keyed on the projection replaces the old O(groups)-per-row
    // linear scan; `group_order` keeps first-appearance emission order
    // so the deterministic scheduler stays deterministic.
    struct OutGroup {
      std::shared_ptr<TupleSegment> segment;
      std::vector<uint64_t> inputs;  // one per row (lineage only)
    };
    std::unordered_map<Tuple, OutGroup, TupleHash> groups;
    std::vector<OutGroup*> group_order;
    const size_t cap = shared_.segment_max_rows;
    // Records one derive batch for the group and hands every
    // subscribed consumer the same segment object. Called at the size
    // cap and once at the end.
    auto flush_group = [&](OutGroup& group) {
      if (group.segment->empty()) return;
      group.segment->CheckConsistent();
      if (lineage_on()) {
        RecordDeriveBatch(DeriveKind::kUnion, group.segment, group.inputs);
      }
      for (auto& [pid, c] : consumers_) {
        if (c.bindings.count(TupleRef(group.segment->binding)) != 0) {
          EmitSegment(pid, group.segment);
        }
      }
    };
    Tuple dproj(d_in_out_.size(), Value());
    for (size_t r = 0; r < in.num_rows; ++r) {
      if (!ins.inserted(r)) continue;
      TupleRef row = in.row(r);
      for (size_t i = 0; i < d_in_out_.size(); ++i) {
        dproj[i] = row[d_in_out_[i]];
      }
      auto [it, is_new] = groups.try_emplace(dproj);
      OutGroup& group = it->second;
      if (is_new) {
        group.segment = std::make_shared<TupleSegment>();
        group.segment->binding.assign(dproj);
        group.segment->arity = in.arity;
        group_order.push_back(&group);
      }
      group.segment->AppendRow(row);
      if (lineage_on()) {
        group.segment->lineage.push_back(answers_.row_id(ins.rows[r]));
        group.inputs.push_back(in.row_lineage(r));
      }
      if (group.segment->num_rows >= cap) {
        flush_group(group);
        auto next = std::make_shared<TupleSegment>();
        next->binding = group.segment->binding;
        next->arity = group.segment->arity;
        group.segment = std::move(next);
        group.inputs.clear();
      }
    }
    for (OutGroup* group : group_order) flush_group(*group);
  }

  // Every row's d-projection equals the stream binding (the wholesale
  // forward precondition — one comparison pass over the block, far
  // cheaper than re-grouping).
  bool AllRowsMatchBinding(const TupleSegment& in) const {
    if (in.binding.size() != d_in_out_.size()) return false;
    for (size_t r = 0; r < in.num_rows; ++r) {
      TupleRef row = in.row(r);
      for (size_t i = 0; i < d_in_out_.size(); ++i) {
        if (row[d_in_out_[i]] != in.binding[i]) return false;
      }
    }
    return true;
  }

  void OnEnd(const Message& m) {
    auto it = outstanding_.find(m.binding);
    MPQE_CHECK(it != outstanding_.end())
        << "end for unknown binding at goal node " << node_id_;
    MPQE_CHECK(it->second > 0);
    --open_feeder_requests_;
    if (--it->second == 0 && gnode().scc_is_trivial) {
      CompleteBinding(m.binding);
    }
  }

  void CompleteBinding(const Tuple& b) {
    completed_.insert(b);
    for (auto& [pid, c] : consumers_) {
      if (c.external && c.bindings.count(b) != 0 && c.ended.insert(b).second) {
        Emit(pid, MakeEnd(b));
      }
    }
  }

  std::vector<size_t> out_positions_;
  std::vector<size_t> d_positions_;
  std::vector<size_t> d_in_out_;
  size_t d_index_ = 0;
  size_t ending_children_ = 0;

  bool activated_ = false;
  std::unordered_map<ProcessId, ConsumerStream> consumers_;
  std::unordered_set<Tuple, TupleHash> requested_;
  std::unordered_set<Tuple, TupleHash> snapshot_;
  std::unordered_set<Tuple, TupleHash> completed_;
  std::unordered_map<Tuple, size_t, TupleHash> outstanding_;
  Relation answers_;
  int64_t open_feeder_requests_ = 0;
  uint64_t duplicate_drops_ = 0;
};

// ---------------------------------------------------------------------------
// CycleRefProcess
// ---------------------------------------------------------------------------

class CycleRefProcess : public NodeProcessBase {
 public:
  CycleRefProcess(const EngineShared& shared, NodeId id)
      : NodeProcessBase(shared, id) {
    MPQE_CHECK(gnode().cycle_source != kNoNode);
    MPQE_CHECK(SameScc(gnode().cycle_source))
        << "a cycle reference and its ancestor are in one strong component";
  }

 protected:
  void HandleWork(const Message& m) override {
    switch (m.kind) {
      case MessageKind::kRelationRequest:
        if (!activated_) {
          activated_ = true;
          Emit(Pid(gnode().cycle_source), MakeRelationRequest());
        }
        break;
      case MessageKind::kTupleRequest:
        if (requested_.insert(m.binding).second) {
          Emit(Pid(gnode().cycle_source), MakeTupleRequest(m.binding));
        }
        break;
      case MessageKind::kTupleSegment:
        // The selection on the ancestor's relation already happened at
        // the ancestor (it streams only our subscribed bindings), and
        // forwarding derives nothing new: pass the shared handle on —
        // a refcount bump, zero row copies, lineage ids unchanged.
        EmitSegment(Pid(gnode().parent), m.segment_ptr());
        break;
      case MessageKind::kEnd:
        MPQE_CHECK(false)
            << "per-request end inside a strong component (cycle ref)";
        break;
      default:
        MPQE_CHECK(false) << "unexpected " << m.ToString();
    }
  }

 private:
  bool activated_ = false;
  std::unordered_set<Tuple, TupleHash> requested_;
};

// ---------------------------------------------------------------------------
// EdbProcess
// ---------------------------------------------------------------------------

class EdbProcess : public NodeProcessBase {
 public:
  EdbProcess(const EngineShared& shared, NodeId id)
      : NodeProcessBase(shared, id) {
    out_positions_ = gnode().OutputPositions();
    sent_scratch_ = Relation(out_positions_.size());
  }

  void OnStart() override {
    const std::string& name =
        shared_.graph->program().predicates().Name(gnode().atom.predicate);
    relation_ = shared_.db->GetRelation(name);
    MPQE_CHECK(relation_ != nullptr)
        << "EDB relation " << name << " missing (program not validated?)";

    EdbAccessPlan plan = ComputeEdbAccessPlan(gnode());
    key_positions_ = std::move(plan.key_positions);
    key_template_ = std::move(plan.key_template);
    key_d_slots_ = std::move(plan.key_d_slots);
    equalities_ = std::move(plan.equalities);
    if (!key_positions_.empty()) {
      // Engine::Prepare builds the index (ComputeEdbIndexSpecs derives
      // it from the same access plan). When it is missing — the plan
      // was prepared while other sessions were running, or RunSession
      // got a hand-built graph — the leaf scans rather than mutating a
      // relation other sessions may be reading.
      has_index_ = relation_->FindIndex(key_positions_, &index_handle_);
    }
  }

  void AccumulateCounters(EngineCounters& out) const override {
    NodeProcessBase::AccumulateCounters(out);
    out.duplicate_drops += duplicate_drops_;
  }

 protected:
  void HandleWork(const Message& m) override {
    switch (m.kind) {
      case MessageKind::kRelationRequest:
        break;  // nothing to do: requests identify the consumer
      case MessageKind::kTupleRequest:
        Answer(m);
        break;
      default:
        MPQE_CHECK(false) << "unexpected " << m.ToString();
    }
  }

 private:
  bool Matches(TupleRef t) const {
    for (const auto& [a, b] : equalities_) {
      if (t[a] != t[b]) return false;
    }
    return true;
  }

  void Answer(const Message& m) {
    // Per-request dedup of projected rows through a reusable scratch
    // arena: Clear() keeps the arena/table capacity, and the projected
    // row is built in a reusable buffer — no per-row Tuple
    // materialization at all.
    sent_scratch_.Clear();
    // The whole answer set for this request is known within this one
    // handler, so rows go straight into one segment (EmitTuple's
    // open-segment lookup would be per-row overhead).
    const size_t cap = shared_.segment_max_rows;
    auto segment = std::make_shared<TupleSegment>();
    segment->binding.assign(m.binding);
    segment->arity = out_positions_.size();
    auto emit = [&](size_t pos) {
      TupleRef t = relation_->tuple(pos);
      if (!Matches(t)) return;
      out_buf_.clear();
      for (size_t c : out_positions_) out_buf_.push_back(t[c]);
      if (!sent_scratch_.Insert(out_buf_)) {
        ++duplicate_drops_;
        return;
      }
      segment->AppendRow(out_buf_);
      // Base-fact provenance: the underlying row's id (assigned at
      // wiring when lineage is on).
      if (lineage_on()) segment->lineage.push_back(relation_->row_id(pos));
      if (segment->num_rows >= cap) {
        auto next = std::make_shared<TupleSegment>();
        next->binding = segment->binding;
        next->arity = segment->arity;
        EmitSegment(m.from, std::move(segment));
        segment = std::move(next);
      }
    };
    Tuple key = key_template_;
    for (const auto& [key_slot, binding_ordinal] : key_d_slots_) {
      key[key_slot] = m.binding[binding_ordinal];
    }
    if (has_index_) {
      const std::vector<size_t>* hits = relation_->Probe(index_handle_, key);
      if (hits != nullptr) {
        for (size_t pos : *hits) emit(pos);
      }
    } else {
      // Scan, filtering on the key columns manually (index ablation or
      // a fully-free request).
      for (size_t pos = 0; pos < relation_->size(); ++pos) {
        TupleRef t = relation_->tuple(pos);
        bool match = true;
        for (size_t i = 0; i < key_positions_.size() && match; ++i) {
          match = t[key_positions_[i]] == key[i];
        }
        if (match) emit(pos);
      }
    }
    if (!segment->empty()) EmitSegment(m.from, std::move(segment));
    Emit(m.from, MakeEnd(m.binding));
  }

  const Relation* relation_ = nullptr;
  Relation sent_scratch_{0};  // per-request projected-row dedup
  Tuple out_buf_;             // reusable projection buffer
  std::vector<size_t> out_positions_;
  std::vector<size_t> key_positions_;
  Tuple key_template_;
  std::vector<std::pair<size_t, size_t>> key_d_slots_;
  std::vector<std::pair<size_t, size_t>> equalities_;
  size_t index_handle_ = 0;
  bool has_index_ = false;
  uint64_t duplicate_drops_ = 0;
};

// ---------------------------------------------------------------------------
// RuleProcess
// ---------------------------------------------------------------------------

// Incremental multiway join driven by the rule's information passing
// strategy. Stage k holds the partial join of the head bindings with
// the first k subgoals (in sips order); a context is the tuple of
// values of all variables bound after stage k. Arriving subgoal tuples
// extend every waiting context; new contexts issue tuple requests to
// the next subgoal. Duplicate child tuples, contexts and heads are
// dropped, which is what lets recursive cycles reach a fixpoint.
//
// Stages 0..n-1 each keep their contexts in one Relation whose index
// on the next child's binding slots groups the waiters of each tuple
// request. Full contexts (stage n) go straight to the head dedup: each
// (waiter, answer) pair is joined exactly once and gives a distinct
// context, so a store for them would drop nothing (DESIGN.md §13).
class RuleProcess : public NodeProcessBase {
 public:
  RuleProcess(const EngineShared& shared, NodeId id)
      : NodeProcessBase(shared, id),
        head_answers_(gnode().OutputPositions().size()) {
    if (lineage_on()) {
      head_answers_.EnableLineage(shared_.lineage->ids());
    }
    BuildPlan();
  }

  bool LocallyIdle() const override { return open_feeder_requests_ == 0; }

  void AccumulateCounters(EngineCounters& out) const override {
    NodeProcessBase::AccumulateCounters(out);
    out.stored_tuples += head_answers_.size();
    uint64_t ctx = full_contexts_;
    for (const Stage& s : stages_) ctx += s.contexts.size();
    out.contexts += ctx;
    out.duplicate_drops += duplicate_drops_;
    out.max_node_relation = std::max(
        out.max_node_relation, static_cast<uint64_t>(head_answers_.size()));
  }

 protected:
  void HandleWork(const Message& m) override {
    // The lineage id of the answer row whose handling produces whatever
    // fires below, recorded as each resulting derivation's source
    // message. OnChildSegment sets it per row; requests and ends leave
    // kNoLineage.
    trigger_lineage_ = kNoLineage;
    switch (m.kind) {
      case MessageKind::kRelationRequest:
        if (!activated_) {
          activated_ = true;
          for (NodeId c : gnode().subgoal_children) {
            Emit(Pid(c), MakeRelationRequest());
          }
        }
        break;
      case MessageKind::kTupleRequest:
        OnHeadRequest(m);
        break;
      case MessageKind::kTupleSegment:
        OnChildSegment(m);
        break;
      case MessageKind::kEnd:
        OnChildEnd(m);
        break;
      default:
        MPQE_CHECK(false) << "unexpected " << m.ToString();
    }
  }

 private:
  struct ChildPlan {
    size_t body_index = 0;
    ProcessId pid = kNoProcess;
    bool expects_end = false;  // child is outside this node's SCC
    // Context slots supplying the child's d-position values (in the
    // child's d-position order).
    std::vector<size_t> binding_slots;
    // (child output ordinal -> new context slot) for the child's
    // newly bound (class f) variables.
    std::vector<std::pair<size_t, size_t>> extensions;
    // (child output ordinal -> existing context slot) join checks for
    // variables already bound before this stage but not passed as d
    // bindings (e.g. under the no-sips strategy the whole relation
    // arrives and the equi-join happens here).
    std::vector<std::pair<size_t, size_t>> checks;
    // Arity of the child's answer tuples (its output positions).
    size_t answer_arity = 0;
  };

  struct ChildReq {
    explicit ChildReq(size_t arity) : answers(arity) {}
    bool ended = false;
    // Arrived child tuples in one flat arena whose open-addressing
    // table is the dedup set — one hash + probe per row, no per-row
    // Tuple materialization for duplicates, and whole segments land
    // through the batch insert kernel.
    Relation answers;
    // Lineage ids parallel to `answers` rows (filled only when lineage
    // tracking is on; message ids, not arena row ids).
    std::vector<uint64_t> answer_ids;
    // Head bindings whose completion awaits this request's end.
    std::unordered_set<Tuple, TupleHash> dependents;
  };

  // Join state of stage k < n: its contexts, and what they requested
  // from child k + 1.
  struct Stage {
    Stage(size_t width, size_t next_width, size_t binding_width)
        : contexts(width), next(next_width), request_binding(binding_width) {}
    // The arena stores the contexts and its dedup table drops repeats;
    // index `waiters`, on the next child's binding slots, groups them
    // by the request they wait on, in insertion order.
    Relation contexts;
    size_t waiters = 0;
    // Each context's k input ids in sips order, flat and parallel to
    // the rows (lineage only).
    std::vector<uint64_t> sources;
    // Keyed by request binding; probed in place with the binding of
    // an arriving segment (TupleEq is transparent).
    std::unordered_map<Tuple, ChildReq, TupleHash, TupleEq> requests;
    // Scratch: a stage k + 1 context being built from one of these
    // and a child answer, its k + 1 input ids (lineage only), and the
    // binding a new context requests.
    Tuple next;
    std::vector<uint64_t> next_sources;
    Tuple request_binding;
  };

  /// The state of this node's request for `binding` to child `stage`
  /// (AddContext opens it before the child can answer or end it).
  ChildReq& Requested(size_t stage, TupleRef binding) {
    auto& requests = stages_[stage - 1].requests;
    auto it = requests.find(binding);
    MPQE_CHECK(it != requests.end())
        << "child stream for a binding this rule node never requested";
    return it->second;
  }

  void BuildPlan() {
    const Rule& rule = gnode().rule;
    const SipsResult& sips = gnode().sips;
    const Adornment& head_adornment = gnode().adornment;
    size_t n = rule.body.size();
    MPQE_CHECK(sips.order.size() == n);

    // Stage 0: head d variables, in head d-position order.
    for (size_t i = 0; i < rule.head.args.size(); ++i) {
      if (head_adornment[i] != BindingClass::kDynamic) continue;
      const Term& t = rule.head.args[i];
      MPQE_CHECK(t.is_variable()) << "class d on a constant argument";
      auto [it, inserted] = var_slot_.emplace(t.var(), var_slot_.size());
      head_binding_slots_.push_back(it->second);
    }
    stage_width_.push_back(var_slot_.size());

    // Stages 1..n: one per subgoal in sips order.
    children_.resize(n);
    for (size_t k = 1; k <= n; ++k) {
      size_t body_index = sips.order[k - 1];
      const Atom& atom = rule.body[body_index];
      const Adornment& adornment = sips.subgoal_adornments[body_index];
      ChildPlan& plan = children_[k - 1];
      plan.body_index = body_index;
      NodeId child_node = gnode().subgoal_children[body_index];
      plan.pid = Pid(child_node);
      plan.expects_end = !SameScc(child_node);
      pid_to_stage_[plan.pid] = k;

      // d-position binding sources.
      for (size_t i = 0; i < atom.args.size(); ++i) {
        if (adornment[i] != BindingClass::kDynamic) continue;
        auto it = var_slot_.find(atom.args[i].var());
        MPQE_CHECK(it != var_slot_.end())
            << "d argument not bound by an earlier stage";
        plan.binding_slots.push_back(it->second);
      }
      // Extensions and join checks from the child's output (non-e)
      // positions.
      const GraphNode& child = shared_.graph->node(child_node);
      std::vector<size_t> out_positions = child.OutputPositions();
      plan.answer_arity = out_positions.size();
      std::unordered_set<VariableId> seen_here;
      for (size_t j = 0; j < out_positions.size(); ++j) {
        const Term& t = atom.args[out_positions[j]];
        if (!t.is_variable()) continue;
        auto [it, inserted] = var_slot_.emplace(t.var(), var_slot_.size());
        if (inserted) {
          plan.extensions.emplace_back(j, it->second);
          seen_here.insert(t.var());
        } else if (adornment[out_positions[j]] != BindingClass::kDynamic &&
                   seen_here.count(t.var()) == 0) {
          // Bound earlier but not furnished as a d binding: the value
          // comes back in the answer and must join-match the context.
          // (d positions echo the request binding; repeated in-atom
          // variables are equal by the producer's construction.)
          plan.checks.emplace_back(j, it->second);
        }
      }
      stage_width_.push_back(var_slot_.size());
    }

    // Head output plan: constant or bound slot per non-e head position.
    for (size_t pos : gnode().OutputPositions()) {
      const Term& t = rule.head.args[pos];
      if (t.is_constant()) {
        head_out_.push_back({true, 0, t.constant()});
      } else {
        auto it = var_slot_.find(t.var());
        MPQE_CHECK(it != var_slot_.end())
            << "unsafe head variable escaped validation";
        head_out_.push_back({false, it->second, Value()});
      }
    }

    stages_.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      const std::vector<size_t>& binding_slots = children_[k].binding_slots;
      Stage& stage = stages_.emplace_back(stage_width_[k], stage_width_[k + 1],
                                          binding_slots.size());
      stage.waiters = stage.contexts.EnsureIndex(binding_slots);
      if (lineage_on()) stage.next_sources.resize(k + 1);
    }
    head_row_.resize(head_out_.size());
    head_binding_.resize(head_binding_slots_.size());
  }

  std::optional<Tuple> BuildStage0(const Tuple& binding) const {
    Tuple ctx(stage_width_[0], Value());
    std::vector<bool> set(stage_width_[0], false);
    MPQE_CHECK(binding.size() == head_binding_slots_.size());
    for (size_t i = 0; i < binding.size(); ++i) {
      size_t slot = head_binding_slots_[i];
      if (set[slot] && ctx[slot] != binding[i]) {
        return std::nullopt;  // repeated head variable, clashing values
      }
      ctx[slot] = binding[i];
      set[slot] = true;
    }
    return ctx;
  }

  /// The head binding `ctx` serves, in head_binding_ (valid until the
  /// next call).
  const Tuple& HeadBindingOf(TupleRef ctx) {
    for (size_t i = 0; i < head_binding_slots_.size(); ++i) {
      head_binding_[i] = ctx[head_binding_slots_[i]];
    }
    return head_binding_;
  }

  /// Writes `ctx` extended with one `stage` child answer into
  /// stages_[stage - 1].next; false when a join check fails.
  bool Extend(TupleRef ctx, size_t stage, TupleRef values) {
    const ChildPlan& plan = children_[stage - 1];
    for (const auto& [ordinal, slot] : plan.checks) {
      if (ctx[slot] != values[ordinal]) return false;
    }
    Tuple& out = stages_[stage - 1].next;
    std::copy(ctx.begin(), ctx.end(), out.begin());
    for (const auto& [ordinal, slot] : plan.extensions) {
      out[slot] = values[ordinal];
    }
    return true;
  }

  void OnHeadRequest(const Message& m) {
    if (!head_seen_.insert(m.binding).second) return;
    head_outstanding_.emplace(m.binding, 0);
    dirty_.push_back(m.binding);
    std::optional<Tuple> ctx0 = BuildStage0(m.binding);
    if (ctx0.has_value()) AddContext(0, *ctx0, nullptr);
    FlushEnds();
  }

  // Vectorized arrival: the whole segment dedups against the request's
  // answer arena in one batch pass (one hashing sweep over the
  // contiguous block, capacity reserved once, one probe per row — no
  // per-row Tuple copies for duplicates), then the waiter-extension
  // loop runs over survivors only, reading rows in place from the
  // segment.
  // (The waiter list and request stay valid across AddContext: the
  // recursion only writes stages deeper than `stage` — see
  // AddContext — so neither this stage's answer arena nor the previous
  // stage's contexts and index change mid-loop.)
  void OnChildSegment(const Message& m) {
    const TupleSegment& segment = m.segment();
    size_t stage = pid_to_stage_.at(m.from);
    ChildReq& cr = Requested(stage, segment.binding);
    const BatchInsertResult& ins = cr.answers.InsertSegment(segment);
    duplicate_drops_ += segment.num_rows - ins.num_inserted;
    if (ins.num_inserted != 0) {
      if (lineage_on()) {
        for (size_t r = 0; r < segment.num_rows; ++r) {
          if (ins.inserted(r)) {
            cr.answer_ids.push_back(segment.row_lineage(r));
          }
        }
      }
      const Stage& waiting = stages_[stage - 1];
      const std::vector<size_t>* waiters =
          waiting.contexts.Probe(waiting.waiters, segment.binding);
      if (waiters != nullptr) {
        for (size_t r = 0; r < segment.num_rows; ++r) {
          if (!ins.inserted(r)) continue;
          uint64_t row_id = segment.row_lineage(r);
          trigger_lineage_ = row_id;
          ExtendWaiters(*waiters, stage, segment.row(r), row_id);
        }
      }
    }
    FlushEnds();
  }

  /// Extends every context waiting on this (stage, binding) stream
  /// (`waiters`: rows of stages_[stage - 1]) with one child answer.
  void ExtendWaiters(const std::vector<size_t>& waiters, size_t stage,
                     TupleRef values, uint64_t child_id) {
    Stage& waiting = stages_[stage - 1];
    for (size_t row : waiters) {
      if (!Extend(waiting.contexts.tuple(row), stage, values)) continue;
      if (lineage_on()) {
        // The waiter's stage - 1 input ids, then this answer's.
        const uint64_t* prefix = waiting.sources.data() + row * (stage - 1);
        std::copy(prefix, prefix + stage - 1, waiting.next_sources.begin());
        waiting.next_sources[stage - 1] = child_id;
      }
      AddContext(stage, waiting.next, waiting.next_sources.data());
    }
  }

  void OnChildEnd(const Message& m) {
    ChildReq& cr = Requested(pid_to_stage_.at(m.from), m.binding);
    MPQE_CHECK(!cr.ended) << "double end from child";
    cr.ended = true;
    --open_feeder_requests_;
    for (const Tuple& hb : cr.dependents) {
      auto oit = head_outstanding_.find(hb);
      MPQE_CHECK(oit != head_outstanding_.end() && oit->second > 0);
      --oit->second;
      dirty_.push_back(hb);
    }
    cr.dependents.clear();
    FlushEnds();
  }

  /// Adds context `ctx` at stage `k`; `srcs` holds its k input ids in
  /// sips order (lineage only). `ctx` and `srcs` must stay unchanged
  /// while the call runs: they are stage k - 1's scratch, which only a
  /// loop over stage k - 1's contexts or child k's answers writes.
  void AddContext(size_t k, TupleRef ctx, const uint64_t* srcs) {
    size_t n = children_.size();
    if (k == n) {
      ++full_contexts_;
      EmitHead(ctx, srcs);
      return;
    }
    Stage& s = stages_[k];
    if (!s.contexts.Insert(ctx)) {
      // First derivation wins for contexts too: an alternative way of
      // reaching the same partial join keeps the original sources.
      ++duplicate_drops_;
      return;
    }
    if (lineage_on()) s.sources.insert(s.sources.end(), srcs, srcs + k);
    size_t stage = k + 1;
    const ChildPlan& plan = children_[k];
    Tuple& nb = s.request_binding;
    for (size_t i = 0; i < nb.size(); ++i) nb[i] = ctx[plan.binding_slots[i]];

    auto [it, is_new] = s.requests.try_emplace(nb, plan.answer_arity);
    ChildReq& cr = it->second;
    if (is_new) Emit(plan.pid, MakeTupleRequest(nb));
    if (plan.expects_end) {
      if (is_new) ++open_feeder_requests_;
      const Tuple& hb = HeadBindingOf(ctx);
      if (!cr.ended && cr.dependents.insert(hb).second) {
        ++head_outstanding_[hb];
        dirty_.push_back(hb);
      }
    }
    // Join with already-received answers for this request. (`cr` stays
    // valid across the recursion: AddContext(stage, ...) only writes
    // stages > k, so the answer arena never grows under this loop and
    // tuple(i) views stay stable.)
    if (lineage_on()) std::copy(srcs, srcs + k, s.next_sources.begin());
    for (size_t i = 0; i < cr.answers.size(); ++i) {
      if (!Extend(ctx, stage, cr.answers.tuple(i))) continue;
      if (lineage_on()) s.next_sources[k] = cr.answer_ids[i];
      AddContext(stage, s.next, s.next_sources.data());
    }
  }

  void EmitHead(TupleRef ctx, const uint64_t* srcs) {
    for (size_t i = 0; i < head_out_.size(); ++i) {
      const HeadOut& h = head_out_[i];
      head_row_[i] = h.is_constant ? h.constant : ctx[h.slot];
    }
    Relation::InsertResult ins = head_answers_.InsertRow(head_row_);
    if (!ins.inserted) {
      ++duplicate_drops_;
      return;
    }
    uint64_t id = head_answers_.row_id(ins.row);
    if (lineage_on()) {
      // The rule firing: the head row exists because the subgoal tuples
      // in `srcs` (sips order) joined into a full context.
      RecordDerive(id, DeriveKind::kRuleFire, trigger_lineage_, srcs,
                    children_.size(), head_row_);
    }
    EmitTuple(Pid(gnode().parent), HeadBindingOf(ctx), head_row_, id);
  }

  void FlushEnds() {
    if (!gnode().scc_is_trivial) {
      dirty_.clear();
      return;
    }
    for (const Tuple& hb : dirty_) {
      auto it = head_outstanding_.find(hb);
      if (it == head_outstanding_.end() || it->second != 0) continue;
      if (head_ended_.insert(hb).second) {
        Emit(Pid(gnode().parent), MakeEnd(hb));
      }
    }
    dirty_.clear();
  }

  struct HeadOut {
    bool is_constant = false;
    size_t slot = 0;
    Value constant;
  };

  // Static plan.
  std::unordered_map<VariableId, size_t> var_slot_;
  std::vector<size_t> stage_width_;
  std::vector<size_t> head_binding_slots_;
  std::vector<ChildPlan> children_;
  std::vector<HeadOut> head_out_;
  std::unordered_map<ProcessId, size_t> pid_to_stage_;

  // Dynamic state.
  bool activated_ = false;
  std::vector<Stage> stages_;   // stages 0..n-1
  uint64_t full_contexts_ = 0;  // stage n: counted, not stored
  uint64_t trigger_lineage_ = kNoLineage;
  std::unordered_set<Tuple, TupleHash> head_seen_;
  std::unordered_set<Tuple, TupleHash> head_ended_;
  std::unordered_map<Tuple, int64_t, TupleHash> head_outstanding_;
  std::vector<Tuple> dirty_;
  Relation head_answers_;
  int64_t open_feeder_requests_ = 0;
  uint64_t duplicate_drops_ = 0;
  Tuple head_row_;      // EmitHead scratch
  Tuple head_binding_;  // HeadBindingOf scratch
};

}  // namespace

std::unique_ptr<NodeProcessBase> MakeNodeProcess(const EngineShared& shared,
                                                 NodeId id) {
  switch (shared.graph->node(id).kind) {
    case NodeKind::kGoal:
      return std::make_unique<GoalProcess>(shared, id);
    case NodeKind::kRule:
      return std::make_unique<RuleProcess>(shared, id);
    case NodeKind::kEdbLeaf:
      return std::make_unique<EdbProcess>(shared, id);
    case NodeKind::kCycleRef:
      return std::make_unique<CycleRefProcess>(shared, id);
  }
  MPQE_CHECK(false);
  return nullptr;
}

void SinkProcess::OnStart() {
  Send(root_pid_, MakeRelationRequest());
  Send(root_pid_, MakeTupleRequest(Tuple{}));
}

void SinkProcess::OnMessage(const Message& message) {
  switch (message.kind) {
    case MessageKind::kTupleSegment: {
      const TupleSegment& segment = message.segment();
      for (size_t r = 0; r < segment.num_rows; ++r) {
        answers_.Insert(segment.row(r));
      }
      break;
    }
    case MessageKind::kEnd:
      done_ = true;
      network().RequestStop();
      break;
    case MessageKind::kBatch:
      for (const Message& sub : message.batch()) OnMessage(sub);
      break;
    default:
      MPQE_CHECK(false) << "unexpected " << message.ToString();
  }
}

}  // namespace mpqe
