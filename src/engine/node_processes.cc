#include "engine/node_processes.h"

#include <algorithm>
#include <chrono>
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

// The largest block glibc's per-thread malloc cache holds. Each process
// object and each rule stage is one block and stays at or under it: a
// layout that crossed it made every rule node's construction
// consolidate the previous session's small frees, and wiring p50 read
// 29.7 against 18.8 µs on the point-lookup graph. Pool threads live as
// long as the engine, so the caches they keep warm are worth keeping.
constexpr size_t kMallocCacheMaxBytes = 1032;

// Rows of one arena grouped by an interned id (a binding or request id),
// each group chained in insertion order: the flat stand-in for a hash
// index on a key that already has an id.
class RowChains {
 public:
  static constexpr uint32_t kEnd = ~uint32_t{0};

  /// Appends arena row `row` (rows arrive in order) to `id`'s chain.
  void Append(size_t id, size_t row) {
    if (id >= ends_.size()) ends_.resize(id + 1, {kEnd, kEnd});
    MPQE_CHECK(row == next_.size());
    next_.push_back(kEnd);
    auto& [first, last] = ends_[id];
    (last == kEnd ? first : next_[last]) = static_cast<uint32_t>(row);
    last = static_cast<uint32_t>(row);
  }
  uint32_t first(size_t id) const {
    return id < ends_.size() ? ends_[id].first : kEnd;
  }
  uint32_t next(size_t row) const { return next_[row]; }

 private:
  std::vector<std::pair<uint32_t, uint32_t>> ends_;  // by id: first, last
  std::vector<uint32_t> next_;                        // by row
};

// Per-consumer stream state at a producer (§3.1: "A goal node with
// multiple out-edges needs to furnish answers in separate streams to
// each successor node ... different successors normally will have
// requested different subsets of the total temporary relation"),
// indexed by the producer's binding ids.
struct ConsumerStream {
  static constexpr uint8_t kNone = 0, kOpen = 1, kEnded = 2;
  ProcessId pid = kNoProcess;
  bool external = false;       // in a different SCC (or the sink)
  std::vector<uint8_t> state;  // by binding id; ids past the end: kNone
  size_t open = 0;             // subscribed bindings not yet ended

  uint8_t At(size_t id) const { return id < state.size() ? state[id] : kNone; }
};

// ---------------------------------------------------------------------------
// GoalProcess
// ---------------------------------------------------------------------------

class GoalProcess : public NodeProcessBase {
 public:
  GoalProcess(const EngineShared& shared, NodeId id)
      : NodeProcessBase(shared, id),
        answers_(gnode().OutputPositions().size()),
        requested_(
            PositionsWithClass(gnode().adornment, BindingClass::kDynamic)
                .size()) {
    if (lineage_on()) {
      answers_.EnableLineage(shared_.lineage->ids());
    }
    for (NodeId rc : gnode().rule_children) {
      if (!SameScc(rc)) ++ending_children_;
    }
  }

  bool LocallyIdle() const override { return open_feeder_requests_ == 0; }

  bool HasOpenCustomerWork() const override {
    for (const ConsumerStream& c : consumers_) {
      if (c.external && c.open != 0) return true;
    }
    return false;
  }

  // Every interned binding was requested when it was interned, so the
  // ids below the watermark are exactly the bindings requested so far.
  void SnapshotForConclusion() override { snapshot_ = requested_.size(); }

  void ConcludeScc() override {
    // The component was quiescent with feeders ended throughout the
    // confirming waves: every binding in the snapshot is final.
    // Bindings requested after the snapshot belong to the next
    // protocol round.
    for (size_t id = 0; id < snapshot_; ++id) completed_[id] = true;
    for (ConsumerStream& c : consumers_) {
      if (!c.external) continue;
      for (size_t id = 0; id < snapshot_ && c.open != 0; ++id) {
        EndStream(c, id);
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

  /// The stream state of consumer `pid`, created at its first request.
  ConsumerStream& Consumer(ProcessId pid) {
    for (ConsumerStream& c : consumers_) {
      if (c.pid == pid) return c;
    }
    consumers_.push_back({pid, IsExternal(pid), {}, 0});
    return consumers_.back();
  }

  void OnRelationRequest(const Message& m) {
    Consumer(m.from);
    if (!activated_) {
      activated_ = true;
      for (NodeId rc : gnode().rule_children) {
        Emit(Pid(rc), MakeRelationRequest());
      }
    }
  }

  void OnTupleRequest(const Message& m) {
    const auto [id, is_new] = requested_.InsertRow(m.binding);
    if (is_new) {
      outstanding_.push_back(ending_children_);
      completed_.push_back(false);
    }
    ConsumerStream& c = Consumer(m.from);
    if (c.At(id) != ConsumerStream::kNone) return;  // duplicate request
    c.state.resize(std::max(c.state.size(), id + 1), ConsumerStream::kNone);
    c.state[id] = ConsumerStream::kOpen;
    ++c.open;

    // Replay the stored stream restricted to this binding as shared
    // segments of at most the row cap.
    if (answer_rows_.first(id) != RowChains::kEnd) {
      const size_t cap = shared_.segment_max_rows;
      auto replay = std::make_shared<TupleSegment>();
      replay->binding.assign(m.binding);
      replay->arity = answers_.arity();
      for (uint32_t pos = answer_rows_.first(id); pos != RowChains::kEnd;
           pos = answer_rows_.next(pos)) {
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
    if (completed_[id]) {
      if (c.external) EndStream(c, id);
      return;
    }
    // Coalesced components may be entered at any member; tell the
    // leader there is work to conclude (footnote 4).
    if (c.external && !gnode().scc_is_trivial) {
      termination_.NotifyExternalWork();
    }
    if (is_new) {
      open_feeder_requests_ += ending_children_;
      for (NodeId rc : gnode().rule_children) {
        Emit(Pid(rc), MakeTupleRequest(m.binding));
      }
      if (gnode().rule_children.empty()) {
        // No rule unified with this goal: the relation is empty/final.
        CompleteBinding(id);
      }
    }
  }

  // Vectorized union: absorb the whole segment through the batch
  // insert kernel (one hashing pass, one capacity reservation, one
  // dedup probe per row), then hand each consumer subscribed to the
  // segment's binding one shared out-segment of the genuinely new rows.
  // Every row echoes that binding at the d positions (a rule node's
  // head d arguments are variables bound from it), so a stream never
  // splits. With nothing deduped and lineage off, the inbound shared
  // segment handle is forwarded wholesale: zero row copies.
  void OnTupleSegment(const Message& m) {
    const TupleSegment& in = m.segment();
    if (in.num_rows == 0) return;
    const BatchInsertResult& ins = answers_.InsertSegment(in);
    duplicate_drops_ += in.num_rows - ins.num_inserted;
    if (ins.num_inserted == 0) return;
    const size_t id = requested_.Find(in.binding);
    MPQE_CHECK(id != Relation::kNoRow)
        << "answers for an unrequested binding at goal node " << node_id_;
    for (size_t r = 0; r < in.num_rows; ++r) {
      if (ins.inserted(r)) answer_rows_.Append(id, ins.rows[r]);
    }
    if (!lineage_on() && ins.all_inserted()) {
      Forward(id, m.segment_ptr());
      return;
    }
    // Otherwise the new rows go out in fresh segments of at most the
    // row cap, each recorded as one derive batch.
    std::shared_ptr<TupleSegment> out;
    std::vector<uint64_t> inputs;  // one per row (lineage only)
    auto flush = [&] {
      out->CheckConsistent();
      if (lineage_on()) {
        RecordDeriveBatch(DeriveKind::kUnion, out, inputs);
        inputs.clear();
      }
      Forward(id, out);
      out.reset();
    };
    for (size_t r = 0; r < in.num_rows; ++r) {
      if (!ins.inserted(r)) continue;
      if (out == nullptr) {
        out = std::make_shared<TupleSegment>();
        out->binding = in.binding;
        out->arity = in.arity;
      }
      out->AppendRow(in.row(r));
      if (lineage_on()) {
        out->lineage.push_back(answers_.row_id(ins.rows[r]));
        inputs.push_back(in.row_lineage(r));
      }
      if (out->num_rows >= shared_.segment_max_rows) flush();
    }
    if (out != nullptr) flush();
  }

  /// Hands `segment`, on binding `id`, to every consumer subscribed to
  /// it.
  void Forward(size_t id, const std::shared_ptr<const TupleSegment>& segment) {
    for (const ConsumerStream& c : consumers_) {
      if (c.At(id) != ConsumerStream::kNone) EmitSegment(c.pid, segment);
    }
  }

  void OnEnd(const Message& m) {
    const size_t id = requested_.Find(m.binding);
    MPQE_CHECK(id != Relation::kNoRow)
        << "end for unknown binding at goal node " << node_id_;
    MPQE_CHECK(outstanding_[id] > 0);
    --open_feeder_requests_;
    if (--outstanding_[id] == 0 && gnode().scc_is_trivial) {
      CompleteBinding(id);
    }
  }

  void CompleteBinding(size_t id) {
    completed_[id] = true;
    for (ConsumerStream& c : consumers_) {
      if (c.external) EndStream(c, id);
    }
  }

  /// Ends consumer `c`'s stream for binding `id` if it is open.
  void EndStream(ConsumerStream& c, size_t id) {
    if (c.At(id) != ConsumerStream::kOpen) return;
    c.state[id] = ConsumerStream::kEnded;
    --c.open;
    Emit(c.pid, MakeEnd(requested_.tuple(id).ToTuple()));
  }

  size_t ending_children_ = 0;

  bool activated_ = false;
  std::vector<ConsumerStream> consumers_;  // in first-request order
  Relation answers_;
  // The binding table: a requested binding's row is its id, in
  // first-request order. Per-id state is indexed by it.
  Relation requested_;
  RowChains answer_rows_;  // answers_ rows by binding id (replays)
  std::vector<size_t> outstanding_;  // by id: feeder ends still awaited
  std::vector<bool> completed_;      // by id
  size_t snapshot_ = 0;  // ids below it were requested before the snapshot
  int64_t open_feeder_requests_ = 0;
  uint64_t duplicate_drops_ = 0;
};

// ---------------------------------------------------------------------------
// CycleRefProcess
// ---------------------------------------------------------------------------

class CycleRefProcess : public NodeProcessBase {
 public:
  CycleRefProcess(const EngineShared& shared, NodeId id)
      : NodeProcessBase(shared, id),
        requested_(
            PositionsWithClass(gnode().adornment, BindingClass::kDynamic)
                .size()) {
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
        if (requested_.Insert(m.binding)) {
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
  Relation requested_;  // the binding table
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
    key_ = std::move(plan.key_template);
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
    // The key's constant slots keep the access plan's template values.
    for (const auto& [key_slot, binding_ordinal] : key_d_slots_) {
      key_[key_slot] = m.binding[binding_ordinal];
    }
    if (has_index_) {
      const std::vector<size_t>* hits = relation_->Probe(index_handle_, key_);
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
          match = t[key_positions_[i]] == key_[i];
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
  Tuple key_;  // probe key scratch, d slots rewritten per request
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
// Stages 0..n-1 each keep their contexts in one Relation, chained by
// the tuple request they wait on. Full contexts (stage n) go straight
// to the head dedup: each (waiter, answer) pair is joined exactly once
// and gives a distinct context, so a store for them would drop nothing
// (DESIGN.md §13).
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
    for (const auto& s : stages_) ctx += s->contexts.size();
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

  // Join state of stage k < n: its contexts, the requests they made to
  // child k + 1, and that child's answers.
  struct Stage {
    Stage(size_t width, size_t next_width, size_t binding_width,
          size_t answer_arity)
        : contexts(width),
          requests(binding_width),
          answers(1 + answer_arity),
          next(next_width),
          request_binding(binding_width) {}
    // The arena stores the contexts and its dedup table drops repeats;
    // `waiters` groups them by the request they wait on.
    Relation contexts;
    RowChains waiters;
    // Each context's k input ids in sips order, flat and parallel to
    // the rows (lineage only).
    std::vector<uint64_t> sources;
    // The request binding table (row = request id); by request id,
    // whether the child ended it.
    Relation requests;
    std::vector<bool> ended;
    // Every answer of child k + 1 as one row [values..., request id]:
    // the arena's dedup table drops an answer its request already got,
    // and a row reads as the answer's values (Extend ignores the id).
    // `answer_rows` groups the rows by request.
    Relation answers;
    RowChains answer_rows;
    // Lineage ids parallel to `answers` rows (lineage only; message
    // ids, not arena row ids).
    std::vector<uint64_t> answer_ids;
    // Scratch: a stage k + 1 context being built from one of these
    // and a child answer, its k + 1 input ids (lineage only), the
    // binding a new context requests, and a segment's tagged rows.
    Tuple next;
    std::vector<uint64_t> next_sources;
    Tuple request_binding;
    std::vector<Value> tagged;
  };
  static_assert(sizeof(Stage) <= kMallocCacheMaxBytes,
                "a rule stage must fit glibc's per-thread malloc cache");

  /// The stage whose child is process `from`.
  size_t StageOf(ProcessId from) const {
    size_t k = 0;
    while (children_.at(k).pid != from) ++k;
    return k + 1;
  }

  /// The id of this node's request for `binding` to the child of stage
  /// `s` (AddContext opens it before the child can answer or end it).
  static size_t RequestId(const Stage& s, TupleRef binding) {
    const size_t id = s.requests.Find(binding);
    MPQE_CHECK(id != Relation::kNoRow)
        << "child stream for a binding this rule node never requested";
    return id;
  }

  void BuildPlan() {
    const Rule& rule = gnode().rule;
    const SipsResult& sips = gnode().sips;
    const Adornment& head_adornment = gnode().adornment;
    size_t n = rule.body.size();
    MPQE_CHECK(sips.order.size() == n);
    std::unordered_map<VariableId, size_t> var_slot;
    std::vector<size_t> stage_width;  // context width per stage

    // Stage 0: head d variables, in head d-position order.
    for (size_t i = 0; i < rule.head.args.size(); ++i) {
      if (head_adornment[i] != BindingClass::kDynamic) continue;
      const Term& t = rule.head.args[i];
      MPQE_CHECK(t.is_variable()) << "class d on a constant argument";
      auto [it, inserted] = var_slot.emplace(t.var(), var_slot.size());
      head_binding_slots_.push_back(it->second);
    }
    stage_width.push_back(var_slot.size());

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

      // d-position binding sources.
      for (size_t i = 0; i < atom.args.size(); ++i) {
        if (adornment[i] != BindingClass::kDynamic) continue;
        auto it = var_slot.find(atom.args[i].var());
        MPQE_CHECK(it != var_slot.end())
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
        auto [it, inserted] = var_slot.emplace(t.var(), var_slot.size());
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
      stage_width.push_back(var_slot.size());
    }

    // Head output plan: constant or bound slot per non-e head position.
    for (size_t pos : gnode().OutputPositions()) {
      const Term& t = rule.head.args[pos];
      if (t.is_constant()) {
        head_out_.push_back({true, 0, t.constant()});
      } else {
        auto it = var_slot.find(t.var());
        MPQE_CHECK(it != var_slot.end())
            << "unsafe head variable escaped validation";
        head_out_.push_back({false, it->second, Value()});
      }
    }

    stages_.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      Stage& stage = *stages_.emplace_back(std::make_unique<Stage>(
          stage_width[k], stage_width[k + 1],
          children_[k].binding_slots.size(), children_[k].answer_arity));
      if (lineage_on()) stage.next_sources.resize(k + 1);
    }
    heads_ = Relation(head_binding_slots_.size());
    stage0_.resize(stage_width[0]);
    head_row_.resize(head_out_.size());
    head_binding_.resize(head_binding_slots_.size());
  }

  /// Writes the stage-0 context for head `binding` into stage0_; false
  /// when a repeated head variable gets clashing values.
  bool BuildStage0(TupleRef binding) {
    MPQE_CHECK(binding.size() == head_binding_slots_.size());
    for (size_t i = 0; i < binding.size(); ++i) {
      stage0_[head_binding_slots_[i]] = binding[i];
    }
    for (size_t i = 0; i < binding.size(); ++i) {
      if (stage0_[head_binding_slots_[i]] != binding[i]) return false;
    }
    return true;
  }

  /// The head binding `ctx` serves, in head_binding_ (valid until the
  /// next call).
  const Tuple& HeadBindingOf(TupleRef ctx) {
    for (size_t i = 0; i < head_binding_slots_.size(); ++i) {
      head_binding_[i] = ctx[head_binding_slots_[i]];
    }
    return head_binding_;
  }

  /// The id of the head binding `ctx` serves (interned when its head
  /// request arrived).
  size_t HeadId(TupleRef ctx) { return heads_.Find(HeadBindingOf(ctx)); }

  /// Writes `ctx` extended with one `stage` child answer into
  /// stages_[stage - 1].next; false when a join check fails.
  bool Extend(TupleRef ctx, size_t stage, TupleRef values) {
    const ChildPlan& plan = children_[stage - 1];
    for (const auto& [ordinal, slot] : plan.checks) {
      if (ctx[slot] != values[ordinal]) return false;
    }
    Tuple& out = stages_[stage - 1]->next;
    std::copy(ctx.begin(), ctx.end(), out.begin());
    for (const auto& [ordinal, slot] : plan.extensions) {
      out[slot] = values[ordinal];
    }
    return true;
  }

  void OnHeadRequest(const Message& m) {
    const auto [head, is_new] = heads_.InsertRow(m.binding);
    if (!is_new) return;
    if (gnode().scc_is_trivial) {
      head_state_.emplace_back();
      dirty_.push_back(head);
    }
    if (BuildStage0(m.binding)) AddContext(0, stage0_, nullptr);
    FlushEnds();
  }

  // Vectorized arrival: the segment's rows, tagged with their request
  // id, dedup against the stage's answer arena in one batch pass (one
  // hashing sweep over the contiguous block, capacity reserved once,
  // one probe per row — no per-row Tuple copies for duplicates), then
  // the waiter-extension loop runs over survivors only, reading rows in
  // place from the segment.
  // (The waiter chain and the arena stay valid across AddContext: the
  // recursion only writes stages deeper than `stage` — see
  // AddContext — so neither this stage's answer arena nor its contexts
  // change mid-loop.)
  void OnChildSegment(const Message& m) {
    const TupleSegment& segment = m.segment();
    const size_t stage = StageOf(m.from);
    Stage& s = *stages_[stage - 1];
    MPQE_CHECK(segment.arity + 1 == s.answers.arity())
        << "segment arity " << segment.arity << " at stage " << stage;
    const size_t req = RequestId(s, segment.binding);
    s.tagged.clear();
    for (size_t r = 0; r < segment.num_rows; ++r) {
      TupleRef row = segment.row(r);
      s.tagged.insert(s.tagged.end(), row.begin(), row.end());
      s.tagged.push_back(Value::Int(static_cast<int64_t>(req)));
    }
    const BatchInsertResult& ins =
        s.answers.InsertBlock(s.tagged.data(), segment.num_rows);
    duplicate_drops_ += segment.num_rows - ins.num_inserted;
    for (size_t r = 0; r < segment.num_rows; ++r) {
      if (!ins.inserted(r)) continue;
      s.answer_rows.Append(req, ins.rows[r]);
      if (lineage_on()) s.answer_ids.push_back(segment.row_lineage(r));
    }
    for (size_t r = 0; r < segment.num_rows; ++r) {
      if (!ins.inserted(r)) continue;
      uint64_t row_id = segment.row_lineage(r);
      trigger_lineage_ = row_id;
      ExtendWaiters(stage, req, segment.row(r), row_id);
    }
    FlushEnds();
  }

  /// Extends every context of stages_[stage - 1] waiting on request
  /// `req` with one child answer.
  void ExtendWaiters(size_t stage, size_t req, TupleRef values,
                     uint64_t child_id) {
    Stage& waiting = *stages_[stage - 1];
    for (uint32_t row = waiting.waiters.first(req); row != RowChains::kEnd;
         row = waiting.waiters.next(row)) {
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
    const size_t stage = StageOf(m.from);
    Stage& s = *stages_[stage - 1];
    const size_t req = RequestId(s, m.binding);
    MPQE_CHECK(!s.ended[req]) << "double end from child";
    s.ended[req] = true;
    --open_feeder_requests_;
    if (gnode().scc_is_trivial) {
      // Every context waiting on the request counted it once toward
      // its head's open requests (AddContext).
      for (uint32_t row = s.waiters.first(req); row != RowChains::kEnd;
           row = s.waiters.next(row)) {
        const size_t head = HeadId(s.contexts.tuple(row));
        MPQE_CHECK(head_state_[head].waiting > 0);
        --head_state_[head].waiting;
        dirty_.push_back(head);
      }
    }
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
    Stage& s = *stages_[k];
    const auto [row, inserted] = s.contexts.InsertRow(ctx);
    if (!inserted) {
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

    const auto [req, is_new] = s.requests.InsertRow(nb);
    if (is_new) {
      s.ended.push_back(false);
      Emit(plan.pid, MakeTupleRequest(nb));
      if (plan.expects_end) ++open_feeder_requests_;
    }
    s.waiters.Append(req, row);
    // A trivial-SCC node ends a head once no context of it waits on an
    // open request; inside an SCC the Fig. 2 protocol ends it instead.
    if (gnode().scc_is_trivial && !s.ended[req]) {
      ++head_state_[HeadId(ctx)].waiting;
    }
    // Join with already-received answers for this request. (The answer
    // chain stays valid across the recursion: AddContext(stage, ...)
    // only writes stages > k, so this stage's arena never grows under
    // this loop and its tuple views stay stable.)
    if (lineage_on()) std::copy(srcs, srcs + k, s.next_sources.begin());
    for (uint32_t a = s.answer_rows.first(req); a != RowChains::kEnd;
         a = s.answer_rows.next(a)) {
      if (!Extend(ctx, stage, s.answers.tuple(a))) continue;
      if (lineage_on()) s.next_sources[k] = s.answer_ids[a];
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

  // Ends every dirty head with no open request left (trivial SCCs
  // only: elsewhere nothing marks a head dirty).
  void FlushEnds() {
    for (size_t head : dirty_) {
      HeadState& h = head_state_[head];
      if (h.waiting != 0 || h.ended) continue;
      h.ended = true;
      Emit(Pid(gnode().parent), MakeEnd(heads_.tuple(head).ToTuple()));
    }
    dirty_.clear();
  }

  struct HeadOut {
    bool is_constant = false;
    size_t slot = 0;
    Value constant;
  };

  // A head's end state in a trivial SCC: its contexts waiting on open
  // requests, and whether it was ended.
  struct HeadState {
    uint32_t waiting = 0;
    bool ended = false;
  };

  // Static plan.
  std::vector<size_t> head_binding_slots_;
  std::vector<ChildPlan> children_;
  std::vector<HeadOut> head_out_;

  // Dynamic state.
  bool activated_ = false;
  // Stages 0..n-1, one block each: a stage's three arenas would make
  // one block of every stage too big for malloc's per-thread cache.
  std::vector<std::unique_ptr<Stage>> stages_;
  uint64_t full_contexts_ = 0;  // stage n: counted, not stored
  uint64_t trigger_lineage_ = kNoLineage;
  // The head binding table (row = head id), and by head id, in a
  // trivial SCC, its end state. dirty_ holds heads to check for an end.
  Relation heads_{0};
  std::vector<HeadState> head_state_;
  std::vector<size_t> dirty_;
  Relation head_answers_;
  int64_t open_feeder_requests_ = 0;
  uint64_t duplicate_drops_ = 0;
  Tuple stage0_;        // BuildStage0 scratch
  Tuple head_row_;      // EmitHead scratch
  Tuple head_binding_;  // HeadBindingOf scratch
};

static_assert(sizeof(GoalProcess) <= kMallocCacheMaxBytes,
              "a goal process must fit glibc's per-thread malloc cache");
static_assert(sizeof(RuleProcess) <= kMallocCacheMaxBytes,
              "a rule process must fit glibc's per-thread malloc cache");

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
