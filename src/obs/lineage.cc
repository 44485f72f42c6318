#include "obs/lineage.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"

namespace mpqe {

namespace {

// Renders "pred(a, _, 3)" from a predicate name and optional args
// (nullopt = existential position, printed as '_').
std::string AtomDisplay(const std::string& predicate,
                        const std::vector<std::optional<Value>>& args,
                        const SymbolTable* symbols) {
  std::string out = predicate + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].has_value() ? args[i]->ToString(symbols) : "_";
  }
  out += ")";
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ParseLineageQuery
// ---------------------------------------------------------------------------

StatusOr<LineageQuery> ParseLineageQuery(const std::string& text,
                                         SymbolTable& symbols) {
  auto bad = [&text](const std::string& why) {
    return InvalidArgumentError(
        StrCat("cannot parse query atom \"", text, "\": ", why));
  };
  size_t i = 0;
  auto skip_space = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  };
  auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };

  skip_space();
  size_t start = i;
  while (i < text.size() && is_ident(text[i])) ++i;
  if (i == start) return bad("expected a predicate name");
  LineageQuery query;
  query.predicate = text.substr(start, i - start);
  skip_space();
  if (i == text.size()) return query;  // zero arity, no parens
  if (text[i] != '(') return bad("expected '(' after the predicate name");
  ++i;
  skip_space();
  if (i < text.size() && text[i] == ')') {
    ++i;
  } else {
    for (;;) {
      skip_space();
      size_t arg_start = i;
      bool numeric = i < text.size() && (text[i] == '-' || text[i] == '+');
      if (numeric) ++i;
      while (i < text.size() && is_ident(text[i])) ++i;
      if (i == arg_start) return bad("expected an argument");
      std::string arg = text.substr(arg_start, i - arg_start);
      if (arg == "_") {
        query.args.emplace_back(std::nullopt);
      } else if (std::all_of(arg.begin() + (numeric ? 1 : 0), arg.end(),
                             [](char c) {
                               return std::isdigit(
                                   static_cast<unsigned char>(c));
                             }) &&
                 arg.size() > (numeric ? 1u : 0u)) {
        query.args.emplace_back(Value::Int(std::stoll(arg)));
      } else {
        query.args.emplace_back(symbols.Symbol(arg));
      }
      skip_space();
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      if (i < text.size() && text[i] == ')') {
        ++i;
        break;
      }
      return bad("expected ',' or ')'");
    }
  }
  skip_space();
  if (i != text.size()) return bad("trailing characters after ')'");
  return query;
}

// ---------------------------------------------------------------------------
// LineageReport
// ---------------------------------------------------------------------------

const LineageRecord* LineageReport::Find(uint64_t id) const {
  auto it = std::lower_bound(
      records.begin(), records.end(), id,
      [](const LineageRecord& r, uint64_t v) { return r.id < v; });
  if (it == records.end() || it->id != id) return nullptr;
  return &*it;
}

std::vector<const LineageRecord*> LineageReport::Match(
    const std::string& predicate,
    const std::vector<std::optional<Value>>& args) const {
  std::vector<const LineageRecord*> out;
  for (const LineageRecord& r : records) {
    if (r.kind == DeriveKind::kRuleFire) continue;
    if (r.predicate != predicate || r.atom_args.size() != args.size()) continue;
    bool ok = true;
    for (size_t i = 0; i < args.size(); ++i) {
      if (args[i].has_value() && r.atom_args[i].has_value() &&
          *args[i] != *r.atom_args[i]) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(&r);
  }
  std::sort(out.begin(), out.end(),
            [](const LineageRecord* a, const LineageRecord* b) {
              if (a->depth != b->depth) return a->depth < b->depth;
              return a->id < b->id;
            });
  return out;
}

std::string LineageReport::FormatProof(uint64_t id,
                                       const ProofFormatOptions& options) const {
  std::string out;
  size_t lines = 0;
  std::vector<uint64_t> path;  // ids on the current recursion path
  // Recursive lambda; the DAG is finite and ids strictly decrease
  // along inputs for well-formed reports, but guard anyway.
  auto render = [&](auto&& self, uint64_t rid, size_t indent) -> void {
    if (lines >= options.max_lines) return;
    std::string pad(indent * 2, ' ');
    const LineageRecord* r = Find(rid);
    if (r == nullptr) {
      out += StrCat(pad, "(unknown #", rid, ")\n");
      ++lines;
      return;
    }
    if (std::find(path.begin(), path.end(), rid) != path.end()) {
      out += StrCat(pad, "(cycle #", rid, ")\n");
      ++lines;
      return;
    }
    out += pad;
    out += r->display.empty() ? StrCat("tuple#", rid) : r->display;
    out += StrCat("  (", DeriveKindToString(r->kind));
    if (options.include_ids) out += StrCat(" #", rid);
    out += ")\n";
    ++lines;
    path.push_back(rid);
    for (uint64_t input : r->inputs) self(self, input, indent + 1);
    path.pop_back();
  };
  render(render, id, 0);
  return out;
}

std::string LineageReport::ToJson() const {
  std::string out = "{\n  \"schema\": \"mpqe-lineage-v1\",\n";
  if (query_id != 0) out += StrCat("  \"query_id\": ", query_id, ",\n");
  out += StrCat("  \"root_node\": ", root_node, ",\n");
  out += StrCat("  \"stats\": {\"edb_facts\": ", edb_facts,
                ", \"derived\": ", derived, ", \"max_depth\": ", max_depth,
                "},\n");
  out += "  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const LineageRecord& r = records[i];
    out += StrCat("    {\"id\": ", r.id, ", \"kind\": \"",
                  DeriveKindToString(r.kind), "\", \"depth\": ", r.depth);
    if (r.node >= 0) out += StrCat(", \"node\": ", r.node);
    if (r.kind == DeriveKind::kRuleFire) {
      out += StrCat(", \"rule\": ", r.rule_index);
    }
    if (r.source_msg != kNoTupleId) {
      out += StrCat(", \"source\": ", r.source_msg);
    }
    if (!r.predicate.empty()) {
      out += StrCat(", \"predicate\": \"", JsonEscape(r.predicate), "\"");
    }
    out += StrCat(", \"display\": \"", JsonEscape(r.display), "\"");
    out += ", \"values\": [";
    for (size_t v = 0; v < r.values.size(); ++v) {
      if (v > 0) out += ", ";
      out += StrCat("\"", JsonEscape(r.values[v].ToString()), "\"");
    }
    out += "]";
    if (r.kind != DeriveKind::kEdbFact) {
      out += ", \"inputs\": [";
      for (size_t v = 0; v < r.inputs.size(); ++v) {
        if (v > 0) out += ", ";
        out += StrCat(r.inputs[v]);
      }
      out += "]";
    }
    out += i + 1 < records.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// LineageCollector
// ---------------------------------------------------------------------------

void LineageCollector::AttachGraph(const RuleGoalGraph* graph,
                                   const SymbolTable* symbols) {
  graph_ = graph;
  symbols_ = symbols;
}

void LineageCollector::AttachEdbRelation(const std::string& name,
                                         const Relation* relation) {
  MPQE_CHECK(relation != nullptr);
  MPQE_CHECK(relation->lineage_enabled())
      << "EnableLineage(" << name << ") before AttachEdbRelation";
  std::lock_guard<std::mutex> lock(mutex_);
  EdbRange range;
  range.name = name;
  range.relation = relation;
  range.first = relation->empty() ? 0 : relation->row_id(0);
  edb_.push_back(std::move(range));
}

void LineageCollector::Record(const DeriveEvent& event) {
  LineageRecord record;
  record.id = event.tuple_id;
  record.kind = event.kind;
  record.node = event.node;
  record.rule_index = event.rule_index;
  record.source_msg = event.source_msg;
  record.values = event.values.ToTuple();
  record.inputs.assign(event.inputs, event.inputs + event.num_inputs);
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

void LineageCollector::RecordBatch(const DeriveBatchEvent& event) {
  const TupleSegment& segment = *event.segment;
  BatchEntry entry;
  entry.node = event.node;
  entry.kind = event.kind;
  entry.segment = event.segment;
  entry.input_deltas.reserve(segment.num_rows);
  for (size_t i = 0; i < segment.num_rows; ++i) {
    entry.input_deltas.push_back(segment.lineage[i] - event.inputs[i]);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  batch_rows_ += segment.num_rows;
  batches_.push_back(std::move(entry));
}

size_t LineageCollector::record_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size() + batch_rows_;
}

LineageReport LineageCollector::Finalize() const {
  LineageReport report;
  report.query_id = query_id_;
  std::vector<EdbRange> edb;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    report.records = records_;
    report.records.reserve(records_.size() + batch_rows_);
    // Expand the batched segments: row i of a batch is a single-input
    // derivation (id = lineage column, input = id - delta), exactly
    // what one DeriveEvent per row would have recorded.
    for (const BatchEntry& b : batches_) {
      const TupleSegment& segment = *b.segment;
      for (size_t i = 0; i < segment.num_rows; ++i) {
        LineageRecord r;
        r.id = segment.lineage[i];
        r.kind = b.kind;
        r.node = b.node;
        uint64_t input = r.id - b.input_deltas[i];
        r.source_msg = input;
        r.values = segment.row(i).ToTuple();
        r.inputs.push_back(input);
        report.records.push_back(std::move(r));
      }
    }
    edb = edb_;
  }

  // Resolve every referenced-but-underived id into an EDB leaf record
  // (only referenced base facts enter the report, not whole relations).
  std::unordered_set<uint64_t> derived_ids;
  derived_ids.reserve(report.records.size());
  for (const LineageRecord& r : report.records) derived_ids.insert(r.id);
  std::unordered_set<uint64_t> leaves;
  for (const LineageRecord& r : report.records) {
    for (uint64_t input : r.inputs) {
      if (derived_ids.count(input) == 0) leaves.insert(input);
    }
    if (r.source_msg != kNoTupleId && derived_ids.count(r.source_msg) == 0) {
      leaves.insert(r.source_msg);
    }
  }
  for (uint64_t id : leaves) {
    LineageRecord leaf;
    leaf.id = id;
    leaf.kind = DeriveKind::kEdbFact;
    for (const EdbRange& range : edb) {
      if (id < range.first) continue;
      size_t row = static_cast<size_t>(id - range.first);
      if (row >= range.relation->size() || range.relation->row_id(row) != id) {
        continue;
      }
      leaf.predicate = range.name;
      leaf.values = range.relation->tuple(row).ToTuple();
      for (const Value& v : leaf.values) leaf.atom_args.emplace_back(v);
      leaf.display = AtomDisplay(range.name, leaf.atom_args, symbols_);
      break;
    }
    if (leaf.display.empty()) leaf.display = StrCat("fact#", id);
    report.records.push_back(std::move(leaf));
  }

  std::sort(report.records.begin(), report.records.end(),
            [](const LineageRecord& a, const LineageRecord& b) {
              return a.id < b.id;
            });

  // Minimal proof depths in one forward pass: records are sorted by id
  // and a well-formed record's inputs all carry smaller ids, so every
  // input's depth is final when its consumer is visited. Unresolvable
  // or out-of-order inputs (malformed data) are skipped defensively.
  for (LineageRecord& r : report.records) {
    if (r.kind == DeriveKind::kEdbFact) {
      r.depth = 0;
      ++report.edb_facts;
      continue;
    }
    ++report.derived;
    int64_t depth = 0;
    for (uint64_t input : r.inputs) {
      if (input >= r.id) continue;
      const LineageRecord* in = report.Find(input);
      if (in != nullptr) depth = std::max(depth, in->depth + 1);
    }
    r.depth = depth;
    report.max_depth = std::max(report.max_depth, depth);
  }

  // Bake displays from the graph's node templates so the report stays
  // meaningful after the graph is gone.
  if (graph_ != nullptr) {
    report.root_node = graph_->root();
    const PredicatePool& predicates = graph_->program().predicates();
    for (LineageRecord& r : report.records) {
      if (r.kind == DeriveKind::kEdbFact || r.node < 0 ||
          static_cast<size_t>(r.node) >= graph_->size()) {
        continue;
      }
      const GraphNode& n = graph_->node(r.node);
      if (r.kind == DeriveKind::kRuleFire) {
        r.predicate = predicates.Name(n.rule.head.predicate);
        r.display = graph_->NodeLabel(r.node, symbols_);
        continue;
      }
      // Goal union: rebuild the full atom image from the node's atom
      // template — constants at c positions, the stored values at the
      // other non-existential positions, nullopt at e positions.
      r.predicate = predicates.Name(n.atom.predicate);
      std::vector<size_t> out_positions = n.OutputPositions();
      r.atom_args.assign(n.atom.args.size(), std::nullopt);
      for (size_t i = 0;
           i < out_positions.size() && i < r.values.size(); ++i) {
        r.atom_args[out_positions[i]] = r.values[i];
      }
      r.display = AtomDisplay(r.predicate, r.atom_args, symbols_);
    }
  }
  for (LineageRecord& r : report.records) {
    if (r.display.empty()) {
      r.display = StrCat("node", r.node, TupleToString(r.values, symbols_));
    }
  }
  return report;
}

}  // namespace mpqe
