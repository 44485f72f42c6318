#include "graph/rule_goal_graph.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "datalog/unify.h"
#include "sips/adorned_printer.h"

namespace mpqe {

const char* NodeKindToString(NodeKind kind) {
  switch (kind) {
    case NodeKind::kGoal:
      return "goal";
    case NodeKind::kRule:
      return "rule";
    case NodeKind::kEdbLeaf:
      return "edb";
    case NodeKind::kCycleRef:
      return "cycle_ref";
  }
  return "?";
}

std::vector<NodeId> GraphNode::Suppliers() const {
  std::vector<NodeId> out;
  out.insert(out.end(), rule_children.begin(), rule_children.end());
  out.insert(out.end(), subgoal_children.begin(), subgoal_children.end());
  if (kind == NodeKind::kCycleRef && cycle_source != kNoNode) {
    out.push_back(cycle_source);
  }
  return out;
}

std::vector<size_t> GraphNode::OutputPositions() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < adornment.size(); ++i) {
    if (adornment[i] != BindingClass::kExistential) out.push_back(i);
  }
  return out;
}

// Performs the top-down construction and the post-construction SCC /
// BFST analysis.
class GraphBuilder {
 public:
  GraphBuilder(RuleGoalGraph& graph, const SipsStrategy& strategy,
               const GraphBuildOptions& options)
      : g_(graph), strategy_(strategy), options_(options) {}

  Status Run() {
    g_.coalesced_ = options_.coalesce_nodes;
    MPQE_RETURN_IF_ERROR(CreateRoot());
    while (!pending_.empty()) {
      NodeId id = pending_.front();
      pending_.pop_front();
      MPQE_RETURN_IF_ERROR(ExpandGoal(id));
    }
    AnalyzeSccs();
    BuildBfsts();
    return Status::Ok();
  }

 private:
  StatusOr<NodeId> NewNode(NodeKind kind, NodeId parent) {
    if (g_.nodes_.size() >= options_.max_nodes) {
      return ResourceExhaustedError(
          StrCat("rule/goal graph exceeded max_nodes=", options_.max_nodes,
                 "; the IDB induces too many distinct goal variants "
                 "(nodes are not coalesced, see DESIGN.md)"));
    }
    GraphNode node;
    node.id = static_cast<NodeId>(g_.nodes_.size());
    node.kind = kind;
    node.parent = parent;
    node.depth = parent == kNoNode ? 0 : g_.nodes_[parent].depth + 1;
    g_.nodes_.push_back(std::move(node));
    return g_.nodes_.back().id;
  }

  Status CreateRoot() {
    PredicateId goal = g_.program_->GoalPredicate();
    MPQE_CHECK(goal >= 0) << "program must Validate() before Build()";
    Atom top;
    top.predicate = goal;
    size_t arity = g_.program_->predicates().Arity(goal);
    for (size_t i = 0; i < arity; ++i) {
      top.args.push_back(Term::Var(g_.variables_.Fresh("ans")));
    }
    MPQE_ASSIGN_OR_RETURN(NodeId root, NewNode(NodeKind::kGoal, kNoNode));
    g_.root_ = root;
    g_.nodes_[root].atom = std::move(top);
    g_.nodes_[root].adornment.assign(arity, BindingClass::kFree);
    pending_.push_back(root);
    return Status::Ok();
  }

  // Canonical signature of a (sub)goal occurrence: predicate,
  // adornment, constants, and the repeated-variable pattern — the
  // equivalence classes of "variant with matching classes" (§2.2).
  static std::string Signature(const Atom& atom, const Adornment& adornment) {
    std::string sig = StrCat("p", atom.predicate, "/",
                             AdornmentToString(adornment));
    std::unordered_map<VariableId, int> canon;
    for (const Term& t : atom.args) {
      if (t.is_constant()) {
        sig += StrCat("|k", static_cast<int>(t.constant().kind()), ":",
                      t.constant().payload());
      } else {
        auto [it, inserted] =
            canon.emplace(t.var(), static_cast<int>(canon.size()));
        sig += StrCat("|v", it->second);
      }
    }
    return sig;
  }

  // Creates (or, when coalescing, reuses) the goal node for one
  // subgoal occurrence and queues IDB nodes for expansion.
  // `occurrence` counts earlier same-signature subgoals within the
  // same rule node: the engine distinguishes a rule node's children by
  // sender, so one producer must never serve two subgoals of one rule.
  // The k-th duplicate occurrence therefore coalesces with the k-th
  // occurrences of other rules (keeping the node count bounded by
  // #signatures x max duplication).
  StatusOr<NodeId> CreateSubgoalNode(const Atom& atom,
                                     const Adornment& adornment,
                                     NodeId rule_parent, int occurrence) {
    if (options_.coalesce_nodes) {
      std::string sig =
          StrCat(Signature(atom, adornment), "#", occurrence);
      auto it = coalesce_map_.find(sig);
      if (it != coalesce_map_.end()) {
        NodeId shared = it->second;
        g_.nodes_[shared].customers.push_back(rule_parent);
        return shared;
      }
      NodeKind kind = g_.program_->IsEdb(atom.predicate) ? NodeKind::kEdbLeaf
                                                         : NodeKind::kGoal;
      MPQE_ASSIGN_OR_RETURN(NodeId id, NewNode(kind, rule_parent));
      g_.nodes_[id].atom = atom;
      g_.nodes_[id].adornment = adornment;
      g_.nodes_[id].customers.push_back(rule_parent);
      coalesce_map_.emplace(std::move(sig), id);
      if (kind == NodeKind::kGoal) pending_.push_back(id);
      return id;
    }
    NodeKind kind = g_.program_->IsEdb(atom.predicate) ? NodeKind::kEdbLeaf
                                                       : NodeKind::kGoal;
    MPQE_ASSIGN_OR_RETURN(NodeId id, NewNode(kind, rule_parent));
    g_.nodes_[id].atom = atom;
    g_.nodes_[id].adornment = adornment;
    g_.nodes_[id].customers.push_back(rule_parent);
    if (kind == NodeKind::kGoal) pending_.push_back(id);
    return id;
  }

  Status ExpandGoal(NodeId gid) {
    // Cycle check (non-coalesced only): is this a variant of an
    // ancestor goal node with matching classes (§2.2)? Walk the
    // goal-node ancestor chain. With coalescing the signature map
    // already closed the loop, so every pending goal node expands.
    if (!options_.coalesce_nodes) {
      for (NodeId up = g_.nodes_[gid].parent; up != kNoNode;) {
        const GraphNode& rule_node = g_.nodes_[up];
        NodeId ancestor = rule_node.parent;
        if (ancestor == kNoNode) break;
        const GraphNode& anc = g_.nodes_[ancestor];
        if (anc.kind == NodeKind::kGoal &&
            anc.adornment == g_.nodes_[gid].adornment &&
            IsVariant(anc.atom, g_.nodes_[gid].atom)) {
          g_.nodes_[gid].kind = NodeKind::kCycleRef;
          g_.nodes_[gid].cycle_source = ancestor;
          g_.nodes_[ancestor].cycle_targets.push_back(gid);
          g_.nodes_[ancestor].customers.push_back(gid);
          return Status::Ok();
        }
        up = anc.parent;
      }
    }

    // Expand: one rule node per program rule whose head unifies.
    const Atom goal_atom = g_.nodes_[gid].atom;  // copy: nodes_ may grow
    const Adornment goal_adornment = g_.nodes_[gid].adornment;
    for (size_t rule_index : g_.program_->RuleIndexesFor(goal_atom.predicate)) {
      Rule renamed = RenameApart(g_.program_->rules()[rule_index],
                                 g_.variables_);
      std::optional<Substitution> mgu = Mgu(renamed.head, goal_atom);
      if (!mgu.has_value()) continue;  // e.g. clashing head constants
      Rule instance = mgu->Apply(renamed);
      MPQE_ASSIGN_OR_RETURN(
          SipsResult sips,
          strategy_.Classify(instance, goal_adornment, *g_.program_));
      MPQE_ASSIGN_OR_RETURN(NodeId rid, NewNode(NodeKind::kRule, gid));
      g_.nodes_[rid].customers.push_back(gid);
      g_.nodes_[rid].rule = instance;
      g_.nodes_[rid].program_rule_index = rule_index;
      g_.nodes_[rid].sips = sips;
      // A rule node's head carries its goal's binding classes ("the
      // head in the rule node is exactly the same as the subgoal of
      // its parent").
      g_.nodes_[rid].atom = instance.head;
      g_.nodes_[rid].adornment = goal_adornment;
      g_.nodes_[gid].rule_children.push_back(rid);
      std::unordered_map<std::string, int> occurrence_of;
      for (size_t i = 0; i < instance.body.size(); ++i) {
        int occurrence = 0;
        if (options_.coalesce_nodes) {
          std::string sig =
              Signature(instance.body[i], sips.subgoal_adornments[i]);
          occurrence = occurrence_of[sig]++;
        }
        MPQE_ASSIGN_OR_RETURN(
            NodeId child,
            CreateSubgoalNode(instance.body[i], sips.subgoal_adornments[i],
                              rid, occurrence));
        g_.nodes_[rid].subgoal_children.push_back(child);
      }
    }
    return Status::Ok();
  }

  // Answer-flow out-edges: every customer (tree parent + cycle targets
  // in the non-coalesced graph; all consuming rule nodes when
  // coalesced).
  std::vector<NodeId> OutEdges(NodeId id) const {
    return g_.nodes_[id].customers;
  }

  void AnalyzeSccs() {
    size_t n = g_.nodes_.size();
    std::vector<int> low(n, -1), num(n, -1);
    std::vector<bool> on_stack(n, false);
    std::vector<NodeId> stack;
    int counter = 0;

    struct Frame {
      NodeId v;
      std::vector<NodeId> out;
      size_t child;
    };
    for (NodeId root = 0; root < static_cast<NodeId>(n); ++root) {
      if (num[root] != -1) continue;
      std::vector<Frame> frames;
      frames.push_back({root, OutEdges(root), 0});
      num[root] = low[root] = counter++;
      stack.push_back(root);
      on_stack[root] = true;
      while (!frames.empty()) {
        Frame& f = frames.back();
        if (f.child < f.out.size()) {
          NodeId w = f.out[f.child++];
          if (num[w] == -1) {
            num[w] = low[w] = counter++;
            stack.push_back(w);
            on_stack[w] = true;
            frames.push_back({w, OutEdges(w), 0});
          } else if (on_stack[w]) {
            low[f.v] = std::min(low[f.v], num[w]);
          }
        } else {
          if (low[f.v] == num[f.v]) {
            int scc = g_.scc_count_++;
            g_.scc_members_.emplace_back();
            for (;;) {
              NodeId w = stack.back();
              stack.pop_back();
              on_stack[w] = false;
              g_.nodes_[w].scc_id = scc;
              g_.scc_members_[scc].push_back(w);
              if (w == f.v) break;
            }
          }
          NodeId child = f.v;
          frames.pop_back();
          if (!frames.empty()) {
            low[frames.back().v] = std::min(low[frames.back().v], low[child]);
          }
        }
      }
    }

    for (int scc = 0; scc < g_.scc_count_; ++scc) {
      auto& members = g_.scc_members_[scc];
      // DFS-tree order (by node id: parents were created before children).
      std::sort(members.begin(), members.end());
      bool trivial = members.size() == 1;
      for (NodeId m : members) g_.nodes_[m].scc_is_trivial = trivial;
    }
  }

  // Within each nontrivial SCC, build a breadth-first spanning tree
  // from the leader along request-flow (customer -> supplier) edges.
  // In the non-coalesced graph the unique member whose customer lies
  // outside the component is the leader and the BFST coincides with
  // the DFS spanning tree (§3.2, footnote 3); with coalescing several
  // members can have outside customers, so the lowest-id such member
  // is designated (footnote 4 applies: the conclusion is propagated to
  // all of them).
  void BuildBfsts() {
    g_.scc_leaders_.assign(static_cast<size_t>(g_.scc_count_), kNoNode);
    for (int scc = 0; scc < g_.scc_count_; ++scc) {
      const auto& members = g_.scc_members_[scc];
      if (members.size() == 1) continue;
      NodeId leader = kNoNode;
      int external_exits = 0;
      for (NodeId m : members) {
        bool external = false;
        const GraphNode& node = g_.nodes_[m];
        if (node.customers.empty()) external = true;  // fed by the sink
        for (NodeId c : node.customers) {
          if (g_.nodes_[c].scc_id != scc) external = true;
        }
        if (external) {
          ++external_exits;
          if (leader == kNoNode) leader = m;
        }
      }
      MPQE_CHECK(leader != kNoNode)
          << "strong component " << scc << " has no external customer";
      if (!options_.coalesce_nodes) {
        MPQE_CHECK(external_exits == 1)
            << "non-coalesced component " << scc << " has " << external_exits
            << " exits; the tree + back-edge structure guarantees one";
      }
      g_.scc_leaders_[scc] = leader;
      g_.nodes_[leader].is_leader = true;

      // BFS over in-component suppliers.
      std::vector<NodeId> frontier{leader};
      std::unordered_set<NodeId> visited{leader};
      for (size_t head = 0; head < frontier.size(); ++head) {
        NodeId u = frontier[head];
        for (NodeId v : g_.nodes_[u].Suppliers()) {
          if (g_.nodes_[v].scc_id != scc || visited.count(v) != 0) continue;
          visited.insert(v);
          g_.nodes_[v].bfst_parent = u;
          g_.nodes_[u].bfst_children.push_back(v);
          frontier.push_back(v);
        }
      }
      MPQE_CHECK(visited.size() == members.size())
          << "BFST did not span strong component " << scc;
    }
  }

  RuleGoalGraph& g_;
  const SipsStrategy& strategy_;
  GraphBuildOptions options_;
  std::deque<NodeId> pending_;
  std::unordered_map<std::string, NodeId> coalesce_map_;
};

StatusOr<std::unique_ptr<RuleGoalGraph>> RuleGoalGraph::Build(
    const Program& program, const SipsStrategy& strategy,
    const GraphBuildOptions& options) {
  std::unique_ptr<RuleGoalGraph> graph(new RuleGoalGraph(program));
  GraphBuilder builder(*graph, strategy, options);
  MPQE_RETURN_IF_ERROR(builder.Run());
  return graph;
}

std::unique_ptr<RuleGoalGraph> RuleGoalGraph::Instantiate(
    const Program& program, const std::vector<Value>& from,
    const std::vector<Value>& to) const {
  std::unique_ptr<RuleGoalGraph> graph(new RuleGoalGraph(*this));
  graph->program_ = &program;
  for (GraphNode& node : graph->nodes_) {
    SubstituteConstants(node.atom, from, to);
    SubstituteConstants(node.rule, from, to);
  }
  return graph;
}

int RuleGoalGraph::BfstDepth(NodeId id) const {
  int depth = 0;
  for (NodeId n = nodes_[id].bfst_parent; n != kNoNode;
       n = nodes_[n].bfst_parent) {
    ++depth;
  }
  return depth;
}

int RuleGoalGraph::BfstHeight(int scc) const {
  int height = 0;
  for (NodeId m : scc_members_[scc]) {
    height = std::max(height, BfstDepth(m));
  }
  return height;
}

std::vector<NodeId> RuleGoalGraph::Feeders(NodeId id) const {
  std::vector<NodeId> feeders;
  const GraphNode& n = nodes_[id];
  auto consider = [&](NodeId pred) {
    if (nodes_[pred].scc_id != n.scc_id) feeders.push_back(pred);
  };
  for (NodeId c : n.rule_children) consider(c);
  for (NodeId c : n.subgoal_children) consider(c);
  if (n.kind == NodeKind::kCycleRef && n.cycle_source != kNoNode) {
    consider(n.cycle_source);
  }
  return feeders;
}

GraphStats RuleGoalGraph::Stats() const {
  GraphStats stats;
  stats.node_count = nodes_.size();
  for (const GraphNode& n : nodes_) {
    switch (n.kind) {
      case NodeKind::kGoal:
        ++stats.goal_nodes;
        break;
      case NodeKind::kRule:
        ++stats.rule_nodes;
        break;
      case NodeKind::kEdbLeaf:
        ++stats.edb_leaves;
        break;
      case NodeKind::kCycleRef:
        ++stats.cycle_refs;
        break;
    }
    stats.max_depth = std::max(stats.max_depth, n.depth);
  }
  for (const auto& members : scc_members_) {
    if (members.size() > 1) {
      ++stats.nontrivial_sccs;
      stats.largest_scc = std::max(stats.largest_scc, members.size());
    }
  }
  return stats;
}

std::string RuleGoalGraph::NodeLabel(NodeId id,
                                     const SymbolTable* symbols) const {
  const GraphNode& n = nodes_[id];
  switch (n.kind) {
    case NodeKind::kGoal:
    case NodeKind::kEdbLeaf:
    case NodeKind::kCycleRef:
      return AdornedAtomToString(n.atom, n.adornment, *program_, symbols);
    case NodeKind::kRule:
      return StrCat("rule#", n.program_rule_index, "[",
                    program_->RuleToString(n.rule, symbols), "]");
  }
  return "?";
}

std::string RuleGoalGraph::ToString(const SymbolTable* symbols) const {
  std::string out;
  for (const GraphNode& n : nodes_) {
    out += StrCat(std::string(static_cast<size_t>(n.depth) * 2, ' '), "#",
                  n.id, " ", NodeKindToString(n.kind), " ",
                  NodeLabel(n.id, symbols), " scc=", n.scc_id);
    if (n.is_leader) out += " LEADER";
    if (n.kind == NodeKind::kCycleRef) {
      out += StrCat(" <== #", n.cycle_source);
    }
    out += "\n";
  }
  return out;
}

std::string GraphToDot(const RuleGoalGraph& graph,
                       const SymbolTable* symbols) {
  std::string out = "digraph rule_goal_graph {\n  rankdir=BT;\n";
  for (const GraphNode& n : graph.nodes()) {
    std::string shape = n.kind == NodeKind::kRule ? "box" : "ellipse";
    std::string style = n.kind == NodeKind::kCycleRef ? ",style=dotted" : "";
    out += StrCat("  n", n.id, " [label=\"", graph.NodeLabel(n.id, symbols),
                  "\",shape=", shape, style, "];\n");
  }
  for (const GraphNode& n : graph.nodes()) {
    for (NodeId c : n.customers) {
      bool tree_edge = c == n.parent;
      bool cycle_edge = std::find(n.cycle_targets.begin(),
                                  n.cycle_targets.end(),
                                  c) != n.cycle_targets.end();
      out += StrCat("  n", n.id, " -> n", c,
                    cycle_edge || !tree_edge ? " [style=dashed]" : "", ";\n");
    }
  }
  out += "}\n";
  return out;
}

}  // namespace mpqe
