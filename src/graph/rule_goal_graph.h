// The information passing rule/goal graph (§2).
//
// Construction is top-down, as in Prolog: starting from the top-level
// goal node, every IDB goal node is expanded by a rule node for each
// program rule whose head unifies with it (the rule node holds a copy
// of the rule that "began with all new variables, then had the mgu
// applied"), and rule nodes get one child goal node per subgoal.
// Exceptions (§2.1):
//   * EDB subgoals remain leaves;
//   * an IDB subgoal that is a variant of an ancestor *with matching
//     argument classes* (§2.2) is not expanded: a cycle edge is added
//     from the ancestor to it, and at evaluation time it performs a
//     selection on the ancestor's relation.
//
// Edges are oriented child -> parent, "the direction in which answers
// flow"; requests flow against the edges. Cycle edges run ancestor ->
// variant node (answers flow down them to the rule node that contains
// the variant subgoal).
//
// After construction the graph is analyzed: strong components (over
// tree + cycle edges), the reduced DAG's feeder/customer relation
// (Def. 2.1), and per-component breadth-first spanning trees with the
// unique leader — the node whose customer lies outside the component —
// used by the Fig. 2 termination protocol.

#ifndef MPQE_GRAPH_RULE_GOAL_GRAPH_H_
#define MPQE_GRAPH_RULE_GOAL_GRAPH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/adornment.h"
#include "datalog/ast.h"
#include "datalog/program.h"
#include "sips/strategy.h"

namespace mpqe {

using NodeId = int32_t;
inline constexpr NodeId kNoNode = -1;

enum class NodeKind {
  kGoal,      // predicate node: union of its rule children's relations
  kRule,      // rule node: joins its subgoal relations per its sips
  kEdbLeaf,   // EDB subgoal: selection on a base relation
  kCycleRef,  // variant subgoal: selection on an ancestor's relation
};

const char* NodeKindToString(NodeKind kind);

struct GraphNode {
  NodeId id = kNoNode;
  NodeKind kind = NodeKind::kGoal;
  NodeId parent = kNoNode;  // tree parent (customer direction)
  int depth = 0;

  // -- goal / EDB-leaf / cycle-ref fields --------------------------------
  Atom atom;             // the (sub)goal atom, constants at c positions
  Adornment adornment;   // binding classes per argument position
  std::vector<NodeId> rule_children;  // kGoal only
  NodeId cycle_source = kNoNode;      // kCycleRef: the ancestor goal node
  std::vector<NodeId> cycle_targets;  // kGoal: cycle refs fed by this node

  // All answer-flow successors: the tree parent plus cycle targets
  // (non-coalesced) or every consuming rule node (coalesced). The
  // engine's per-consumer streams and the SCC analysis use this.
  std::vector<NodeId> customers;

  // -- rule node fields ---------------------------------------------------
  Rule rule;                // renamed-apart instance with mgu applied
  size_t program_rule_index = 0;
  SipsResult sips;
  std::vector<NodeId> subgoal_children;  // parallel to rule.body

  // -- analysis results ----------------------------------------------------
  int scc_id = -1;
  bool scc_is_trivial = true;  // singleton without a self-cycle
  bool is_leader = false;      // designated leader of a nontrivial SCC
  NodeId bfst_parent = kNoNode;
  std::vector<NodeId> bfst_children;

  /// Answer-flow predecessors: children that supply this node's
  /// relation (rule children / subgoal children / the cycle source).
  std::vector<NodeId> Suppliers() const;

  /// Positions of `atom` whose values appear in answer tuples (all
  /// non-existential positions, in order). Class-e values are never
  /// transmitted (§2.2).
  std::vector<size_t> OutputPositions() const;
};

struct GraphBuildOptions {
  // Abort with ResourceExhausted beyond this many nodes. The graph size
  // is independent of the EDB (Thm. 2.1) but can be exponential in the
  // IDB in pathological cases when nodes are not coalesced.
  size_t max_nodes = 100000;

  // Coalesce goal nodes with identical predicate + binding pattern +
  // variant structure ("for single processor computation it is
  // probably desirable to coalesce such nodes", §2.2 end). The graph
  // becomes a general digraph (cross and forward edges appear), cycle
  // reference nodes disappear, graph size becomes linear in the number
  // of distinct binding patterns, and — per footnote 4 — the
  // termination protocol's leader must propagate the conclusion around
  // the strong component because several members may have customers.
  bool coalesce_nodes = false;
};

// Aggregate statistics (for Thm. 2.1 benches and diagnostics).
struct GraphStats {
  size_t node_count = 0;
  size_t goal_nodes = 0;
  size_t rule_nodes = 0;
  size_t edb_leaves = 0;
  size_t cycle_refs = 0;
  size_t nontrivial_sccs = 0;
  size_t largest_scc = 0;
  int max_depth = 0;
};

class RuleGoalGraph {
 public:
  /// Builds the information passing rule/goal graph for `program`
  /// using `strategy` to classify subgoals. The program must already
  /// Validate(). The graph keeps references to `program` — it must
  /// outlive the graph.
  static StatusOr<std::unique_ptr<RuleGoalGraph>> Build(
      const Program& program, const SipsStrategy& strategy,
      const GraphBuildOptions& options = GraphBuildOptions());

  /// A copy of this graph over `program`, which is a copy of program()
  /// after Program::SubstituteConstants(from, to), with the same swap
  /// applied to every node's atom and rule. Construction compares
  /// constants only for equality, so when `from` lists every constant
  /// of program() and `from` and `to` each hold distinct values, the
  /// copy equals Build over `program` (E2). `program` must outlive the
  /// copy.
  std::unique_ptr<RuleGoalGraph> Instantiate(
      const Program& program, const std::vector<Value>& from,
      const std::vector<Value>& to) const;

  const Program& program() const { return *program_; }
  /// Variable pool extended with construction-time fresh variables.
  const VariablePool& variables() const { return variables_; }

  NodeId root() const { return root_; }
  size_t size() const { return nodes_.size(); }
  const GraphNode& node(NodeId id) const { return nodes_[id]; }
  const std::vector<GraphNode>& nodes() const { return nodes_; }

  int scc_count() const { return scc_count_; }
  /// Nodes of component `scc`, by ascending node id.
  const std::vector<NodeId>& scc_members(int scc) const {
    return scc_members_[scc];
  }

  /// Leader node of component `scc`, or kNoNode for trivial SCCs.
  NodeId scc_leader(int scc) const { return scc_leaders_[scc]; }

  /// Depth of `id` in its component's breadth-first spanning tree
  /// (0 at the leader; 0 for members of trivial SCCs).
  int BfstDepth(NodeId id) const;

  /// Height of component `scc`'s BFST: the maximum BfstDepth over its
  /// members (the number of hops a Fig. 2 wave descends).
  int BfstHeight(int scc) const;

  bool coalesced() const { return coalesced_; }

  /// Answer-flow predecessors of `id` in a different strong component
  /// (Def. 2.1: its feeders).
  std::vector<NodeId> Feeders(NodeId id) const;

  GraphStats Stats() const;

  /// Human-readable label, e.g. "p(V^d, Z^f)" or "rule#1[p(...) :- ...]".
  std::string NodeLabel(NodeId id, const SymbolTable* symbols = nullptr) const;

  /// Multi-line structural dump (tests, debugging).
  std::string ToString(const SymbolTable* symbols = nullptr) const;

 private:
  RuleGoalGraph(const Program& program)
      : program_(&program), variables_(program.variables()) {}

  friend class GraphBuilder;

  const Program* program_;
  VariablePool variables_;
  std::vector<GraphNode> nodes_;
  NodeId root_ = kNoNode;
  bool coalesced_ = false;
  int scc_count_ = 0;
  std::vector<std::vector<NodeId>> scc_members_;
  std::vector<NodeId> scc_leaders_;
};

/// Graphviz DOT rendering of the graph (solid tree edges oriented
/// child->parent, dashed cycle edges, SCCs as clusters).
std::string GraphToDot(const RuleGoalGraph& graph,
                       const SymbolTable* symbols = nullptr);

}  // namespace mpqe

#endif  // MPQE_GRAPH_RULE_GOAL_GRAPH_H_
