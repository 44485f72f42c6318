// Structural invariants of rule/goal graph construction, checked over
// randomly generated programs in both distributed and coalesced modes:
//
//  * every class-d subgoal argument is furnished by the head or an
//    earlier subgoal in the sips order (Def. 2.3's acyclicity);
//  * rule nodes' heads match their goal node's atom positionally and
//    carry its adornment;
//  * cycle references are variants of their sources with equal
//    adornments, and live in the same strong component;
//  * SCC analysis is consistent with the customer edges;
//  * BFSTs span exactly the nontrivial components, leaders are marked
//    correctly, and every non-leader has an in-component BFST parent;
//  * feeders (Def. 2.1) are exactly the answer-flow predecessors in
//    other components;
//  * a graph instantiated with other constants of the same equality
//    pattern equals a fresh build and answers like the semi-naive
//    oracle (Thm. 2.1, E2).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "baseline/bottom_up.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datalog/unify.h"
#include "engine/evaluator.h"
#include "graph/rule_goal_graph.h"
#include "sips/strategy.h"
#include "workload/generators.h"

namespace mpqe {
namespace {

class GraphInvariants
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

void CheckSipsArcsAcyclicAndBound(const RuleGoalGraph& graph,
                                  const GraphNode& rule_node) {
  const Rule& rule = rule_node.rule;
  const SipsResult& sips = rule_node.sips;
  std::set<VariableId> bound;
  for (size_t i = 0; i < rule.head.args.size(); ++i) {
    const Term& t = rule.head.args[i];
    if (t.is_variable() && IsBound(rule_node.adornment[i])) {
      bound.insert(t.var());
    }
  }
  for (size_t k : sips.order) {
    const Atom& atom = rule.body[k];
    const Adornment& adornment = sips.subgoal_adornments[k];
    ASSERT_EQ(adornment.size(), atom.arity());
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& t = atom.args[i];
      if (t.is_constant()) {
        EXPECT_EQ(adornment[i], BindingClass::kConstant)
            << graph.NodeLabel(rule_node.id);
      } else if (adornment[i] == BindingClass::kDynamic) {
        EXPECT_TRUE(bound.count(t.var()) != 0)
            << "unbound d argument in " << graph.NodeLabel(rule_node.id);
      }
    }
    std::vector<VariableId> vars;
    CollectVariables(atom, vars);
    bound.insert(vars.begin(), vars.end());
  }
}

TEST_P(GraphInvariants, HoldOnRandomPrograms) {
  const auto& [seed, coalesce] = GetParam();
  Rng rng(seed);
  workload::RandomProgramOptions options;
  options.recursion_bias = 0.5;
  auto rp = workload::MakeRandomProgram(options, rng);
  ASSERT_TRUE(rp.ok());
  ASSERT_TRUE(rp->unit.program.Validate(&rp->unit.database).ok());

  auto strategy = MakeGreedyStrategy();
  GraphBuildOptions graph_options;
  graph_options.coalesce_nodes = coalesce;
  auto built =
      RuleGoalGraph::Build(rp->unit.program, *strategy, graph_options);
  if (!built.ok() &&
      built.status().code() == StatusCode::kResourceExhausted) {
    GTEST_SKIP() << built.status();
  }
  ASSERT_TRUE(built.ok()) << built.status();
  const RuleGoalGraph& graph = **built;

  for (const GraphNode& n : graph.nodes()) {
    switch (n.kind) {
      case NodeKind::kRule: {
        // Head matches the goal node positionally and by adornment.
        const GraphNode& goal = graph.node(n.parent);
        EXPECT_EQ(n.rule.head.predicate, goal.atom.predicate);
        EXPECT_EQ(n.adornment, goal.adornment);
        EXPECT_EQ(n.rule.body.size(), n.subgoal_children.size());
        CheckSipsArcsAcyclicAndBound(graph, n);
        // Its customers are exactly its parent goal.
        ASSERT_EQ(n.customers.size(), 1u);
        EXPECT_EQ(n.customers[0], n.parent);
        break;
      }
      case NodeKind::kCycleRef: {
        EXPECT_FALSE(coalesce) << "cycle refs must not exist when coalescing";
        const GraphNode& src = graph.node(n.cycle_source);
        EXPECT_TRUE(IsVariant(src.atom, n.atom));
        EXPECT_EQ(src.adornment, n.adornment);
        EXPECT_EQ(src.scc_id, n.scc_id);
        break;
      }
      case NodeKind::kGoal:
      case NodeKind::kEdbLeaf: {
        // Customers are rule nodes (or none, for the root).
        for (NodeId c : n.customers) {
          EXPECT_TRUE(graph.node(c).kind == NodeKind::kRule ||
                      graph.node(c).kind == NodeKind::kCycleRef);
        }
        break;
      }
    }
  }

  // SCC consistency: a customer edge inside one SCC implies a return
  // path (checked transitively by Tarjan; here spot-check membership
  // symmetry through scc_members).
  for (int scc = 0; scc < graph.scc_count(); ++scc) {
    const auto& members = graph.scc_members(scc);
    std::set<NodeId> member_set(members.begin(), members.end());
    for (NodeId m : members) {
      EXPECT_EQ(graph.node(m).scc_id, scc);
      EXPECT_EQ(graph.node(m).scc_is_trivial, members.size() == 1);
    }
    if (members.size() == 1) {
      EXPECT_EQ(graph.scc_leader(scc), kNoNode);
      continue;
    }
    // Exactly one leader; every non-leader has an in-SCC BFST parent.
    NodeId leader = graph.scc_leader(scc);
    ASSERT_NE(leader, kNoNode);
    ASSERT_TRUE(member_set.count(leader) != 0);
    size_t leaders = 0;
    for (NodeId m : members) {
      const GraphNode& node = graph.node(m);
      if (node.is_leader) {
        ++leaders;
        EXPECT_EQ(m, leader);
        EXPECT_EQ(node.bfst_parent, kNoNode);
      } else {
        ASSERT_NE(node.bfst_parent, kNoNode) << graph.NodeLabel(m);
        EXPECT_TRUE(member_set.count(node.bfst_parent) != 0);
      }
      for (NodeId c : node.bfst_children) {
        EXPECT_EQ(graph.node(c).bfst_parent, m);
      }
    }
    EXPECT_EQ(leaders, 1u);
  }

  // Feeders: answer-flow predecessors in other components.
  for (const GraphNode& n : graph.nodes()) {
    for (NodeId f : graph.Feeders(n.id)) {
      EXPECT_NE(graph.node(f).scc_id, n.scc_id);
      std::vector<NodeId> suppliers = n.Suppliers();
      EXPECT_TRUE(std::find(suppliers.begin(), suppliers.end(), f) !=
                  suppliers.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GraphInvariants,
    ::testing::Combine(::testing::Range(uint64_t{0}, uint64_t{25}),
                       ::testing::Bool()));

// The constants of `program` in order of first occurrence.
std::vector<Value> ProgramConstants(const Program& program) {
  std::vector<Value> out;
  auto collect = [&out](const Atom& atom) {
    for (const Term& t : atom.args) {
      if (t.is_constant() &&
          std::find(out.begin(), out.end(), t.constant()) == out.end()) {
        out.push_back(t.constant());
      }
    }
  };
  for (const Rule& rule : program.rules()) {
    collect(rule.head);
    for (const Atom& atom : rule.body) collect(atom);
  }
  return out;
}

// A graph built for one set of constants and instantiated with another
// of the same equality pattern must be the graph a fresh build makes,
// and must answer like the oracle: random rule sets, whose rules
// mention constants about as often as not, with every constant of the
// program swapped three ways, coalesced and not.
TEST(GraphInstantiation, EqualsAFreshBuild) {
  constexpr int kPrograms = 12;
  auto strategy = MakeGreedyStrategy();
  int instances = 0;
  int with_rule_constants = 0;
  for (uint64_t seed = 0; seed < kPrograms; ++seed) {
    Rng rng(seed);
    workload::RandomProgramOptions options;
    options.recursion_bias = 0.5;
    auto rp = workload::MakeRandomProgram(options, rng);
    ASSERT_TRUE(rp.ok()) << rp.status();
    const Program& program = rp->unit.program;
    const std::vector<Value> from = ProgramConstants(program);
    ASSERT_GE(from.size(), 1u) << rp->text;  // the query's
    if (from.size() > 1) ++with_rule_constants;
    // Each swap maps distinct constants to distinct ones, so the
    // instance keeps the program's equality pattern.
    std::vector<std::vector<Value>> swaps(3);
    for (size_t i = 0; i < from.size(); ++i) {
      const int64_t k = from[i].payload();
      swaps[0].push_back(Value::Int((k + 1) % options.edb_nodes));
      swaps[1].push_back(Value::Int((k + 5) % options.edb_nodes));
      swaps[2].push_back(Value::Int(100 + static_cast<int64_t>(i)));
    }
    for (bool coalesce : {false, true}) {
      GraphBuildOptions graph_options;
      graph_options.coalesce_nodes = coalesce;
      auto built = RuleGoalGraph::Build(program, *strategy, graph_options);
      if (!built.ok() &&
          built.status().code() == StatusCode::kResourceExhausted) {
        continue;  // the uncoalesced graph blew up; coalesced still runs
      }
      ASSERT_TRUE(built.ok()) << built.status();
      for (const std::vector<Value>& to : swaps) {
        const std::string label =
            StrCat("seed ", seed, " coalesce ", coalesce, " to ",
                   StrJoin(to, ",", [](std::ostream& os, const Value& v) {
                     os << v.ToString();
                   }),
                   "\n", rp->text);
        Program instance_program = program;
        instance_program.SubstituteConstants(from, to);
        std::unique_ptr<RuleGoalGraph> instance =
            (*built)->Instantiate(instance_program, from, to);
        auto fresh =
            RuleGoalGraph::Build(instance_program, *strategy, graph_options);
        ASSERT_TRUE(fresh.ok()) << fresh.status();
        EXPECT_EQ(instance->ToString(), (*fresh)->ToString()) << label;

        auto oracle = SemiNaiveBottomUp(instance_program, rp->unit.database);
        ASSERT_TRUE(oracle.ok()) << oracle.status();
        auto result = RunSession(*instance, rp->unit.database, {});
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(result->answers.SortedTuples(), oracle->goal.SortedTuples())
            << label;
        ++instances;
      }
    }
  }
  // Every program instantiates coalesced; most also uncoalesced.
  EXPECT_GE(instances, 3 * kPrograms);
  EXPECT_GE(with_rule_constants, kPrograms / 4);
}

// Sips classification is valid for EVERY strategy on random rules:
// d arguments always furnished, e arguments truly single-use.
class SipsInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SipsInvariants, ClassificationIsWellFormed) {
  Rng rng(GetParam() + 300);
  workload::RandomProgramOptions options;
  options.max_body_atoms = 4;
  auto rp = workload::MakeRandomProgram(options, rng);
  ASSERT_TRUE(rp.ok());
  const Program& program = rp->unit.program;

  for (const char* name :
       {"greedy", "greedy_no_e", "left_to_right", "qual_tree_or_greedy",
        "no_sips"}) {
    auto strategy = MakeStrategyByName(name);
    ASSERT_TRUE(strategy.ok());
    for (const Rule& rule : program.rules()) {
      // Try two head patterns: all free, and first-arg bound.
      for (int pattern = 0; pattern < 2; ++pattern) {
        Adornment head(rule.head.arity(), BindingClass::kFree);
        if (pattern == 1 && !head.empty() &&
            rule.head.args[0].is_variable()) {
          head[0] = BindingClass::kDynamic;
        }
        auto sips = (*strategy)->Classify(rule, head, program);
        ASSERT_TRUE(sips.ok()) << name;
        // Order is a permutation.
        std::set<size_t> seen(sips->order.begin(), sips->order.end());
        EXPECT_EQ(seen.size(), rule.body.size()) << name;
        // d args bound by earlier stages; e args single-use.
        std::set<VariableId> bound;
        for (size_t i = 0; i < rule.head.args.size(); ++i) {
          if (rule.head.args[i].is_variable() && IsBound(head[i])) {
            bound.insert(rule.head.args[i].var());
          }
        }
        std::map<VariableId, int> occurrences;
        for (const Atom& a : rule.body) {
          std::vector<VariableId> vars;
          CollectVariables(a, vars);
          for (VariableId v : vars) occurrences[v]++;
        }
        for (size_t k : sips->order) {
          const Atom& atom = rule.body[k];
          const Adornment& adornment = sips->subgoal_adornments[k];
          for (size_t i = 0; i < atom.args.size(); ++i) {
            if (atom.args[i].is_constant()) continue;
            VariableId v = atom.args[i].var();
            if (adornment[i] == BindingClass::kDynamic) {
              EXPECT_TRUE(bound.count(v) != 0) << name;
            }
            if (adornment[i] == BindingClass::kExistential) {
              EXPECT_EQ(occurrences[v], 1) << name;
            }
          }
          std::vector<VariableId> vars;
          CollectVariables(atom, vars);
          bound.insert(vars.begin(), vars.end());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SipsInvariants,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

}  // namespace
}  // namespace mpqe
