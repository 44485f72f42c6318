// Program: the intentional database (IDB) — permanent rules (PIDB)
// plus query rules whose head is the distinguished predicate `goal`
// (§1) — together with validation and predicate-level analysis.

#ifndef MPQE_DATALOG_PROGRAM_H_
#define MPQE_DATALOG_PROGRAM_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "relational/database.h"

namespace mpqe {

// The distinguished query predicate name (§1).
inline constexpr std::string_view kGoalPredicateName = "goal";

class Program {
 public:
  Program() = default;

  PredicatePool& predicates() { return predicates_; }
  const PredicatePool& predicates() const { return predicates_; }
  VariablePool& variables() { return variables_; }
  const VariablePool& variables() const { return variables_; }

  /// Adds a rule (PIDB rule, or query rule if its head is `goal`).
  void AddRule(Rule rule) { rules_.push_back(std::move(rule)); }

  /// Adds a query `?- body`: creates the rule
  ///   goal(V1,...,Vk) :- body
  /// where V1..Vk are the distinct variables of `body` in order of
  /// first occurrence. Returns the index of the new rule.
  StatusOr<size_t> AddQuery(std::vector<Atom> body);

  const std::vector<Rule>& rules() const { return rules_; }

  /// Replaces each constant equal to from[i] by to[i] in every rule.
  void SubstituteConstants(const std::vector<Value>& from,
                           const std::vector<Value>& to) {
    for (Rule& rule : rules_) mpqe::SubstituteConstants(rule, from, to);
  }

  /// Id of `goal` if interned, else -1.
  PredicateId GoalPredicate() const {
    return predicates_.Find(kGoalPredicateName);
  }

  /// Indexes of rules whose head predicate is `p`.
  std::vector<size_t> RuleIndexesFor(PredicateId p) const;

  /// A predicate is IDB iff it appears in some rule head. Everything
  /// else appearing in a body is EDB (§1: EDB predicates never occur
  /// positively in the PIDB).
  bool IsIdb(PredicateId p) const;
  bool IsEdb(PredicateId p) const { return !IsIdb(p); }

  /// All IDB predicates that are (transitively) recursive, i.e. lie on
  /// a cycle of the predicate dependency graph.
  std::vector<PredicateId> RecursivePredicates() const;

  /// True iff `p` depends on itself through the dependency graph.
  bool IsRecursive(PredicateId p) const;

  /// Validates the program against the paper's model (§1) and Datalog
  /// safety:
  ///  * at least one query rule (head `goal`) exists;
  ///  * `goal` occurs in no rule body;
  ///  * no EDB relation of `db` (if given) is used as a rule head;
  ///  * every EDB predicate's arity matches its `db` relation (the
  ///    relation is created empty if missing — callers may populate
  ///    facts later);
  ///  * range restriction: every head variable occurs in the body.
  Status Validate(Database* db) const;

  // -- Pretty printing --------------------------------------------------
  // Appends one constant's text to the string.
  using ConstantPrinter = std::function<void(std::string&, const Value&)>;

  std::string TermToString(const Term& t, const SymbolTable* symbols) const;
  std::string AtomToString(const Atom& a, const SymbolTable* symbols) const;
  std::string RuleToString(const Rule& r, const SymbolTable* symbols) const;
  /// The program text, one rule per line.
  std::string ToString(const SymbolTable* symbols) const;
  /// ToString's text with each constant printed by `print_constant`.
  std::string Print(const ConstantPrinter& print_constant) const;

 private:
  PredicatePool predicates_;
  VariablePool variables_;
  std::vector<Rule> rules_;
};

// Dependency edges between predicates: head -> each body predicate.
// Exposed for tests and for the semi-naive baseline's stratum order.
struct PredicateDependencies {
  // adjacency[p] = body predicates reachable in one step from heads p.
  std::vector<std::vector<PredicateId>> adjacency;
  // scc_of[p] = strong-component id (components numbered in reverse
  // topological order: callees before callers).
  std::vector<int> scc_of;
  int scc_count = 0;
};

/// Builds the dependency graph over all interned predicates.
PredicateDependencies AnalyzeDependencies(const Program& program);

}  // namespace mpqe

#endif  // MPQE_DATALOG_PROGRAM_H_
