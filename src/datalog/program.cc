#include "datalog/program.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "common/string_util.h"

namespace mpqe {

StatusOr<size_t> Program::AddQuery(std::vector<Atom> body) {
  if (body.empty()) {
    return InvalidArgumentError("query body must not be empty");
  }
  std::vector<VariableId> vars;
  for (const Atom& a : body) CollectVariables(a, vars);
  MPQE_ASSIGN_OR_RETURN(PredicateId goal,
                        predicates_.Intern(kGoalPredicateName, vars.size()));
  Rule rule;
  rule.head.predicate = goal;
  for (VariableId v : vars) rule.head.args.push_back(Term::Var(v));
  rule.body = std::move(body);
  rules_.push_back(std::move(rule));
  return rules_.size() - 1;
}

std::vector<size_t> Program::RuleIndexesFor(PredicateId p) const {
  std::vector<size_t> indexes;
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].head.predicate == p) indexes.push_back(i);
  }
  return indexes;
}

bool Program::IsIdb(PredicateId p) const {
  for (const Rule& r : rules_) {
    if (r.head.predicate == p) return true;
  }
  return false;
}

PredicateDependencies AnalyzeDependencies(const Program& program) {
  PredicateDependencies deps;
  size_t n = program.predicates().size();
  deps.adjacency.assign(n, {});
  for (const Rule& r : program.rules()) {
    for (const Atom& a : r.body) {
      deps.adjacency[r.head.predicate].push_back(a.predicate);
    }
  }
  for (auto& adj : deps.adjacency) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }

  // Iterative Tarjan SCC.
  deps.scc_of.assign(n, -1);
  std::vector<int> low(n, -1), num(n, -1);
  std::vector<bool> on_stack(n, false);
  std::vector<PredicateId> stack;
  int counter = 0;

  struct Frame {
    PredicateId v;
    size_t child;
  };
  for (PredicateId root = 0; root < static_cast<PredicateId>(n); ++root) {
    if (num[root] != -1) continue;
    std::vector<Frame> frames{{root, 0}};
    num[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < deps.adjacency[f.v].size()) {
        PredicateId w = deps.adjacency[f.v][f.child++];
        if (num[w] == -1) {
          num[w] = low[w] = counter++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], num[w]);
        }
      } else {
        if (low[f.v] == num[f.v]) {
          for (;;) {
            PredicateId w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            deps.scc_of[w] = deps.scc_count;
            if (w == f.v) break;
          }
          ++deps.scc_count;
        }
        PredicateId child = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[child]);
        }
      }
    }
  }
  return deps;
}

std::vector<PredicateId> Program::RecursivePredicates() const {
  PredicateDependencies deps = AnalyzeDependencies(*this);
  size_t n = predicates_.size();
  // Count members per SCC; also find self-loops.
  std::vector<int> members(deps.scc_count, 0);
  for (size_t p = 0; p < n; ++p) members[deps.scc_of[p]]++;
  std::vector<PredicateId> recursive;
  for (PredicateId p = 0; p < static_cast<PredicateId>(n); ++p) {
    bool self_loop =
        std::binary_search(deps.adjacency[p].begin(), deps.adjacency[p].end(), p);
    if (members[deps.scc_of[p]] > 1 || self_loop) recursive.push_back(p);
  }
  return recursive;
}

bool Program::IsRecursive(PredicateId p) const {
  std::vector<PredicateId> recursive = RecursivePredicates();
  return std::find(recursive.begin(), recursive.end(), p) != recursive.end();
}

Status Program::Validate(Database* db) const {
  PredicateId goal = GoalPredicate();
  if (goal < 0 || RuleIndexesFor(goal).empty()) {
    return FailedPreconditionError(
        "program has no query rule (head predicate 'goal')");
  }
  for (const Rule& r : rules_) {
    for (const Atom& a : r.body) {
      if (a.predicate == goal) {
        return InvalidArgumentError(StrCat(
            "'goal' must not occur in a rule body: ",
            RuleToString(r, db != nullptr ? &db->symbols() : nullptr)));
      }
    }
    // Range restriction: head variables must occur in the body.
    std::vector<VariableId> body_vars;
    for (const Atom& a : r.body) CollectVariables(a, body_vars);
    std::vector<VariableId> head_vars;
    CollectVariables(r.head, head_vars);
    for (VariableId v : head_vars) {
      if (std::find(body_vars.begin(), body_vars.end(), v) ==
          body_vars.end()) {
        return InvalidArgumentError(
            StrCat("unsafe rule: head variable ", variables_.Name(v),
                   " does not occur in the body: ",
                   RuleToString(r, db != nullptr ? &db->symbols() : nullptr)));
      }
    }
  }
  if (db != nullptr) {
    for (PredicateId p = 0; p < static_cast<PredicateId>(predicates_.size());
         ++p) {
      const std::string& name = predicates_.Name(p);
      if (IsIdb(p)) {
        if (db->HasRelation(name)) {
          return InvalidArgumentError(
              StrCat("predicate ", name,
                     " has both rules (IDB) and EDB facts; the paper's "
                     "model requires EDB and IDB predicates disjoint"));
        }
      } else {
        // EDB predicate: ensure the relation exists with right arity.
        MPQE_RETURN_IF_ERROR(db->CreateRelation(name, predicates_.Arity(p)));
      }
    }
  }
  return Status::Ok();
}

namespace {

Program::ConstantPrinter ValuePrinter(const SymbolTable* symbols) {
  return [symbols](std::string& out, const Value& v) {
    out += v.ToString(symbols);
  };
}

void AppendAtom(const Program& program, const Atom& a,
                const Program::ConstantPrinter& print_constant,
                std::string& out) {
  out += program.predicates().Name(a.predicate);
  out += '(';
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (i > 0) out += ", ";
    const Term& t = a.args[i];
    if (t.is_variable()) {
      out += program.variables().Name(t.var());
    } else {
      print_constant(out, t.constant());
    }
  }
  out += ')';
}

void AppendRule(const Program& program, const Rule& r,
                const Program::ConstantPrinter& print_constant,
                std::string& out) {
  AppendAtom(program, r.head, print_constant, out);
  for (size_t i = 0; i < r.body.size(); ++i) {
    out += i == 0 ? " :- " : ", ";
    AppendAtom(program, r.body[i], print_constant, out);
  }
  out += '.';
}

}  // namespace

std::string Program::TermToString(const Term& t,
                                  const SymbolTable* symbols) const {
  if (t.is_variable()) return variables_.Name(t.var());
  return t.constant().ToString(symbols);
}

std::string Program::AtomToString(const Atom& a,
                                  const SymbolTable* symbols) const {
  std::string out;
  AppendAtom(*this, a, ValuePrinter(symbols), out);
  return out;
}

std::string Program::RuleToString(const Rule& r,
                                  const SymbolTable* symbols) const {
  std::string out;
  AppendRule(*this, r, ValuePrinter(symbols), out);
  return out;
}

std::string Program::ToString(const SymbolTable* symbols) const {
  return Print(ValuePrinter(symbols));
}

std::string Program::Print(const ConstantPrinter& print_constant) const {
  std::string out;
  for (const Rule& r : rules_) {
    AppendRule(*this, r, print_constant, out);
    out += '\n';
  }
  return out;
}

}  // namespace mpqe
