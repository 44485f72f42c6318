#include "datalog/ast.h"

#include <algorithm>

#include "common/string_util.h"

namespace mpqe {

VariableId VariablePool::Intern(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  VariableId id = static_cast<VariableId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

VariableId VariablePool::Fresh(std::string_view hint) {
  VariableId id = static_cast<VariableId>(names_.size());
  std::string name = StrCat("_G", id);
  if (!hint.empty()) name += StrCat("_", hint);
  // Generated names can collide with user variables only if the user
  // literally wrote "_G<n>"; disambiguate until unique.
  while (ids_.count(name) != 0) name += "'";
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::string VariablePool::Name(VariableId id) const {
  if (id < 0 || static_cast<size_t>(id) >= names_.size()) {
    return StrCat("_?", id);
  }
  return names_[static_cast<size_t>(id)];
}

StatusOr<PredicateId> PredicatePool::Intern(std::string_view name,
                                            size_t arity) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) {
    if (arities_[it->second] != arity) {
      return InvalidArgumentError(
          StrCat("predicate ", name, " used with arity ", arity,
                 " but previously had arity ", arities_[it->second]));
    }
    return it->second;
  }
  PredicateId id = static_cast<PredicateId>(names_.size());
  names_.emplace_back(name);
  arities_.push_back(arity);
  ids_.emplace(std::string(name), id);
  return id;
}

PredicateId PredicatePool::Find(std::string_view name) const {
  auto it = ids_.find(std::string(name));
  return it == ids_.end() ? -1 : it->second;
}

void CollectVariables(const Atom& atom, std::vector<VariableId>& out) {
  for (const Term& t : atom.args) {
    if (t.is_variable() &&
        std::find(out.begin(), out.end(), t.var()) == out.end()) {
      out.push_back(t.var());
    }
  }
}

void CollectVariables(const Rule& rule, std::vector<VariableId>& out) {
  CollectVariables(rule.head, out);
  for (const Atom& a : rule.body) CollectVariables(a, out);
}

void SubstituteConstants(Atom& atom, const std::vector<Value>& from,
                         const std::vector<Value>& to) {
  for (Term& t : atom.args) {
    if (!t.is_constant()) continue;
    auto it = std::find(from.begin(), from.end(), t.constant());
    if (it != from.end()) t = Term::Const(to[it - from.begin()]);
  }
}

void SubstituteConstants(Rule& rule, const std::vector<Value>& from,
                         const std::vector<Value>& to) {
  SubstituteConstants(rule.head, from, to);
  for (Atom& a : rule.body) SubstituteConstants(a, from, to);
}

}  // namespace mpqe
