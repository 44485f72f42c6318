// Abstract syntax for function-free Horn clause programs (Datalog):
// terms (variables / constants), atoms, rules, and the pools that
// intern predicate and variable names.
//
// Variables and predicates are dense integer ids so that unification,
// variant tests and graph-node signatures are cheap; names live in the
// pools and are used only for printing.

#ifndef MPQE_DATALOG_AST_H_
#define MPQE_DATALOG_AST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "relational/value.h"

namespace mpqe {

using PredicateId = int32_t;
using VariableId = int32_t;

// A term is a variable or a constant (no function symbols, per §1).
class Term {
 public:
  static Term Var(VariableId v) { return Term(true, v, Value()); }
  static Term Const(Value v) { return Term(false, -1, v); }

  bool is_variable() const { return is_variable_; }
  bool is_constant() const { return !is_variable_; }

  VariableId var() const { return var_; }
  const Value& constant() const { return constant_; }

  friend bool operator==(const Term& a, const Term& b) {
    if (a.is_variable_ != b.is_variable_) return false;
    return a.is_variable_ ? a.var_ == b.var_ : a.constant_ == b.constant_;
  }
  friend bool operator!=(const Term& a, const Term& b) { return !(a == b); }

 private:
  Term(bool is_variable, VariableId var, Value constant)
      : is_variable_(is_variable), var_(var), constant_(constant) {}

  bool is_variable_;
  VariableId var_;
  Value constant_;
};

// A positive literal: predicate applied to terms.
struct Atom {
  PredicateId predicate = -1;
  std::vector<Term> args;

  size_t arity() const { return args.size(); }

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.predicate == b.predicate && a.args == b.args;
  }
};

// A Horn clause: head :- body. A fact is a rule with empty body (but
// facts normally live in the Database, not the Program).
struct Rule {
  Atom head;
  std::vector<Atom> body;
};

// Interns variable names and mints fresh variables. Copyable: the
// graph builder copies the program's pool so construction-time fresh
// variables don't mutate the program.
class VariablePool {
 public:
  /// Returns the id for `name`, interning on first use.
  VariableId Intern(std::string_view name);

  /// Mints a fresh variable distinct from all existing ones; its name
  /// is "_G<n>" (optionally suffixed with `hint` for readability).
  VariableId Fresh(std::string_view hint = "");

  /// Name for `id` ("_?<id>" if out of range).
  std::string Name(VariableId id) const;

  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, VariableId> ids_;
};

// Interns predicate names with fixed arities.
class PredicatePool {
 public:
  /// Returns the id for `name`, checking arity consistency.
  StatusOr<PredicateId> Intern(std::string_view name, size_t arity);

  /// Id for `name` if interned, else -1.
  PredicateId Find(std::string_view name) const;

  const std::string& Name(PredicateId id) const { return names_[id]; }
  size_t Arity(PredicateId id) const { return arities_[id]; }
  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::vector<size_t> arities_;
  std::unordered_map<std::string, PredicateId> ids_;
};

/// Collects the distinct variables of `atom` in order of first
/// occurrence, appending to `out` (skipping ones already present).
void CollectVariables(const Atom& atom, std::vector<VariableId>& out);
void CollectVariables(const Rule& rule, std::vector<VariableId>& out);

/// Replaces each constant of `atom` (or of every atom of `rule`) that
/// equals from[i] by to[i]; `from` and `to` have equal length.
void SubstituteConstants(Atom& atom, const std::vector<Value>& from,
                         const std::vector<Value>& to);
void SubstituteConstants(Rule& rule, const std::vector<Value>& from,
                         const std::vector<Value>& to);

}  // namespace mpqe

namespace std {
template <>
struct hash<mpqe::Term> {
  size_t operator()(const mpqe::Term& t) const {
    size_t seed = t.is_variable() ? 0x517cc1b727220a95ULL : 0;
    if (t.is_variable()) {
      mpqe::HashCombine(seed, std::hash<mpqe::VariableId>{}(t.var()));
    } else {
      mpqe::HashCombine(seed, std::hash<mpqe::Value>{}(t.constant()));
    }
    return seed;
  }
};

template <>
struct hash<mpqe::Atom> {
  size_t operator()(const mpqe::Atom& a) const {
    size_t seed = std::hash<mpqe::PredicateId>{}(a.predicate);
    for (const auto& t : a.args) {
      mpqe::HashCombine(seed, std::hash<mpqe::Term>{}(t));
    }
    return seed;
  }
};
}  // namespace std

#endif  // MPQE_DATALOG_AST_H_
