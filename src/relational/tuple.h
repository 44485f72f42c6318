// Tuples: owning flat vectors of Values, the non-owning TupleRef view
// over arena storage, plus hashing and printing helpers.

#ifndef MPQE_RELATIONAL_TUPLE_H_
#define MPQE_RELATIONAL_TUPLE_H_

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/hash.h"
#include "relational/value.h"

namespace mpqe {

using Tuple = std::vector<Value>;

// Non-owning view of a contiguous run of Values. Relations store all
// tuples flat in one arena strided by arity, and every read path hands
// out TupleRefs instead of materializing owning copies. Two words,
// cheap to pass by value.
//
// Lifetime: a TupleRef must not outlive the storage it points into.
// In particular Relation::Insert may reallocate the arena, which
// invalidates refs obtained from that relation earlier.
class TupleRef {
 public:
  TupleRef() = default;
  TupleRef(const Value* data, size_t size) : data_(data), size_(size) {}
  // Implicit on purpose: lets Tuple-producing call sites feed view-based
  // APIs (Insert/Contains/Probe) without copies or overloads.
  TupleRef(const Tuple& tuple)  // NOLINT(google-explicit-constructor)
      : data_(tuple.data()), size_(tuple.size()) {}
  // Safe only as a function argument: the backing array lives to the
  // end of the full expression (same caveat as std::span's overload).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
  TupleRef(std::initializer_list<Value> values)  // NOLINT
      : data_(values.begin()), size_(values.size()) {}
#pragma GCC diagnostic pop

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Value& operator[](size_t i) const { return data_[i]; }
  const Value* data() const { return data_; }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }

  /// Materializes an owning copy (e.g. for message payloads).
  Tuple ToTuple() const { return Tuple(data_, data_ + size_); }

 private:
  const Value* data_ = nullptr;
  size_t size_ = 0;
};

inline bool operator==(TupleRef a, TupleRef b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}
inline bool operator!=(TupleRef a, TupleRef b) { return !(a == b); }
// Lexicographic, consistent with std::vector<Value>'s ordering.
inline bool operator<(TupleRef a, TupleRef b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
  }
  return a.size() < b.size();
}

/// Hashes the viewed values.
inline size_t HashTuple(TupleRef tuple) {
  return HashRange(tuple.begin(), tuple.end());
}

/// Projects `tuple` onto `columns` (in the given order).
Tuple ProjectTuple(TupleRef tuple, const std::vector<size_t>& columns);

/// Renders "(v1, v2, ...)".
std::string TupleToString(TupleRef tuple,
                          const SymbolTable* symbols = nullptr);

std::ostream& operator<<(std::ostream& os, TupleRef tuple);

}  // namespace mpqe

#endif  // MPQE_RELATIONAL_TUPLE_H_
