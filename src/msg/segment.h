// Columnar tuple segments: the wire representation of a run of answer
// tuples on one stream. A TupleSegment holds its stream's binding and
// a contiguous value block strided by arity — the same layout as the
// relational arena (relational/relation.h) — plus an optional per-row
// lineage column, and travels between node processes as a
// shared-ownership (std::shared_ptr<const TupleSegment>) handle inside
// a kTupleSegment message. Fan-out to several consumers shares one
// segment object; no per-tuple copy is made anywhere on the path.
//
// Storage: the binding keeps up to kInlineBindingValues values and the
// value block up to kInlineRowValues values inside the segment object
// itself, so a segment built with std::make_shared whose binding and
// rows fit (every one-row answer of arity <= 4 under a binding of <= 2
// values) is one heap allocation. Either spills to the heap past its
// inline block.
//
// Invariants: `values.size() == num_rows * arity` (num_rows is stored
// explicitly so arity-0 streams work), and `lineage` is either empty
// (provenance off) or holds exactly one id per row.

#ifndef MPQE_MSG_SEGMENT_H_
#define MPQE_MSG_SEGMENT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "relational/tuple.h"

namespace mpqe {

// Sentinel for "no lineage attached" (mirrors kNoTupleId in
// relational/relation.h; kept separate so msg/ does not depend on the
// relational layer's headers beyond tuple.h).
inline constexpr uint64_t kNoLineage = ~uint64_t{0};

// A growable run of Values whose first N live inline. Once the run
// outgrows N, every value moves to a heap vector (one spill, then
// amortized growth). Copyable and movable by value.
template <size_t N>
class InlineValues {
 public:
  size_t size() const { return spilled_ ? heap_.size() : inline_size_; }
  bool empty() const { return size() == 0; }
  const Value* data() const { return spilled_ ? heap_.data() : inline_; }
  const Value* begin() const { return data(); }
  const Value* end() const { return data() + size(); }
  const Value& operator[](size_t i) const { return data()[i]; }
  // Implicit on purpose, like TupleRef's Tuple constructor: lets the
  // run feed every view-based API (Probe, ==, transparent lookups).
  operator TupleRef() const {  // NOLINT(google-explicit-constructor)
    return TupleRef(data(), size());
  }

  /// Replaces the contents with `values`.
  void assign(TupleRef values) {
    if (spilled_) {
      heap_.assign(values.begin(), values.end());
      return;
    }
    inline_size_ = 0;
    append(values);
  }

  /// Appends `values` (which must not point into this run).
  void append(TupleRef values) {
    if (!spilled_) {
      if (inline_size_ + values.size() <= N) {
        std::copy(values.begin(), values.end(), inline_ + inline_size_);
        inline_size_ += values.size();
        return;
      }
      Spill(inline_size_ + values.size());
    }
    heap_.insert(heap_.end(), values.begin(), values.end());
  }

  void push_back(Value value) { append(TupleRef(&value, 1)); }

  /// Ensures room for `n` values without further allocation.
  void reserve(size_t n) {
    if (spilled_) {
      heap_.reserve(n);
    } else if (n > N) {
      Spill(n);
    }
  }

 private:
  void Spill(size_t n) {
    heap_.reserve(std::max(n, 2 * N));
    heap_.assign(inline_, inline_ + inline_size_);
    spilled_ = true;
  }

  Value inline_[N];
  uint32_t inline_size_ = 0;
  bool spilled_ = false;
  std::vector<Value> heap_;  // every value, once spilled
};

inline constexpr size_t kInlineBindingValues = 2;
inline constexpr size_t kInlineRowValues = 4;

struct TupleSegment {
  // The stream's tuple-request binding: every row answers it. The
  // segment is the only place an answer's binding travels
  // (Message::binding stays empty on kTupleSegment messages).
  InlineValues<kInlineBindingValues> binding;
  size_t arity = 0;     // values per row
  size_t num_rows = 0;  // explicit so arity-0 rows still count
  // Row-major value block, num_rows * arity entries.
  InlineValues<kInlineRowValues> values;
  // Per-row lineage ids (empty when provenance tracking is off).
  std::vector<uint64_t> lineage;

  bool empty() const { return num_rows == 0; }

  TupleRef row(size_t i) const {
    return TupleRef(values.data() + i * arity, arity);
  }

  uint64_t row_lineage(size_t i) const {
    return lineage.empty() ? kNoLineage : lineage[i];
  }

  /// Appends a row (the caller pushes the lineage id separately when
  /// tracking is on; see the invariant above).
  void AppendRow(TupleRef row) {
    values.append(row);
    ++num_rows;
  }

  /// Aborts if the columnar invariants are violated: the value block
  /// must hold exactly num_rows * arity entries and the lineage column
  /// must be absent or exactly one id per row. Producers call this at
  /// seal time so a desynchronized inputs/lineage column can never
  /// reach the wire.
  void CheckConsistent() const {
    MPQE_CHECK(values.size() == num_rows * arity)
        << "segment value block " << values.size() << " != " << num_rows
        << " rows x arity " << arity;
    MPQE_CHECK(lineage.empty() || lineage.size() == num_rows)
        << "segment lineage column " << lineage.size() << " != num_rows "
        << num_rows;
  }
};

}  // namespace mpqe

#endif  // MPQE_MSG_SEGMENT_H_
