// Relation: a duplicate-free multiset of fixed-arity tuples with
// insertion-order iteration and incrementally maintained hash indexes.
//
// Duplicate elimination is load-bearing for the whole system: the paper
// relies on it so that "nodes become idle when the computation is
// complete" (§1.2) — cycles of messages terminate because re-derived
// tuples are dropped.
//
// Storage layout: all values live in one contiguous arena
// (std::vector<Value>) strided by arity; a tuple is addressed by its
// row id (insertion order) and read through a TupleRef view, so no
// read path materializes an owning copy. Duplicate elimination and the
// column indexes are open-addressing (linear probe, power-of-two) hash
// tables whose entries are row ids — hashing and equality read the
// arena in place, so each tuple is stored exactly once.
//
// Indexes are registered on demand via EnsureIndex({cols...}) and kept
// current by Insert, so engine processes can interleave probes and
// inserts freely. Row ids are stable: positions never move or get
// reused, which the engine relies on for replaying answer streams.

#ifndef MPQE_RELATIONAL_RELATION_H_
#define MPQE_RELATIONAL_RELATION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "relational/tuple.h"

namespace mpqe {

class Relation;

// Sentinel for "no lineage id" (lineage disabled, or no id attached).
inline constexpr uint64_t kNoTupleId = ~uint64_t{0};

// Allocates globally unique, monotonically increasing 64-bit tuple
// ids. One allocator is shared by every relation of an evaluation so
// that numeric id order is consistent with derivation order: a derived
// tuple's inputs were allocated (hence numbered) strictly before it,
// which makes the lineage graph a DAG by construction (obs/lineage.h).
// fetch_add keeps allocation safe from concurrent node processes.
class TupleIdAllocator {
 public:
  uint64_t Allocate() { return next_.fetch_add(1, std::memory_order_relaxed); }

  /// Ids handed out so far (all ids are in [0, allocated())).
  uint64_t allocated() const { return next_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> next_{0};
};

// Result of a batch insert (Relation::InsertBlock / InsertSegment).
// Row dispositions are reported in segment order: rows[r] is the row id
// input row r landed on — a freshly appended row when it was new, the
// original row on a duplicate hit — which is exactly the order lineage
// batching (PublishDeriveBatch) needs. The object is a reusable scratch
// owned by the relation; it is valid until the next batch insert.
struct BatchInsertResult {
  size_t num_rows = 0;
  size_t num_inserted = 0;
  std::vector<uint64_t> inserted_bits;  // bit r set = input row r was new
  std::vector<size_t> rows;             // per input row: its row id

  bool inserted(size_t r) const {
    return ((inserted_bits[r >> 6] >> (r & 63)) & 1) != 0;
  }
  bool all_inserted() const { return num_inserted == num_rows; }
};

// Hash index over a subset of columns. Bucket keys are row positions
// into the owning relation's arena — the projected key tuples are
// never materialized; hashing and comparison read the arena in place.
// The owning relation is passed into each call (instead of stored)
// so Relation stays freely copyable and movable.
class RelationIndex {
 public:
  explicit RelationIndex(std::vector<size_t> key_columns)
      : key_columns_(std::move(key_columns)) {}

  const std::vector<size_t>& key_columns() const { return key_columns_; }

  /// Adds arena row `position` of `rel` to the index.
  void Add(const Relation& rel, size_t position);

  /// Returns positions of tuples whose projection on key_columns equals
  /// `key` (one value per key column, in key-column order), or nullptr
  /// if none.
  const std::vector<size_t>* Lookup(const Relation& rel, TupleRef key) const;

  /// Lookup with a precomputed key hash (must equal the FNV/HashCombine
  /// hash Lookup derives from `key`) — the batch-probe path hashes all
  /// keys in one columnar pass and resolves each here.
  const std::vector<size_t>* LookupHashed(const Relation& rel, TupleRef key,
                                          uint64_t hash) const;

  /// Batch lookup over a columnar key block (`num_rows` keys of
  /// key_columns().size() values each, row-major). Matching arena
  /// positions are appended to `positions`; `offsets` is rewritten to
  /// num_rows + 1 entries so key r's matches are
  /// positions[offsets[r] .. offsets[r+1]). A per-key Lookup serializes
  /// a chain of dependent cache misses (slot line, group record,
  /// position buffer, arena row); this kernel stages the chain across
  /// chunks of keys with software prefetching so the misses overlap —
  /// the point of probing whole segments at once.
  void LookupBlock(const Relation& rel, const Value* keys, size_t num_rows,
                   std::vector<size_t>& offsets,
                   std::vector<size_t>& positions) const;

  /// Drops every entry but keeps the slot array's capacity (the
  /// reusable-scratch idiom behind Relation::Clear).
  void Clear();

 private:
  struct Group {
    uint64_t hash = 0;               // projected-key hash, shared by rows
    std::vector<size_t> positions;   // rows with this key, insertion order
  };

  uint64_t HashRowKey(const Relation& rel, size_t position) const;
  bool RowKeyEquals(const Relation& rel, size_t position, TupleRef key) const;
  bool RowKeysEqual(const Relation& rel, size_t a, size_t b) const;
  void Grow();

  std::vector<size_t> key_columns_;
  std::vector<uint32_t> slots_;  // group id + 1; 0 = empty
  std::vector<Group> groups_;
};

class Relation {
 public:
  explicit Relation(size_t arity) : arity_(arity) {}

  size_t arity() const { return arity_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  struct InsertResult {
    size_t row = 0;        // the tuple's row (existing row on a duplicate)
    bool inserted = false; // whether a new row was created
  };

  /// Inserts a copy of `tuple` if not already present. Returns the
  /// tuple's row — the original row on a duplicate hit, so callers see
  /// the *first* insertion's identity (and lineage id) for re-derived
  /// tuples. The tuple's size must equal arity().
  InsertResult InsertRow(TupleRef tuple);

  /// Inserts a copy of `tuple` if not already present; returns true if
  /// inserted. The tuple's size must equal arity().
  bool Insert(TupleRef tuple) { return InsertRow(tuple).inserted; }

  /// Batch insert kernel: inserts every row of a columnar block
  /// (`num_rows` rows of arity() values each, row-major — the
  /// TupleSegment wire layout). All row hashes are computed in one pass
  /// over the contiguous block, arena and dedup-table capacity are
  /// reserved once for the worst case, then rows are bulk-inserted with
  /// no per-row growth checks. Intra-block duplicates dedup against
  /// earlier rows of the same block. The block must not alias this
  /// relation's own arena. The result is a reusable scratch valid until
  /// the next batch insert on this relation; see BatchInsertResult for
  /// the segment-order row-id guarantee lineage batching relies on.
  const BatchInsertResult& InsertBlock(const Value* values, size_t num_rows);

  /// InsertBlock over anything shaped like a msg TupleSegment (fields
  /// `arity`, `num_rows`, contiguous row-major `values`). Templated so
  /// relational/ stays independent of the msg/ layer.
  template <typename Segment>
  const BatchInsertResult& InsertSegment(const Segment& segment) {
    CheckBlockArity(segment.arity);
    return InsertBlock(segment.values.data(), segment.num_rows);
  }

  /// The row of `tuple`, or kNoRow when it is absent.
  static constexpr size_t kNoRow = ~size_t{0};
  size_t Find(TupleRef tuple) const;
  bool Contains(TupleRef tuple) const { return Find(tuple) != kNoRow; }

  /// View of the tuple at `position` (a row id in [0, size())). Stable
  /// across Inserts in identity, but the underlying pointer may move
  /// when the arena grows — do not hold TupleRefs across Insert.
  TupleRef tuple(size_t position) const {
    return TupleRef(values_.data() + position * arity_, arity_);
  }

  // Insertion-order iteration over TupleRef views; tuples() is stable
  // across Inserts (positions never move), which the engine relies on
  // for replaying answer streams.
  // Row-id based so zero-arity relations (stride 0, e.g. magic-set
  // seed relations holding the empty tuple) still iterate size() times.
  class const_iterator {
   public:
    const_iterator(const Relation* rel, size_t row) : rel_(rel), row_(row) {}
    TupleRef operator*() const { return rel_->tuple(row_); }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return row_ == o.row_; }
    bool operator!=(const const_iterator& o) const { return row_ != o.row_; }

   private:
    const Relation* rel_;
    size_t row_;
  };

  class TupleRange {
   public:
    explicit TupleRange(const Relation* rel) : rel_(rel) {}
    const_iterator begin() const { return const_iterator(rel_, 0); }
    const_iterator end() const { return const_iterator(rel_, rel_->num_rows_); }
    size_t size() const { return rel_->num_rows_; }
    bool empty() const { return rel_->num_rows_ == 0; }
    TupleRef operator[](size_t i) const { return rel_->tuple(i); }

   private:
    const Relation* rel_;
  };

  /// Tuples in insertion order.
  TupleRange tuples() const { return TupleRange(this); }

  /// Switches on per-row lineage ids drawn from `ids` (not owned; must
  /// outlive the relation, or be detached with DisableLineage first).
  /// Existing rows are numbered immediately in row order; later inserts
  /// number new rows as they land, and duplicate hits keep the original
  /// row's id — the first derivation wins, mirroring duplicate
  /// elimination. Calling again with the same allocator is a no-op; a
  /// different allocator renumbers all rows.
  void EnableLineage(TupleIdAllocator* ids);

  /// Detaches the allocator and drops the row ids. A lineage session
  /// calls this on the EDB relations it numbered when it ends, so the
  /// next session's EnableLineage renumbers them from its own fresh
  /// allocator even if that allocator reuses the old one's address.
  void DisableLineage();

  bool lineage_enabled() const { return lineage_ids_ != nullptr; }

  /// The lineage id of the tuple at `position`, or kNoTupleId when
  /// lineage is disabled. Ids are as stable as row ids: they attach to
  /// positions, which never move or get reused across arena growth.
  uint64_t row_id(size_t position) const {
    return lineage_ids_ == nullptr ? kNoTupleId : row_ids_[position];
  }

  /// Registers (or finds) an incrementally maintained index on
  /// `key_columns` and returns its handle for Probe().
  size_t EnsureIndex(const std::vector<size_t>& key_columns);

  /// Handle of an existing index on `key_columns`, or false. Never
  /// mutates the relation — the probe path for shared, immutable
  /// database snapshots whose indexes were registered at plan time
  /// (missing indexes degrade to scans instead of racing a build).
  bool FindIndex(const std::vector<size_t>& key_columns,
                 size_t* handle) const;

  /// Positions of tuples matching `key` on the index's key columns.
  const std::vector<size_t>* Probe(size_t index_handle, TupleRef key) const;

  /// Batch probe kernel: probes `index_handle` for every row of a
  /// columnar key block (`num_rows` keys, each one value per index key
  /// column in key-column order, row-major and contiguous — a
  /// TupleSegment value block whose arity equals the key width). Key
  /// hashes are computed in a single pass over the block; matching
  /// arena positions are APPENDED to the caller-owned scratch
  /// `positions`, and `offsets` is rewritten to `num_rows + 1` entries
  /// so key r's matches are positions[offsets[r] .. offsets[r+1]).
  /// Reusing the same scratch vectors across calls makes the steady
  /// state allocation-free.
  void ProbeBlock(size_t index_handle, const Value* keys, size_t num_rows,
                  std::vector<size_t>& offsets,
                  std::vector<size_t>& positions) const;

  /// Removes every row but keeps capacity — arena, per-row hash vector,
  /// dedup table, and index registrations all survive with their
  /// allocations intact. The reusable-scratch idiom for per-request
  /// dedup relations (EdbProcess). Lineage stays enabled; cleared rows'
  /// ids are simply retired.
  void Clear();

  /// Sorted copy of the tuples (for deterministic output/comparison).
  std::vector<Tuple> SortedTuples() const;

  friend bool operator==(const Relation& a, const Relation& b);

  std::string ToString(const SymbolTable* symbols = nullptr) const;

 private:
  friend class RelationIndex;

  bool RowEquals(size_t position, TupleRef tuple) const;
  void GrowDedup();
  void RebuildDedup(size_t capacity);
  void ReserveRows(size_t total_rows);
  void CheckBlockArity(size_t block_arity) const;

  size_t arity_;
  size_t num_rows_ = 0;
  std::vector<Value> values_;     // arena: arity_ values per row
  std::vector<uint64_t> hashes_;  // per-row full-tuple hash
  std::vector<uint32_t> slots_;   // dedup table: row id + 1; 0 = empty
  std::vector<RelationIndex> indexes_;
  TupleIdAllocator* lineage_ids_ = nullptr;  // null = lineage off
  std::vector<uint64_t> row_ids_;            // per-row id when enabled
  std::vector<uint64_t> batch_hashes_;       // InsertBlock hash scratch
  BatchInsertResult batch_result_;           // InsertBlock result scratch
};

}  // namespace mpqe

#endif  // MPQE_RELATIONAL_RELATION_H_
