#include "relational/relation.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace mpqe {

namespace {

// Open-addressing tables resize at 7/8 occupancy; linear probing stays
// fast well past that with a mixed hash, and 7/8 keeps the row-id
// tables within ~1.15 slots per tuple.
inline bool NeedsGrow(size_t used, size_t capacity) {
  return used * 8 >= capacity * 7;
}

constexpr size_t kInitialSlots = 16;  // power of two

}  // namespace

// ---------------------------------------------------------------------------
// RelationIndex
// ---------------------------------------------------------------------------

uint64_t RelationIndex::HashRowKey(const Relation& rel, size_t position) const {
  TupleRef row = rel.tuple(position);
  size_t seed = 0xcbf29ce484222325ULL;
  for (size_t c : key_columns_) {
    HashCombine(seed, std::hash<Value>{}(row[c]));
  }
  return seed;
}

bool RelationIndex::RowKeyEquals(const Relation& rel, size_t position,
                                 TupleRef key) const {
  TupleRef row = rel.tuple(position);
  for (size_t i = 0; i < key_columns_.size(); ++i) {
    if (row[key_columns_[i]] != key[i]) return false;
  }
  return true;
}

bool RelationIndex::RowKeysEqual(const Relation& rel, size_t a,
                                 size_t b) const {
  TupleRef ra = rel.tuple(a);
  TupleRef rb = rel.tuple(b);
  for (size_t c : key_columns_) {
    if (ra[c] != rb[c]) return false;
  }
  return true;
}

void RelationIndex::Grow() {
  size_t capacity = slots_.empty() ? kInitialSlots : slots_.size() * 2;
  slots_.assign(capacity, 0);
  size_t mask = capacity - 1;
  for (size_t g = 0; g < groups_.size(); ++g) {
    size_t i = Mix64(groups_[g].hash) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(g + 1);
  }
}

void RelationIndex::Add(const Relation& rel, size_t position) {
  if (slots_.empty() || NeedsGrow(groups_.size(), slots_.size())) Grow();
  uint64_t hash = HashRowKey(rel, position);
  size_t mask = slots_.size() - 1;
  size_t i = Mix64(hash) & mask;
  while (slots_[i] != 0) {
    Group& group = groups_[slots_[i] - 1];
    if (group.hash == hash &&
        RowKeysEqual(rel, group.positions.front(), position)) {
      group.positions.push_back(position);
      return;
    }
    i = (i + 1) & mask;
  }
  MPQE_CHECK(groups_.size() < UINT32_MAX);
  slots_[i] = static_cast<uint32_t>(groups_.size() + 1);
  groups_.push_back(Group{hash, {position}});
}

const std::vector<size_t>* RelationIndex::Lookup(const Relation& rel,
                                                 TupleRef key) const {
  size_t seed = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < key.size(); ++i) {
    HashCombine(seed, std::hash<Value>{}(key[i]));
  }
  return LookupHashed(rel, key, seed);
}

const std::vector<size_t>* RelationIndex::LookupHashed(const Relation& rel,
                                                       TupleRef key,
                                                       uint64_t hash) const {
  if (slots_.empty()) return nullptr;
  size_t mask = slots_.size() - 1;
  size_t i = Mix64(hash) & mask;
  while (slots_[i] != 0) {
    const Group& group = groups_[slots_[i] - 1];
    if (group.hash == hash &&
        RowKeyEquals(rel, group.positions.front(), key)) {
      return &group.positions;
    }
    i = (i + 1) & mask;
  }
  return nullptr;
}

void RelationIndex::LookupBlock(const Relation& rel, const Value* keys,
                                size_t num_rows,
                                std::vector<size_t>& offsets,
                                std::vector<size_t>& positions) const {
  size_t stride = key_columns_.size();
  offsets.clear();
  offsets.reserve(num_rows + 1);
  offsets.push_back(positions.size());
  if (slots_.empty()) {
    for (size_t r = 0; r < num_rows; ++r) offsets.push_back(positions.size());
    return;
  }
  size_t mask = slots_.size() - 1;

  // Staged probe in chunks (group prefetching): each stage issues the
  // next level of the per-key pointer chain for the whole chunk, so
  // the chain's cache misses overlap across keys instead of
  // serializing within one. The stages only warm the cache; stage E
  // resolves each key for real, falling back to the serial cluster
  // walk on the (rare) slot collision.
  constexpr size_t kChunk = 32;
  uint64_t chunk_hash[kChunk];
  size_t chunk_slot[kChunk];
  const Group* chunk_group[kChunk];
  for (size_t base = 0; base < num_rows; base += kChunk) {
    size_t n = std::min(kChunk, num_rows - base);
    // Stage A: hash each key, warm its home slot line.
    for (size_t j = 0; j < n; ++j) {
      const Value* key = keys + (base + j) * stride;
      size_t seed = 0xcbf29ce484222325ULL;
      for (size_t c = 0; c < stride; ++c) {
        HashCombine(seed, std::hash<Value>{}(key[c]));
      }
      chunk_hash[j] = seed;
      chunk_slot[j] = Mix64(seed) & mask;
      __builtin_prefetch(slots_.data() + chunk_slot[j]);
    }
    // Stage B: read the home slot; warm the candidate group record.
    for (size_t j = 0; j < n; ++j) {
      uint32_t s = slots_[chunk_slot[j]];
      chunk_group[j] = s == 0 ? nullptr : &groups_[s - 1];
      if (chunk_group[j] != nullptr) __builtin_prefetch(chunk_group[j]);
    }
    // Stage C: on a hash match, warm the group's position buffer.
    for (size_t j = 0; j < n; ++j) {
      const Group* g = chunk_group[j];
      if (g != nullptr && g->hash == chunk_hash[j]) {
        __builtin_prefetch(g->positions.data());
      }
    }
    // Stage D: warm the arena row the key compare reads.
    for (size_t j = 0; j < n; ++j) {
      const Group* g = chunk_group[j];
      if (g != nullptr && g->hash == chunk_hash[j]) {
        __builtin_prefetch(rel.values_.data() +
                           g->positions.front() * rel.arity_);
      }
    }
    // Stage E: resolve. An empty home slot is a definitive miss
    // (linear probing); a home-slot group that matches hash and key is
    // the answer; anything else walks the collision cluster serially.
    for (size_t j = 0; j < n; ++j) {
      TupleRef key(keys + (base + j) * stride, stride);
      const Group* g = chunk_group[j];
      const std::vector<size_t>* hits = nullptr;
      if (g != nullptr) {
        if (g->hash == chunk_hash[j] &&
            RowKeyEquals(rel, g->positions.front(), key)) {
          hits = &g->positions;
        } else {
          hits = LookupHashed(rel, key, chunk_hash[j]);
        }
      }
      if (hits != nullptr) {
        positions.insert(positions.end(), hits->begin(), hits->end());
      }
      offsets.push_back(positions.size());
    }
  }
}

void RelationIndex::Clear() {
  std::fill(slots_.begin(), slots_.end(), 0);
  groups_.clear();
}

// ---------------------------------------------------------------------------
// Relation
// ---------------------------------------------------------------------------

bool Relation::RowEquals(size_t position, TupleRef tuple) const {
  const Value* row = values_.data() + position * arity_;
  for (size_t i = 0; i < arity_; ++i) {
    if (row[i] != tuple[i]) return false;
  }
  return true;
}

void Relation::RebuildDedup(size_t capacity) {
  slots_.assign(capacity, 0);
  size_t mask = capacity - 1;
  for (size_t row = 0; row < num_rows_; ++row) {
    size_t i = Mix64(hashes_[row]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(row + 1);
  }
}

void Relation::GrowDedup() {
  RebuildDedup(slots_.empty() ? kInitialSlots : slots_.size() * 2);
}

void Relation::ReserveRows(size_t total_rows) {
  // Keep geometric growth when a batch outruns the current capacity: a
  // bare reserve(total) reallocates to exactly `total`, which would
  // copy the whole arena on every segment of a long stream (quadratic).
  if (values_.capacity() < total_rows * arity_) {
    values_.reserve(std::max(total_rows * arity_, values_.capacity() * 2));
  }
  if (hashes_.capacity() < total_rows) {
    hashes_.reserve(std::max(total_rows, hashes_.capacity() * 2));
  }
  if (lineage_ids_ != nullptr && row_ids_.capacity() < total_rows) {
    row_ids_.reserve(std::max(total_rows, row_ids_.capacity() * 2));
  }
  const size_t current = slots_.size();
  size_t capacity = current == 0 ? kInitialSlots : current;
  bool grew = false;
  while (NeedsGrow(total_rows, capacity)) {
    capacity *= 2;
    grew = true;
  }
  // A rebuild re-places every existing row, so its cost is what
  // dominates bulk loads. When one is unavoidable anyway, take an
  // extra doubling: a steady stream of segments then rebuilds at 4x
  // strides instead of 2x, cutting the total re-placement work from
  // ~2N to ~1.33N while the table stays within 4x of the strict
  // doubling footprint.
  if (grew) capacity *= 2;
  if (capacity != current) RebuildDedup(capacity);
}

void Relation::CheckBlockArity(size_t block_arity) const {
  MPQE_CHECK(block_arity == arity_)
      << "segment arity " << block_arity << " != relation arity " << arity_;
}

Relation::InsertResult Relation::InsertRow(TupleRef tuple) {
  MPQE_CHECK(tuple.size() == arity_)
      << "tuple arity " << tuple.size() << " != relation arity " << arity_;
  if (slots_.empty() || NeedsGrow(num_rows_, slots_.size())) GrowDedup();
  uint64_t hash = HashTuple(tuple);
  size_t mask = slots_.size() - 1;
  size_t i = Mix64(hash) & mask;
  while (slots_[i] != 0) {
    size_t row = slots_[i] - 1;
    if (hashes_[row] == hash && RowEquals(row, tuple)) {
      return InsertResult{row, false};
    }
    i = (i + 1) & mask;
  }
  // New row: append to the arena. (If `tuple` views this relation's own
  // arena it is necessarily a duplicate and was rejected above, so the
  // copy below never reads from a buffer the append may reallocate.)
  MPQE_CHECK(num_rows_ < UINT32_MAX);
  size_t position = num_rows_++;
  values_.insert(values_.end(), tuple.begin(), tuple.end());
  hashes_.push_back(hash);
  slots_[i] = static_cast<uint32_t>(position + 1);
  if (lineage_ids_ != nullptr) row_ids_.push_back(lineage_ids_->Allocate());
  for (auto& index : indexes_) index.Add(*this, position);
  return InsertResult{position, true};
}

const BatchInsertResult& Relation::InsertBlock(const Value* values,
                                               size_t num_rows) {
  BatchInsertResult& result = batch_result_;
  result.num_rows = num_rows;
  result.num_inserted = 0;
  result.rows.clear();
  result.inserted_bits.assign((num_rows + 63) / 64, 0);
  if (num_rows == 0) return result;
  result.rows.reserve(num_rows);

  // One hashing pass over the contiguous block.
  batch_hashes_.clear();
  batch_hashes_.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    batch_hashes_.push_back(HashTuple(TupleRef(values + r * arity_, arity_)));
  }

  // Reserve arena + dedup capacity once for the worst case (every row
  // new) — the insert loop below never grows or rehashes, so the slot
  // mask is fixed across the whole block.
  ReserveRows(num_rows_ + num_rows);
  size_t mask = slots_.size() - 1;

  // Staged insertion in chunks: a dedup probe is a chain of dependent
  // cache misses (slot line, then the candidate's stored hash and
  // arena row on a hit). Per-row insertion serializes that chain; with
  // the whole hash block in hand we instead issue the prefetches for a
  // chunk of rows per stage so the misses overlap (group prefetching).
  // The stages only warm the cache — stage C re-reads the live table
  // serially, so intra-chunk duplicates still dedup against rows
  // inserted moments earlier.
  constexpr size_t kChunk = 32;
  size_t chunk_slot[kChunk];
  for (size_t base = 0; base < num_rows; base += kChunk) {
    size_t n = std::min(kChunk, num_rows - base);
    // Stage A: warm each row's first slot line.
    for (size_t j = 0; j < n; ++j) {
      chunk_slot[j] = Mix64(batch_hashes_[base + j]) & mask;
      __builtin_prefetch(slots_.data() + chunk_slot[j]);
    }
    // Stage B: read the (now warm) slot; for occupied slots warm the
    // candidate's stored hash and arena row for the compare.
    for (size_t j = 0; j < n; ++j) {
      uint32_t s = slots_[chunk_slot[j]];
      if (s != 0) {
        size_t candidate = s - 1;
        __builtin_prefetch(hashes_.data() + candidate);
        __builtin_prefetch(values_.data() + candidate * arity_);
      }
    }
    // Stage C: serial resolve against the live table.
    for (size_t j = 0; j < n; ++j) {
      size_t r = base + j;
      const Value* row_values = values + r * arity_;
      uint64_t hash = batch_hashes_[r];
      size_t i = chunk_slot[j];
      size_t row;
      for (;;) {
        if (slots_[i] == 0) {
          // New row (earlier rows of this block are already in the
          // table, so intra-block duplicates dedup naturally).
          MPQE_CHECK(num_rows_ < UINT32_MAX);
          row = num_rows_++;
          values_.insert(values_.end(), row_values, row_values + arity_);
          hashes_.push_back(hash);
          slots_[i] = static_cast<uint32_t>(row + 1);
          if (lineage_ids_ != nullptr) {
            row_ids_.push_back(lineage_ids_->Allocate());
          }
          for (auto& index : indexes_) index.Add(*this, row);
          result.inserted_bits[r >> 6] |= uint64_t{1} << (r & 63);
          ++result.num_inserted;
          break;
        }
        size_t candidate = slots_[i] - 1;
        if (hashes_[candidate] == hash &&
            RowEquals(candidate, TupleRef(row_values, arity_))) {
          row = candidate;
          break;
        }
        i = (i + 1) & mask;
      }
      result.rows.push_back(row);
    }
  }
  return result;
}

void Relation::ProbeBlock(size_t index_handle, const Value* keys,
                          size_t num_rows, std::vector<size_t>& offsets,
                          std::vector<size_t>& positions) const {
  indexes_[index_handle].LookupBlock(*this, keys, num_rows, offsets,
                                     positions);
}

void Relation::Clear() {
  num_rows_ = 0;
  values_.clear();
  hashes_.clear();
  row_ids_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
  for (auto& index : indexes_) index.Clear();
}

void Relation::EnableLineage(TupleIdAllocator* ids) {
  MPQE_CHECK(ids != nullptr);
  if (lineage_ids_ == ids) return;
  lineage_ids_ = ids;
  row_ids_.clear();
  row_ids_.reserve(num_rows_);
  for (size_t row = 0; row < num_rows_; ++row) {
    row_ids_.push_back(ids->Allocate());
  }
}

void Relation::DisableLineage() {
  lineage_ids_ = nullptr;
  row_ids_.clear();
}

size_t Relation::Find(TupleRef tuple) const {
  if (tuple.size() != arity_ || slots_.empty()) return kNoRow;
  uint64_t hash = HashTuple(tuple);
  size_t mask = slots_.size() - 1;
  size_t i = Mix64(hash) & mask;
  while (slots_[i] != 0) {
    size_t row = slots_[i] - 1;
    if (hashes_[row] == hash && RowEquals(row, tuple)) return row;
    i = (i + 1) & mask;
  }
  return kNoRow;
}

size_t Relation::EnsureIndex(const std::vector<size_t>& key_columns) {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].key_columns() == key_columns) return i;
  }
  indexes_.emplace_back(key_columns);
  RelationIndex& index = indexes_.back();
  for (size_t pos = 0; pos < num_rows_; ++pos) {
    index.Add(*this, pos);
  }
  return indexes_.size() - 1;
}

bool Relation::FindIndex(const std::vector<size_t>& key_columns,
                         size_t* handle) const {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].key_columns() == key_columns) {
      *handle = i;
      return true;
    }
  }
  return false;
}

const std::vector<size_t>* Relation::Probe(size_t index_handle,
                                           TupleRef key) const {
  return indexes_[index_handle].Lookup(*this, key);
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> sorted;
  sorted.reserve(num_rows_);
  for (size_t row = 0; row < num_rows_; ++row) {
    sorted.push_back(tuple(row).ToTuple());
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

bool operator==(const Relation& a, const Relation& b) {
  if (a.arity_ != b.arity_ || a.size() != b.size()) return false;
  for (size_t row = 0; row < a.num_rows_; ++row) {
    if (!b.Contains(a.tuple(row))) return false;
  }
  return true;
}

std::string Relation::ToString(const SymbolTable* symbols) const {
  return StrCat("{",
                StrJoin(SortedTuples(), ", ",
                        [symbols](std::ostream& os, const Tuple& t) {
                          os << TupleToString(t, symbols);
                        }),
                "}");
}

}  // namespace mpqe
