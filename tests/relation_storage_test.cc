// Storage-layer tests for the flat tuple arena behind Relation:
//
//  * arena growth and dedup/index rehashes keep row positions, Probe
//    results and insertion-order iteration stable across interleaved
//    Insert/EnsureIndex/Probe sequences;
//  * model-based property test: duplicate elimination, Contains,
//    equality and SortedTuples match a reference implementation built
//    on plain std::vector<Tuple>/std::set<Tuple>.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "relational/relation.h"

namespace mpqe {
namespace {

Tuple T2(int64_t a, int64_t b) { return {Value::Int(a), Value::Int(b)}; }

// Reference semantics: insertion-ordered, duplicate-free tuple list.
class ReferenceRelation {
 public:
  explicit ReferenceRelation(size_t arity) : arity_(arity) {}

  bool Insert(const Tuple& t) {
    if (!seen_.insert(t).second) return false;
    rows_.push_back(t);
    return true;
  }

  bool Contains(const Tuple& t) const { return seen_.count(t) != 0; }
  size_t size() const { return rows_.size(); }
  const std::vector<Tuple>& rows() const { return rows_; }
  size_t arity() const { return arity_; }

  std::vector<Tuple> SortedTuples() const {
    std::vector<Tuple> out = rows_;
    std::sort(out.begin(), out.end());
    return out;
  }

  // Positions whose tuples agree with `key` on `columns`.
  std::vector<size_t> Matches(const std::vector<size_t>& columns,
                              const Tuple& key) const {
    std::vector<size_t> out;
    for (size_t pos = 0; pos < rows_.size(); ++pos) {
      bool ok = true;
      for (size_t i = 0; i < columns.size(); ++i) {
        if (rows_[pos][columns[i]] != key[i]) ok = false;
      }
      if (ok) out.push_back(pos);
    }
    return out;
  }

 private:
  size_t arity_;
  std::vector<Tuple> rows_;
  std::set<Tuple> seen_;
};

TEST(RelationStorageTest, InsertionOrderSurvivesArenaGrowth) {
  // Far past several capacity doublings of the dedup table and arena.
  Relation r(2);
  std::vector<Tuple> expected;
  for (int64_t i = 0; i < 5000; ++i) {
    Tuple t = T2(i % 97, i);
    if (r.Insert(t)) expected.push_back(t);
    // Duplicate re-insert of an early row must stay rejected.
    EXPECT_FALSE(r.Insert(T2(0, 0)));
  }
  ASSERT_EQ(r.size(), expected.size());
  size_t pos = 0;
  for (TupleRef t : r.tuples()) {
    EXPECT_EQ(t.ToTuple(), expected[pos]);
    EXPECT_EQ(r.tuple(pos), TupleRef(expected[pos]));
    ++pos;
  }
  EXPECT_EQ(pos, expected.size());
}

TEST(RelationStorageTest, ProbeStableAcrossInterleavedInsertAndRehash) {
  Relation r(2);
  ReferenceRelation ref(2);
  // Index created while the relation is still tiny; every later insert
  // must maintain it through dedup-table and index-table rehashes.
  size_t by_first = r.EnsureIndex({0});
  Rng rng(42);
  for (int round = 0; round < 2000; ++round) {
    Tuple t = T2(rng.Range(0, 30), rng.Range(0, 200));
    EXPECT_EQ(r.Insert(t), ref.Insert(t));
    if (round % 67 == 0) {
      // Re-request: must return the same handle, not rebuild.
      EXPECT_EQ(r.EnsureIndex({0}), by_first);
      int64_t probe_val = rng.Range(0, 30);
      Tuple key = {Value::Int(probe_val)};
      const std::vector<size_t>* hits = r.Probe(by_first, key);
      std::vector<size_t> got = hits ? *hits : std::vector<size_t>{};
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, ref.Matches({0}, key)) << "round " << round;
    }
  }
  // Final full sweep: every key, plus a second index created late must
  // agree with one created before any inserts.
  size_t by_second = r.EnsureIndex({1});
  for (int64_t v = 0; v < 31; ++v) {
    Tuple key = {Value::Int(v)};
    const std::vector<size_t>* hits = r.Probe(by_first, key);
    std::vector<size_t> got = hits ? *hits : std::vector<size_t>{};
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, ref.Matches({0}, key));
  }
  for (int64_t v = 0; v < 201; ++v) {
    Tuple key = {Value::Int(v)};
    const std::vector<size_t>* hits = r.Probe(by_second, key);
    std::vector<size_t> got = hits ? *hits : std::vector<size_t>{};
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, ref.Matches({1}, key));
  }
}

TEST(RelationStorageTest, ZeroArityRelationHoldsOneEmptyTuple) {
  Relation r(0);
  EXPECT_FALSE(r.Contains(Tuple{}));
  EXPECT_TRUE(r.Insert(Tuple{}));
  EXPECT_FALSE(r.Insert(Tuple{}));  // the only possible duplicate
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Tuple{}));
  size_t seen = 0;
  for (TupleRef t : r.tuples()) {
    EXPECT_EQ(t.size(), 0u);
    ++seen;
  }
  EXPECT_EQ(seen, 1u);
}

TEST(RelationStorageTest, EmptyKeyIndexReturnsAllRows) {
  Relation r(2);
  for (int64_t i = 0; i < 10; ++i) r.Insert(T2(i, i * i));
  size_t handle = r.EnsureIndex({});
  const std::vector<size_t>* hits = r.Probe(handle, Tuple{});
  ASSERT_NE(hits, nullptr);
  std::vector<size_t> got = *hits;
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got.size(), 10u);
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i);
}

class RelationStorageProperty : public ::testing::TestWithParam<uint64_t> {};

// Randomized interleavings of Insert/EnsureIndex/Probe against the
// reference model: public semantics (dedup, order, Contains, equality,
// SortedTuples, Probe) must be indistinguishable from the old
// Tuple-set implementation.
TEST_P(RelationStorageProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  size_t arity = static_cast<size_t>(rng.Range(1, 3));
  Relation r(arity);
  ReferenceRelation ref(arity);
  std::map<std::vector<size_t>, size_t> handles;

  for (int step = 0; step < 1500; ++step) {
    int op = static_cast<int>(rng.Range(0, 9));
    if (op < 6) {  // Insert
      Tuple t;
      for (size_t j = 0; j < arity; ++j) {
        t.push_back(Value::Int(rng.Range(0, 8)));
      }
      EXPECT_EQ(r.Insert(t), ref.Insert(t));
    } else if (op < 7) {  // EnsureIndex over a random column subset
      std::vector<size_t> cols;
      for (size_t j = 0; j < arity; ++j) {
        if (rng.Range(0, 1) == 0) cols.push_back(j);
      }
      size_t handle = r.EnsureIndex(cols);
      auto [it, inserted] = handles.emplace(cols, handle);
      if (!inserted) {
        EXPECT_EQ(handle, it->second);
      }
    } else if (op < 8) {  // Probe a previously created index
      if (handles.empty()) continue;
      auto it = handles.begin();
      std::advance(it, rng.Range(0, static_cast<int64_t>(handles.size()) - 1));
      const std::vector<size_t>& cols = it->first;
      Tuple key;
      for (size_t j = 0; j < cols.size(); ++j) {
        key.push_back(Value::Int(rng.Range(0, 8)));
      }
      const std::vector<size_t>* hits = r.Probe(it->second, key);
      std::vector<size_t> got = hits ? *hits : std::vector<size_t>{};
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, ref.Matches(cols, key)) << "step " << step;
    } else {  // Contains on a random (often absent) tuple
      Tuple t;
      for (size_t j = 0; j < arity; ++j) {
        t.push_back(Value::Int(rng.Range(0, 10)));
      }
      EXPECT_EQ(r.Contains(t), ref.Contains(t));
    }
  }

  // Whole-relation invariants.
  ASSERT_EQ(r.size(), ref.size());
  size_t pos = 0;
  for (TupleRef t : r.tuples()) {
    EXPECT_EQ(t.ToTuple(), ref.rows()[pos]);
    ++pos;
  }
  EXPECT_EQ(r.SortedTuples(), ref.SortedTuples());

  // Equality: rebuilding in a different insertion order (with
  // duplicates sprinkled in) compares equal; dropping a row does not.
  Relation shuffled(arity);
  std::vector<Tuple> rows = ref.rows();
  for (size_t i = rows.size(); i > 0; --i) {
    shuffled.Insert(rows[i - 1]);
    shuffled.Insert(rows[rows.size() - 1]);  // duplicate on purpose
  }
  EXPECT_TRUE(r == shuffled);
  if (!rows.empty()) {
    Relation truncated(arity);
    for (size_t i = 0; i + 1 < rows.size(); ++i) truncated.Insert(rows[i]);
    EXPECT_FALSE(r == truncated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationStorageProperty,
                         ::testing::Range(uint64_t{0}, uint64_t{12}));

// ---------------------------------------------------------------------------
// Batch kernels (InsertSegment / ProbeBlock) against the row-at-a-time
// primitives they vectorize.

// Local stand-in for msg's TupleSegment: relational/ is layered below
// msg/, so InsertSegment is templated on the shape
// (fields arity / num_rows / contiguous row-major values).
struct TestSegment {
  size_t arity = 0;
  size_t num_rows = 0;
  std::vector<Value> values;

  void Append(const Tuple& t) {
    values.insert(values.end(), t.begin(), t.end());
    ++num_rows;
  }
  TupleRef row(size_t r) const {
    return TupleRef(values.data() + r * arity, arity);
  }
};

class BatchKernelProperty : public ::testing::TestWithParam<uint64_t> {};

// InsertSegment must be observationally identical to an InsertRow
// loop: same per-row accept/reject verdicts, same row ids in segment
// order (the lineage-batching contract), same final arena. Segments
// cover the full mix — random rows with frequent duplicates,
// wholesale all-duplicate re-derivations, empty segments, and the
// arity-0 edge case.
TEST_P(BatchKernelProperty, InsertSegmentMatchesInsertRow) {
  Rng rng(GetParam());
  const size_t arity = static_cast<size_t>(rng.Range(0, 2));
  Relation batch(arity);
  Relation serial(arity);
  std::vector<TestSegment> history;
  for (int s = 0; s < 40; ++s) {
    TestSegment seg;
    seg.arity = arity;
    if (s % 9 == 8 && !history.empty()) {
      // Wholesale re-derivation: an earlier segment arrives again.
      seg = history[static_cast<size_t>(
          rng.Range(0, static_cast<int64_t>(history.size()) - 1))];
    } else if (s % 9 != 7) {  // every ninth-ish segment stays empty
      const int64_t rows = rng.Range(1, 96);
      for (int64_t i = 0; i < rows; ++i) {
        Tuple t;
        for (size_t j = 0; j < arity; ++j) {
          t.push_back(Value::Int(rng.Range(0, 40)));
        }
        seg.Append(t);
      }
    }
    history.push_back(seg);

    const BatchInsertResult& res = batch.InsertSegment(seg);
    ASSERT_EQ(res.num_rows, seg.num_rows);
    ASSERT_EQ(res.rows.size(), seg.num_rows);
    size_t inserted = 0;
    for (size_t r = 0; r < seg.num_rows; ++r) {
      Relation::InsertResult ins = serial.InsertRow(seg.row(r));
      EXPECT_EQ(res.inserted(r), ins.inserted) << "segment " << s
                                               << " row " << r;
      EXPECT_EQ(res.rows[r], ins.row) << "segment " << s << " row " << r;
      if (ins.inserted) ++inserted;
    }
    EXPECT_EQ(res.num_inserted, inserted);
    ASSERT_EQ(batch.size(), serial.size());
  }
  EXPECT_TRUE(batch == serial);
  for (size_t pos = 0; pos < batch.size(); ++pos) {
    EXPECT_EQ(batch.tuple(pos).ToTuple(), serial.tuple(pos).ToTuple());
  }
}

// ProbeBlock must partition its positions output exactly as per-key
// Probe calls would answer, including missing keys (empty ranges) and
// a not-yet-populated index.
TEST_P(BatchKernelProperty, ProbeBlockMatchesProbe) {
  Rng rng(GetParam() + 1000);
  Relation r(2);
  const size_t idx = r.EnsureIndex({0});

  std::vector<size_t> offsets;
  std::vector<size_t> positions;
  // Empty relation: every key must come back with an empty range.
  {
    std::vector<Value> keys{Value::Int(1), Value::Int(2)};
    r.ProbeBlock(idx, keys.data(), keys.size(), offsets, positions);
    ASSERT_EQ(offsets.size(), keys.size() + 1);
    EXPECT_TRUE(positions.empty());
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(offsets[i], offsets[i + 1]);
    }
  }

  const int64_t rows = rng.Range(50, 800);
  for (int64_t i = 0; i < rows; ++i) {
    r.Insert(T2(rng.Range(0, 30), rng.Range(0, 100)));
  }
  // Key block mixing present and absent keys.
  const size_t num_keys = 200;
  std::vector<Value> keys;
  keys.reserve(num_keys);
  for (size_t i = 0; i < num_keys; ++i) {
    keys.push_back(Value::Int(rng.Range(0, 40)));
  }
  positions.clear();
  r.ProbeBlock(idx, keys.data(), num_keys, offsets, positions);
  ASSERT_EQ(offsets.size(), num_keys + 1);
  for (size_t i = 0; i < num_keys; ++i) {
    Tuple key{keys[i]};
    const std::vector<size_t>* hits = r.Probe(idx, key);
    std::vector<size_t> expected = hits ? *hits : std::vector<size_t>{};
    ASSERT_LE(offsets[i], offsets[i + 1]);
    ASSERT_LE(offsets[i + 1], positions.size());
    std::vector<size_t> got(positions.begin() + offsets[i],
                            positions.begin() + offsets[i + 1]);
    EXPECT_EQ(got, expected) << "key " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchKernelProperty,
                         ::testing::Range(uint64_t{0}, uint64_t{12}));

TEST(RelationStorageTest, ClearKeepsBatchScaffoldingUsable) {
  // Clear drops rows but keeps capacity, dedup slots, and index
  // registrations — the reusable-scratch idiom batch consumers
  // (EdbProcess request dedup) rely on between requests.
  Relation r(2);
  const size_t idx = r.EnsureIndex({0});
  TestSegment seg;
  seg.arity = 2;
  for (int64_t i = 0; i < 300; ++i) seg.Append(T2(i % 10, i));
  ASSERT_EQ(r.InsertSegment(seg).num_inserted, 300u);
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_FALSE(r.Contains(T2(0, 0)));
  const std::vector<size_t>* hits = r.Probe(idx, Tuple{Value::Int(0)});
  EXPECT_TRUE(hits == nullptr || hits->empty());
  // Re-absorbing the same segment after Clear must accept every row
  // again and keep dedup exact within the new epoch.
  const BatchInsertResult& res = r.InsertSegment(seg);
  EXPECT_EQ(res.num_inserted, 300u);
  EXPECT_EQ(r.InsertSegment(seg).num_inserted, 0u);
  EXPECT_EQ(r.size(), 300u);
  hits = r.Probe(idx, Tuple{Value::Int(3)});
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->size(), 30u);
}

}  // namespace
}  // namespace mpqe
