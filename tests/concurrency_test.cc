// Concurrency-safety checks for the pieces shared across threads in
// threaded runs: SymbolTable interning, Network statistics, and
// concurrent read-only Relation probes.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "msg/network.h"
#include "msg/worker_pool.h"
#include "relational/relation.h"
#include "relational/value.h"

namespace mpqe {
namespace {

TEST(ConcurrencyTest, SymbolTableConcurrentIntern) {
  SymbolTable symbols;
  constexpr int kThreads = 4;
  constexpr int kNames = 200;
  std::vector<std::thread> pool;
  std::vector<std::vector<int64_t>> ids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kNames; ++i) {
        ids[t].push_back(symbols.Intern(StrCat("sym", i)));
      }
    });
  }
  for (auto& th : pool) th.join();
  // All threads agree on every id, and names round-trip.
  for (int i = 0; i < kNames; ++i) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[t][i], ids[0][i]);
    }
    EXPECT_EQ(symbols.Name(ids[0][i]), StrCat("sym", i));
  }
  EXPECT_EQ(symbols.size(), static_cast<size_t>(kNames));
}

TEST(ConcurrencyTest, RelationConcurrentProbes) {
  Relation rel(2);
  for (int i = 0; i < 500; ++i) {
    rel.Insert({Value::Int(i % 50), Value::Int(i)});
  }
  size_t handle = rel.EnsureIndex({0});

  std::atomic<size_t> total{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      size_t local = 0;
      for (int round = 0; round < 200; ++round) {
        for (int key = 0; key < 50; ++key) {
          const std::vector<size_t>* hits =
              rel.Probe(handle, {Value::Int(key)});
          if (hits != nullptr) local += hits->size();
        }
      }
      total.fetch_add(local);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(total.load(), 4u * 200u * 500u);
}

// A process that hammers a shared counter and forwards hops (the hop
// count rides in a tuple request's binding).
class HammerProcess : public Process {
 public:
  HammerProcess(std::atomic<uint64_t>* counter, ProcessId peer)
      : counter_(counter), peer_(peer) {}
  void OnMessage(const Message& m) override {
    counter_->fetch_add(1);
    int64_t hops = m.binding[0].payload();
    if (hops > 0) Send(peer_, MakeTupleRequest({Value::Int(hops - 1)}));
  }

 private:
  std::atomic<uint64_t>* counter_;
  ProcessId peer_;
};

TEST(ConcurrencyTest, NetworkStatsConsistentUnderThreads) {
  std::atomic<uint64_t> handled{0};
  Network net;
  const int kPairs = 6;
  for (int i = 0; i < kPairs; ++i) {
    // Pair (2i, 2i+1) ping-pong.
    net.AddProcess(std::make_unique<HammerProcess>(&handled, 2 * i + 1));
    net.AddProcess(std::make_unique<HammerProcess>(&handled, 2 * i));
  }
  net.Start();
  const int64_t kHops = 200;
  for (int i = 0; i < 2 * kPairs; ++i) {
    net.Send(kNoProcess, i, MakeTupleRequest({Value::Int(kHops)}));
  }
  WorkerPool pool(3);
  auto run = net.RunThreaded(pool, 4);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->quiescent);
  uint64_t expected = static_cast<uint64_t>(2 * kPairs) * (kHops + 1);
  EXPECT_EQ(handled.load(), expected);
  EXPECT_EQ(net.stats().Count(MessageKind::kTupleRequest), expected);
  EXPECT_EQ(run->delivered, expected);
}

}  // namespace
}  // namespace mpqe
