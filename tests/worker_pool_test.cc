// Tests of the engine's worker pool (msg/worker_pool.h): FIFO tasks,
// shutdown that runs everything queued, the one stall-monitor thread
// and its watch contract, and threaded network runs that borrow the
// pool's threads — alone when the pool is busy, with helpers that
// return harmlessly once their run has ended.

#include "msg/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "msg/network.h"

namespace mpqe {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

int64_t ThreadCount() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator());
}

TEST(WorkerPoolTest, RunsTasksInPostOrder) {
  WorkerPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) pool.Post([&order, i] { order.push_back(i); });
  pool.Submit([] {}).get();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(WorkerPoolTest, DestructionRunsEveryQueuedTask) {
  std::atomic<int> ran{0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  {
    WorkerPool pool(2);
    pool.Post([released, &ran] {
      released.wait();
      ++ran;
    });
    for (int i = 0; i < 100; ++i) pool.Post([&ran] { ++ran; });
    release.set_value();
  }
  EXPECT_EQ(ran.load(), 101);
}

TEST(WorkerPoolTest, OneMonitorThreadServesEveryWatch) {
  const int64_t before = ThreadCount();
  WorkerPool pool(3);
  EXPECT_EQ(ThreadCount(), before + 3);
  std::atomic<uint64_t> progress{0};
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(pool.WatchStalls(progress, 60000, [](uint64_t, int64_t) {}));
  }
  EXPECT_EQ(ThreadCount(), before + 4);
  for (uint64_t id : ids) pool.Unwatch(id);
}

TEST(WorkerPoolTest, StallWatchFiresAfterAFullIntervalWithCumulativeTime) {
  WorkerPool pool(1);
  std::atomic<uint64_t> progress{7};
  std::mutex mutex;
  std::vector<int64_t> stalled;
  std::vector<Clock::duration> at;
  const Clock::time_point start = Clock::now();
  const uint64_t id = pool.WatchStalls(
      progress, 20, [&](uint64_t seen, int64_t stalled_ms) {
        EXPECT_EQ(seen, 7u);
        std::lock_guard<std::mutex> lock(mutex);
        stalled.push_back(stalled_ms);
        at.push_back(Clock::now() - start);
      });
  std::this_thread::sleep_for(milliseconds(150));
  pool.Unwatch(id);
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_GE(stalled.size(), 2u);
  EXPECT_GE(at.front(), milliseconds(20));
  EXPECT_GE(stalled.front(), 20);
  for (size_t i = 1; i < stalled.size(); ++i) {
    EXPECT_GE(stalled[i], stalled[i - 1] + 20) << "fire " << i;
  }
}

TEST(WorkerPoolTest, ProgressKeepsAWatchQuiet) {
  WorkerPool pool(1);
  std::atomic<uint64_t> progress{0};
  std::atomic<int> fires{0};
  const uint64_t id = pool.WatchStalls(
      progress, 100, [&fires](uint64_t, int64_t) { ++fires; });
  // Four checks, each after a count that moved every 5 ms.
  for (int i = 0; i < 90; ++i) {
    progress.fetch_add(1);
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_EQ(fires.load(), 0);
  pool.Unwatch(id);
}

TEST(WorkerPoolTest, UnwatchWaitsForARunningHandler) {
  WorkerPool pool(1);
  std::atomic<uint64_t> progress{0};
  std::promise<void> entered;
  std::atomic<int> calls{0};
  std::atomic<bool> returned{false};
  const uint64_t id = pool.WatchStalls(progress, 5, [&](uint64_t, int64_t) {
    if (calls.fetch_add(1) == 0) entered.set_value();
    std::this_thread::sleep_for(milliseconds(50));
    returned.store(true);
  });
  entered.get_future().wait();
  pool.Unwatch(id);
  EXPECT_TRUE(returned.load());
  const int after = calls.load();
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_EQ(calls.load(), after);
}

// A process that forwards a hop count to `next_` and records which
// thread ran it.
class HopProcess : public Process {
 public:
  HopProcess(ProcessId next, std::set<std::thread::id>* threads,
             std::mutex* mutex)
      : next_(next), threads_(threads), mutex_(mutex) {}
  void OnMessage(const Message& m) override {
    {
      std::lock_guard<std::mutex> lock(*mutex_);
      threads_->insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const int64_t hops = m.binding[0].payload();
    if (hops > 0) Send(next_, MakeTupleRequest({Value::Int(hops - 1)}));
  }

 private:
  ProcessId next_;
  std::set<std::thread::id>* threads_;
  std::mutex* mutex_;
};

// Eight independent two-process rings, each with `hops` hops queued.
std::unique_ptr<Network> MakeRings(int64_t hops,
                                   std::set<std::thread::id>* threads,
                                   std::mutex* mutex) {
  auto net = std::make_unique<Network>();
  for (int i = 0; i < 8; ++i) {
    net->AddProcess(std::make_unique<HopProcess>(2 * i + 1, threads, mutex));
    net->AddProcess(std::make_unique<HopProcess>(2 * i, threads, mutex));
  }
  net->Start();
  for (int i = 0; i < 8; ++i) {
    net->Send(kNoProcess, 2 * i, MakeTupleRequest({Value::Int(hops)}));
  }
  return net;
}

TEST(WorkerPoolTest, ThreadedRunBorrowsHelpersFromThePool) {
  std::set<std::thread::id> threads;
  std::mutex mutex;
  WorkerPool pool(3);
  auto net = MakeRings(20, &threads, &mutex);
  auto run = net->RunThreaded(pool, 4);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->quiescent);
  EXPECT_EQ(run->delivered, 8u * 21u);
  // Eight runnable rings and three idle pool threads: helpers joined.
  EXPECT_GT(threads.size(), 1u);
  EXPECT_LE(threads.size(), 4u);
}

TEST(WorkerPoolTest, ThreadedRunOnABusyPoolRunsAloneAndLateHelpersReturn) {
  // Every pool thread is taken, so the helpers a run enlists stay queued:
  // the run finishes on its caller alone, and the helper tasks, which
  // start only after the network is gone, return without touching it.
  std::set<std::thread::id> threads;
  std::mutex mutex;
  WorkerPool pool(1);
  std::promise<void> release;
  pool.Post([released = release.get_future().share()] { released.wait(); });
  {
    auto net = MakeRings(5, &threads, &mutex);
    auto run = net->RunThreaded(pool, 4);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_TRUE(run->quiescent);
    EXPECT_EQ(run->delivered, 8u * 6u);
  }
  EXPECT_EQ(threads.size(), 1u);
  EXPECT_EQ(*threads.begin(), std::this_thread::get_id());
  EXPECT_GT(pool.queue_depth(), 0u);
  release.set_value();
  pool.Submit([] {}).get();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

}  // namespace
}  // namespace mpqe
