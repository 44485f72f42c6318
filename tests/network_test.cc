// Tests for the message-passing substrate: mailbox FIFO, schedulers,
// quiescence, stop, stats, and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "msg/network.h"

namespace mpqe {
namespace {

// A hop message: a tuple request whose one-value binding carries the
// number of hops left.
Message Hop(int64_t hops) { return MakeTupleRequest({Value::Int(hops)}); }

// Forwards each received hop message to a target, decrementing the
// hop counter.
class RelayProcess : public Process {
 public:
  explicit RelayProcess(ProcessId target) : target_(target) {}

  void OnMessage(const Message& m) override {
    received.push_back(m);
    if (m.kind != MessageKind::kTupleRequest) return;
    int64_t hops = m.binding[0].payload();
    if (hops > 0) {
      Send(target_, Hop(hops - 1));
    }
  }

  std::vector<Message> received;

 private:
  ProcessId target_;
};

class StopperProcess : public Process {
 public:
  void OnMessage(const Message& m) override {
    ++count;
    if (count >= 3) network().RequestStop();
    (void)m;
  }
  int count = 0;
};

TEST(NetworkTest, DeterministicRunsToQuiescence) {
  Network net;
  auto* a = new RelayProcess(1);
  auto* b = new RelayProcess(0);
  net.AddProcess(std::unique_ptr<Process>(a));
  net.AddProcess(std::unique_ptr<Process>(b));
  net.Start();
  net.Send(kNoProcess, 0, Hop(5));
  auto run = net.RunDeterministic();
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->quiescent);
  EXPECT_FALSE(run->stopped);
  // 5 hops + initial = 6 deliveries.
  EXPECT_EQ(run->delivered, 6u);
  EXPECT_EQ(a->received.size() + b->received.size(), 6u);
}

TEST(NetworkTest, FifoPerChannel) {
  Network net;
  auto* a = new RelayProcess(0);
  net.AddProcess(std::unique_ptr<Process>(a));
  net.Start();
  for (int i = 0; i < 10; ++i) {
    net.Send(kNoProcess, 0, Hop(0));
    net.process(0);  // no-op, keep order obvious
  }
  auto run = net.RunDeterministic();
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(a->received.size(), 10u);
}

TEST(NetworkTest, StopRequestHonored) {
  Network net;
  auto* s = new StopperProcess();
  net.AddProcess(std::unique_ptr<Process>(s));
  net.Start();
  for (int i = 0; i < 10; ++i) net.Send(kNoProcess, 0, MakeRelationRequest());
  auto run = net.RunDeterministic();
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->stopped);
  EXPECT_EQ(s->count, 3);
  EXPECT_GT(net.TotalPending(), 0u);  // undelivered mail remains
}

TEST(NetworkTest, MaxMessagesGuard) {
  Network net;
  auto* a = new RelayProcess(1);
  auto* b = new RelayProcess(0);
  net.AddProcess(std::unique_ptr<Process>(a));
  net.AddProcess(std::unique_ptr<Process>(b));
  net.Start();
  net.Send(kNoProcess, 0, Hop(1000000));
  auto run = net.RunDeterministic(/*max_messages=*/50);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
}

TEST(NetworkTest, StatsCountByKind) {
  Network net;
  auto* a = new RelayProcess(1);
  auto* b = new RelayProcess(0);
  net.AddProcess(std::unique_ptr<Process>(a));
  net.AddProcess(std::unique_ptr<Process>(b));
  net.Start();
  net.Send(kNoProcess, 0, MakeRelationRequest());
  net.Send(kNoProcess, 0, MakeEnd({}));
  net.Send(kNoProcess, 0, Hop(2));
  auto run = net.RunDeterministic();
  ASSERT_TRUE(run.ok());
  MessageStats stats = net.stats();
  EXPECT_EQ(stats.Count(MessageKind::kRelationRequest), 1u);
  EXPECT_EQ(stats.Count(MessageKind::kEnd), 1u);
  EXPECT_EQ(stats.Count(MessageKind::kTupleRequest), 3u);  // initial + 2 hops
  EXPECT_EQ(stats.Total(), 5u);
  EXPECT_EQ(stats.ProtocolTotal(), 0u);
}

TEST(NetworkTest, RandomSchedulerDeliversEverything) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Network net;
    auto* a = new RelayProcess(1);
    auto* b = new RelayProcess(0);
    net.AddProcess(std::unique_ptr<Process>(a));
    net.AddProcess(std::unique_ptr<Process>(b));
    net.Start();
    net.Send(kNoProcess, 0, Hop(7));
    auto run = net.RunRandom(seed);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->quiescent);
    EXPECT_EQ(run->delivered, 8u) << "seed " << seed;
  }
}

// Counts messages; thread-safe.
class CountingProcess : public Process {
 public:
  explicit CountingProcess(std::atomic<int>* counter) : counter_(counter) {}
  void OnMessage(const Message& m) override {
    counter_->fetch_add(1);
    if (m.kind == MessageKind::kTupleRequest && m.binding[0].payload() > 0) {
      Send(process_id(), Hop(m.binding[0].payload() - 1));
    }
  }

 private:
  std::atomic<int>* counter_;
};

TEST(NetworkTest, ThreadedRunsToQuiescence) {
  std::atomic<int> counter{0};
  Network net;
  const int kProcs = 8;
  for (int i = 0; i < kProcs; ++i) {
    net.AddProcess(std::make_unique<CountingProcess>(&counter));
  }
  net.Start();
  for (int i = 0; i < kProcs; ++i) {
    net.Send(kNoProcess, i, Hop(20));
  }
  auto run = net.RunThreaded(4);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->quiescent);
  EXPECT_EQ(counter.load(), kProcs * 21);
  EXPECT_EQ(run->delivered, static_cast<uint64_t>(kProcs * 21));
}

TEST(NetworkTest, ThreadedHandlesEmptyStart) {
  std::atomic<int> counter{0};
  Network net;
  net.AddProcess(std::make_unique<CountingProcess>(&counter));
  net.Start();
  auto run = net.RunThreaded(3);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->quiescent);
  EXPECT_EQ(run->delivered, 0u);
}

// Burns wall-clock inside OnMessage so the stall monitor sees "no
// delivery completed" intervals while work is still in flight.
class SleepyProcess : public Process {
 public:
  explicit SleepyProcess(int sleep_ms) : sleep_ms_(sleep_ms) {}
  void OnMessage(const Message& m) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    int64_t hops = m.binding[0].payload();
    if (hops > 0) {
      Send(process_id(), Hop(hops - 1));
    }
  }

 private:
  int sleep_ms_;
};

TEST(NetworkTest, StallMonitorFiresOnSlowThreadedRun) {
  Network net;
  net.AddProcess(std::make_unique<SleepyProcess>(40));
  std::atomic<int> stalls{0};
  std::atomic<uint64_t> last_in_flight{0};
  net.ConfigureStallMonitor(5, [&](const StallInfo& info) {
    stalls.fetch_add(1);
    last_in_flight.store(info.in_flight);
    EXPECT_GE(info.stalled_ms, 5);
  });
  net.Start();
  net.Send(kNoProcess, 0, Hop(3));
  auto run = net.RunThreaded(2);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->quiescent);
  // Each 40ms handler stalls several 5ms intervals.
  EXPECT_GE(stalls.load(), 1);
}

TEST(NetworkTest, StallMonitorSilentOnFastRun) {
  std::atomic<int> counter{0};
  Network net;
  net.AddProcess(std::make_unique<CountingProcess>(&counter));
  std::atomic<int> stalls{0};
  net.ConfigureStallMonitor(60000, [&](const StallInfo&) {
    stalls.fetch_add(1);
  });
  net.Start();
  net.Send(kNoProcess, 0, Hop(10));
  auto run = net.RunThreaded(2);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->quiescent);
  EXPECT_EQ(stalls.load(), 0);
  // The deterministic scheduler ignores the monitor entirely.
  net.Send(kNoProcess, 0, Hop(2));
  ASSERT_TRUE(net.RunDeterministic().ok());
  EXPECT_EQ(stalls.load(), 0);
}

TEST(NetworkTest, PendingCountTracksMailbox) {
  Network net;
  auto* a = new RelayProcess(0);
  net.AddProcess(std::unique_ptr<Process>(a));
  EXPECT_EQ(net.PendingCount(0), 0u);
  net.Send(kNoProcess, 0, MakeRelationRequest());
  net.Send(kNoProcess, 0, MakeRelationRequest());
  EXPECT_EQ(net.PendingCount(0), 2u);
  EXPECT_EQ(net.TotalPending(), 2u);
}

TEST(MessageTest, ToStringIsInformative) {
  auto segment = std::make_shared<TupleSegment>();
  segment->binding = {Value::Int(1)};
  segment->arity = 2;
  segment->AppendRow(Tuple{Value::Int(2), Value::Int(3)});
  segment->AppendRow(Tuple{Value::Int(4), Value::Int(5)});
  std::string s = MakeTupleSegment(segment).ToString();
  EXPECT_NE(s.find("tuple_segment"), std::string::npos);
  EXPECT_NE(s.find("(1)"), std::string::npos);
  EXPECT_NE(s.find("rows=2"), std::string::npos);
  EXPECT_NE(MakeEndRequest(4).ToString().find("wave=4"), std::string::npos);
}

TEST(MessageTest, ProtocolClassification) {
  EXPECT_TRUE(IsProtocolMessage(MessageKind::kEndRequest));
  EXPECT_TRUE(IsProtocolMessage(MessageKind::kEndNegative));
  EXPECT_TRUE(IsProtocolMessage(MessageKind::kEndConfirmed));
  EXPECT_FALSE(IsProtocolMessage(MessageKind::kTupleSegment));
  EXPECT_FALSE(IsProtocolMessage(MessageKind::kEnd));
}

}  // namespace
}  // namespace mpqe
