// Tests for the message-passing substrate: mailbox FIFO, schedulers,
// quiescence, stop, stats, the run-end hook, and the thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "msg/network.h"
#include "msg/worker_pool.h"

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
  void OnRunEnd() override { ++run_ends; }
  int count = 0;
  int run_ends = 0;
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
  EXPECT_EQ(s->run_ends, 0);  // stopped mid-run: no hook
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
  WorkerPool pool(3);
  auto run = net.RunThreaded(pool, 4);
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
  WorkerPool pool(2);
  auto run = net.RunThreaded(pool, 3);
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
  WorkerPool pool(1);
  auto run = net.RunThreaded(pool, 2);
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
  WorkerPool pool(1);
  auto run = net.RunThreaded(pool, 2);
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

// ---------------------------------------------------------------------------
// The run-end hook: every scheduler closes each mailbox run with one
// Process::OnRunEnd on the thread that ran it.

// Appends "pid:hops" per delivery and "pid:end" per hook to a shared
// log, and forwards each hop to `next` (single-threaded schedulers).
class RunLogProcess : public Process {
 public:
  RunLogProcess(std::vector<std::string>* log, ProcessId next)
      : log_(log), next_(next) {}

  void OnMessage(const Message& m) override {
    int64_t hops = m.binding[0].payload();
    log_->push_back(StrCat(process_id(), ":", hops));
    if (hops > 0) Send(next_, Hop(hops - 1));
  }
  void OnRunEnd() override { log_->push_back(StrCat(process_id(), ":end")); }

 private:
  std::vector<std::string>* log_;
  ProcessId next_;
};

TEST(RunEndHookTest, DeterministicTurnIsTheMailQueuedAtItsStart) {
  std::vector<std::string> log;
  Network net;
  net.AddProcess(std::make_unique<RunLogProcess>(&log, 0));
  net.AddProcess(std::make_unique<RunLogProcess>(&log, 0));
  net.Start();
  net.Send(kNoProcess, 0, Hop(1));
  net.Send(kNoProcess, 0, Hop(0));
  net.Send(kNoProcess, 1, Hop(1));
  auto run = net.RunDeterministic();
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->quiescent);
  // Process 0's first turn delivers the two queued messages, then the
  // hook; the hop it sends itself meanwhile waits for the next round,
  // together with process 1's.
  EXPECT_EQ(log, (std::vector<std::string>{"0:1", "0:0", "0:end", "1:1",
                                           "1:end", "0:0", "0:0", "0:end"}));
}

// Records deliveries and hooks of one process from any worker thread.
// The scheduler serializes them; `overlaps` counts any call that starts
// while another of the same process is still running.
class ThreadedRunLogProcess : public Process {
 public:
  struct Entry {
    bool run_end = false;
    bool emptied = false;  // delivery: the mailbox was empty behind it
  };

  ThreadedRunLogProcess(ProcessId next, std::atomic<int>* overlaps)
      : next_(next), overlaps_(overlaps) {}

  void OnMessage(const Message& m) override {
    Enter();
    // Only this process's drain pops its mailbox, so an empty mailbox
    // here means the delivery emptied it.
    log.push_back({false, network().PendingCount(process_id()) == 0});
    int64_t hops = m.binding[0].payload();
    if (hops > 0) Send(next_, Hop(hops - 1));
    Leave();
  }
  void OnRunEnd() override {
    Enter();
    log.push_back({true, false});
    Leave();
  }

  std::vector<Entry> log;

 private:
  void Enter() {
    if (busy_.exchange(true)) overlaps_->fetch_add(1);
  }
  void Leave() { busy_.store(false); }

  ProcessId next_;
  std::atomic<int>* overlaps_;
  std::atomic<bool> busy_{false};
};

TEST(RunEndHookTest, ThreadedRunsEndAtEmptyMailboxOrQuantum) {
  constexpr int kProcs = 4;
  // More than one quantum queued up front: the first drain must be cut.
  constexpr int kPreload = 3 * Network::kRunQuantum + 8;
  std::atomic<int> overlaps{0};
  Network net;
  std::vector<ThreadedRunLogProcess*> procs;
  for (int i = 0; i < kProcs; ++i) {
    auto p = std::make_unique<ThreadedRunLogProcess>((i + 1) % kProcs,
                                                     &overlaps);
    procs.push_back(p.get());
    net.AddProcess(std::move(p));
  }
  net.Start();
  for (int i = 0; i < kProcs; ++i) {
    for (int k = 0; k < kPreload; ++k) net.Send(kNoProcess, i, Hop(2));
  }
  WorkerPool pool(3);
  auto run = net.RunThreaded(pool, 4);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->quiescent);
  EXPECT_EQ(run->delivered, static_cast<uint64_t>(kProcs * kPreload * 3));
  EXPECT_EQ(overlaps.load(), 0);
  for (int i = 0; i < kProcs; ++i) {
    const auto& log = procs[i]->log;
    size_t run_length = 0, longest = 0, deliveries = 0;
    for (size_t j = 0; j < log.size(); ++j) {
      if (log[j].run_end) {
        EXPECT_GT(run_length, 0u) << "process " << i << ": empty run";
        run_length = 0;
        continue;
      }
      ++deliveries;
      longest = std::max(longest, ++run_length);
      if (log[j].emptied) {
        ASSERT_LT(j + 1, log.size()) << "process " << i;
        EXPECT_TRUE(log[j + 1].run_end)
            << "process " << i << ": no hook after the emptying delivery";
      }
    }
    EXPECT_EQ(run_length, 0u) << "process " << i << ": delivery without hook";
    EXPECT_EQ(longest, size_t{Network::kRunQuantum}) << "process " << i;
    EXPECT_EQ(deliveries, static_cast<size_t>(kPreload * 3));
  }
}

// Three processes in a ring, four hops each queued up front: the
// random scheduler's log of deliveries and hooks.
std::vector<std::string> RandomRunLog(uint64_t seed) {
  std::vector<std::string> log;
  Network net;
  for (int i = 0; i < 3; ++i) {
    net.AddProcess(std::make_unique<RunLogProcess>(&log, (i + 1) % 3));
  }
  net.Start();
  for (int i = 0; i < 3; ++i) {
    for (int k = 0; k < 4; ++k) net.Send(kNoProcess, i, Hop(3));
  }
  auto run = net.RunRandom(seed);
  EXPECT_TRUE(run.ok() && run->quiescent);
  return log;
}

TEST(RunEndHookTest, RandomRunLengthsReplayBySeed) {
  std::set<std::vector<std::string>> distinct;
  size_t longest = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<std::string> log = RandomRunLog(seed);
    EXPECT_EQ(log, RandomRunLog(seed)) << "seed " << seed;
    distinct.insert(log);
    // Every run is one process's deliveries closed by that process's
    // hook.
    std::string run_pid;
    size_t run_length = 0;
    for (const std::string& entry : log) {
      const std::string pid = entry.substr(0, entry.find(':'));
      if (run_length == 0 && entry.find(":end") == std::string::npos) {
        run_pid = pid;
      }
      EXPECT_EQ(pid, run_pid) << "seed " << seed << ": run mixes processes";
      if (entry.find(":end") != std::string::npos) {
        EXPECT_GT(run_length, 0u) << "seed " << seed;
        run_length = 0;
      } else {
        longest = std::max(longest, ++run_length);
      }
    }
    EXPECT_EQ(run_length, 0u) << "seed " << seed << ": delivery without hook";
  }
  EXPECT_GT(longest, 1u);          // runs longer than one message occur
  EXPECT_GT(distinct.size(), 1u);  // and their lengths follow the seed
}

TEST(MessageTest, ToStringIsInformative) {
  auto segment = std::make_shared<TupleSegment>();
  segment->binding.assign({Value::Int(1)});
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
