// The engine's worker pool (DESIGN.md §5, §11): a fixed set of threads
// that run tasks in FIFO order, and one stall-monitor thread. The
// Engine owns one. RunAsync sessions run on it, and a threaded network
// run borrows its threads as helpers (Network::RunThreaded), so no
// thread is created per query.
//
// The monitor thread watches progress counters. A threaded run that
// has a stall handler registers its delivered count, an interval and
// the handler for as long as it runs (WatchStalls); the monitor calls
// the handler each time the count has sat still for a full interval.
// The monitor starts with the first watch and sleeps until the earliest
// next check.

#ifndef MPQE_MSG_WORKER_POOL_H_
#define MPQE_MSG_WORKER_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mpqe {

class WorkerPool {
 public:
  /// The handler of a stall watch: the watched count, and the time
  /// since the monitor last saw it move (cumulative over one stall).
  using StallHandler =
      std::function<void(uint64_t progress, int64_t stalled_ms)>;

  /// Starts `threads` (>= 1) workers.
  explicit WorkerPool(int threads);
  /// Runs every queued task, even one posted during shutdown, joins
  /// the workers, then stops the monitor.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Queues `task` behind every task already queued.
  void Post(std::function<void()> task);

  /// Posts `fn`; the future is ready once it has run.
  std::future<void> Submit(std::function<void()> fn);

  int threads() const { return static_cast<int>(workers_.size()); }
  /// Tasks queued and not yet started.
  size_t queue_depth() const;
  /// Workers running a task now.
  int busy() const { return busy_.load(std::memory_order_relaxed); }

  /// Registers a stall watch and returns its id. From now on the
  /// monitor reads `progress` every `interval_ms` (> 0); whenever it
  /// has not moved for a full interval, `handler` runs on the monitor
  /// thread, and again after each further stalled interval. `progress`
  /// and everything the handler uses must stay alive until Unwatch.
  uint64_t WatchStalls(const std::atomic<uint64_t>& progress, int interval_ms,
                       StallHandler handler);

  /// Removes a watch. On return its handler is not running and never
  /// runs again. Must not be called from a stall handler.
  void Unwatch(uint64_t id);

 private:
  using Clock = std::chrono::steady_clock;
  struct Watch {
    uint64_t id = 0;
    const std::atomic<uint64_t>* progress = nullptr;
    Clock::duration interval{};
    StallHandler handler;
    uint64_t last_seen = 0;
    Clock::time_point last_change;
    Clock::time_point next_check;
    bool removed = false;  // Unwatch waits for its last handler call
  };

  void WorkerLoop();
  void MonitorLoop();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::atomic<int> busy_{0};
  std::vector<std::thread> workers_;

  // The monitor. A watch is heap-stable, so its handler can run with
  // monitor_mutex_ released while other watches come and go.
  std::mutex monitor_mutex_;
  std::condition_variable monitor_cv_;
  std::condition_variable fired_cv_;  // a handler call returned
  std::vector<std::unique_ptr<Watch>> watches_;
  uint64_t next_watch_id_ = 1;
  uint64_t firing_ = 0;  // id of the watch whose handler runs; 0 = none
  bool monitor_stop_ = false;
  std::thread monitor_;
};

}  // namespace mpqe

#endif  // MPQE_MSG_WORKER_POOL_H_
