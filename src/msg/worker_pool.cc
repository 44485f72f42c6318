#include "msg/worker_pool.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mpqe {

WorkerPool::WorkerPool(int threads) {
  MPQE_CHECK(threads >= 1) << "a worker pool needs a thread, got " << threads;
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  {
    std::lock_guard<std::mutex> lock(monitor_mutex_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue before exiting: everything posted runs, even
      // while the pool is being destroyed.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    busy_.fetch_add(1, std::memory_order_relaxed);
    task();
    busy_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void WorkerPool::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

std::future<void> WorkerPool::Submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  Post([task] { (*task)(); });
  return future;
}

size_t WorkerPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

uint64_t WorkerPool::WatchStalls(const std::atomic<uint64_t>& progress,
                                 int interval_ms, StallHandler handler) {
  MPQE_CHECK(interval_ms > 0) << "stall interval must be > 0";
  auto watch = std::make_unique<Watch>();
  watch->progress = &progress;
  watch->interval = std::chrono::milliseconds(interval_ms);
  watch->handler = std::move(handler);
  watch->last_seen = progress.load(std::memory_order_acquire);
  watch->last_change = Clock::now();
  watch->next_check = watch->last_change + watch->interval;
  std::lock_guard<std::mutex> lock(monitor_mutex_);
  if (!monitor_.joinable()) monitor_ = std::thread([this] { MonitorLoop(); });
  watch->id = next_watch_id_++;
  const uint64_t id = watch->id;
  watches_.push_back(std::move(watch));
  monitor_cv_.notify_one();
  return id;
}

void WorkerPool::Unwatch(uint64_t id) {
  std::unique_lock<std::mutex> lock(monitor_mutex_);
  for (const std::unique_ptr<Watch>& watch : watches_) {
    if (watch->id == id) watch->removed = true;
  }
  fired_cv_.wait(lock, [&] { return firing_ != id; });
  std::erase_if(watches_, [id](const std::unique_ptr<Watch>& watch) {
    return watch->id == id;
  });
}

void WorkerPool::MonitorLoop() {
  std::unique_lock<std::mutex> lock(monitor_mutex_);
  while (!monitor_stop_) {
    const Clock::time_point now = Clock::now();
    Watch* due = nullptr;
    Clock::time_point next = Clock::time_point::max();
    for (const std::unique_ptr<Watch>& watch : watches_) {
      if (watch->removed) continue;
      if (watch->next_check <= now) {
        due = watch.get();
        break;
      }
      next = std::min(next, watch->next_check);
    }
    if (due == nullptr) {
      if (next == Clock::time_point::max()) {
        monitor_cv_.wait(lock);
      } else {
        monitor_cv_.wait_until(lock, next);
      }
      continue;
    }
    due->next_check = now + due->interval;
    const uint64_t seen = due->progress->load(std::memory_order_acquire);
    if (seen != due->last_seen) {
      due->last_seen = seen;
      due->last_change = now;
      continue;
    }
    if (now - due->last_change < due->interval) continue;
    // No re-arm: while the stall lasts the handler fires every interval
    // with the time since the count last moved.
    const int64_t stalled_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - due->last_change)
            .count();
    firing_ = due->id;
    lock.unlock();
    due->handler(seen, stalled_ms);
    lock.lock();
    firing_ = 0;
    fired_cv_.notify_all();
  }
}

}  // namespace mpqe
