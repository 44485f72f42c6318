#include "msg/network.h"

#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"

namespace mpqe {
namespace {

constexpr size_t kNumKinds =
    static_cast<size_t>(MessageKind::kMessageKindCount);

uint32_t ClampU32(uint64_t v) {
  return v > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(v);
}

// What one physical message carries, counted in one pass over an
// envelope.
struct Contents {
  uint64_t requests = 0;
  uint64_t segments = 0;
  uint64_t rows = 0;

  void Count(const Message& m) {
    if (m.kind == MessageKind::kTupleRequest) {
      ++requests;
    } else if (m.kind == MessageKind::kTupleSegment) {
      ++segments;
      rows += m.segment().num_rows;
    }
  }
};

}  // namespace

const char* SchedulerKindToName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kDeterministic:
      return "deterministic";
    case SchedulerKind::kRandom:
      return "random";
    case SchedulerKind::kThreaded:
      return "threaded";
  }
  return "?";
}

StatusOr<SchedulerKind> SchedulerKindFromName(const std::string& name) {
  if (name == "deterministic") return SchedulerKind::kDeterministic;
  if (name == "random") return SchedulerKind::kRandom;
  if (name == "threaded") return SchedulerKind::kThreaded;
  return InvalidArgumentError(
      StrCat("unknown scheduler \"", name,
             "\" (expected deterministic, random, or threaded)"));
}

StatusOr<RunResult> Network::Run(SchedulerKind kind,
                                 const SchedulerParams& params) {
  switch (kind) {
    case SchedulerKind::kDeterministic:
      return RunDeterministic(params.max_messages);
    case SchedulerKind::kRandom:
      return RunRandom(params.seed, params.max_messages);
    case SchedulerKind::kThreaded:
      return RunThreaded(params.workers, params.max_messages);
  }
  return InvalidArgumentError(
      StrCat("invalid scheduler value ", static_cast<int>(kind)));
}

void Process::Send(ProcessId to, Message message) {
  network_->Send(id_, to, std::move(message));
}

uint64_t ProcessCounts::sent() const {
  uint64_t total = 0;
  for (uint64_t c : sent_by_kind) total += c;
  return total;
}

void ProcessCounts::Add(const ProcessCounts& other) {
  for (size_t k = 0; k < sent_by_kind.size(); ++k) {
    sent_by_kind[k] += other.sent_by_kind[k];
  }
  segments_out += other.segments_out;
  segment_rows_out += other.segment_rows_out;
  delivered += other.delivered;
  envelopes_in += other.envelopes_in;
  requests_in += other.requests_in;
  segments_in += other.segments_in;
  segment_rows_in += other.segment_rows_in;
  handler_ns += other.handler_ns;
  queue_wait_ns += other.queue_wait_ns;
}

uint64_t MessageStats::Total() const {
  uint64_t total = 0;
  for (uint64_t c : by_kind) total += c;
  return total;
}

uint64_t MessageStats::ComputationTotal() const {
  // Envelopes (batches and segments) are transport, not computation;
  // their contents count individually (sub-messages are already in
  // by_kind, segment rows only in segment_rows).
  return Total() - ProtocolTotal() - Count(MessageKind::kBatch) -
         Count(MessageKind::kTupleSegment) + segment_rows;
}

uint64_t MessageStats::PhysicalTotal() const {
  return Total() - packaged_submessages;
}

uint64_t MessageStats::ProtocolTotal() const {
  return Count(MessageKind::kEndRequest) + Count(MessageKind::kEndNegative) +
         Count(MessageKind::kEndConfirmed);
}

std::string MessageStats::ToString() const {
  std::string out;
  for (size_t k = 0; k < by_kind.size(); ++k) {
    if (by_kind[k] == 0) continue;
    if (!out.empty()) out += " ";
    out += StrCat(MessageKindToString(static_cast<MessageKind>(k)), "=",
                  by_kind[k]);
  }
  return StrCat("{", out, "}");
}

ProcessId Network::AddProcess(std::unique_ptr<Process> process) {
  MPQE_CHECK(!started_.load()) << "cannot add processes after Start()";
  ProcessId id = static_cast<ProcessId>(processes_.size());
  process->id_ = id;
  process->network_ = this;
  processes_.push_back(std::move(process));
  mailboxes_.push_back(std::make_unique<Mailbox>());
  if (profiling_) mailboxes_.back()->sent_ns.emplace();
  return id;
}

void Network::EnableProfiling() {
  MPQE_CHECK(TotalPending() == 0) << "enable profiling before the first send";
  profiling_ = true;
  for (auto& box : mailboxes_) box->sent_ns.emplace();
}

void Network::Send(ProcessId from, ProcessId to, Message message) {
  MPQE_CHECK(to >= 0 && static_cast<size_t>(to) < processes_.size())
      << "send to unknown process " << to;
  message.from = from;
  if (send_tap_) send_tap_(from, to, message);
  // Batches count once physically and per sub-message logically;
  // segments count once physically and per row logically — so
  // ComputationTotal() keeps its meaning. One pass over an envelope
  // counts into locals, then each shared counter gets one atomic add.
  Contents contents;
  if (message.kind == MessageKind::kBatch) {
    const std::vector<Message>& batch = message.batch();
    std::array<uint64_t, kNumKinds> kinds{};
    kinds[static_cast<size_t>(MessageKind::kBatch)] = 1;
    for (const Message& sub : batch) {
      ++kinds[static_cast<size_t>(sub.kind)];
      contents.Count(sub);
    }
    for (size_t k = 0; k < kNumKinds; ++k) {
      if (kinds[k] != 0) {
        sent_by_kind_[k].fetch_add(kinds[k], std::memory_order_relaxed);
      }
    }
    packaged_submessages_.fetch_add(batch.size(), std::memory_order_relaxed);
  } else {
    sent_by_kind_[static_cast<size_t>(message.kind)].fetch_add(
        1, std::memory_order_relaxed);
    contents.Count(message);
  }
  if (contents.rows != 0) {
    segment_rows_.fetch_add(contents.rows, std::memory_order_relaxed);
  }
  if (from != kNoProcess) {
    ProcessCounts& sender = mailboxes_[from]->counts;
    ++sender.sent_by_kind[static_cast<size_t>(message.kind)];
    sender.segments_out += contents.segments;
    sender.segment_rows_out += contents.rows;
  }
  const uint64_t sent_ns = profiling_ ? FlightRecorder::NowNs() : 0;
  Mailbox& box = *mailboxes_[to];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queue.push_back(std::move(message));
    if (profiling_) box.sent_ns->push_back(sent_ns);
  }
  total_pending_.fetch_add(1, std::memory_order_acq_rel);

  // Threaded scheduler: make sure the target is (or will be) scheduled.
  // Harmless no-op state churn in the single-threaded schedulers.
  for (;;) {
    int cur = box.state.load(std::memory_order_acquire);
    if (cur == 0) {
      if (box.state.compare_exchange_weak(cur, 1)) {
        bool wake;
        {
          std::lock_guard<std::mutex> lock(ready_mutex_);
          ready_.push_back(to);
          wake = sleeping_workers_ > 0;
        }
        if (wake) ready_cv_.notify_one();
        return;
      }
    } else if (cur == 2) {
      if (box.state.compare_exchange_weak(cur, 3)) return;
    } else {
      return;  // 1 or 3: already scheduled / flagged dirty
    }
  }
}

size_t Network::PendingCount(ProcessId id) const {
  const Mailbox& box = *mailboxes_[id];
  std::lock_guard<std::mutex> lock(box.mutex);
  return box.queue.size();
}

size_t Network::TotalPending() const {
  int64_t n = total_pending_.load(std::memory_order_acquire);
  return n < 0 ? 0 : static_cast<size_t>(n);
}

void Network::Start() {
  if (started_.exchange(true)) return;
  for (auto& p : processes_) p->OnStart();
}

bool Network::Pop(Mailbox& box, Message& out, uint64_t& sent_ns,
                  size_t& left) const {
  std::lock_guard<std::mutex> lock(box.mutex);
  if (box.queue.empty()) return false;
  out = std::move(box.queue.front());
  box.queue.pop_front();
  sent_ns = 0;
  if (profiling_) {
    sent_ns = box.sent_ns->front();
    box.sent_ns->pop_front();
  }
  left = box.queue.size();
  return true;
}

void Network::Deliver(ProcessId id, const Message& message, uint64_t sent_ns,
                      bool run_end) {
  ProcessCounts& receiver = mailboxes_[id]->counts;
  ++receiver.delivered;
  if (message.kind == MessageKind::kBatch) {
    ++receiver.envelopes_in;
    Contents contents;
    for (const Message& sub : message.batch()) contents.Count(sub);
    receiver.requests_in += contents.requests;
    receiver.segments_in += contents.segments;
    receiver.segment_rows_in += contents.rows;
  } else if (message.kind == MessageKind::kTupleRequest) {
    ++receiver.requests_in;
  } else if (message.kind == MessageKind::kTupleSegment) {
    ++receiver.segments_in;
    receiver.segment_rows_in += message.segment().num_rows;
  }
  if (flight_ == nullptr && !profiling_) {
    Process& process = *processes_[id];
    process.OnMessage(message);
    if (run_end) process.OnRunEnd();
  } else {
    DeliverTapped(id, message, sent_ns, run_end);
  }
  total_pending_.fetch_sub(1, std::memory_order_acq_rel);
}

void Network::DeliverTapped(ProcessId id, const Message& message,
                            uint64_t sent_ns, bool run_end) {
  Process& process = *processes_[id];
  ProcessCounts& counts = mailboxes_[id]->counts;
  // The process's own sends land in its own record, so the difference
  // across the window is exactly the rows this delivery sent.
  const uint64_t rows_sent_before = counts.segment_rows_out;
  const uint64_t start = FlightRecorder::NowNs();
  process.OnMessage(message);
  // Inside the window: the rows a run-end flush sends, and its time,
  // belong to the run's last delivery.
  if (run_end) process.OnRunEnd();
  const uint64_t end = FlightRecorder::NowNs();
  counts.handler_ns += end - start;
  if (profiling_ && start > sent_ns) counts.queue_wait_ns += start - sent_ns;
  if (flight_ != nullptr) {
    FlightRecord record;
    record.ts_ns = end;
    record.query_id = flight_query_id_;
    record.a = message.from;
    record.b = id;
    record.rows = ClampU32(message.answer_rows());
    record.rows_out = ClampU32(counts.segment_rows_out - rows_sent_before);
    record.aux = ClampU32(end - start);
    record.type = static_cast<uint8_t>(FlightEventType::kDeliver);
    record.kind = static_cast<uint8_t>(message.kind);
    flight_->Append(record);
  }
}

StatusOr<RunResult> Network::RunDeterministic(uint64_t max_messages) {
  Start();
  RunResult result;
  for (;;) {
    if (stop_requested()) {
      result.stopped = true;
      return result;
    }
    bool progressed = false;
    for (ProcessId id = 0; id < static_cast<ProcessId>(processes_.size());
         ++id) {
      // A turn is one run: the mail queued when it begins. Mail that
      // arrives during the turn waits for the next round.
      Mailbox& box = *mailboxes_[id];
      const size_t queued = PendingCount(id);
      for (size_t k = 1; k <= queued; ++k) {
        Message msg;
        uint64_t sent_ns;
        size_t left;
        Pop(box, msg, sent_ns, left);
        Deliver(id, msg, sent_ns, /*run_end=*/k == queued);
        progressed = true;
        ++result.delivered;
        if (max_messages != 0 && result.delivered > max_messages) {
          return ResourceExhaustedError(StrCat(
              "deterministic run exceeded max_messages=", max_messages));
        }
        if (stop_requested()) {
          result.stopped = true;
          return result;
        }
      }
    }
    if (!progressed) {
      result.quiescent = true;
      return result;
    }
  }
}

StatusOr<RunResult> Network::RunRandom(uint64_t seed, uint64_t max_messages) {
  Start();
  Rng rng(seed);
  RunResult result;
  size_t n = processes_.size();
  for (;;) {
    if (stop_requested()) {
      result.stopped = true;
      return result;
    }
    // Pick a uniformly random starting point and run the first
    // nonempty mailbox at or after it (circularly) for a random prefix
    // of its queue, so run ends land anywhere. Per-channel FIFO is
    // preserved; global interleaving is randomized.
    size_t start = rng.Below(n);
    bool progressed = false;
    for (size_t k = 0; k < n; ++k) {
      ProcessId id = static_cast<ProcessId>((start + k) % n);
      const size_t queued = PendingCount(id);
      if (queued == 0) continue;
      Mailbox& box = *mailboxes_[id];
      const size_t run = 1 + rng.Below(queued);
      for (size_t j = 1; j <= run; ++j) {
        Message msg;
        uint64_t sent_ns;
        size_t left;
        Pop(box, msg, sent_ns, left);
        Deliver(id, msg, sent_ns, /*run_end=*/j == run);
        ++result.delivered;
        if (max_messages != 0 && result.delivered > max_messages) {
          return ResourceExhaustedError(
              StrCat("random run exceeded max_messages=", max_messages));
        }
        if (stop_requested()) {
          result.stopped = true;
          return result;
        }
      }
      progressed = true;
      break;
    }
    if (!progressed) {
      result.quiescent = true;
      return result;
    }
  }
}

StatusOr<RunResult> Network::RunThreaded(int workers, uint64_t max_messages) {
  MPQE_CHECK(workers >= 1);
  Start();

  // Seed the ready queue with processes that already have mail (their
  // state may be stale from a previous single-threaded run).
  {
    std::lock_guard<std::mutex> lock(ready_mutex_);
    ready_.clear();
    for (ProcessId id = 0; id < static_cast<ProcessId>(processes_.size());
         ++id) {
      Mailbox& box = *mailboxes_[id];
      std::lock_guard<std::mutex> mail_lock(box.mutex);
      if (!box.queue.empty()) {
        box.state.store(1);
        ready_.push_back(id);
      } else {
        box.state.store(0);
      }
    }
  }

  std::atomic<uint64_t> delivered{0};
  std::atomic<int> active{0};
  std::atomic<bool> overflow{false};

  auto worker = [&]() {
    for (;;) {
      ProcessId id;
      {
        std::unique_lock<std::mutex> lock(ready_mutex_);
        auto runnable = [&] {
          return !ready_.empty() || stop_requested() || overflow.load() ||
                 (total_pending_.load(std::memory_order_acquire) == 0 &&
                  active.load(std::memory_order_acquire) == 0);
        };
        while (!runnable()) {
          ++sleeping_workers_;
          ready_cv_.wait(lock);
          --sleeping_workers_;
        }
        if (stop_requested() || overflow.load()) return;
        if (ready_.empty()) return;  // globally quiescent
        id = ready_.front();
        ready_.pop_front();
        active.fetch_add(1, std::memory_order_acq_rel);
      }
      Mailbox& box = *mailboxes_[id];
      box.state.store(2, std::memory_order_release);

      bool bail = false;
      uint32_t run_length = 0;
      for (;;) {
        // Drain this mailbox, one message at a time. A run ends at the
        // delivery that empties it or at the quantum, and its hook runs
        // here, before the state below releases the process.
        for (;;) {
          Message msg;
          uint64_t sent_ns;
          size_t left;
          if (!Pop(box, msg, sent_ns, left)) break;
          const bool run_end = left == 0 || ++run_length == kRunQuantum;
          if (run_end) run_length = 0;
          Deliver(id, msg, sent_ns, run_end);
          uint64_t d = delivered.fetch_add(1, std::memory_order_acq_rel) + 1;
          if (max_messages != 0 && d > max_messages) {
            overflow.store(true);
            bail = true;
            break;
          }
          if (stop_requested()) {
            bail = true;
            break;
          }
        }

        // Transition out of running; keep draining if mail arrived
        // meanwhile (avoids a requeue round-trip for hot processes).
        int cur = box.state.load(std::memory_order_acquire);
        bool done = false;
        while (!done) {
          if (cur == 2) {
            if (box.state.compare_exchange_weak(cur, 0)) done = true;
          } else {  // 3: dirty
            if (box.state.compare_exchange_weak(cur, 2)) break;
          }
        }
        if (done || bail) break;
        // state was dirty and is 2 again: loop and drain more.
      }

      {
        std::lock_guard<std::mutex> lock(ready_mutex_);
        active.fetch_sub(1, std::memory_order_acq_rel);
        if (stop_requested() || overflow.load() ||
            (total_pending_.load(std::memory_order_acquire) == 0 &&
             active.load(std::memory_order_acquire) == 0)) {
          ready_cv_.notify_all();
        }
      }
    }
  };

  // Stall monitor (ConfigureStallMonitor): a monitor thread watches
  // the `delivered` counter; whenever it sits still for a full
  // interval, the handler gets a queue-depth snapshot. Purely
  // diagnostic — it never touches scheduling state.
  std::thread monitor;
  std::mutex monitor_mutex;
  std::condition_variable monitor_cv;
  bool monitor_stop = false;
  if (stall_interval_ms_ > 0 && stall_handler_) {
    monitor = std::thread([&]() {
      const auto interval = std::chrono::milliseconds(stall_interval_ms_);
      uint64_t last_seen = delivered.load(std::memory_order_acquire);
      auto last_change = std::chrono::steady_clock::now();
      std::unique_lock<std::mutex> lock(monitor_mutex);
      for (;;) {
        if (monitor_cv.wait_for(lock, interval,
                                [&] { return monitor_stop; })) {
          return;
        }
        uint64_t now_delivered = delivered.load(std::memory_order_acquire);
        auto now = std::chrono::steady_clock::now();
        if (now_delivered != last_seen) {
          last_seen = now_delivered;
          last_change = now;
          continue;
        }
        if (now - last_change < interval) continue;
        StallInfo info;
        info.delivered = now_delivered;
        info.in_flight = TotalPending();
        info.stalled_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - last_change)
                .count();
        for (ProcessId id = 0;
             id < static_cast<ProcessId>(processes_.size()); ++id) {
          size_t depth = PendingCount(id);
          if (depth > 0) info.queue_depths.emplace_back(id, depth);
        }
        lock.unlock();
        stall_handler_(info);
        lock.lock();
        // No re-arm: while the stall persists the handler keeps firing
        // every interval with a *cumulative* stalled_ms. Any delivery
        // resets the clock above.
      }
    });
  }

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) pool.emplace_back(worker);
  // In case stop was requested before/while spawning.
  {
    std::lock_guard<std::mutex> lock(ready_mutex_);
    ready_cv_.notify_all();
  }
  for (auto& t : pool) t.join();

  if (monitor.joinable()) {
    {
      std::lock_guard<std::mutex> lock(monitor_mutex);
      monitor_stop = true;
    }
    monitor_cv.notify_one();
    monitor.join();
  }

  if (overflow.load()) {
    return ResourceExhaustedError(
        StrCat("threaded run exceeded max_messages=", max_messages));
  }
  RunResult result;
  result.delivered = delivered.load();
  result.stopped = stop_requested();
  result.quiescent = TotalPending() == 0;
  return result;
}

MessageStats Network::stats() const {
  MessageStats s;
  for (size_t k = 0; k < s.by_kind.size(); ++k) {
    s.by_kind[k] = sent_by_kind_[k].load(std::memory_order_relaxed);
  }
  s.packaged_submessages =
      packaged_submessages_.load(std::memory_order_relaxed);
  s.segment_rows = segment_rows_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mpqe
