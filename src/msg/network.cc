#include "msg/network.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "msg/worker_pool.h"

namespace mpqe {
namespace {

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
      if (params.pool == nullptr) {
        return FailedPreconditionError(
            "threaded scheduler: no worker pool to run on (an Engine "
            "session runs on the engine's pool)");
      }
      return RunThreaded(*params.pool, params.workers, params.max_messages);
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
    packaged_by_kind[k] += other.packaged_by_kind[k];
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

// The scheduler state of one RunThreaded call (DESIGN.md §5). Worker 0
// is the calling thread; workers 1.. are helper tasks borrowed from the
// pool, each sitting in a free seat while it works. Each seat has a FIFO
// queue, which any worker may steal from, and a one-process slot, which
// only the worker in that seat takes from.
struct Network::ThreadedRun {
  // How many times in a row a worker takes its slot over its waiting
  // queue.
  static constexpr int kMaxSlotStreak = 3;

  struct alignas(64) Worker {
    std::mutex mutex;  // guards queue
    std::deque<ProcessId> queue;
    std::atomic<int> queued{0};       // queue.size(), read without the lock
    std::atomic<bool> seated{false};  // a helper works in this seat
    // The seated worker's alone.
    ProcessId slot = kNoProcess;
    int slot_streak = 0;
  };

  // What a helper task checks before it touches the run. Shared with the
  // queued tasks, so it outlives the run: a helper that starts after the
  // run closed returns at once, and the run ends only once no helper is
  // inside.
  struct Gate {
    std::mutex mutex;
    std::condition_variable left;
    bool closed = false;
    int inside = 0;
  };

  ThreadedRun(Network& net, WorkerPool& pool, int budget,
              uint64_t max_messages)
      : net(net),
        pool(pool),
        budget(budget),
        max_messages(max_messages),
        workers(new Worker[static_cast<size_t>(budget)]) {}

  // Stop requested or max_messages exceeded.
  bool Over() const {
    return overflow.load(std::memory_order_acquire) || net.stop_requested();
  }
  bool Quiescent() const {
    return net.total_pending_.load() == 0 && active.load() == 0;
  }
  bool AnyQueued() const {
    for (int w = 0; w < budget; ++w) {
      if (workers[w].queued.load() > 0) return true;
    }
    return false;
  }

  // Makes `id`, just moved to state 1, runnable: into the slot of the
  // worker whose handler sent to it, or, from outside the run, into a
  // queue.
  void Schedule(ProcessId id) {
    if (current_run == this) {
      Worker& me = workers[current_worker];
      const ProcessId displaced = std::exchange(me.slot, id);
      if (displaced != kNoProcess) Enqueue(me, displaced);
    } else {
      Enqueue(workers[id % budget], id);
    }
  }

  // Puts `id` at the back of `worker`'s queue, then wakes worker 0 if it
  // sleeps, or else enlists a helper. The queued count and the sleep
  // flag are sequentially consistent, so either the pusher sees the
  // sleeper or the sleeper sees the process.
  void Enqueue(Worker& worker, ProcessId id) {
    {
      std::lock_guard<std::mutex> lock(worker.mutex);
      worker.queue.push_back(id);
      worker.queued.fetch_add(1);
    }
    if (caller_asleep.load()) {
      { std::lock_guard<std::mutex> lock(sleep_mutex); }
      wake.notify_one();
    } else {
      Enlist();
    }
  }

  // Counts one more thread into the run if the budget allows.
  bool ReserveThread() {
    int n = threads.load(std::memory_order_relaxed);
    do {
      if (n >= budget) return false;
    } while (!threads.compare_exchange_weak(n, n + 1));
    return true;
  }

  void Enlist() {
    if (!ReserveThread()) return;
    pool.Post([run = this, gate = gate] {
      {
        std::lock_guard<std::mutex> lock(gate->mutex);
        if (gate->closed) return;
        ++gate->inside;
      }
      run->Help();
      std::lock_guard<std::mutex> lock(gate->mutex);
      if (--gate->inside == 0) gate->left.notify_all();
    });
  }

  // A helper's stay: works in a free seat until it finds no work, and
  // stays on if a process landed in a queue meanwhile and the budget
  // still has room for it.
  void Help() {
    do {
      // Free seats exist: a helper is counted in `threads` before it
      // sits and leaves its seat before it is uncounted.
      int w = 1;
      while (workers[w].seated.exchange(true)) {
        ++w;
        MPQE_CHECK(w < budget) << "no free seat";
      }
      Work(w);
      workers[w].seated.store(false);
      threads.fetch_sub(1);
    } while (!Over() && AnyQueued() && ReserveThread());
  }

  // Runs processes as worker `w`. A helper returns when it finds no
  // work; worker 0 sleeps until a process lands in a queue, and returns
  // when the run is over or quiescent.
  void Work(int w) {
    current_run = this;
    current_worker = w;
    while (!Over()) {
      const ProcessId id = Take(w);
      if (id != kNoProcess) {
        Drain(id);
      } else if (w != 0 || !Sleep()) {
        break;
      }
    }
    current_run = nullptr;
  }

  // The next process for worker `w`: its slot (at most kMaxSlotStreak
  // times in a row while its queue waits), the front of its queue, or
  // the front of another worker's queue.
  ProcessId Take(int w) {
    Worker& me = workers[w];
    if (me.slot != kNoProcess) {
      const bool queue_waits =
          me.queued.load(std::memory_order_relaxed) > 0;
      if (!queue_waits || me.slot_streak < kMaxSlotStreak) {
        me.slot_streak = queue_waits ? me.slot_streak + 1 : 0;
        return std::exchange(me.slot, kNoProcess);
      }
    }
    me.slot_streak = 0;
    ProcessId id = PopFront(me);
    // A thief may have emptied the queue the slot deferred to.
    if (id == kNoProcess) id = std::exchange(me.slot, kNoProcess);
    for (int k = 1; id == kNoProcess && k < budget; ++k) {
      id = PopFront(workers[(w + k) % budget]);
    }
    return id;
  }

  static ProcessId PopFront(Worker& worker) {
    if (worker.queued.load(std::memory_order_relaxed) == 0) return kNoProcess;
    std::lock_guard<std::mutex> lock(worker.mutex);
    if (worker.queue.empty()) return kNoProcess;
    const ProcessId id = worker.queue.front();
    worker.queue.pop_front();
    worker.queued.fetch_sub(1);
    return id;
  }

  // Worker 0 found no work: waits until a process lands in a queue
  // (true) or the run is over or quiescent (false).
  bool Sleep() {
    std::unique_lock<std::mutex> lock(sleep_mutex);
    caller_asleep.store(true);
    wake.wait(lock, [this] { return AnyQueued() || Over() || Quiescent(); });
    caller_asleep.store(false);
    return AnyQueued();
  }

  void WakeCaller() {
    { std::lock_guard<std::mutex> lock(sleep_mutex); }
    wake.notify_all();
  }

  // Delivers `id`'s mail, one message at a time. A mailbox run ends at
  // the delivery that empties the mailbox or at the quantum, and its
  // hook runs here, before the state below releases the process; mail
  // that arrived meanwhile is drained too, without a requeue.
  void Drain(ProcessId id) {
    active.fetch_add(1);
    Mailbox& box = *net.mailboxes_[id];
    box.state.store(2, std::memory_order_release);
    bool bail = false;
    uint32_t run_length = 0;
    for (;;) {
      for (;;) {
        Message msg;
        size_t left;
        if (!net.Pop(box, msg, left)) break;
        const bool run_end = left == 0 || ++run_length == kRunQuantum;
        if (run_end) run_length = 0;
        net.Deliver(id, msg, run_end);
        const uint64_t d =
            delivered.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (max_messages != 0 && d > max_messages) {
          overflow.store(true, std::memory_order_release);
          bail = true;
          break;
        }
        if (net.stop_requested()) {
          bail = true;
          break;
        }
      }
      // Transition out of running, or drain again if mail arrived.
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
    }
    active.fetch_sub(1);
    if (bail || Quiescent()) WakeCaller();
  }

  // Closes the gate and waits until no helper is inside.
  void Close() {
    std::unique_lock<std::mutex> lock(gate->mutex);
    gate->closed = true;
    gate->left.wait(lock, [this] { return gate->inside == 0; });
  }

  Network& net;
  WorkerPool& pool;
  const int budget;
  const uint64_t max_messages;
  const std::unique_ptr<Worker[]> workers;
  const std::shared_ptr<Gate> gate = std::make_shared<Gate>();
  std::atomic<int> threads{1};  // worker 0 plus the enlisted helpers
  std::atomic<int> active{0};   // workers holding a process
  std::atomic<uint64_t> delivered{0};
  std::atomic<bool> overflow{false};
  // Where worker 0 sleeps; only it ever does.
  std::mutex sleep_mutex;
  std::condition_variable wake;
  std::atomic<bool> caller_asleep{false};

  // The run and seat the calling thread works for, if any.
  static thread_local ThreadedRun* current_run;
  static thread_local int current_worker;
};

thread_local Network::ThreadedRun* Network::ThreadedRun::current_run = nullptr;
thread_local int Network::ThreadedRun::current_worker = 0;

ProcessId Network::AddProcess(std::unique_ptr<Process> process) {
  MPQE_CHECK(!started_.load()) << "cannot add processes after Start()";
  ProcessId id = static_cast<ProcessId>(processes_.size());
  process->id_ = id;
  process->network_ = this;
  processes_.push_back(std::move(process));
  mailboxes_.push_back(std::make_unique<Mailbox>());
  return id;
}

void Network::Send(ProcessId from, ProcessId to, Message message) {
  MPQE_CHECK(to >= 0 && static_cast<size_t>(to) < processes_.size())
      << "send to unknown process " << to;
  message.from = from;
  message.sent_at_ns = FlightRecorder::NowNs();
  if (send_tap_) send_tap_(from, to, message);
  // One count per send, into the sender's record: an envelope once as
  // kBatch and its contents by kind, a segment once and its rows, so
  // the summed records keep ComputationTotal()'s logical meaning.
  ProcessCounts& sender =
      from == kNoProcess ? outside_counts_ : mailboxes_[from]->counts;
  ++sender.sent_by_kind[static_cast<size_t>(message.kind)];
  Contents contents;
  if (message.kind == MessageKind::kBatch) {
    for (const Message& sub : message.batch()) {
      ++sender.packaged_by_kind[static_cast<size_t>(sub.kind)];
      contents.Count(sub);
    }
  } else {
    contents.Count(message);
  }
  sender.segments_out += contents.segments;
  sender.segment_rows_out += contents.rows;
  Mailbox& box = *mailboxes_[to];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queue.push_back(std::move(message));
  }
  total_pending_.fetch_add(1, std::memory_order_acq_rel);

  // The threaded scheduler makes sure the target is (or will be)
  // scheduled; the single-threaded ones find mail by scanning.
  ThreadedRun* run = threaded_run_.load(std::memory_order_acquire);
  if (run == nullptr) return;
  for (;;) {
    int cur = box.state.load(std::memory_order_acquire);
    if (cur == 0) {
      if (box.state.compare_exchange_weak(cur, 1)) {
        run->Schedule(to);
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

bool Network::Pop(Mailbox& box, Message& out, size_t& left) const {
  std::lock_guard<std::mutex> lock(box.mutex);
  if (box.queue.empty()) return false;
  out = std::move(box.queue.front());
  box.queue.pop_front();
  left = box.queue.size();
  return true;
}

void Network::Deliver(ProcessId id, const Message& message, bool run_end) {
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
  Process& process = *processes_[id];
  // The process's own sends land in its own record, so the difference
  // across the window is exactly the rows this delivery sent.
  const uint64_t rows_sent_before = receiver.segment_rows_out;
  const uint64_t start = FlightRecorder::NowNs();
  process.OnMessage(message);
  // Inside the window: the rows a run-end flush sends, and its time,
  // belong to the run's last delivery.
  if (run_end) process.OnRunEnd();
  const uint64_t end = FlightRecorder::NowNs();
  receiver.handler_ns += end - start;
  // The clock is monotonic and the send happened before the pop.
  receiver.queue_wait_ns += start - message.sent_at_ns;
  if (flight_ != nullptr) {
    FlightRecord record;
    record.ts_ns = end;
    record.query_id = flight_query_id_;
    record.a = message.from;
    record.b = id;
    record.rows = ClampU32(message.answer_rows());
    record.rows_out = ClampU32(receiver.segment_rows_out - rows_sent_before);
    record.aux = ClampU32(end - start);
    record.type = static_cast<uint8_t>(FlightEventType::kDeliver);
    record.kind = static_cast<uint8_t>(message.kind);
    flight_->Append(record);
  }
  total_pending_.fetch_sub(1, std::memory_order_acq_rel);
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
        size_t left;
        Pop(box, msg, left);
        Deliver(id, msg, /*run_end=*/k == queued);
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
        size_t left;
        Pop(box, msg, left);
        Deliver(id, msg, /*run_end=*/j == run);
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

StatusOr<RunResult> Network::RunThreaded(WorkerPool& pool, int workers,
                                         uint64_t max_messages) {
  MPQE_CHECK(workers >= 1);
  Start();
  ThreadedRun run(*this, pool, workers, max_messages);

  // Deal the processes that already have mail round-robin into the
  // queues (their state may be stale from a previous single-threaded
  // run).
  int dealt = 0;
  for (ProcessId id = 0; id < static_cast<ProcessId>(processes_.size());
       ++id) {
    Mailbox& box = *mailboxes_[id];
    std::lock_guard<std::mutex> lock(box.mutex);
    const bool has_mail = !box.queue.empty();
    box.state.store(has_mail ? 1 : 0);
    if (!has_mail) continue;
    ThreadedRun::Worker& worker = run.workers[dealt++ % workers];
    worker.queue.push_back(id);
    worker.queued.fetch_add(1);
  }
  threaded_run_.store(&run, std::memory_order_release);

  // Stall monitor (ConfigureStallMonitor): the pool's monitor thread
  // watches the delivered count for as long as the run lasts. Purely
  // diagnostic — it never touches scheduling state.
  uint64_t watch = 0;
  if (stall_interval_ms_ > 0 && stall_handler_) {
    watch = pool.WatchStalls(
        run.delivered, stall_interval_ms_,
        [this](uint64_t delivered, int64_t stalled_ms) {
          StallInfo info;
          info.delivered = delivered;
          info.in_flight = TotalPending();
          info.stalled_ms = stalled_ms;
          for (ProcessId id = 0;
               id < static_cast<ProcessId>(processes_.size()); ++id) {
            const size_t depth = PendingCount(id);
            if (depth > 0) info.queue_depths.emplace_back(id, depth);
          }
          stall_handler_(info);
        });
  }

  // Worker 0 takes one dealt process; the others call for helpers.
  for (int k = 1; k < std::min(dealt, workers); ++k) run.Enlist();
  run.Work(0);
  run.Close();
  if (watch != 0) pool.Unwatch(watch);
  threaded_run_.store(nullptr, std::memory_order_release);

  if (run.overflow.load()) {
    return ResourceExhaustedError(
        StrCat("threaded run exceeded max_messages=", max_messages));
  }
  RunResult result;
  result.delivered = run.delivered.load();
  result.stopped = stop_requested();
  result.quiescent = TotalPending() == 0;
  return result;
}

MessageStats Network::stats() const {
  ProcessCounts sum = outside_counts_;
  for (const auto& box : mailboxes_) sum.Add(box->counts);
  MessageStats s;
  for (size_t k = 0; k < s.by_kind.size(); ++k) {
    s.by_kind[k] = sum.sent_by_kind[k] + sum.packaged_by_kind[k];
    s.packaged_submessages += sum.packaged_by_kind[k];
  }
  s.segment_rows = sum.segment_rows_out;
  return s;
}

}  // namespace mpqe
