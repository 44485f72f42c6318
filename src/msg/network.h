// The simulated asynchronous distributed system: processes with FIFO
// mailboxes exchanging Messages through a Network. This substitutes
// for the multi-machine / multi-tasking substrate the paper assumes
// (§1.2): no shared memory between processes, arbitrary interleavings.
//
// Three schedulers:
//  * RunDeterministic — round-robin FIFO delivery; reproducible, and
//    gives tests a *global quiescence oracle* to validate Thm. 3.1;
//  * RunRandom(seed)  — random process interleaving (per-channel FIFO
//    preserved), simulating asynchrony;
//  * RunThreaded(pool, n) — up to n threads, the caller's and helpers
//    borrowed from a WorkerPool, with actor-style per-process
//    serialization and per-worker run queues (DESIGN.md §5).
//
// Every scheduler delivers a process's mail in *runs*: consecutive
// deliveries to one process, closed by one Process::OnRunEnd call on
// the same thread (DESIGN.md §5). A run is the mail queued when a
// deterministic turn begins, a seeded-random prefix of the queue, or a
// threaded drain cut at the empty mailbox or at kRunQuantum
// deliveries.
//
// The engine must terminate via its own end-message protocol: a run
// normally finishes because a sink process calls RequestStop(). Runs
// also finish on global quiescence (all mailboxes empty) — the oracle
// — and report which happened.
//
// The network sees every send and every delivery, so it is where a
// process's traffic is counted: one ProcessCounts record per process,
// always on and the only message counts (DESIGN.md §8). Send counts a
// message once, into its sender's record, and stamps its send time;
// Deliver clocks every handler run and the message's queue wait into
// the receiver's record. stats(), the profile and the engine telemetry
// are sums of these records. The network is also where a run is
// recorded: one flight-ring record per delivery (SetFlightRecorder).
// The only other hook is the send tap (SetSendTap), which lets a test
// read each message on the wire.

#ifndef MPQE_MSG_NETWORK_H_
#define MPQE_MSG_NETWORK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "msg/flight_recorder.h"
#include "msg/message.h"

namespace mpqe {

class Network;
class WorkerPool;

// Which run loop drives message delivery. A run-time concern: the
// choice never affects the computed answers, only the interleaving.
enum class SchedulerKind {
  kDeterministic,  // round-robin FIFO (reproducible)
  kRandom,         // seeded random interleaving
  kThreaded,       // real threads, borrowed from a WorkerPool
};

/// Canonical CLI name of a scheduler ("deterministic", "random",
/// "threaded").
const char* SchedulerKindToName(SchedulerKind kind);

/// Parses a scheduler name; InvalidArgument on unknown names (the
/// message lists the valid ones).
StatusOr<SchedulerKind> SchedulerKindFromName(const std::string& name);

// Called once per physical send (a batch envelope once, not per
// packaged message) with the stamped message, in the sending process's
// execution context and before the message is enqueued: the i-th tap
// call on a (from, to) channel happens-before that channel's i-th
// delivery. Under the threaded scheduler, sends from different
// processes call it concurrently, so it synchronizes itself. The
// message is valid only for the duration of the call.
using SendTap =
    std::function<void(ProcessId from, ProcessId to, const Message& message)>;

// Run-time parameters of one scheduler run (the per-session knobs;
// everything plan-shaped lives above the msg layer).
struct SchedulerParams {
  uint64_t seed = 1;            // kRandom only
  int workers = 4;              // kThreaded only: most threads the run uses
  WorkerPool* pool = nullptr;   // kThreaded only: where helpers come from
  uint64_t max_messages = 0;    // livelock guard; 0 = unlimited
};

// A node process. OnMessage is invoked with one message at a time;
// the Network guarantees per-process serialization in every scheduler,
// so implementations need no internal locking.
class Process {
 public:
  virtual ~Process() = default;

  /// Called once before any message is delivered (initialization
  /// phase; single-threaded).
  virtual void OnStart() {}

  virtual void OnMessage(const Message& message) = 0;

  /// Called after the last delivery of each mailbox run, on the thread
  /// that ran it and before any other worker can pick the process up,
  /// so it never overlaps this process's OnMessage. A run cut short by
  /// RequestStop() or max_messages ends without it. The one point where
  /// a process may hold output across deliveries and still never sit
  /// idle with it.
  virtual void OnRunEnd() {}

  ProcessId process_id() const { return id_; }

 protected:
  Network& network() const { return *network_; }

  /// Sends `message` to `to` (stamps `from` with this process's id).
  void Send(ProcessId to, Message message);

 private:
  friend class Network;
  ProcessId id_ = kNoProcess;
  Network* network_ = nullptr;
};

// Per-kind message counts: the network's ProcessCounts records summed
// (Network::stats).
struct MessageStats {
  std::array<uint64_t, static_cast<size_t>(MessageKind::kMessageKindCount)>
      by_kind{};
  // How many of the per-kind counts above traveled inside batch
  // envelopes rather than as their own messages.
  uint64_t packaged_submessages = 0;
  // Answer tuples that traveled inside columnar segments (the
  // by_kind[kTupleSegment] entry counts envelopes, this counts rows).
  uint64_t segment_rows = 0;

  uint64_t Count(MessageKind kind) const {
    return by_kind[static_cast<size_t>(kind)];
  }
  uint64_t Total() const;
  /// Computation messages only (excludes the Fig. 2 protocol traffic
  /// and batch/segment envelopes). Sub-messages inside batches and
  /// rows inside segments are counted individually, so this is the
  /// *logical* traffic.
  uint64_t ComputationTotal() const;
  /// Fig. 2 protocol traffic only.
  uint64_t ProtocolTotal() const;
  /// Physically transmitted messages: envelopes count once, their
  /// packaged contents not at all (footnote 2's saving).
  uint64_t PhysicalTotal() const;

  std::string ToString() const;
};

// One process's traffic, counted by the Network as messages move: its
// sends in Send, its deliveries in Deliver. A record has one writer at
// a time (a process's sends run on the thread that runs it, and its
// deliveries are serialized) and is read after Run returns, so the
// fields are plain integers. Sends from outside any process
// (kNoProcess) go into one record the network owns.
struct ProcessCounts {
  // Physical sends by kind: an envelope counts once, as kBatch.
  std::array<uint64_t, static_cast<size_t>(MessageKind::kMessageKindCount)>
      sent_by_kind{};
  // The messages packaged inside those envelopes, by kind.
  std::array<uint64_t, static_cast<size_t>(MessageKind::kMessageKindCount)>
      packaged_by_kind{};
  uint64_t segments_out = 0;      // segments sent, bare or packaged
  uint64_t segment_rows_out = 0;  // answer rows in them
  uint64_t delivered = 0;         // physical deliveries (handler runs)
  uint64_t envelopes_in = 0;      // kBatch deliveries among them
  uint64_t requests_in = 0;       // tuple requests, bare or packaged
  uint64_t segments_in = 0;       // segments delivered, bare or packaged
  uint64_t segment_rows_in = 0;   // answer rows in them
  // Handler time: OnMessage plus the OnRunEnd a run's last delivery
  // closes, the window of the flight record's `aux`. Clocked on every
  // delivery.
  uint64_t handler_ns = 0;
  // Send to delivery start, summed over the physical messages
  // delivered (each carries its send stamp, Message::sent_at_ns).
  uint64_t queue_wait_ns = 0;

  /// Physical sends of every kind.
  uint64_t sent() const;
  /// Adds `other` field by field.
  void Add(const ProcessCounts& other);
};

struct RunResult {
  bool stopped = false;    // a process called RequestStop()
  bool quiescent = false;  // all mailboxes drained
  uint64_t delivered = 0;  // messages delivered during this run
};

// Snapshot handed to the stall-monitor callback: the threaded
// scheduler completed no delivery for the configured interval.
struct StallInfo {
  uint64_t delivered = 0;  // total deliveries completed so far this run
  size_t in_flight = 0;    // undelivered messages across all mailboxes
  int64_t stalled_ms = 0;  // time since the last completed delivery
  // Nonempty mailboxes at snapshot time: (process id, queue depth).
  std::vector<std::pair<ProcessId, size_t>> queue_depths;
};

class Network {
 public:
  /// The threaded scheduler closes a run after this many deliveries of
  /// one drain even while mail keeps arriving, so a hot process cannot
  /// hold its output indefinitely.
  static constexpr uint32_t kRunQuantum = 64;

  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers `process` and assigns its id (== registration order).
  ProcessId AddProcess(std::unique_ptr<Process> process);

  size_t process_count() const { return processes_.size(); }
  Process& process(ProcessId id) { return *processes_[id]; }

  /// Enqueues `message` (stamped with `from` and its send time) into
  /// `to`'s mailbox and counts it into the sender's record. Sends from
  /// outside any process (`from` == kNoProcess) belong on the thread
  /// that owns the network, before a run.
  void Send(ProcessId from, ProcessId to, Message message);

  /// Number of undelivered messages waiting for `id`. A process may
  /// inspect its *own* count from OnMessage (the paper's
  /// empty-queues()); the deterministic scheduler also uses the global
  /// sum as the Thm. 3.1 oracle.
  size_t PendingCount(ProcessId id) const;

  /// Total undelivered messages across all mailboxes.
  size_t TotalPending() const;

  /// Signals the run loop to stop after the current message.
  void RequestStop() { stop_requested_.store(true, std::memory_order_release); }
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// Calls OnStart on every process (once, before the first run).
  void Start();

  /// Installs the send tap (see SendTap). Install before Start().
  void SetSendTap(SendTap tap) { send_tap_ = std::move(tap); }

  /// Attaches the session's flight-recorder tap (not owned; must
  /// outlive the network): one kDeliver record per delivery, stamped
  /// with `query_id` (msg/flight_recorder.h); a run's last record
  /// also covers its OnRunEnd. Attach before Start().
  void SetFlightRecorder(FlightRecorder* recorder, uint64_t query_id) {
    flight_ = recorder;
    flight_query_id_ = query_id;
  }

  /// The attached recorder (nullptr = none) and its query id. Engine
  /// layers write their rare events (Fig. 2 transitions) through it.
  FlightRecorder* flight_recorder() const { return flight_; }
  uint64_t flight_query_id() const { return flight_query_id_; }

  /// The traffic record of process `id`. Read it after Run returns.
  const ProcessCounts& counts(ProcessId id) const {
    return mailboxes_[id]->counts;
  }

  /// Installs a stall monitor for RunThreaded: when no delivery
  /// completes for `interval_ms`, `handler` runs (on the pool's
  /// monitor thread, concurrently with the workers — it must be
  /// thread-safe) with a queue-depth snapshot, and again after each
  /// further stalled interval. The run registers it with the pool's
  /// monitor while it runs (WorkerPool::WatchStalls). Install before
  /// running; the single-threaded schedulers ignore it (they cannot
  /// stall silently — they either progress or return). `interval_ms
  /// <= 0` disables.
  void ConfigureStallMonitor(int interval_ms,
                             std::function<void(const StallInfo&)> handler) {
    stall_interval_ms_ = interval_ms;
    stall_handler_ = std::move(handler);
  }

  // Run until RequestStop() or global quiescence. `max_messages`
  // guards against livelock (0 = unlimited); exceeding it returns an
  // error.
  StatusOr<RunResult> RunDeterministic(uint64_t max_messages = 0);
  StatusOr<RunResult> RunRandom(uint64_t seed, uint64_t max_messages = 0);

  /// Runs on at most `workers` threads and creates none (DESIGN.md §5).
  /// The calling thread is worker 0 and stays until the run ends. Up to
  /// `workers - 1` helper tasks join from `pool`, each enlisted when a
  /// process lands in a stealable queue while the run is under its
  /// thread budget; a helper that finds no work returns its thread to
  /// the pool. With the pool busy the caller runs alone, so the run
  /// never waits for a pool thread. Each worker has a FIFO queue, which
  /// other workers steal from, and a one-process slot, which they do
  /// not: a process a handler makes runnable takes the slot of the
  /// worker running that handler, and the slot's previous occupant
  /// moves to the back of that worker's queue. Returns once no helper
  /// is inside the run; a helper task that starts later returns
  /// without touching the network.
  StatusOr<RunResult> RunThreaded(WorkerPool& pool, int workers,
                                  uint64_t max_messages = 0);

  /// Dispatches to the scheduler named by `kind` with the relevant
  /// `params` fields. The one entry point session runners need.
  /// kThreaded without `params.pool` is FailedPrecondition.
  StatusOr<RunResult> Run(SchedulerKind kind, const SchedulerParams& params);

  /// Every record summed, the outside senders' included. Read it
  /// after Run returns.
  MessageStats stats() const;

 private:
  struct Mailbox {
    mutable std::mutex mutex;
    std::deque<Message> queue;
    // Threaded-scheduler actor state: 0 idle, 1 scheduled (in a run
    // queue or slot), 2 running, 3 running with new mail.
    std::atomic<int> state{0};
    // The process's traffic record, on cache lines of its own: senders
    // on other threads touch the lock, queue and state above.
    alignas(64) ProcessCounts counts;
  };

  // Moves the oldest message of `box` into `out` and sets `left` to
  // how many stay queued behind it; false when `box` is empty.
  bool Pop(Mailbox& box, Message& out, size_t& left) const;
  // Counts `message` into process `id`'s record and hands it over,
  // clocking the handler; `run_end` closes the run with its OnRunEnd
  // inside the same clocked window.
  void Deliver(ProcessId id, const Message& message, bool run_end);

  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  SendTap send_tap_;
  FlightRecorder* flight_ = nullptr;
  uint64_t flight_query_id_ = 0;
  // The record of sends from outside any process.
  ProcessCounts outside_counts_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<int64_t> total_pending_{0};

  // The scheduler state of the RunThreaded call in progress (network.cc);
  // null otherwise, so the single-threaded schedulers' sends skip it.
  struct ThreadedRun;
  std::atomic<ThreadedRun*> threaded_run_{nullptr};

  // Stall monitor (ConfigureStallMonitor).
  int stall_interval_ms_ = 0;
  std::function<void(const StallInfo&)> stall_handler_;
};

}  // namespace mpqe

#endif  // MPQE_MSG_NETWORK_H_
