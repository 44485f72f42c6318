// The flight recorder (DESIGN.md §14): the engine's black box and the
// one record of a run. A set of fixed-size lock-free ring buffers holds
// compact binary records of the most recent engine events — one record
// per message delivery, Fig. 2 protocol transitions, phases,
// scheduler/session lifecycle. The flight dump (obs/flight_dump.h) and
// the Chrome trace (obs/chrome_trace.h) are both rendered from them.
//
// A session hands the recorder to its Network (SetFlightRecorder), and
// Network::Deliver writes one kDeliver record per delivery from the two
// clock reads that bracket the handler (and, at a mailbox run's end,
// the run-end hook). The engine layer writes the rare events (phases,
// Fig. 2 transitions, session lifecycle, stalls) directly.
//
// Writers never block and never allocate: a thread claims a slot with
// one fetch_add on its ring's cursor, takes the slot by compare-exchange
// on its sequence word and publishes the record under that per-slot
// seqlock (every word is accessed through relaxed/acquire/release
// atomic_refs, so concurrent snapshot reads are race-free and
// TSan-clean; a slot read mid-write is detected by its sequence and
// dropped). Two writers sharing a ring meet on a slot only a full ring
// apart; the one that finds the slot held, or a newer record in it,
// drops its record.
// All slots live in one calloc'd block of plain words whose zero pages
// are the empty state, so constructing a recorder normally touches no
// slot memory. Rings are selected by a cheap per-thread index, so unrelated
// threads rarely share a cursor cache line. Old records are
// overwritten — the recorder answers "what was the engine doing just
// now", not "what has it ever done". A session that writes more records
// than its ring holds loses its oldest ones, and the Chrome trace
// renderer then refuses it rather than draw a trace with a hole.
//
// Readers (the stall watchdog, GET /debug/flight, `mpqe_query
// --flight-dump`) call Snapshot() at any time, from any thread, and
// get a time-ordered copy of whatever is currently retained. The
// diagnostic bundle built from a snapshot (FlightDump, serialized as
// `mpqe-flightdump-v1`) lives in obs/flight_dump.h.

#ifndef MPQE_MSG_FLIGHT_RECORDER_H_
#define MPQE_MSG_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

namespace mpqe {

// What one FlightRecord describes. Serialized names (ToJson /
// FlightEventTypeToString) are part of the mpqe-flightdump-v1 schema.
enum class FlightEventType : uint8_t {
  kSessionStart = 0,  // query_id minted; a = scheduler kind, b = workers
  kSessionEnd = 1,    // a = ok(1)/error(0), rows = answers
  kDeliver = 2,       // kind = MessageKind, a = from, b = to,
                      // rows = answer rows in,
                      // rows_out = answer rows the handler sent,
                      // aux = handler ns; ts_ns = handler end. A run's
                      // last delivery also covers its OnRunEnd: the
                      // rows the run's flush sent and the flush time.
  kPhase = 3,         // kind = Phase, a = begin(1)/end(0)
  kTermination = 4,   // kind = TerminationEvent::Kind, a = node, b = wave,
                      // rows = idleness, aux = open_work
  kStall = 5,         // a = in-flight messages, aux = stalled ms
  kWatchdogDump = 6,  // a = stuck scc id
  kPlanPrepare = 7,   // a = cache hit(1)/miss(0)
  kEventTypeCount = 8,
};

const char* FlightEventTypeToString(FlightEventType type);

// One compact binary event record. Fixed-size and trivially copyable —
// recording is a handful of atomic stores, no allocation, no
// formatting. Field meaning depends on `type` (see FlightEventType);
// unused fields are zero.
struct FlightRecord {
  uint64_t ts_ns = 0;     // steady-clock time
  uint64_t query_id = 0;  // engine-minted id; 0 = engine-level event
  int32_t a = -1;
  int32_t b = -1;
  uint32_t rows = 0;
  uint32_t aux = 0;
  uint8_t type = 0;  // FlightEventType
  uint8_t kind = 0;  // MessageKind / Phase / TerminationEvent::Kind
  uint16_t unused = 0;
  uint32_t rows_out = 0;  // kDeliver only
};
static_assert(sizeof(FlightRecord) == 40, "keep flight records compact");

struct FlightRecorderOptions {
  // Per-ring record capacity; rounded up to a power of two. Retention
  // is ring_count * ring_capacity records total.
  size_t ring_capacity = 4096;
  // Number of rings. Threads spread across rings by a per-thread
  // index, so with ring_count >= the number of concurrently recording
  // threads each cursor cache line has a single writer.
  size_t ring_count = 16;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The recorder's clock (steady_clock, in ns). Callers that stamp
  /// their own records (Network::Deliver) read it here.
  static uint64_t NowNs();

  /// Appends `record` as given (ts_ns included) to the calling thread's
  /// ring. Lock-free, allocation-free, safe from any thread at any time.
  void Append(const FlightRecord& record);

  /// Convenience: stamps ts_ns now and appends a record with the common
  /// fields filled in.
  void RecordEvent(FlightEventType type, uint64_t query_id, int32_t a = -1,
                   int32_t b = -1, uint32_t rows = 0, uint32_t aux = 0,
                   uint8_t kind = 0);

  /// A time-ordered copy of every retained record. Torn slots (being
  /// overwritten during the copy) are dropped, not misread.
  std::vector<FlightRecord> Snapshot() const;

  /// Total slots ever claimed (monotonic; wraps never): the records
  /// written plus the few a writer dropped on a slot it found held.
  uint64_t recorded() const;

  const FlightRecorderOptions& options() const { return options_; }

 private:
  // One slot = a sequence word plus the five record words. seq ==
  // 2*(claim+1) marks a fully published record from claim index
  // `claim`; odd values mark a write in progress; 0 = never written.
  static constexpr size_t kSlotWords = 6;

  struct alignas(64) Cursor {
    std::atomic<uint64_t> next{0};  // claim cursor (monotonic)
  };

  struct FreeWords {
    void operator()(uint64_t* words) const { std::free(words); }
  };

  uint64_t* SlotWords(size_t ring, uint64_t claim) const {
    return slots_.get() +
           (ring * options_.ring_capacity + (claim & slot_mask_)) *
               kSlotWords;
  }

  FlightRecorderOptions options_;
  size_t slot_mask_ = 0;  // ring_capacity - 1 (capacity is pow2)
  std::vector<Cursor> cursors_;
  // ring_count * ring_capacity slots, calloc'd: zero pages are the
  // empty state.
  std::unique_ptr<uint64_t[], FreeWords> slots_;
};

}  // namespace mpqe

#endif  // MPQE_MSG_FLIGHT_RECORDER_H_
