#include "msg/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>

namespace mpqe {
namespace {

using WordRef = std::atomic_ref<uint64_t>;
static_assert(WordRef::is_always_lock_free, "flight records must be lock-free");

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// A process-wide thread counter assigns each thread a stable ring
// index on first use. Plain thread_local POD: no destructor, no
// reference to any recorder instance, so a thread that outlives one
// recorder (a pool thread serving several engines' sessions in turn)
// or ends before it leaves no dangling state behind.
uint32_t ThisThreadIndex() {
  static std::atomic<uint32_t> thread_counter{0};
  thread_local uint32_t thread_index =
      thread_counter.fetch_add(1, std::memory_order_relaxed);
  return thread_index;
}

}  // namespace

const char* FlightEventTypeToString(FlightEventType type) {
  switch (type) {
    case FlightEventType::kSessionStart: return "session_start";
    case FlightEventType::kSessionEnd: return "session_end";
    case FlightEventType::kDeliver: return "deliver";
    case FlightEventType::kPhase: return "phase";
    case FlightEventType::kTermination: return "termination";
    case FlightEventType::kStall: return "stall";
    case FlightEventType::kWatchdogDump: return "watchdog_dump";
    case FlightEventType::kPlanPrepare: return "plan_prepare";
    case FlightEventType::kEventTypeCount: break;
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options) {
  if (options_.ring_count == 0) options_.ring_count = 1;
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  options_.ring_capacity = RoundUpPow2(options_.ring_capacity);
  slot_mask_ = options_.ring_capacity - 1;
  cursors_ = std::vector<Cursor>(options_.ring_count);
  // calloc, not new[]: a large calloc is normally served by fresh zero
  // pages, so the 3 MB of default rings cost no stores until records
  // land in them.
  auto* words = static_cast<uint64_t*>(std::calloc(
      options_.ring_count * options_.ring_capacity * kSlotWords,
      sizeof(uint64_t)));
  if (words == nullptr) throw std::bad_alloc();
  slots_.reset(words);
}

uint64_t FlightRecorder::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void FlightRecorder::Append(const FlightRecord& record) {
  uint64_t words[kSlotWords - 1];
  static_assert(sizeof(words) == sizeof(FlightRecord), "word count");
  std::memcpy(words, &record, sizeof(record));

  const size_t ring = ThisThreadIndex() % cursors_.size();
  const uint64_t claim =
      cursors_[ring].next.fetch_add(1, std::memory_order_relaxed);
  uint64_t* slot = SlotWords(ring, claim);
  // Seqlock publish: odd while writing, then the unique even value for
  // this claim. A snapshot that observes mismatched or odd sequences
  // drops the slot. Two threads sharing a ring meet on one slot when
  // their claims are a full ring apart, so the writer takes the slot by
  // compare-exchange, from an even sequence older than its claim to its
  // own odd value: with the slot held by another writer, or a newer
  // record already in it, this record is dropped — lost diagnostics,
  // never two payloads mixed under one sequence. The take is acquire, so
  // the previous writer's payload stores come before this one's. The
  // payload stores are release so the odd mark cannot sink below them
  // (and the reader's acquire payload loads pair with them); fence-free
  // on purpose — GCC rejects atomic_thread_fence under
  // -fsanitize=thread with -Werror.
  WordRef seq(slot[0]);
  const uint64_t writing = 2 * claim + 1;
  uint64_t seen = seq.load(std::memory_order_relaxed);
  do {
    if ((seen & 1) != 0 || seen > writing) return;
  } while (!seq.compare_exchange_weak(seen, writing,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed));
  for (size_t i = 0; i + 1 < kSlotWords; ++i) {
    WordRef(slot[i + 1]).store(words[i], std::memory_order_release);
  }
  seq.store(2 * (claim + 1), std::memory_order_release);
}

void FlightRecorder::RecordEvent(FlightEventType type, uint64_t query_id,
                                 int32_t a, int32_t b, uint32_t rows,
                                 uint32_t aux, uint8_t kind) {
  FlightRecord record;
  record.ts_ns = NowNs();
  record.query_id = query_id;
  record.a = a;
  record.b = b;
  record.rows = rows;
  record.aux = aux;
  record.type = static_cast<uint8_t>(type);
  record.kind = kind;
  Append(record);
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(cursors_.size() * 64);
  for (size_t ring = 0; ring < cursors_.size(); ++ring) {
    const uint64_t next =
        cursors_[ring].next.load(std::memory_order_acquire);
    const uint64_t count =
        std::min<uint64_t>(next, options_.ring_capacity);
    for (uint64_t i = next - count; i < next; ++i) {
      uint64_t* slot = SlotWords(ring, i);
      const uint64_t seq1 =
          WordRef(slot[0]).load(std::memory_order_acquire);
      if (seq1 == 0 || (seq1 & 1) != 0) continue;
      uint64_t words[kSlotWords - 1];
      // Acquire payload loads keep the seq2 re-read from hoisting above
      // them (an acquire load orders everything after it in program
      // order), standing in for the classic acquire fence, which GCC
      // refuses to compile under -fsanitize=thread with -Werror.
      for (size_t w = 0; w + 1 < kSlotWords; ++w) {
        words[w] = WordRef(slot[w + 1]).load(std::memory_order_acquire);
      }
      const uint64_t seq2 = WordRef(slot[0]).load(std::memory_order_relaxed);
      if (seq1 != seq2) continue;  // torn: overwritten mid-copy
      FlightRecord record;
      std::memcpy(&record, words, sizeof(record));
      if (record.type >=
          static_cast<uint8_t>(FlightEventType::kEventTypeCount)) {
        continue;
      }
      out.push_back(record);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightRecord& x, const FlightRecord& y) {
                     return x.ts_ns < y.ts_ns;
                   });
  return out;
}

uint64_t FlightRecorder::recorded() const {
  uint64_t total = 0;
  for (const Cursor& cursor : cursors_) {
    total += cursor.next.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace mpqe
