// The basic message set that drives the computation (§3.1) plus the
// termination-protocol messages (§3.2).
//
// Streams are uniform: every consumer->producer edge carries one
// *relation request* (activation/subscription) followed by *tuple
// requests*, each binding all of the producer's class-d argument
// positions (an edge with no d arguments carries exactly one tuple
// request with the empty binding). Producers answer each tuple request
// with *tuple* messages and, across strong-component boundaries, an
// *end* message once no more tuples can be produced for it. Tuple
// requests are identified by their binding values — consumers
// deduplicate by binding, so no separate request-id plumbing is
// needed.
//
// A §3.1 tuple message travels as a kTupleSegment: a shared columnar
// run of >= 1 answer tuples on one stream (msg/segment.h). A single
// answer is a one-row segment; there is no separate per-tuple kind.

#ifndef MPQE_MSG_MESSAGE_H_
#define MPQE_MSG_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "msg/segment.h"
#include "relational/tuple.h"

namespace mpqe {

using ProcessId = int32_t;
inline constexpr ProcessId kNoProcess = -1;

enum class MessageKind : uint8_t {
  // -- computation (§3.1) -------------------------------------------------
  kRelationRequest = 0,  // consumer subscribes to a producer
  kTupleRequest = 1,     // binding for all d arguments
  kEnd = 2,              // the tuple request `binding` is complete
  // -- distributed termination of cycles (§3.2, Fig. 2) --------------------
  kEndRequest = 3,
  kEndNegative = 4,
  kEndConfirmed = 5,
  // -- coalesced-graph extensions (footnote 4) ------------------------------
  kSccConcluded = 6,  // leader -> members: protocol succeeded, emit ends
  kWorkNotice = 7,    // member -> leader: external work entered the SCC
  // -- packaging extension (footnote 2) --------------------------------------
  kBatch = 8,  // envelope carrying several computation messages
  // -- answers (§3.1 tuple messages, msg/segment.h) --------------------------
  kTupleSegment = 9,  // shared handle to a run of >= 1 answer tuples

  kMessageKindCount = 10,
};

const char* MessageKindToString(MessageKind kind);

/// True for the Fig. 2 protocol messages (they do not reset a node's
/// idleness; everything else counts as "work").
inline bool IsProtocolMessage(MessageKind kind) {
  return kind == MessageKind::kEndRequest ||
         kind == MessageKind::kEndNegative ||
         kind == MessageKind::kEndConfirmed ||
         kind == MessageKind::kSccConcluded ||
         kind == MessageKind::kWorkNotice;
}

struct Message {
  MessageKind kind = MessageKind::kRelationRequest;

  // kEndNegative / kEndConfirmed: true when the answering subtree has
  // external customer requests that are not yet ended (lets a leader
  // of a coalesced strong component keep the protocol running until
  // every member's customers are served; see footnote 4).
  bool flag = false;

  ProcessId from = kNoProcess;  // stamped by Network::Send

  // kTupleRequest / kEnd: values of the producer's d positions, in
  // position order; empty when the producer has no d arguments. Empty
  // on kTupleSegment: an answer's binding travels only inside its
  // segment (segment().binding), so a hop copies no binding.
  Tuple binding;

  // Protocol wave number (diagnostics / sanity checks).
  int64_t wave = 0;

  // When the message was sent (FlightRecorder::NowNs), stamped by
  // Network::Send on every physical message: its delivery adds the
  // wait to the receiver's queue_wait_ns. 0 inside an envelope, whose
  // stamp covers its contents.
  uint64_t sent_at_ns = 0;

  // Indirect payload, shared and type-erased: a kBatch envelope's
  // std::vector<Message> or a kTupleSegment's TupleSegment (a message
  // never carries both — the kind discriminates). Null for every other
  // kind, so protocol/end messages carry one pointer instead of an
  // embedded vector, and copying a payload-bearing message is a
  // refcount bump, not a deep copy.
  std::shared_ptr<const void> payload;

  /// The packaged messages, in send order (footnote 2: "package a set
  /// of related tuple requests ... the retrieval can be done in one
  /// scan"). Sub-messages carry the envelope's sender. Requires
  /// kind == kBatch with a payload.
  const std::vector<Message>& batch() const {
    return *static_cast<const std::vector<Message>*>(payload.get());
  }

  /// The columnar segment. Requires kind == kTupleSegment.
  const TupleSegment& segment() const {
    return *static_cast<const TupleSegment*>(payload.get());
  }

  /// The segment as a shareable handle (forwarding a segment to
  /// another process is a refcount bump on the same object).
  std::shared_ptr<const TupleSegment> segment_ptr() const {
    return std::static_pointer_cast<const TupleSegment>(payload);
  }

  /// Answer tuples this message carries: the row count of a
  /// kTupleSegment, the sum over a kBatch's contents, 0 for every other
  /// kind.
  uint64_t answer_rows() const;

  std::string ToString(const SymbolTable* symbols = nullptr) const;
};

/// Builders.
Message MakeRelationRequest();
Message MakeTupleRequest(Tuple binding);
Message MakeEnd(Tuple binding);
Message MakeEndRequest(int64_t wave);
Message MakeEndNegative(int64_t wave, bool open_work);
Message MakeEndConfirmed(int64_t wave, bool open_work);
Message MakeSccConcluded();
Message MakeWorkNotice();
Message MakeBatch(std::vector<Message> messages);
Message MakeTupleSegment(std::shared_ptr<const TupleSegment> segment);

}  // namespace mpqe

#endif  // MPQE_MSG_MESSAGE_H_
