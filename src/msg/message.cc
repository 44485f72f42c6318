#include "msg/message.h"

#include "common/string_util.h"

namespace mpqe {

const char* MessageKindToString(MessageKind kind) {
  switch (kind) {
    case MessageKind::kRelationRequest:
      return "relation_request";
    case MessageKind::kTupleRequest:
      return "tuple_request";
    case MessageKind::kEnd:
      return "end";
    case MessageKind::kEndRequest:
      return "end_request";
    case MessageKind::kEndNegative:
      return "end_negative";
    case MessageKind::kEndConfirmed:
      return "end_confirmed";
    case MessageKind::kSccConcluded:
      return "scc_concluded";
    case MessageKind::kWorkNotice:
      return "work_notice";
    case MessageKind::kBatch:
      return "batch";
    case MessageKind::kTupleSegment:
      return "tuple_segment";
    case MessageKind::kMessageKindCount:
      break;
  }
  return "?";
}

uint64_t Message::answer_rows() const {
  switch (kind) {
    case MessageKind::kTupleSegment:
      return segment().num_rows;
    case MessageKind::kBatch: {
      uint64_t rows = 0;
      for (const Message& sub : batch()) rows += sub.answer_rows();
      return rows;
    }
    default:
      return 0;
  }
}

std::string Message::ToString(const SymbolTable* symbols) const {
  std::string out = StrCat(MessageKindToString(kind), " from=", from);
  if (kind == MessageKind::kTupleRequest || kind == MessageKind::kEnd) {
    out += StrCat(" binding=", TupleToString(binding, symbols));
  }
  if (IsProtocolMessage(kind)) out += StrCat(" wave=", wave);
  if (kind == MessageKind::kBatch) out += StrCat(" n=", batch().size());
  if (kind == MessageKind::kTupleSegment) {
    out += StrCat(" binding=", TupleToString(segment().binding, symbols),
                  " rows=", segment().num_rows);
  }
  return out;
}

// The payload indirection is the point of the exercise: answers ride
// in the shared segment, so every message — request, end, protocol,
// envelope — stays one cache line. Revisit any change that trips this.
static_assert(sizeof(void*) != 8 || sizeof(Message) == 64,
              "Message grew past 64 bytes on LP64");

Message MakeRelationRequest() {
  Message m;
  m.kind = MessageKind::kRelationRequest;
  return m;
}

Message MakeTupleRequest(Tuple binding) {
  Message m;
  m.kind = MessageKind::kTupleRequest;
  m.binding = std::move(binding);
  return m;
}

Message MakeEnd(Tuple binding) {
  Message m;
  m.kind = MessageKind::kEnd;
  m.binding = std::move(binding);
  return m;
}

Message MakeEndRequest(int64_t wave) {
  Message m;
  m.kind = MessageKind::kEndRequest;
  m.wave = wave;
  return m;
}

Message MakeEndNegative(int64_t wave, bool open_work) {
  Message m;
  m.kind = MessageKind::kEndNegative;
  m.wave = wave;
  m.flag = open_work;
  return m;
}

Message MakeEndConfirmed(int64_t wave, bool open_work) {
  Message m;
  m.kind = MessageKind::kEndConfirmed;
  m.wave = wave;
  m.flag = open_work;
  return m;
}

Message MakeSccConcluded() {
  Message m;
  m.kind = MessageKind::kSccConcluded;
  return m;
}

Message MakeWorkNotice() {
  Message m;
  m.kind = MessageKind::kWorkNotice;
  return m;
}

Message MakeBatch(std::vector<Message> messages) {
  Message m;
  m.kind = MessageKind::kBatch;
  m.payload =
      std::make_shared<const std::vector<Message>>(std::move(messages));
  return m;
}

Message MakeTupleSegment(std::shared_ptr<const TupleSegment> segment) {
  Message m;
  m.kind = MessageKind::kTupleSegment;
  m.payload = std::move(segment);
  return m;
}

}  // namespace mpqe
