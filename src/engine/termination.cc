#include "engine/termination.h"

#include <algorithm>

#include "common/logging.h"

namespace mpqe {

void TerminationParticipant::Configure(TerminationOwner* owner,
                                       Network* network, const EngineLog* log,
                                       ProcessId self, bool is_leader,
                                       ProcessId leader, ProcessId bfst_parent,
                                       std::vector<ProcessId> bfst_children) {
  owner_ = owner;
  network_ = network;
  log_ = log;
  self_ = self;
  is_leader_ = is_leader;
  leader_ = leader;
  bfst_parent_ = bfst_parent;
  bfst_children_ = std::move(bfst_children);
  MPQE_CHECK(!is_leader_ || !bfst_children_.empty())
      << "a nontrivial SCC leader must have BFST children";
}

bool TerminationParticipant::EmptyQueues() const {
  // "received end messages from all its feeders, and is itself idle".
  // Inspecting one's own queue is local knowledge: no unprocessed
  // messages may sit behind the one being handled.
  return owner_->LocallyIdle() && network_->PendingCount(self_) == 0;
}

void TerminationParticipant::OnWorkMessage() {
  if (!configured()) return;
  idleness_.store(0, std::memory_order_relaxed);
}

void TerminationParticipant::Publish(TerminationEvent::Kind kind) {
  ++events_[static_cast<size_t>(kind)];
  FlightRecorder* flight = network_->flight_recorder();
  if (flight == nullptr && log_ == nullptr) return;
  TerminationEvent event;
  event.kind = kind;
  event.node = self_;
  event.wave = wave_.load(std::memory_order_relaxed);
  event.idleness = idleness_.load(std::memory_order_relaxed);
  event.open_work = subtree_open_work_.load(std::memory_order_relaxed);
  if (flight != nullptr) {
    flight->RecordEvent(
        FlightEventType::kTermination, network_->flight_query_id(),
        event.node, static_cast<int32_t>(event.wave),
        static_cast<uint32_t>(std::clamp<int64_t>(event.idleness, 0,
                                                  UINT32_MAX)),
        event.open_work ? 1 : 0, static_cast<uint8_t>(event.kind));
  }
  if (log_ != nullptr) log_->TerminationLine(event);
}

void TerminationParticipant::NotifyExternalWork() {
  if (!configured() || is_leader_) return;
  Publish(TerminationEvent::Kind::kWorkNotice);
  network_->Send(self_, leader_, MakeWorkNotice());
}

void TerminationParticipant::OnWorkNotice(const Message& m) {
  (void)m;
  MPQE_CHECK(configured() && is_leader_) << "work notice at a non-leader";
  notice_pending_.store(true, std::memory_order_relaxed);
}

void TerminationParticipant::MaybeInitiate() {
  if (!configured() || !is_leader_ ||
      wave_active_.load(std::memory_order_relaxed)) {
    return;
  }
  if (!owner_->HasOpenCustomerWork() &&
      !notice_pending_.load(std::memory_order_relaxed)) {
    return;
  }
  if (!EmptyQueues()) return;
  // Fig. 2, send-answer-tuple: "idleness := 1; create-end-request;
  // process-end-request".
  idleness_.store(1, std::memory_order_relaxed);
  StartWave();
}

void TerminationParticipant::StartWave() {
  wave_active_.store(true, std::memory_order_relaxed);
  // Re-reported by answers' open-work bits.
  notice_pending_.store(false, std::memory_order_relaxed);
  wave_.fetch_add(1, std::memory_order_relaxed);
  waves_started_.fetch_add(1, std::memory_order_relaxed);
  Publish(TerminationEvent::Kind::kWaveStarted);
  ProcessEndRequest();
}

void TerminationParticipant::ProcessEndRequest() {
  if (EmptyQueues()) {
    idleness_.fetch_add(1, std::memory_order_relaxed);
  } else {
    idleness_.store(0, std::memory_order_relaxed);
  }
  const int children = static_cast<int>(bfst_children_.size());
  waiting_for_.store(children, std::memory_order_relaxed);
  all_confirmed_.store(true, std::memory_order_relaxed);
  subtree_open_work_.store(owner_->HasOpenCustomerWork(),
                           std::memory_order_relaxed);
  if (children > 0) {
    for (ProcessId child : bfst_children_) {
      network_->Send(self_, child,
                     MakeEndRequest(wave_.load(std::memory_order_relaxed)));
    }
  } else {
    AnswerParent();
  }
}

void TerminationParticipant::AnswerParent() {
  MPQE_CHECK(!is_leader_) << "leader has children; it never answers a parent";
  const int64_t wave = wave_.load(std::memory_order_relaxed);
  const bool open = subtree_open_work_.load(std::memory_order_relaxed);
  if (all_confirmed_.load(std::memory_order_relaxed) &&
      idleness_.load(std::memory_order_relaxed) > 1) {
    owner_->SnapshotForConclusion();
    Publish(TerminationEvent::Kind::kAnswerConfirmed);
    network_->Send(self_, bfst_parent_, MakeEndConfirmed(wave, open));
  } else {
    Publish(TerminationEvent::Kind::kAnswerNegative);
    network_->Send(self_, bfst_parent_, MakeEndNegative(wave, open));
  }
}

void TerminationParticipant::OnEndRequest(const Message& m) {
  MPQE_CHECK(configured()) << "end request at a trivial-SCC node";
  wave_.store(m.wave, std::memory_order_relaxed);
  ProcessEndRequest();
}

void TerminationParticipant::ConcludeAndBroadcast() {
  owner_->SnapshotForConclusion();
  Publish(TerminationEvent::Kind::kConcluded);
  owner_->ConcludeScc();
  // Footnote 4: propagate the conclusion around the strong component —
  // members with their own customers emit their ends on receipt.
  for (ProcessId child : bfst_children_) {
    network_->Send(self_, child, MakeSccConcluded());
  }
}

void TerminationParticipant::OnSccConcluded(const Message& m) {
  (void)m;
  MPQE_CHECK(configured() && !is_leader_);
  Publish(TerminationEvent::Kind::kConcluded);
  owner_->ConcludeScc();
  for (ProcessId child : bfst_children_) {
    network_->Send(self_, child, MakeSccConcluded());
  }
}

void TerminationParticipant::OnWaveComplete() {
  if (is_leader_) {
    wave_active_.store(false, std::memory_order_relaxed);
    if (all_confirmed_.load(std::memory_order_relaxed) &&
        idleness_.load(std::memory_order_relaxed) > 1) {
      // "If the BFST leader receives end confirmed from all its
      // children and has itself been idle since its last end request,
      // then it concludes the protocol."
      // Open work reported in the confirming wave is covered by the
      // members' snapshots and ends with this conclusion; only a work
      // notice (which may signal a post-snapshot arrival) forces
      // another round.
      bool more_work = notice_pending_.load(std::memory_order_relaxed);
      ConcludeAndBroadcast();
      if (more_work && EmptyQueues()) {
        idleness_.store(1, std::memory_order_relaxed);
        StartWave();
      }
      return;
    }
    // Fig. 2, process-end-negative: restart immediately while idle.
    if (EmptyQueues() &&
        (owner_->HasOpenCustomerWork() ||
         subtree_open_work_.load(std::memory_order_relaxed) ||
         notice_pending_.load(std::memory_order_relaxed))) {
      idleness_.store(1, std::memory_order_relaxed);
      StartWave();
    }
    return;
  }
  AnswerParent();
}

void TerminationParticipant::OnEndNegative(const Message& m) {
  MPQE_CHECK(configured());
  all_confirmed_.store(false, std::memory_order_relaxed);
  if (m.flag) subtree_open_work_.store(true, std::memory_order_relaxed);
  if (waiting_for_.fetch_sub(1, std::memory_order_relaxed) == 1) {
    OnWaveComplete();
  }
}

void TerminationParticipant::OnEndConfirmed(const Message& m) {
  MPQE_CHECK(configured());
  if (m.flag) subtree_open_work_.store(true, std::memory_order_relaxed);
  if (waiting_for_.fetch_sub(1, std::memory_order_relaxed) == 1) {
    OnWaveComplete();
  }
}


TerminationState TerminationParticipant::ExportState() const {
  TerminationState s;
  s.configured = configured();
  s.is_leader = is_leader_;
  s.wave_active = wave_active_.load(std::memory_order_relaxed);
  s.wave = wave_.load(std::memory_order_relaxed);
  s.waves_started = waves_started_.load(std::memory_order_relaxed);
  s.waiting_for = waiting_for_.load(std::memory_order_relaxed);
  s.all_confirmed = all_confirmed_.load(std::memory_order_relaxed);
  s.idleness = idleness_.load(std::memory_order_relaxed);
  s.subtree_open_work = subtree_open_work_.load(std::memory_order_relaxed);
  s.notice_pending = notice_pending_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mpqe
