#include "consensus/proposer.hpp"

#include <cassert>

#include "obs/observer.hpp"

namespace rqs::consensus {

RqsProposer::RqsProposer(sim::Simulation& sim, ProcessId id,
                         const ConsensusConfig& config)
    : sim::Process(sim, id), config_(config), signer_(*config.authority, id) {}

void RqsProposer::propose(Value v) {
  if (halted_) return;
  value_ = v;
  if (!proposed_) {
    proposed_ = true;
    // Fig. 14 lines 101-103: after a preset time, nudge acceptors' timers
    // with sync and probe for an existing decision.
    sync_pending_ = true;
    sync_timer_ = set_timer(3 * sim().delta());
  }
  run_propose();
}

void RqsProposer::run_propose() {
  if (halted_) return;
  if (view_ == 0) {
    // Fig. 9: skip the consult phase in initView.
    if (auto* ob = sim().observer()) {
      ob->count("consensus.propose.fast_path");
      ob->phase(now(), id(), obs::kPhaseProposeFast, static_cast<std::uint64_t>(value_));
    }
    send_prepare(value_, VProof{}, ProcessSet{});
    return;
  }
  // Consult phase (Fig. 12 line 2).
  if (auto* ob = sim().observer()) {
    ob->count("consensus.propose.slow_path");
    ob->phase(now(), id(), obs::kPhaseProposeConsult, view_);
  }
  consulting_ = true;
  prepare_sent_ = false;
  acks_.clear();
  faulty_.clear();
  prepared_quorums_.clear();
  auto msg = make_msg<NewViewMsg>();
  msg->view = view_;
  msg->view_proof = view_proof_;
  send_all(config_.acceptors, std::move(msg));
  if (config_.retry.enabled) {
    attempt_ = 0;
    arm_retry();
  }
}

void RqsProposer::send_prepare(Value v, const VProof& vproof, ProcessSet q) {
  prepared_value_ = v;
  prepared_vproof_ = vproof;
  prepared_quorum_ = q;
  prepare_sent_ = true;
  broadcast_prepare();
  if (config_.retry.enabled) {
    attempt_ = 0;
    arm_retry();
  }
}

void RqsProposer::broadcast_prepare() {
  // Each vProof ack travels with its signature. acks_ stays fixed from the
  // prepare until the next consult, which clears it along with the prepare.
  std::vector<sim::Signature> signatures;
  for (const ProcessId a : prepared_quorum_) signatures.push_back(acks_.at(a).signature);
  for (const ProcessId target : config_.acceptors) {
    auto msg = make_msg<PrepareMsg>();
    msg->value = prepare_value_for(prepared_value_, target);
    msg->view = view_;
    msg->vproof = prepared_vproof_;
    msg->vproof_quorum = prepared_quorum_;
    msg->vproof_signatures = signatures;
    send(target, std::move(msg));
  }
}

void RqsProposer::arm_retry() {
  if (retry_armed_) cancel_timer(retry_timer_);
  retry_armed_ = true;
  retry_timer_ = set_timer(RetryPolicy::delay(
      config_.retry, (static_cast<std::uint64_t>(id()) << 32) ^ view_,
      attempt_ + 1));
}

void RqsProposer::handle_retry() {
  ++attempt_;
  if (!RetryPolicy::allows(config_.retry, attempt_)) {
    // Give-up: stop resending and let the acceptors' suspicion timers
    // drive a view change toward the next leader (Fig. 14 lines 1-5).
    if (auto* ob = sim().observer()) ob->count("consensus.propose.giveup");
    return;
  }
  if (auto* ob = sim().observer()) ob->count("consensus.propose.retransmit");
  if (consulting_) {
    auto msg = make_msg<NewViewMsg>();
    msg->view = view_;
    msg->view_proof = view_proof_;
    send_all(config_.acceptors, std::move(msg));
  } else if (prepare_sent_) {
    broadcast_prepare();
  }
  // Re-probe alongside every retransmission: sync re-arms stopped-clock
  // acceptors' suspicion timers and the pull surfaces decisions this
  // proposer missed (which is what finally halts it).
  send_all(config_.acceptors, make_msg<SyncMsg>());
  send_all(config_.acceptors, make_msg<DecisionPullMsg>());
  arm_retry();
}

void RqsProposer::try_choose_and_prepare() {
  // Lines 3-8: look for a quorum of valid acks not yet known faulty.
  ProcessSet acked;
  for (const auto& [a, data] : acks_) acked.insert(a);
  config_.rqs->for_each_covered(acked, QuorumClass::Class3, [&](QuorumId qid) {
    const ProcessSet quorum = config_.rqs->quorum_set(qid);
    if (faulty_.find(quorum) != faulty_.end()) return false;
    if (prepared_quorums_.find(quorum) != prepared_quorums_.end()) return false;
    // Restrict the proof to exactly Q's members.
    VProof vproof;
    for (const ProcessId a : quorum) vproof[a] = acks_.at(a).payload;
    const ChooseResult chosen = choose(value_, vproof, quorum, *config_.rqs);
    if (chosen.abort) {
      if (auto* ob = sim().observer()) {
        ob->count("consensus.choose.abort");
        ob->phase(now(), id(), obs::kPhaseChooseAbort, view_);
      }
      faulty_.insert(quorum);  // line 7
      return false;
    }
    prepared_quorums_.insert(quorum);
    consulting_ = false;
    send_prepare(chosen.value, vproof, quorum);  // line 9
    return true;
  });
}

void RqsProposer::on_message(ProcessId from, const sim::Message& m) {
  if (halted_) return;
  switch (m.type()) {
    case NewViewAckMsg::kType: {
      const SignedNewViewAck& ack = static_cast<const NewViewAckMsg&>(m).ack;
      if (!consulting_ || !config_.acceptors.contains(from)) return;
      // Line 4: only valid acks count.
      if (!config_.ack_valid(from, ack.payload, ack.signature, view_)) return;
      acks_[from] = ack;
      try_choose_and_prepare();
      return;
    }
    case ViewChangeMsg::kType: {
      const auto& vc = static_cast<const ViewChangeMsg&>(m);
      // Fig. 14 lines 10-13.
      if (!config_.acceptors.contains(from)) return;
      if (!config_.authority->verify(vc.change.signature, from, vc.change.payload)) {
        return;
      }
      const ViewNumber next = vc.change.payload.next_view;
      view_changes_[next][from] = vc.change;
      if (next <= view_ || config_.leader_of(next) != id()) return;
      ProcessSet senders;
      for (const auto& [a, change] : view_changes_[next]) senders.insert(a);
      if (!config_.rqs->covers(senders, QuorumClass::Class3)) return;
      view_proof_.clear();
      for (const auto& [a, change] : view_changes_[next]) {
        view_proof_.push_back(change);
      }
      view_ = next;  // line 12
      if (auto* ob = sim().observer()) {
        ob->count("consensus.view_change");
        ob->phase(now(), id(), obs::kPhaseViewChange, next);
      }
      if (proposed_) run_propose();  // line 13/10: elected => propose
      return;
    }
    case DecisionMsg::kType: {
      const auto& dec = static_cast<const DecisionMsg&>(m);
      // Fig. 14 line 104: a quorum of identical decisions halts the
      // proposer.
      if (!config_.acceptors.contains(from)) return;
      ProcessSet& senders = decision_senders_[dec.value];
      senders.insert(from);
      if (!config_.rqs->covers(senders, QuorumClass::Class3)) return;
      halted_ = true;
      if (retry_armed_) {
        cancel_timer(retry_timer_);
        retry_armed_ = false;
      }
      return;
    }
    default:
      // rqs-lint: allow(drop) PrepareMsg UpdateMsg NewViewMsg SignReqMsg
      // rqs-lint: allow(drop) SignAckMsg DecisionPullMsg SyncMsg
      // All of the above are acceptor-bound (Fig. 14 sends them to the
      // acceptor set); a proposer is never a recipient.
      return;
  }
}

// Protocol-visible proposer state for the duplicate-delivery equivalence
// suite; timer handles and the signer are excluded as observations.
void RqsProposer::digest_state(Fnv64& h) const {
  h.mix(static_cast<std::uint64_t>(value_));
  h.mix(proposed_ ? 1 : 0);
  h.mix(halted_ ? 1 : 0);
  h.mix(view_);
  h.mix(consulting_ ? 1 : 0);
  h.mix(acks_.size());
  for (const auto& [a, ack] : acks_) {
    h.mix(a);
    h.mix(ack.payload.view);
    h.mix(static_cast<std::uint64_t>(ack.payload.prep));
  }
  h.mix(faulty_.size());
  for (const ProcessSet& q : faulty_) digest_into(h, q);
  h.mix(prepared_quorums_.size());
  for (const ProcessSet& q : prepared_quorums_) digest_into(h, q);
  h.mix(view_changes_.size());
  for (const auto& [next, changes] : view_changes_) {
    h.mix(next);
    h.mix(changes.size());
    for (const auto& [a, change] : changes) h.mix(a);
  }
  h.mix(decision_senders_.size());
  for (const auto& [v, senders] : decision_senders_) {
    h.mix(static_cast<std::uint64_t>(v));
    digest_into(h, senders);
  }
  h.mix(prepare_sent_ ? 1 : 0);
  h.mix(static_cast<std::uint64_t>(prepared_value_));
}

void RqsProposer::on_timer(sim::TimerId timer) {
  if (halted_) return;
  if (retry_armed_ && timer == retry_timer_) {
    retry_armed_ = false;
    if (proposed_) handle_retry();
    return;
  }
  if (timer != sync_timer_ || !sync_pending_) return;
  sync_pending_ = false;
  send_all(config_.acceptors, make_msg<SyncMsg>());
  send_all(config_.acceptors, make_msg<DecisionPullMsg>());
}

}  // namespace rqs::consensus
