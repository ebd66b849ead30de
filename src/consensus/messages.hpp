// Wire messages and signed payloads of the RQS consensus algorithm
// (Figures 9-15).
//
// Three kinds of payloads are signed in the protocol:
//   * UpdatePayload, update_step<v, w> (archived in acceptors' `old` sets
//     and signed on demand via sign_req/sign_ack to build Updateproof),
//   * ViewChangePayload, view_change<nextView> (collected into viewProof),
//   * NewViewAckData, a new_view_ack (collected into vProof).
// Each has a 64-bit content digest that starts with a kind tag; the
// NewViewAckData digest folds every field, including each Updateproof
// entry's signer and signature. The SignatureAuthority checks (signer,
// digest) pairs: exactly the unforgeability the model grants (Section
// 4.1), up to 64-bit digest collisions. A Byzantine acceptor may sign lies
// about its own state and replay signatures it has seen; it cannot make a
// benign acceptor's signature vouch for content that acceptor never signed.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/fnv.hpp"
#include "common/quorum_id_set.hpp"
#include "common/types.hpp"
#include "core/rqs.hpp"
#include "sim/message.hpp"
#include "sim/signature.hpp"

namespace rqs::consensus {

/// "nil" for Prep / Update variables.
inline constexpr Value kNil = kBottom;

/// First word of each signed payload's digest.
enum class PayloadKind : std::uint64_t { kUpdate = 1, kViewChange = 2, kNewViewAck = 3 };

/// Digest of a fixed-size payload: its kind, then its fields.
template <typename... Fields>
[[nodiscard]] constexpr std::uint64_t payload_digest(PayloadKind kind, Fields... fields) {
  Fnv64 h;
  h.mix(static_cast<std::uint64_t>(kind));
  (h.mix(static_cast<std::uint64_t>(fields)), ...);
  return h.digest();
}

/// The content of an update_step<v, w> message an acceptor sent.
struct UpdatePayload {
  Value value{kNil};
  ViewNumber view{0};
  RoundNumber step{1};  // 1 or 2

  [[nodiscard]] constexpr std::uint64_t digest() const noexcept {
    return payload_digest(PayloadKind::kUpdate, value, view, step);
  }

  friend auto operator<=>(const UpdatePayload&, const UpdatePayload&) = default;
};

/// The content of a view_change<nextView> message.
struct ViewChangePayload {
  ViewNumber next_view{0};

  [[nodiscard]] constexpr std::uint64_t digest() const noexcept {
    return payload_digest(PayloadKind::kViewChange, next_view);
  }
};

/// A payload together with its signature; the signer is the signature's.
template <typename P>
struct Signed {
  P payload;
  sim::Signature signature;

  [[nodiscard]] ProcessId signer() const noexcept { return signature.signer; }
};

/// A signed update_step<v, w> message: the building block of Updateproof.
using SignedUpdate = Signed<UpdatePayload>;
/// A signed view_change<nextView> message; a quorum of them is viewProof.
using SignedViewChange = Signed<ViewChangePayload>;

/// Keys Updateproof / UpdateQ maps: (step, view).
using StepView = std::pair<RoundNumber, ViewNumber>;

/// The content of a new_view_ack message (Figure 12, line 28): the
/// acceptor's last prepared and 1-/2-updated values with view numbers,
/// quorum ids and signature sets vouching for the updates.
struct NewViewAckData {
  ViewNumber view{0};
  Value prep{kNil};
  std::set<ViewNumber> prepview;
  std::array<Value, 3> update{kNil, kNil, kNil};          // index 1, 2 used
  std::array<std::set<ViewNumber>, 3> updateview;          // index 1, 2 used
  std::map<StepView, std::vector<SignedUpdate>> updateproof;
  std::map<StepView, QuorumIdSet> updateq;

  /// Content digest over every field: what the ack's signature vouches for.
  [[nodiscard]] std::uint64_t digest() const noexcept {
    Fnv64 h;
    const auto mix_views = [&h](const std::set<ViewNumber>& views) {
      h.mix(views.size());
      for (const ViewNumber w : views) h.mix(w);
    };
    h.mix(static_cast<std::uint64_t>(PayloadKind::kNewViewAck));
    h.mix(view);
    h.mix(static_cast<std::uint64_t>(prep));
    mix_views(prepview);
    for (const Value v : update) h.mix(static_cast<std::uint64_t>(v));
    for (const auto& views : updateview) mix_views(views);
    h.mix(updateproof.size());
    for (const auto& [key, proof] : updateproof) {
      h.mix(key.first);
      h.mix(key.second);
      h.mix(proof.size());
      for (const SignedUpdate& su : proof) {
        h.mix(su.payload.digest());
        h.mix(su.signature.signer);
        h.mix(su.signature.digest);
      }
    }
    h.mix(updateq.size());
    for (const auto& [key, quorums] : updateq) {
      h.mix(key.first);
      h.mix(key.second);
      h.mix(quorums.size());
      for (const QuorumId q : quorums) h.mix(q);
    }
    return h.digest();
  }
};

/// A signed new_view_ack, as the proposer collects it.
using SignedNewViewAck = Signed<NewViewAckData>;

/// vProof: new_view_ack data per acceptor (from some quorum Q).
using VProof = std::map<ProcessId, NewViewAckData>;

// --------------------------------------------------------------------------
// Wire messages.
// --------------------------------------------------------------------------

struct PrepareMsg final : sim::TypedMessage<PrepareMsg> {
  Value value{kNil};
  ViewNumber view{0};
  VProof vproof;           // empty (nil) in initView
  ProcessSet vproof_quorum;  // the quorum Q the vProof came from
  /// Each vProof ack's own signature, one per member of Q. Acceptors look
  /// each member's signature up by its signer and verify it, so a leader
  /// cannot forge acks; the order carries no meaning.
  std::vector<sim::Signature> vproof_signatures;
  [[nodiscard]] std::string_view tag() const override { return "PREPARE"; }
};
RQS_MESSAGE_LAYOUT(PrepareMsg, 128);

/// update_step<v, view>. update2 and update3 carry the sender's covered
/// set: the senders of the previous step it had heard from when it sent.
/// One update2 with covered set S stands for the paper's update2<v, view,
/// Q> for every quorum Q subset of S (Fig. 15 lines 36-38 send one per
/// newly covered quorum), so an acceptor sends one message per delivery
/// that covers something new instead of one per quorum. A Byzantine sender
/// can claim no more with one set than with the separate messages.
struct UpdateMsg final : sim::TypedMessage<UpdateMsg> {
  RoundNumber step{1};  // 1, 2 or 3
  Value value{kNil};
  ViewNumber view{0};
  ProcessSet covered;  // update2/update3: senders of the previous step
  [[nodiscard]] std::string_view tag() const override {
    switch (step) {
      case 1: return "UPDATE1";
      case 2: return "UPDATE2";
      case 3: return "UPDATE3";
      default: return "UPDATE?";
    }
  }
};
RQS_MESSAGE_LAYOUT(UpdateMsg, 64);

struct NewViewMsg final : sim::TypedMessage<NewViewMsg> {
  ViewNumber view{0};
  std::vector<SignedViewChange> view_proof;
  [[nodiscard]] std::string_view tag() const override { return "NEW_VIEW"; }
};
RQS_MESSAGE_LAYOUT(NewViewMsg, 64);

struct NewViewAckMsg final : sim::TypedMessage<NewViewAckMsg> {
  SignedNewViewAck ack;  // signed by the sending acceptor
  [[nodiscard]] std::string_view tag() const override { return "NEW_VIEW_ACK"; }
};
RQS_MESSAGE_LAYOUT(NewViewAckMsg, 384);

struct SignReqMsg final : sim::TypedMessage<SignReqMsg> {
  Value value{kNil};
  ViewNumber view{0};
  RoundNumber step{1};
  [[nodiscard]] std::string_view tag() const override { return "SIGN_REQ"; }
};
RQS_MESSAGE_LAYOUT(SignReqMsg, 64);

struct SignAckMsg final : sim::TypedMessage<SignAckMsg> {
  SignedUpdate update;
  [[nodiscard]] std::string_view tag() const override { return "SIGN_ACK"; }
};
RQS_MESSAGE_LAYOUT(SignAckMsg, 128);

struct ViewChangeMsg final : sim::TypedMessage<ViewChangeMsg> {
  SignedViewChange change;
  [[nodiscard]] std::string_view tag() const override { return "VIEW_CHANGE"; }
};
RQS_MESSAGE_LAYOUT(ViewChangeMsg, 64);

struct DecisionMsg final : sim::TypedMessage<DecisionMsg> {
  Value value{kNil};
  [[nodiscard]] std::string_view tag() const override { return "DECISION"; }
};
RQS_MESSAGE_LAYOUT(DecisionMsg, 64);

struct DecisionPullMsg final : sim::TypedMessage<DecisionPullMsg> {
  [[nodiscard]] std::string_view tag() const override { return "DECISION_PULL"; }
};
RQS_MESSAGE_LAYOUT(DecisionPullMsg, 64);

struct SyncMsg final : sim::TypedMessage<SyncMsg> {
  [[nodiscard]] std::string_view tag() const override { return "SYNC"; }
};
RQS_MESSAGE_LAYOUT(SyncMsg, 64);

}  // namespace rqs::consensus
