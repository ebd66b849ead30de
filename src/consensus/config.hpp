// Shared configuration of a consensus deployment: role sets, the refined
// quorum system over the acceptors, and the signature authority.
#pragma once

#include <vector>

#include "common/process_set.hpp"
#include "common/retry.hpp"
#include "consensus/messages.hpp"
#include "core/rqs.hpp"
#include "sim/signature.hpp"
#include "sim/simulation.hpp"

namespace rqs::consensus {

/// Conventional process ids (all < ProcessSet::kMaxProcesses = 64: the
/// consensus layer is 1-word by construction — see the width-selection
/// rule in common/process_set.hpp — so network scripting can address
/// every role through ProcessSet rules).
/// Acceptors use ids 0..n-1 (matching RQS element indices).
inline constexpr ProcessId kFirstProposerId = 30;
inline constexpr ProcessId kFirstLearnerId = 45;

struct ConsensusConfig {
  const RefinedQuorumSystem* rqs{nullptr};
  ProcessSet acceptors;
  std::vector<ProcessId> proposers;  // leader(view) = proposers[view % size]
  ProcessSet learners;
  sim::SignatureAuthority* authority{nullptr};
  /// Retransmission policy shared by proposers and acceptors (disabled by
  /// default — send-once paper automata). Enabled, proposers retransmit
  /// their current phase's broadcast on a backoff schedule and acceptors
  /// answer duplicate prepares by re-announcing update1.
  RetryPolicy::Config retry{};

  [[nodiscard]] ProcessId leader_of(ViewNumber view) const {
    return proposers[static_cast<std::size_t>(view % proposers.size())];
  }
  [[nodiscard]] ProcessSet acceptors_and_learners() const {
    return acceptors | learners;
  }

  /// Fig. 12 line 4, a valid new_view_ack: `signature` is `signer`'s over
  /// `ack`, the ack answers the new_view of `view`, and every update it
  /// claims carries Updateproof signatures on exactly that update from a
  /// basic subset. The proposer checks each ack it collects; acceptors
  /// re-check every ack of a prepare's vProof, since a Byzantine leader
  /// may ship acks nobody signed.
  [[nodiscard]] bool ack_valid(ProcessId signer, const NewViewAckData& ack,
                               const sim::Signature& signature,
                               ViewNumber view) const {
    if (ack.view != view || !authority->verify(signature, signer, ack)) return false;
    for (RoundNumber step = 1; step <= 2; ++step) {
      for (const ViewNumber w : ack.updateview[step]) {
        const auto it = ack.updateproof.find(StepView{step, w});
        if (it == ack.updateproof.end()) return false;
        ProcessSet signers;
        for (const SignedUpdate& su : it->second) {
          if (su.payload != UpdatePayload{ack.update[step], w, step}) return false;
          if (!authority->verify(su.signature, su.signer(), su.payload)) return false;
          signers.insert(su.signer());
        }
        if (!rqs->adversary().is_basic(signers)) return false;
      }
    }
    return true;
  }
};

}  // namespace rqs::consensus
