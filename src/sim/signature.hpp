// Simulated digital signatures.
//
// The consensus model (Section 4.1) grants the adversary every power but
// one: a Byzantine process cannot forge the signature of a benign process.
// If pB sends <m>_sigma_p then p already signed m. We realize exactly that
// power without cryptography. A signed payload is a fixed-size struct with
// a 64-bit content digest; a signature is the pair (signer, digest); the
// authority keeps the set of pairs that were really signed. verify() is a
// digest compare plus a membership test.
//
// A Byzantine process may *replay* any signature it has seen (the paper's
// lower-bound executions rely on replays of unauthenticated data), and may
// fabricate a Signature value, but a payload p never signed verifies as
// p's only if its digest collides with that of a payload p did sign:
// unforgeability is exact up to 64-bit digest collisions.
//
// A signature depends on the signed content only, never on when or in what
// order the run signed things: two runs that sign the same payloads in any
// order hold the same authority set and hand out equal signatures.
//
// Protocol code signs through the Signer capability handed to each process
// at construction, which pins the signer id — the simulator-level analogue
// of a private key.
#pragma once

#include <cstdint>
#include <set>
#include <utility>

#include "common/types.hpp"

namespace rqs::sim {

struct Signature {
  ProcessId signer{kInvalidProcess};
  std::uint64_t digest{0};  ///< content digest of the signed payload

  friend bool operator==(const Signature&, const Signature&) = default;
};

class SignatureAuthority {
 public:
  /// Records that `signer` signed `payload` (any type with a 64-bit
  /// `digest()` of its content) and returns the signature.
  template <typename P>
  [[nodiscard]] Signature sign(ProcessId signer, const P& payload) {
    const Signature sig{signer, payload.digest()};
    signed_.insert({sig.signer, sig.digest});
    return sig;
  }

  /// True iff `sig` is a genuine signature by `claimed` over `payload`.
  template <typename P>
  [[nodiscard]] bool verify(const Signature& sig, ProcessId claimed,
                            const P& payload) const {
    return sig.signer == claimed && sig.digest == payload.digest() &&
           signed_.contains({sig.signer, sig.digest});
  }

 private:
  std::set<std::pair<ProcessId, std::uint64_t>> signed_;
};

/// Per-process signing capability (the "private key").
class Signer {
 public:
  Signer(SignatureAuthority& authority, ProcessId owner)
      : authority_(&authority), owner_(owner) {}

  template <typename P>
  [[nodiscard]] Signature sign(const P& payload) const {
    return authority_->sign(owner_, payload);
  }
  [[nodiscard]] ProcessId owner() const noexcept { return owner_; }

 private:
  SignatureAuthority* authority_;
  ProcessId owner_;
};

}  // namespace rqs::sim
