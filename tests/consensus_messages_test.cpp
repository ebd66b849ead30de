// Unit tests for the signatures over consensus payloads, the payloads'
// content digests and the DecideTracker (Figure 15's three decision rules).
#include <gtest/gtest.h>

#include "consensus/decide_tracker.hpp"
#include "consensus/messages.hpp"
#include "core/constructions.hpp"

namespace rqs::consensus {
namespace {

// --- Signatures over the consensus payloads ---

TEST(SignatureTest, SignVerifyRoundTrip) {
  sim::SignatureAuthority auth;
  const sim::Signer alice(auth, 1);
  const UpdatePayload update{7, 3, 1};
  const sim::Signature sig = alice.sign(update);
  EXPECT_EQ(sig.signer, 1u);
  EXPECT_TRUE(auth.verify(sig, 1, update));
}

TEST(SignatureTest, WrongPayloadFails) {
  sim::SignatureAuthority auth;
  const sim::Signer alice(auth, 1);
  const sim::Signature sig = alice.sign(UpdatePayload{7, 3, 1});
  EXPECT_FALSE(auth.verify(sig, 1, UpdatePayload{8, 3, 1}));
  EXPECT_FALSE(auth.verify(sig, 1, UpdatePayload{7, 3, 2}));
  // Same numbers, other payload kind: the kind tag keeps them apart.
  EXPECT_FALSE(auth.verify(sig, 1, ViewChangePayload{3}));
}

TEST(SignatureTest, WrongSignerFails) {
  sim::SignatureAuthority auth;
  const sim::Signer alice(auth, 1);
  const UpdatePayload update{7, 3, 1};
  const sim::Signature sig = alice.sign(update);
  EXPECT_FALSE(auth.verify(sig, 2, update));
  // Relabelling the signature does not make it bob's either.
  EXPECT_FALSE(auth.verify(sim::Signature{2, sig.digest}, 2, update));
}

TEST(SignatureTest, ForgedSignatureFails) {
  // A Byzantine process builds a Signature with the right signer and the
  // right content digest, but the signer never signed that content.
  sim::SignatureAuthority auth;
  const ViewChangePayload change{5};
  EXPECT_FALSE(auth.verify(sim::Signature{1, change.digest()}, 1, change));
  EXPECT_FALSE(auth.verify(sim::Signature{1, 12345}, 1, change));
}

TEST(SignatureTest, ReplayOfGenuineSignatureVerifies) {
  // Replays are allowed by the model: the signature still only vouches
  // for the original payload.
  sim::SignatureAuthority auth;
  const sim::Signer alice(auth, 1);
  const sim::Signature sig = alice.sign(UpdatePayload{1, 3, 1});
  const sim::Signature replayed = sig;  // copied by an adversary
  EXPECT_TRUE(auth.verify(replayed, 1, UpdatePayload{1, 3, 1}));
  EXPECT_FALSE(auth.verify(replayed, 1, UpdatePayload{2, 3, 1}));
}

TEST(SignatureTest, SignaturesDoNotDependOnSigningOrder) {
  // Signing is content-addressed: authorities that sign the same payloads
  // in a different order hand out equal signatures, and each accepts the
  // other's.
  const UpdatePayload x{7, 3, 1};
  const ViewChangePayload y{4};
  sim::SignatureAuthority first;
  sim::SignatureAuthority second;
  const sim::Signature x_first = first.sign(1, x);
  (void)first.sign(1, y);
  (void)second.sign(1, y);
  const sim::Signature x_second = second.sign(1, x);
  EXPECT_EQ(x_first, x_second);
  EXPECT_TRUE(second.verify(x_first, 1, x));
  EXPECT_TRUE(first.verify(x_second, 1, x));
}

// --- Payload digests ---

TEST(PayloadTest, UpdateDigestBindsEveryField) {
  const UpdatePayload base{7, 3, 1};
  EXPECT_EQ(UpdatePayload(base).digest(), base.digest());
  EXPECT_NE((UpdatePayload{8, 3, 1}).digest(), base.digest());
  EXPECT_NE((UpdatePayload{7, 4, 1}).digest(), base.digest());
  EXPECT_NE((UpdatePayload{7, 3, 2}).digest(), base.digest());
  EXPECT_NE((UpdatePayload{3, 7, 1}).digest(), base.digest());
}

TEST(PayloadTest, ViewChangeDigestBindsTheView) {
  EXPECT_EQ(ViewChangePayload{5}.digest(), ViewChangePayload{5}.digest());
  EXPECT_NE(ViewChangePayload{5}.digest(), ViewChangePayload{6}.digest());
}

TEST(PayloadTest, NewViewAckDigestBindsEveryField) {
  sim::SignatureAuthority auth;
  const UpdatePayload update{9, 1, 1};
  NewViewAckData a;
  a.view = 2;
  a.prep = 9;
  a.prepview = {1, 2};
  a.update[1] = 9;
  a.updateview[1] = {1};
  a.updateq[{1, 1}] = {0};
  for (const ProcessId signer : {0u, 1u, 2u}) {
    a.updateproof[{1, 1}].push_back(
        SignedUpdate{update, sim::Signer(auth, signer).sign(update)});
  }
  const std::uint64_t base = a.digest();

  // Identical content gives an identical digest.
  EXPECT_EQ(NewViewAckData{a}.digest(), base);

  std::vector<NewViewAckData> variants;
  const auto vary = [&](auto&& mutate) {
    NewViewAckData b = a;
    mutate(b);
    variants.push_back(b);
  };
  vary([](NewViewAckData& b) { b.view = 3; });
  vary([](NewViewAckData& b) { b.prep = 10; });
  vary([](NewViewAckData& b) { b.prepview.insert(3); });
  vary([](NewViewAckData& b) { b.update[1] = 4; });
  vary([](NewViewAckData& b) { b.update[2] = 4; });
  vary([](NewViewAckData& b) { b.updateview[1].insert(2); });
  vary([](NewViewAckData& b) { b.updateview[2].insert(1); });
  vary([](NewViewAckData& b) { b.updateq[{1, 1}].insert(1); });
  vary([](NewViewAckData& b) { b.updateq[{2, 1}] = {0}; });
  vary([](NewViewAckData& b) { b.updateproof[{1, 1}].pop_back(); });
  vary([](NewViewAckData& b) { b.updateproof[{1, 1}][0].payload.value = 8; });
  vary([](NewViewAckData& b) { b.updateproof[{1, 1}][0].payload.view = 2; });
  vary([](NewViewAckData& b) { b.updateproof[{1, 1}][0].payload.step = 2; });
  // The same signature presented as another signer's.
  vary([](NewViewAckData& b) { b.updateproof[{1, 1}][0].signature.signer = 3; });
  vary([](NewViewAckData& b) { b.updateproof[{1, 1}][0].signature.digest ^= 1; });
  vary([](NewViewAckData& b) { std::swap(b.updateproof[{1, 1}][0], b.updateproof[{1, 1}][1]); });
  vary([](NewViewAckData& b) {
    b.updateproof[{2, 1}] = b.updateproof[{1, 1}];
    b.updateproof.erase({1, 1});
  });
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i].digest(), base) << "variant " << i;
  }
}

class DecideTrackerTest : public ::testing::Test {
 protected:
  const RefinedQuorumSystem rqs_ = make_3t1_instantiation(1);  // n = 4

  UpdateMsg update(RoundNumber step, Value v, ViewNumber w,
                   ProcessSet covered = {}) {
    UpdateMsg m;
    m.step = step;
    m.value = v;
    m.view = w;
    m.covered = covered;
    return m;
  }
};

TEST_F(DecideTrackerTest, Update1NeedsClass1Quorum) {
  DecideTracker t(rqs_);
  // Class 1 quorum = all four acceptors.
  EXPECT_FALSE(t.feed(0, update(1, 5, 0)).has_value());
  EXPECT_FALSE(t.feed(1, update(1, 5, 0)).has_value());
  EXPECT_FALSE(t.feed(2, update(1, 5, 0)).has_value());
  const auto v = t.feed(3, update(1, 5, 0));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
  EXPECT_TRUE(t.decided());
}

TEST_F(DecideTrackerTest, Update1MixedValuesDoNotCount) {
  DecideTracker t(rqs_);
  EXPECT_FALSE(t.feed(0, update(1, 5, 0)).has_value());
  EXPECT_FALSE(t.feed(1, update(1, 6, 0)).has_value());
  EXPECT_FALSE(t.feed(2, update(1, 5, 0)).has_value());
  EXPECT_FALSE(t.feed(3, update(1, 5, 0)).has_value());
  EXPECT_FALSE(t.decided());
}

TEST_F(DecideTrackerTest, Update1MixedViewsDoNotCount) {
  DecideTracker t(rqs_);
  EXPECT_FALSE(t.feed(0, update(1, 5, 0)).has_value());
  EXPECT_FALSE(t.feed(1, update(1, 5, 1)).has_value());
  EXPECT_FALSE(t.feed(2, update(1, 5, 0)).has_value());
  EXPECT_FALSE(t.feed(3, update(1, 5, 0)).has_value());
  EXPECT_FALSE(t.decided());
}

TEST_F(DecideTrackerTest, Update2NeedsCoveredSetContainingTheQuorum) {
  DecideTracker t(rqs_);
  const ProcessSet q012{0, 1, 2};
  ASSERT_EQ(rqs_.quorum(*rqs_.find(q012)).cls, QuorumClass::Class2);
  // Senders {0,1} cover {0,1,2}; sender 2's covered set {0,1,3} does not
  // contain {0,1,2}, so it does not count toward that quorum.
  EXPECT_FALSE(t.feed(0, update(2, 5, 0, q012)).has_value());
  EXPECT_FALSE(t.feed(1, update(2, 5, 0, q012)).has_value());
  EXPECT_FALSE(t.feed(2, update(2, 5, 0, ProcessSet{0, 1, 3})).has_value());
  EXPECT_FALSE(t.decided());
  // Sender 2 covering {0,1,2} completes the quorum and decides.
  const auto v = t.feed(2, update(2, 5, 0, q012));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
  EXPECT_EQ(t.decided_step(), 2u);
}

TEST_F(DecideTrackerTest, Update2SendersMustBelongToTheQuorum) {
  DecideTracker t(rqs_);
  const ProcessSet q012{0, 1, 2};
  // Sender 3 is not in {0,1,2}: its message must not complete that rule.
  EXPECT_FALSE(t.feed(0, update(2, 5, 0, q012)).has_value());
  EXPECT_FALSE(t.feed(1, update(2, 5, 0, q012)).has_value());
  EXPECT_FALSE(t.feed(3, update(2, 5, 0, q012)).has_value());
  EXPECT_FALSE(t.decided());
}

TEST_F(DecideTrackerTest, Update2GrowingCoveredSetIsIdempotent) {
  DecideTracker t(rqs_);
  const ProcessSet q012{0, 1, 2};
  const ProcessSet all{0, 1, 2, 3};
  // The same sender re-sending its set, or a larger one, counts once.
  EXPECT_FALSE(t.feed(0, update(2, 5, 0, q012)).has_value());
  EXPECT_FALSE(t.feed(0, update(2, 5, 0, q012)).has_value());
  EXPECT_FALSE(t.feed(0, update(2, 5, 0, all)).has_value());
  EXPECT_FALSE(t.feed(1, update(2, 5, 0, ProcessSet{0, 1, 3})).has_value());
  EXPECT_FALSE(t.feed(1, update(2, 5, 0, all)).has_value());
  EXPECT_FALSE(t.feed(1, update(2, 5, 0, all)).has_value());
  EXPECT_FALSE(t.decided());
  // {0,1,2} completes exactly on sender 2's first message.
  const auto v = t.feed(2, update(2, 5, 0, q012));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
  EXPECT_FALSE(t.feed(2, update(2, 5, 0, all)).has_value());
  EXPECT_EQ(t.decision(), 5);
}

TEST_F(DecideTrackerTest, Update3AnyQuorum) {
  DecideTracker t(rqs_);
  EXPECT_FALSE(t.feed(1, update(3, 8, 0)).has_value());
  EXPECT_FALSE(t.feed(2, update(3, 8, 0)).has_value());
  const auto v = t.feed(3, update(3, 8, 0));  // {1,2,3} is a quorum
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 8);
}

TEST_F(DecideTrackerTest, FirstDecisionSticks) {
  DecideTracker t(rqs_);
  for (ProcessId a = 0; a < 4; ++a) t.feed(a, update(1, 5, 0));
  ASSERT_TRUE(t.decided());
  // Later quorums for another value are ignored.
  for (ProcessId a = 0; a < 4; ++a) {
    EXPECT_FALSE(t.feed(a, update(3, 6, 1)).has_value());
  }
  EXPECT_EQ(t.decision(), 5);
}

TEST_F(DecideTrackerTest, Update2RejectsClass3AndBogusIds) {
  // A covered set containing only class 3 quorums cannot decide via the
  // update2 rule, nor can a set naming processes outside the universe.
  const RefinedQuorumSystem graded = make_graded_threshold(7, 1, 2, 1, 0);
  DecideTracker t(graded);
  // Find a class 3 quorum (missing 2 processes).
  QuorumId class3 = kInvalidQuorum;
  for (QuorumId q = 0; q < graded.quorum_count(); ++q) {
    if (graded.quorum(q).cls == QuorumClass::Class3) {
      class3 = q;
      break;
    }
  }
  ASSERT_NE(class3, kInvalidQuorum);
  const ProcessSet covered = graded.quorum_set(class3);
  for (const Quorum& q : graded.quorums()) {
    if (q.set.subset_of(covered)) {
      ASSERT_EQ(q.cls, QuorumClass::Class3) << "covered set must hold class 3 only";
    }
  }
  for (const ProcessId a : covered) {
    EXPECT_FALSE(t.feed(a, update(2, 5, 0, covered)).has_value());
  }
  // Every acceptor claims all seven plus a bit past n = 7: malformed, so
  // no credit, although the in-universe part covers every quorum.
  const ProcessSet all = ProcessSet::universe(7);
  for (ProcessId a = 0; a < 7; ++a) {
    EXPECT_FALSE(t.feed(a, update(2, 5, 0, all | ProcessSet{40})).has_value());
  }
  EXPECT_FALSE(t.decided());
  // The same senders with well-formed sets decide.
  std::optional<Value> v;
  for (ProcessId a = 0; a < 7 && !v; ++a) v = t.feed(a, update(2, 5, 0, all));
  EXPECT_EQ(v, std::optional<Value>{5});
}

}  // namespace
}  // namespace rqs::consensus
