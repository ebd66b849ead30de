// Unit tests for consensus wire messages, signed-payload encodings and the
// DecideTracker (Figure 15's three decision rules).
#include <gtest/gtest.h>

#include "consensus/decide_tracker.hpp"
#include "consensus/messages.hpp"
#include "core/constructions.hpp"

namespace rqs::consensus {
namespace {

TEST(PayloadTest, SignedUpdateCanonical) {
  EXPECT_EQ(SignedUpdate::payload(7, 3, 1), "update|1|3|7");
  SignedUpdate su;
  su.value = 7;
  su.view = 3;
  su.step = 2;
  EXPECT_EQ(su.payload(), "update|2|3|7");
  // Different fields give different payloads (no ambiguity).
  EXPECT_NE(SignedUpdate::payload(7, 3, 1), SignedUpdate::payload(7, 3, 2));
  EXPECT_NE(SignedUpdate::payload(7, 3, 1), SignedUpdate::payload(3, 7, 1));
}

TEST(PayloadTest, ViewChangeCanonical) {
  EXPECT_EQ(SignedViewChange::payload(5), "view_change|5");
  EXPECT_NE(SignedViewChange::payload(5), SignedViewChange::payload(6));
}

TEST(PayloadTest, NewViewAckBindsAllFields) {
  NewViewAckData a;
  a.view = 2;
  a.prep = 9;
  a.prepview = {1, 2};
  a.update[1] = 9;
  a.updateview[1] = {1};
  a.updateq[{1, 1}] = {0};
  const std::string base = a.payload();

  NewViewAckData b = a;
  b.prep = 10;
  EXPECT_NE(b.payload(), base);
  b = a;
  b.prepview.insert(3);
  EXPECT_NE(b.payload(), base);
  b = a;
  b.update[2] = 4;
  EXPECT_NE(b.payload(), base);
  b = a;
  b.updateq[{1, 1}].insert(1);
  EXPECT_NE(b.payload(), base);
  // Identical content gives identical payloads.
  EXPECT_EQ(NewViewAckData{a}.payload(), base);
}

TEST(PayloadTest, NewViewAckUpdateqEncodingPinned) {
  // UpdateQ is a QuorumIdSet; it iterates ascending like the std::set it
  // replaced, so the signed encoding is the same string as before.
  NewViewAckData a;
  a.view = 2;
  a.prep = 9;
  a.prepview = {1, 2};
  a.update[1] = 9;
  a.updateview[1] = {1};
  a.updateq[{1, 1}] = {3, 1, 2};
  EXPECT_EQ(a.payload(),
            "nvack|2|p=9|pv=1,2,|u1=9:1,|u2=-9223372036854775808:|q1.1=1,2,3,");
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
