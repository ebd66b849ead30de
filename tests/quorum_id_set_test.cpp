// Unit tests for QuorumIdSet, the flat ordered quorum-id set shared by the
// storage protocol (QC'2 / Set values) and consensus (UpdateQ).
#include "common/quorum_id_set.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rqs {
namespace {

std::vector<QuorumId> ids_of(const QuorumIdSet& s) { return {s.begin(), s.end()}; }

TEST(QuorumIdSetTest, InsertReportsWhetherTheIdWasNew) {
  QuorumIdSet s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.insert(2));
  EXPECT_FALSE(s.insert(2));
  EXPECT_FALSE(s.insert(5));
  EXPECT_EQ(s.size(), 2u);
}

TEST(QuorumIdSetTest, IterationIsSortedAndUnique) {
  QuorumIdSet s{3, 1, 2, 3, 1};
  EXPECT_EQ(ids_of(s), (std::vector<QuorumId>{1, 2, 3}));
  const std::vector<QuorumId> more{9, 0, 4, 2, 9};
  s.insert(more.begin(), more.end());
  EXPECT_EQ(ids_of(s), (std::vector<QuorumId>{0, 1, 2, 3, 4, 9}));
  EXPECT_TRUE(s.contains(4));
  EXPECT_FALSE(s.contains(5));
  EXPECT_EQ(*s.find(9), 9u);
  EXPECT_EQ(s.find(7), s.end());
}

TEST(QuorumIdSetTest, EqualityIgnoresInsertionOrder) {
  EXPECT_EQ((QuorumIdSet{3, 1, 2}), (QuorumIdSet{1, 2, 3}));
  EXPECT_NE((QuorumIdSet{1, 2}), (QuorumIdSet{1, 2, 3}));
  QuorumIdSet s{7};
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s, QuorumIdSet{});
}

}  // namespace
}  // namespace rqs
