// Tests for the Example 2-6 constructions: the analytic feasibility bounds
// of the paper must agree exactly with the explicit property checkers. The
// quorum-completion queries the protocols wait on (covers,
// for_each_covered, for_each_completed_by, best_available) are checked
// against a brute-force scan of quorums() on every construction.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/rng.hpp"
#include "core/constructions.hpp"

namespace rqs {
namespace {

TEST(ConstructionsTest, CrashMajorityIsValid) {
  for (std::size_t n = 1; n <= 9; ++n) {
    const RefinedQuorumSystem rqs = make_crash_majority(n);
    EXPECT_TRUE(rqs.valid()) << "n=" << n;
    EXPECT_FALSE(rqs.has_class1());
    EXPECT_FALSE(rqs.has_class2());
    // Every quorum is a majority.
    for (const Quorum& q : rqs.quorums()) {
      EXPECT_GT(2 * q.set.size(), n - (n - 1) / 2 - 1);
      EXPECT_GE(q.set.size(), n - (n - 1) / 2);
    }
  }
}

TEST(ConstructionsTest, ByzantineThirdIsValid) {
  for (std::size_t n = 4; n <= 10; ++n) {
    const RefinedQuorumSystem rqs = make_byzantine_third(n);
    EXPECT_TRUE(rqs.valid()) << "n=" << n;
    EXPECT_EQ(rqs.adversary().threshold_k(), (n - 1) / 3);
  }
}

TEST(ConstructionsTest, DisseminatingValidIffP1Bound) {
  // Disseminating systems only need Property 1: |S| > 2t + k.
  for (std::size_t n = 3; n <= 8; ++n) {
    for (std::size_t k = 0; k <= 2; ++k) {
      for (std::size_t t = k; t <= 3 && t <= n; ++t) {
        const ThresholdParams p{.n = n, .k = k, .t = t, .r = 0, .q = 0,
                                .has_class1 = false, .has_class2 = false};
        const RefinedQuorumSystem rqs = make_disseminating(n, k, t);
        EXPECT_EQ(rqs.valid(), ThresholdBounds::all(p))
            << "n=" << n << " k=" << k << " t=" << t;
        EXPECT_EQ(rqs.valid(), n > 2 * t + k);
      }
    }
  }
}

TEST(ConstructionsTest, MaskingValidIffBounds) {
  for (std::size_t n = 4; n <= 9; ++n) {
    for (std::size_t k = 0; k <= 2; ++k) {
      for (std::size_t t = k; t <= 2; ++t) {
        const ThresholdParams p{.n = n, .k = k, .t = t, .r = t, .q = 0,
                                .has_class1 = false, .has_class2 = true};
        const RefinedQuorumSystem rqs = make_masking(n, k, t);
        EXPECT_EQ(rqs.valid(), ThresholdBounds::all(p))
            << "n=" << n << " k=" << k << " t=" << t;
        // P3 without class 1 degenerates to |Q2 n Q| >= 2k+1:
        // |S| > t + r + 2k with r = t.
        EXPECT_EQ(rqs.valid(), n > 2 * t + k && n > 2 * t + 2 * k);
      }
    }
  }
}

// Example 5/6 sweep: explicit validity == analytic bounds, across the
// whole small parameter space.
struct GradedParam {
  std::size_t n, k, t, r, q;
};

class GradedSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GradedSweepTest, ExplicitMatchesAnalytic) {
  const std::size_t n = GetParam();
  for (std::size_t k = 0; k <= 2; ++k) {
    for (std::size_t t = 1; t <= 3 && t < n; ++t) {
      for (std::size_t r = 0; r <= t; ++r) {
        for (std::size_t q = 0; q <= r; ++q) {
          const ThresholdParams p{.n = n, .k = k, .t = t, .r = r, .q = q,
                                  .has_class1 = true, .has_class2 = true};
          const RefinedQuorumSystem rqs = make_graded_threshold(n, k, t, r, q);
          EXPECT_EQ(rqs.valid(), ThresholdBounds::all(p))
              << "n=" << n << " k=" << k << " t=" << t << " r=" << r
              << " q=" << q;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(UniverseSizes, GradedSweepTest,
                         ::testing::Values(4u, 5u, 6u, 7u, 8u, 9u));

TEST(ConstructionsTest, FastThresholdLamportBounds) {
  // Example 5: valid iff |S| > 2q + t + 2k and |S| > 2t + k (and the
  // graded P3 bound, implied when r = q).
  for (std::size_t n = 4; n <= 9; ++n) {
    for (std::size_t k = 0; k <= 2; ++k) {
      for (std::size_t t = 1; t <= 2; ++t) {
        for (std::size_t q = 0; q <= t; ++q) {
          const RefinedQuorumSystem rqs = make_fast_threshold(n, k, t, q);
          const ThresholdParams p{.n = n, .k = k, .t = t, .r = q, .q = q,
                                  .has_class1 = true, .has_class2 = true};
          EXPECT_EQ(rqs.valid(), ThresholdBounds::all(p))
              << "n=" << n << " k=" << k << " t=" << t << " q=" << q;
        }
      }
    }
  }
}

TEST(ConstructionsTest, ThreeTPlusOneInstantiation) {
  // |S| = 3t+1, k = t, r = t, q = 0: the full set is the only class 1
  // quorum; every quorum is class 2.
  for (std::size_t t = 1; t <= 3; ++t) {
    const RefinedQuorumSystem rqs = make_3t1_instantiation(t);
    EXPECT_TRUE(rqs.valid()) << "t=" << t;
    EXPECT_EQ(rqs.class1_ids().size(), 1u);
    EXPECT_EQ(rqs.quorum_set(rqs.class1_ids()[0]),
              ProcessSet::universe(3 * t + 1));
    EXPECT_EQ(rqs.class2_ids().size(), rqs.quorum_count());
  }
}

TEST(ConstructionsTest, Fig1FastFiveShape) {
  const RefinedQuorumSystem rqs = make_fig1_fast5();
  EXPECT_TRUE(rqs.valid());
  // Class 1 quorums: the five 4-subsets and the full set.
  EXPECT_EQ(rqs.class1_ids().size(), 6u);
  // All quorums (3-, 4-, 5-subsets) are class 2 (k = 0 makes P3 free).
  EXPECT_EQ(rqs.class2_ids().size(), rqs.quorum_count());
  EXPECT_EQ(rqs.quorum_count(), binomial(5, 3) + binomial(5, 4) + 1);
}

TEST(ConstructionsTest, BestAvailablePrefersBetterClass) {
  const RefinedQuorumSystem rqs = make_fig1_fast5();
  // All alive: a class 1 quorum is available.
  auto best = rqs.best_available(ProcessSet::universe(5));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(rqs.quorum(*best).cls, QuorumClass::Class1);
  // Two crashed: only class 2 quorums remain.
  best = rqs.best_available(ProcessSet{0, 1, 2});
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(rqs.quorum(*best).cls, QuorumClass::Class2);
  // Three crashed: nothing.
  EXPECT_FALSE(rqs.best_available(ProcessSet{0, 1}).has_value());
}

TEST(ConstructionsTest, QuorumLookupHelpers) {
  const RefinedQuorumSystem rqs = make_example7();
  const auto id = rqs.find(ProcessSet{1, 3, 4, 5});
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(rqs.quorum(*id).cls, QuorumClass::Class1);
  EXPECT_FALSE(rqs.find(ProcessSet{0, 1}).has_value());
  EXPECT_EQ(rqs.all_ids().size(), 3u);
}

// ---------------------------------------------------------------------------
// Quorum-completion queries vs a brute-force scan of quorums().
// ---------------------------------------------------------------------------

constexpr QuorumClass kAllClasses[] = {QuorumClass::Class1, QuorumClass::Class2,
                                       QuorumClass::Class3};

/// Ids of the quorums of class <= `c` inside `heard` that contain
/// `newcomer` (any member when newcomer is kInvalidProcess), ascending.
template <class Set>
std::vector<QuorumId> brute_covered(const BasicRefinedQuorumSystem<Set>& sys,
                                    const Set& heard, QuorumClass c,
                                    ProcessId newcomer = kInvalidProcess) {
  std::vector<QuorumId> out;
  for (QuorumId id = 0; id < sys.quorums().size(); ++id) {
    const BasicQuorum<Set>& q = sys.quorums()[id];
    if (q.cls > c || !q.set.subset_of(heard)) continue;
    if (newcomer != kInvalidProcess && !q.set.contains(newcomer)) continue;
    out.push_back(id);
  }
  return out;
}

/// A random subset of the universe whose density varies per draw, so both
/// near-empty and near-full heard sets (where quorums complete) occur.
template <class Set>
Set random_heard(Rng& rng, std::size_t n) {
  const double density = 0.3 + 0.7 * rng.uniform01();
  Set s;
  for (ProcessId i = 0; i < n; ++i) {
    if (rng.chance(density)) s.insert(i);
  }
  return s;
}

template <class Set>
void check_queries(const BasicRefinedQuorumSystem<Set>& sys, std::uint64_t seed,
                   const char* name) {
  SCOPED_TRACE(name);
  const std::size_t n = sys.universe_size();
  Rng rng(seed);
  std::vector<Set> heards{Set{}, Set::universe(n)};
  for (int i = 0; i < 200; ++i) heards.push_back(random_heard<Set>(rng, n));
  for (const Set& heard : heards) {
    SCOPED_TRACE(heard.to_string());
    for (const QuorumClass c : kAllClasses) {
      const std::vector<QuorumId> expect = brute_covered(sys, heard, c);
      std::vector<QuorumId> seen;
      EXPECT_FALSE(sys.for_each_covered(heard, c,
                                        [&](QuorumId id) { seen.push_back(id); }));
      EXPECT_EQ(seen, expect) << to_string(c);
      EXPECT_EQ(sys.covers(heard, c), !expect.empty()) << to_string(c);
      // A visitor returning true stops at the first covered quorum.
      seen.clear();
      EXPECT_EQ(sys.for_each_covered(heard, c,
                                     [&](QuorumId id) {
                                       seen.push_back(id);
                                       return true;
                                     }),
                !expect.empty());
      EXPECT_EQ(seen.size(), expect.empty() ? 0u : 1u);
      for (ProcessId p = 0; p < n; ++p) {
        const std::vector<QuorumId> by_p = brute_covered(sys, heard, c, p);
        seen.clear();
        sys.for_each_completed_by(p, heard, c,
                                  [&](QuorumId id) { seen.push_back(id); });
        EXPECT_EQ(seen, by_p) << to_string(c) << " newcomer " << p;
        EXPECT_EQ(sys.covers(p, heard, c), !by_p.empty())
            << to_string(c) << " newcomer " << p;
      }
    }
    // The id-list form over a random QC'2-style subset of the ids.
    QuorumIdSet ids;
    bool any = false;
    for (QuorumId id = 0; id < sys.quorum_count(); ++id) {
      if (!rng.chance(0.3)) continue;
      ids.insert(id);
      any = any || sys.quorum(id).set.subset_of(heard);
    }
    EXPECT_EQ(sys.covers(heard, ids), any);
    // best_available: the lowest-id quorum of the best covered class.
    const std::vector<QuorumId> all = brute_covered(sys, heard, QuorumClass::Class3);
    std::optional<QuorumId> best;
    for (const QuorumId id : all) {
      if (!best || sys.quorum(id).cls < sys.quorum(*best).cls) best = id;
    }
    EXPECT_EQ(sys.best_available(heard), best);
  }
  // A newcomer outside the universe completes nothing and does not throw.
  for (const ProcessId p : {static_cast<ProcessId>(n), static_cast<ProcessId>(n + 3),
                            kInvalidProcess}) {
    int visits = 0;
    EXPECT_FALSE(sys.for_each_completed_by(p, Set::universe(n), QuorumClass::Class3,
                                           [&](QuorumId) { ++visits; }));
    EXPECT_EQ(visits, 0);
    EXPECT_FALSE(sys.covers(p, Set::universe(n), QuorumClass::Class3));
  }
}

TEST(QuorumQueryTest, MatchBruteForceOnEveryConstruction) {
  std::uint64_t seed = 1;
  check_queries(make_fig1_fast5(), seed++, "fig1_fast5");
  check_queries(make_fig1_broken5(), seed++, "fig1_broken5");
  check_queries(make_example7(), seed++, "example7");
  check_queries(make_fig3_example(), seed++, "fig3");
  for (std::size_t t = 1; t <= 3; ++t) {
    check_queries(make_3t1_instantiation(t), seed++,
                  ("3t+1, t=" + std::to_string(t)).c_str());
  }
  check_queries(make_masking(6, 1, 1), seed++, "masking(6,1,1)");
  check_queries(make_disseminating(5, 1, 1), seed++, "disseminating(5,1,1)");
  check_queries(make_graded_threshold(7, 1, 2, 2, 1), seed++,
                "graded(7,1,2,2,1)");
  check_queries(make_crash_majority(5), seed++, "crash_majority(5)");
}

TEST(QuorumQueryTest, MatchBruteForceAtWideWidth) {
  check_queries(make_fig3_example<WideProcessSet>(), 41, "wide fig3");
  check_queries(make_example7<WideProcessSet>(), 42, "wide example7");
}

}  // namespace
}  // namespace rqs
