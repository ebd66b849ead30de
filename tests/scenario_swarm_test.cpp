// Swarm smoke: hundreds of generated scenarios on valid refined quorum
// systems must produce zero invariant violations, and the planted Fig. 1
// greedy system must be caught from a *generated* scenario with a small
// shrunk reproducer.
#include <gtest/gtest.h>

#include <algorithm>

#include "scenario/swarm.hpp"

namespace rqs::scenario {
namespace {

// The runner asserts liveness and validity only for families whose RQS
// passes check(); masking4 (n = 4 is not above 2t + 2k) must not qualify.
TEST(SwarmSmokeTest, FamilyValidAgreesWithCheck) {
  for (const SystemFamily f : kAllSystemFamilies) {
    const CheckResult check = materialize(f).check();
    EXPECT_EQ(family_valid(f), check.ok()) << to_string(f) << ": " << check.to_string();
  }
  EXPECT_FALSE(family_valid(SystemFamily::kFig1Broken5));
  EXPECT_FALSE(family_valid(SystemFamily::kMasking4));
  EXPECT_TRUE(family_valid(SystemFamily::kThreeT1of1));
}

TEST(SwarmSmokeTest, TwoHundredValidScenariosNoViolations) {
  SwarmOptions opts;
  opts.scenarios = 200;
  opts.threads = 2;
  opts.base_seed = 1;
  const SwarmReport report = run_swarm(opts);
  EXPECT_EQ(report.scenarios_run, 200u);
  EXPECT_EQ(report.violating, 0u) << report.summary();
  EXPECT_TRUE(report.failures.empty());
  // The workload actually exercised something, and the liveness predicate
  // actually covered operations (not vacuously skipped everywhere).
  EXPECT_GT(report.ops_started, 200u);
  EXPECT_GT(report.ops_completed, 0u);
  EXPECT_GT(report.liveness_checked, 50u);
}

TEST(SwarmSmokeTest, Fig1PlantedBugRedetectedWithSmallReproducer) {
  // E1 (Section 1.2 / Figure 1): the greedy system violates atomicity.
  // The swarm must rediscover that from generated scenarios alone and
  // shrink at least one reproducer to <= 3 schedule entries.
  SwarmOptions opts;
  opts.scenarios = 400;
  opts.threads = 2;
  opts.base_seed = 1;
  opts.generator = ScenarioGenerator::fig1_hunt();
  const SwarmReport report = run_swarm(opts);
  ASSERT_GT(report.violating, 0u) << "swarm missed the planted Fig. 1 bug";
  ASSERT_FALSE(report.failures.empty());
  bool atomicity = false;
  for (const SwarmFailure& f : report.failures) {
    for (const std::string& v : f.violations) {
      if (v.find("atomicity") != std::string::npos) atomicity = true;
    }
  }
  EXPECT_TRUE(atomicity) << report.summary();
  const std::size_t smallest =
      std::min_element(report.failures.begin(), report.failures.end(),
                       [](const SwarmFailure& a, const SwarmFailure& b) {
                         return a.shrunk_entries < b.shrunk_entries;
                       })
          ->shrunk_entries;
  EXPECT_LE(smallest, 3u) << report.summary();
}

TEST(SwarmSmokeTest, FailuresCarryReplayableSeeds) {
  SwarmOptions opts;
  opts.scenarios = 400;
  opts.threads = 2;
  opts.generator = ScenarioGenerator::fig1_hunt();
  const SwarmReport report = run_swarm(opts);
  ASSERT_FALSE(report.failures.empty());
  // Re-deriving the spec from the reported seed reproduces the violation.
  const ScenarioGenerator gen(opts.generator);
  const ScenarioRunner runner(opts.runner);
  const SwarmFailure& f = report.failures.front();
  const ScenarioResult replay = runner.run(gen.generate(f.seed));
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(replay.violations, f.violations);
}

}  // namespace
}  // namespace rqs::scenario
