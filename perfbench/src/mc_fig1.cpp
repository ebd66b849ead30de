// mc-fig1: a full mc::explore of the paper's Figure 1 three-entry spec on
// the greedy broken-5 system. It is the only workload that runs replay,
// state digests, sleep sets and the visited-state cache, so without it the
// model checker goes unmeasured. The spec is fixed: the seed changes
// nothing here.
#include <memory>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rqs::mc::McResult;
using rqs::scenario::ScenarioSpec;
using rqs::scenario::ScheduleEntry;
using rqs::scenario::SystemFamily;

/// Servers s1..s5 are ids 0..4: the write reaches only s3, the first read
/// sees {s3, s4, s5} and the second {s1, s2, s4} (Section 1.2).
ScenarioSpec fig1_spec() {
  ScenarioSpec s;
  s.family = SystemFamily::kFig1Broken5;
  s.reader_count = 2;
  ScheduleEntry w;
  w.kind = ScheduleEntry::Kind::kWrite;
  w.value = 1;
  w.reachable = rqs::ProcessSet{{2}};
  ScheduleEntry r0;
  r0.kind = ScheduleEntry::Kind::kRead;
  r0.client = 0;
  r0.reachable = rqs::ProcessSet{{2, 3, 4}};
  ScheduleEntry r1 = r0;
  r1.client = 1;
  r1.reachable = rqs::ProcessSet{{0, 1, 3}};
  s.schedule = {w, r0, r1};
  return s;
}

/// Root constructions timed as the set-up of one pass.
constexpr std::size_t kRootBuilds = 512;

/// Bound on the segments of one search (AllocSegmenter).
constexpr std::size_t kMaxSegments = std::size_t{1} << 20;

/// Distinct states of the complete search, fixed since the checker landed.
constexpr std::uint64_t kDistinctStates = 26'291;

class McFig1 final : public Workload {
 public:
  [[nodiscard]] double nominal_pass_s() const override { return 1.5; }

  [[nodiscard]] PassOutput pass(Tracer* tr) override {
    PassOutput out;
    Scope pass_scope(tr, "bench.pass");

    // Set-up: the construction explore() repeats at its root and on every
    // replay — materialize the system and build one controllable execution
    // of the spec (which materializes it again) — done kRootBuilds times,
    // so the pass's set-up time is a sum of many sub-millisecond builds.
    const ScenarioSpec spec = fig1_spec();
    std::vector<double> build_us;
    std::size_t quorums = 0;
    for (std::size_t i = 0; i < kRootBuilds; ++i) {
      auto t0 = Clock::now();
      {
        Scope s(tr, "core.build");
        quorums = rqs::scenario::materialize(spec.family).quorum_count();
      }
      build_us.push_back(seconds_since(t0) * 1e6);
      t0 = Clock::now();
      {
        Scope s(tr, "mc.execution");
        const rqs::mc::McExecution root(spec);
        if (i == 0 && !root.unsupported().empty()) {
          out.fail(root.unsupported());
        }
      }
      out.setup_us.push_back(build_us.back() + seconds_since(t0) * 1e6);
    }
    // Not set-up: explore() never validates the system. broken-5 must fail
    // the check (it violates P2).
    const rqs::RefinedQuorumSystem broken5 =
        rqs::scenario::materialize(spec.family);
    auto t0 = Clock::now();
    bool valid = true;
    {
      Scope s(tr, "core.check");
      valid = broken5.check().ok();
    }
    const double check_s = seconds_since(t0);
    if (valid) out.fail("broken-5 passes its check; it must violate P2");

    // One search is one call; the segmenter cuts it into runs of equal
    // work so perfbench can time it piece by piece.
    t0 = Clock::now();
    McResult r;
    std::uint64_t allocations = 0;
    {
      Scope s(tr, "mc.explore", 1);
      AllocSegmenter segmenter(kMaxSegments);
      r = rqs::mc::explore(spec);
      if (!segmenter.finish(out.seg_us)) {
        out.fail("more than " + std::to_string(kMaxSegments) +
                 " allocation segments in one search");
      }
      allocations = segmenter.allocations();
    }
    out.work_s = seconds_since(t0);
    const auto& st = r.stats;
    out.ops = st.states_visited;

    if (!r.error.empty()) out.fail(r.error);
    if (!r.complete) out.fail("search did not exhaust the schedule space");
    if (r.violations.size() != 1 ||
        r.violations[0].signature.find("read inversion") == std::string::npos) {
      out.fail("expected exactly the read-inversion violation, got " +
               std::to_string(r.violations.size()) + " signature(s)");
    }
    if (st.distinct_states != kDistinctStates) {
      out.fail("distinct states " + std::to_string(st.distinct_states) +
               " != " + std::to_string(kDistinctStates));
    }

    const auto arrivals = static_cast<double>(st.states_visited);
    auto& x = out.exact;
    // Each fired choice is one delivery (or one of the spec's injections).
    x["msgs_per_op"] = static_cast<double>(st.transitions) / arrivals;
    x["core.quorums"] = static_cast<double>(quorums);
    x["mc.allocations"] = static_cast<double>(allocations);
    x["mc.transitions"] = static_cast<double>(st.transitions);
    x["mc.replays"] = static_cast<double>(st.replays);
    x["mc.states_visited"] = arrivals;
    x["mc.distinct_states"] = static_cast<double>(st.distinct_states);
    x["mc.sleep_pruned"] = static_cast<double>(st.sleep_pruned);
    x["mc.cache_pruned"] = static_cast<double>(st.cache_pruned);
    x["mc.replay_ratio"] = static_cast<double>(st.replays) / arrivals;
    // The digest's top 53 bits, so the value is exact as a double.
    x["mc.exploration_digest"] =
        static_cast<double>(r.exploration_digest >> 11);
    if (tr != nullptr) {
      out.samples["core.build_us"] = std::move(build_us);
      out.samples["core.check_us"].push_back(check_s * 1e6);
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<Workload> make_mc_fig1(std::uint64_t /*seed*/) {
  return std::make_unique<McFig1>();
}

}  // namespace perfbench
