// swarm-faults: a fixed range of scenario seeds from the default
// ScenarioGenerator mix — both protocols at n = 4..7 with crashes,
// partitions, asynchrony, loss, duplication and Byzantine roles — each run
// through ScenarioRunner::run on this one thread. It builds many small
// deployments and takes the retry, view-change and checker paths of both
// protocols. The runner builds each deployment's clusters inside run(), so
// that construction is op time here, not set-up time.
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "sim/simulation.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rqs::scenario::ScenarioGenerator;
using rqs::scenario::ScenarioRunner;
using rqs::scenario::ScenarioSpec;

/// The pass runs scenario seeds [1, 4000]. The range is fixed because the
/// mix is heavy-tailed: 4000 scenarios drawn per run seed still moved
/// msgs_per_op by 5% between run seeds. The run seed orders the scenarios.
constexpr std::size_t kScenariosPerPass = 4000;
constexpr std::uint64_t kFirstScenarioSeed = 1;

class SwarmFaults final : public Workload {
 public:
  explicit SwarmFaults(std::uint64_t seed) : order_(kScenariosPerPass) {
    std::iota(order_.begin(), order_.end(), kFirstScenarioSeed);
    rqs::Rng rng(derive_seed(seed, 3));
    std::shuffle(order_.begin(), order_.end(), rng.engine());
  }

  [[nodiscard]] double nominal_pass_s() const override { return 1.3; }

  [[nodiscard]] PassOutput pass(Tracer* tr) override {
    PassOutput out;
    Scope pass_scope(tr, "bench.pass");

    // Set-up: sample every spec of the range and materialize each spec's
    // quorum system. The runner materializes it again inside run(); its
    // cluster construction is part of the op. Traced passes also validate
    // each system (RefinedQuorumSystem::check), which the runner never
    // calls, outside the set-up time.
    const ScenarioGenerator gen;
    std::vector<ScenarioSpec> specs;
    specs.reserve(order_.size());
    std::vector<double> generate_us, build_us, check_us;
    std::uint64_t quorums = 0, rejected = 0, consensus = 0;
    for (std::size_t i = 0; i < order_.size(); ++i) {
      auto t0 = Clock::now();
      {
        Scope s(tr, "scenario.generate");
        specs.push_back(gen.generate(order_[i]));
      }
      generate_us.push_back(seconds_since(t0) * 1e6);
      t0 = Clock::now();
      rqs::RefinedQuorumSystem rqs = [&] {
        Scope s(tr, "core.build");
        return rqs::scenario::materialize(specs.back().family);
      }();
      build_us.push_back(seconds_since(t0) * 1e6);
      quorums += rqs.quorum_count();
      if (specs.back().protocol == rqs::scenario::Protocol::kConsensus) {
        ++consensus;
      }
      if (tr != nullptr) {
        t0 = Clock::now();
        bool valid = false;
        {
          Scope s(tr, "core.check");
          valid = rqs.check().ok();
        }
        check_us.push_back(seconds_since(t0) * 1e6);
        // Not a gate: check() rejects the masking4 family (class 2 only),
        // which the runner still treats as valid for its liveness claims.
        if (!valid) ++rejected;
      }
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      out.setup_us.push_back(generate_us[i] + build_us[i]);
    }

    rqs::obs::Observer observer;
    ScenarioRunner::Options opts;
    if (tr != nullptr) opts.observer = &observer;
    const ScenarioRunner runner(opts);
    std::uint64_t delivered = 0, started = 0, completed = 0, skipped = 0,
                  liveness = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto t0 = Clock::now();
      rqs::scenario::ScenarioResult res;
      {
        Scope s(tr, "scenario.run", i + 1);
        res = runner.run(specs[i]);
      }
      const double us = seconds_since(t0) * 1e6;
      out.seg_us.push_back(us);
      out.work_s += us * 1e-6;
      ++out.ops;
      if (!res.ok()) {
        out.fail("scenario seed " + std::to_string(specs[i].seed) + ": " +
                 res.violations.front());
      }
      delivered += res.messages_delivered;
      started += res.ops_started;
      completed += res.ops_completed;
      skipped += res.ops_skipped;
      liveness += res.liveness_checked;
    }

    const auto n = static_cast<double>(out.ops);
    auto& x = out.exact;
    // The runner reports deliveries, not sends, without an observer.
    x["msgs_per_op"] = static_cast<double>(delivered) / n;
    x["core.quorums"] = static_cast<double>(quorums) / n;
    x["sim.delivers_per_op"] = static_cast<double>(delivered) / n;
    x["scenario.ops_completed_ratio"] =
        static_cast<double>(completed) / static_cast<double>(started);
    x["scenario.ops_skipped_per_scenario"] = static_cast<double>(skipped) / n;
    x["scenario.liveness_checked_ratio"] =
        static_cast<double>(liveness) / static_cast<double>(started);
    if (tr != nullptr) {
      x["core.check_rejected_share"] = static_cast<double>(rejected) / n;
      x["sim.sends_per_op"] = static_cast<double>(observer.sends()) / n;
      x["sim.timers_per_op"] = static_cast<double>(observer.timers()) / n;
      const auto snap = observer.snapshot();
      const double storage = n - static_cast<double>(consensus);
      x["storage.retransmits_per_scenario"] =
          static_cast<double>(snap.counter("storage.read.retransmit") +
                              snap.counter("storage.write.retransmit")) /
          storage;
      x["storage.failovers_per_scenario"] =
          static_cast<double>(snap.counter("storage.read.failover") +
                              snap.counter("storage.write.failover")) /
          storage;
      if (const auto* h = snap.histogram("storage.read.rounds")) {
        // Round counts are small, so each has an exact histogram slot.
        using rqs::obs::LatencyHistogram;
        const auto total = static_cast<double>(h->count());
        const auto one = h->slot_count(LatencyHistogram::index_of(1));
        const auto two = h->slot_count(LatencyHistogram::index_of(2));
        x["storage.read_rounds_1_share"] = static_cast<double>(one) / total;
        x["storage.read_rounds_2_share"] = static_cast<double>(two) / total;
        x["storage.read_rounds_3_share"] =
            static_cast<double>(h->count() - one - two) / total;
      }
      if (const auto* h = snap.histogram("storage.write.rounds")) {
        x["storage.write_rounds_mean"] = h->mean();
      }
      rqs::obs::LatencyHistogram op_time;
      for (const char* name :
           {"storage.read.sim_time", "storage.write.sim_time"}) {
        if (const auto* h = snap.histogram(name)) op_time.merge(*h);
      }
      const auto delta = static_cast<double>(rqs::sim::kDefaultDelta);
      x["sim_delta_p50"] = static_cast<double>(op_time.percentile(50)) / delta;
      x["sim_delta_p99"] = static_cast<double>(op_time.percentile(99)) / delta;
      const auto fast = snap.counter("consensus.propose.fast_path");
      const auto slow = snap.counter("consensus.propose.slow_path");
      x["consensus.fast_path_share"] =
          static_cast<double>(fast) / static_cast<double>(fast + slow);
      x["consensus.view_changes_per_scenario"] =
          static_cast<double>(snap.counter("consensus.view_change")) /
          static_cast<double>(consensus);
      x["consensus.retransmits_per_scenario"] =
          static_cast<double>(snap.counter("consensus.propose.retransmit")) /
          static_cast<double>(consensus);
      out.samples["scenario.generate_us"] = std::move(generate_us);
      out.samples["core.build_us"] = std::move(build_us);
      out.samples["core.check_us"] = std::move(check_us);
      out.samples["scenario.run_us"] = out.seg_us;
    }
    return out;
  }

 private:
  std::vector<std::uint64_t> order_;  // scenario seeds in run order
};

}  // namespace

std::unique_ptr<Workload> make_swarm_faults(std::uint64_t seed) {
  return std::make_unique<SwarmFaults>(seed);
}

}  // namespace perfbench
