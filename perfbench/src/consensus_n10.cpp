// consensus-n10: repeated single-decree decisions on
// make_3t1_instantiation(3) — n = 10 acceptors, 176 quorums — each on a
// fresh ConsensusCluster with two learners, cycling three cases: fault
// free, t = 3 Byzantine acceptors, and an equivocating leader with a
// benign backup proposer, which forces a view change. The acceptors'
// O(|QS|) quorum scans and the UPDATE2 fan-out dominate here, so this is
// the workload a consensus-only optimisation must move.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "consensus/harness.hpp"
#include "core/constructions.hpp"
#include "obs/observer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rqs::ProcessSet;
using rqs::consensus::ClusterConfig;
using rqs::consensus::ConsensusCluster;
using rqs::Value;

constexpr std::size_t kT = 3;
constexpr std::size_t kN = 3 * kT + 1;
/// Decisions of each case per pass.
constexpr std::size_t kPerCase = 48;
constexpr rqs::sim::SimTime kDeadlineDeltas = 3000;

enum class Case : std::uint8_t { kFaultFree, kByzantine, kEquivocating };

/// One decision of the pass. Values and Byzantine sets depend on the
/// decision's index only, so every run seed does the same decisions and
/// reports the same counts.
struct Decision {
  Case kind{Case::kFaultFree};
  Value value{0};
  ProcessSet byzantine;
};

/// The pass's decisions: the cases rotate (fault free, Byzantine,
/// equivocating, ...), and the seed orders the decisions within each case.
/// The rotation is fixed because a decision's speed depends on the heap
/// its predecessor left behind: with the cases shuffled too, the run seed
/// moved the median decision time by a fifth.
std::vector<Decision> decisions(std::uint64_t seed) {
  std::vector<Decision> by_case[3];
  for (std::size_t i = 0; i < kPerCase; ++i) {
    const auto v = static_cast<Value>(100 + i);
    by_case[0].push_back({Case::kFaultFree, v, {}});
    // t consecutive acceptors, rotating over the ten ids.
    ProcessSet byz;
    for (std::size_t k = 0; k < kT; ++k) {
      byz.insert(static_cast<rqs::ProcessId>((i + k) % kN));
    }
    by_case[1].push_back({Case::kByzantine, v, byz});
    by_case[2].push_back({Case::kEquivocating, v, {}});
  }
  rqs::Rng rng(derive_seed(seed, 5));
  for (auto& ds : by_case) std::shuffle(ds.begin(), ds.end(), rng.engine());
  std::vector<Decision> out;
  for (std::size_t i = 0; i < kPerCase; ++i) {
    for (const auto& ds : by_case) out.push_back(ds[i]);
  }
  return out;
}

class ConsensusN10 final : public Workload {
 public:
  explicit ConsensusN10(std::uint64_t seed) : decisions_(decisions(seed)) {}

  [[nodiscard]] double nominal_pass_s() const override { return 0.6; }

  [[nodiscard]] PassOutput pass(Tracer* tr) override {
    PassOutput out;
    Scope pass_scope(tr, "bench.pass");

    // Set-up: build the system once per pass and, traced, validate it.
    auto t0 = Clock::now();
    const rqs::RefinedQuorumSystem system = [&] {
      Scope s(tr, "core.build");
      return rqs::make_3t1_instantiation(kT);
    }();
    const double build_us = seconds_since(t0) * 1e6;
    out.setup_us.push_back(build_us);
    double check_us = 0;
    if (tr != nullptr) {
      t0 = Clock::now();
      bool valid = false;
      {
        Scope s(tr, "core.check");
        valid = system.check().ok();
      }
      check_us = seconds_since(t0) * 1e6;
      if (!valid) out.fail("make_3t1_instantiation(3) fails its check");
    }

    rqs::obs::Observer observer;
    std::vector<double> cluster_us, decide_us, delays;
    std::uint64_t sends = 0, delivered = 0;
    std::map<std::string, std::uint64_t> by_tag;
    for (std::size_t i = 0; i < decisions_.size(); ++i) {
      const Decision& d = decisions_[i];
      ClusterConfig cfg;
      cfg.learner_count = 2;
      if (d.kind == Case::kByzantine) {
        cfg.byzantine_acceptors = d.byzantine;
        cfg.fake_value = -d.value;
      } else if (d.kind == Case::kEquivocating) {
        // Proposer 0 sends value to even acceptors and fake_value to odd.
        cfg.proposer_count = 2;
        cfg.byzantine_proposer = true;
        cfg.fake_value = d.value + 1;
      }

      t0 = Clock::now();
      std::optional<ConsensusCluster> cluster;
      {
        Scope s(tr, "consensus.cluster");
        cluster.emplace(system, cfg);
      }
      cluster_us.push_back(seconds_since(t0) * 1e6);
      out.setup_us.push_back(cluster_us.back());
      if (tr != nullptr) cluster->sim().set_observer(&observer);

      t0 = Clock::now();
      bool learned = false;
      {
        Scope s(tr, "consensus.decide", i + 1);
        cluster->propose(0, d.value);
        if (d.kind == Case::kEquivocating) cluster->propose(1, d.value + 2);
        learned = cluster->run_until_learned(kDeadlineDeltas);
      }
      const double us = seconds_since(t0) * 1e6;
      out.seg_us.push_back(us);
      decide_us.push_back(us);
      out.work_s += us * 1e-6;
      ++out.ops;

      // Agreement: both learners learned one value. Validity: with benign
      // proposers it is the proposed value; an equivocating leader may
      // get either of its values or the backup's decided.
      const std::optional<Value> agreed = cluster->agreed_value();
      if (!learned || !agreed.has_value()) {
        out.fail("decision " + std::to_string(i) +
                 (learned ? ": learners disagree" : ": not learned"));
      } else {
        const Value got = agreed.value();
        const bool valid = d.kind == Case::kEquivocating
                               ? got >= d.value && got <= d.value + 2
                               : got == d.value;
        if (!valid) {
          out.fail("decision " + std::to_string(i) + ": decided " +
                   std::to_string(got) + ", proposed " +
                   std::to_string(d.value));
        }
      }
      for (std::size_t l = 0; l < 2; ++l) {
        if (const auto delay = cluster->learn_delays(l)) {
          delays.push_back(static_cast<double>(*delay));
        }
      }
      const auto& net = cluster->network();
      sends += net.messages_sent();
      delivered += cluster->sim().messages_delivered();
      for (const auto& [tag, count] : net.sent_by_tag()) {
        by_tag[std::string(tag)] += count;
      }
      cluster.reset();
    }

    const auto n = static_cast<double>(out.ops);
    auto& x = out.exact;
    x["msgs_per_op"] = static_cast<double>(sends) / n;
    x["core.quorums"] = static_cast<double>(system.quorum_count());
    x["sim.sends_per_op"] = static_cast<double>(sends) / n;
    x["sim.delivers_per_op"] = static_cast<double>(delivered) / n;
    for (const auto& [tag, count] : by_tag) {
      x["consensus.sends_per_decision." + tag] =
          static_cast<double>(count) / n;
    }
    // Learn delays in Delta are whole numbers, so these are exact.
    x["sim_delta_p50"] = percentile(delays, 0.5);
    x["sim_delta_p99"] = percentile(delays, 0.99);
    x["consensus.learn_delays_p50"] = x["sim_delta_p50"];
    x["consensus.learn_delays_p99"] = x["sim_delta_p99"];
    if (tr != nullptr) {
      const auto snap = observer.snapshot();
      x["sim.timers_per_op"] = static_cast<double>(observer.timers()) / n;
      const auto fast = snap.counter("consensus.propose.fast_path");
      const auto slow = snap.counter("consensus.propose.slow_path");
      x["consensus.fast_path_share"] =
          static_cast<double>(fast) / static_cast<double>(fast + slow);
      x["consensus.view_changes_per_decision"] =
          static_cast<double>(snap.counter("consensus.view_change")) / n;
      out.samples["core.build_us"].push_back(build_us);
      out.samples["core.check_us"].push_back(check_us);
      out.samples["consensus.build_us"] = std::move(cluster_us);
      out.samples["consensus.decide_us"] = std::move(decide_us);
    }
    return out;
  }

 private:
  std::vector<Decision> decisions_;  // in run order
};

}  // namespace

std::unique_ptr<Workload> make_consensus_n10(std::uint64_t seed) {
  return std::make_unique<ConsensusN10>(seed);
}

}  // namespace perfbench
