// The perfbench workloads. Each is a closed loop — one client drives
// the simulator, and an op starts only after the previous one responded —
// over a fixed, seeded pass of work. Why each workload exists is in
// perfbench/NOTES.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Nominal wall seconds of one pass on the reference machine; perfbench
  /// turns --seconds into a fixed pass count with it, so the work a run
  /// does depends on --seconds only, never on the machine's speed.
  [[nodiscard]] virtual double nominal_pass_s() const = 0;

  /// Runs one pass. A non-null tracer makes it a traced pass: spans around
  /// every library call, observers attached where the library takes one,
  /// and the per-layer values recorded.
  [[nodiscard]] virtual PassOutput pass(Tracer* tracer) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_swarm_faults(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_mc_fig1(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_consensus_n10(
    std::uint64_t seed);

}  // namespace perfbench
