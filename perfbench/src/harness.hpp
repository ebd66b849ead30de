// Measurement harness of the perfbench program: the wall clock, spans
// recorded around calls into the rqs_* libraries, and the per-pass record
// every workload fills in.
//
// A run is a fixed number of identical passes (see main.cpp). A pass is
// fixed, seeded work: the same seed gives the same inputs, the same op
// sequence and therefore the same exact counts in every pass, in every run,
// traced or not. Timings are the only values that vary.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One closed span: a call into one layer's public API.
struct Span {
  std::uint32_t name{0};    ///< index into the tracer's name table
  std::uint32_t parent{0};  ///< index of the enclosing kept span, or kNoParent
  std::uint64_t op{0};      ///< id of the op the span belongs to (0 = set-up)
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

/// In-memory span recorder for the traced run. Spans nest through a stack;
/// each span's self time (its duration minus the part its child spans
/// cover) is credited to its layer, the name's prefix before the first '.'.
/// Self time is accumulated for every span; the span records themselves are
/// kept up to a cap for the Chrome-trace export.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  static constexpr std::size_t kMaxKeptSpans = std::size_t{1} << 18;

  Tracer();

  void begin(std::string_view name, std::uint64_t op);
  void end();

  [[nodiscard]] std::uint64_t span_count() const noexcept { return count_; }
  /// Self time per layer, in seconds.
  [[nodiscard]] const std::map<std::string, double>& layer_self_s()
      const noexcept {
    return layer_self_s_;
  }
  /// Writes the kept spans, in start order, as Chrome trace-event JSON
  /// with the per-layer self-time summary under "otherData". False if the
  /// file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    std::uint32_t name;
    std::uint32_t kept;  // index in spans_, or kNoParent if not kept
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::uint32_t intern(std::string_view name);

  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<std::string> name_layer_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::uint64_t count_{0};
  std::map<std::string, double> layer_self_s_;
};

/// RAII span; does nothing (one branch) when the tracer is null, which is
/// the untraced run.
class Scope {
 public:
  Scope(Tracer* t, std::string_view name, std::uint64_t op = 0) : t_(t) {
    if (t_ != nullptr) t_->begin(name, op);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

/// Everything one pass reports.
///
/// Timed work comes as sequences of segments in a fixed order: segment k is
/// the same work in every pass of a run, so perfbench can take each
/// segment's fastest time over the passes (see main.cpp).
struct PassOutput {
  std::vector<double> setup_us;  ///< wall µs of each set-up call
  std::vector<double> seg_us;    ///< wall µs of each segment of the ops
  double work_s{0};              ///< summed wall seconds of the ops
  std::uint64_t ops{0};
  std::uint64_t failed{0};       ///< ops not completed or failing a check
  /// Exact values (counts and ratios of counts). Identical in every pass
  /// of every run at one seed; the traced passes must agree with the
  /// untraced ones on every key the untraced passes report.
  std::map<std::string, double> exact;
  /// Per-layer timing samples (µs), pooled over the traced passes.
  std::map<std::string, std::vector<double>> samples;
  /// Failed checks, for the log.
  std::vector<std::string> errors;

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

/// Cuts one long library call into segments of equal work. The program
/// replaces the global operator new (alloc_clock.cpp); while a segmenter is
/// armed, every kAllocsPerSegment-th allocation stamps the clock. The code
/// under test is deterministic, so the k-th run of kAllocsPerSegment
/// allocations is the same work in every pass, and the allocation count
/// itself is an exact value.
class AllocSegmenter {
 public:
  static constexpr std::uint64_t kAllocsPerSegment = 1024;

  /// Arms the clock; at most `max_segments` segments are recorded.
  explicit AllocSegmenter(std::size_t max_segments);
  ~AllocSegmenter();
  AllocSegmenter(const AllocSegmenter&) = delete;
  AllocSegmenter& operator=(const AllocSegmenter&) = delete;

  /// Disarms the clock and returns the wall µs of each segment, the last
  /// one ending now. False if more than `max_segments` were needed.
  bool finish(std::vector<double>& seg_us);
  /// Allocations made while armed.
  [[nodiscard]] std::uint64_t allocations() const noexcept { return allocs_; }

 private:
  std::unique_ptr<std::int64_t[]> stamps_;  // uninitialised: untouched
                                           // pages stay out of the RSS
  Clock::time_point t0_;
  std::uint64_t allocs_{0};
  bool armed_{false};
};

/// The calibration kernel: a fixed burst of small allocations and hash-map
/// inserts whose working set stays in the core's own caches, like most of
/// the code under test. It is part of the benchmark, not of the libraries,
/// so no change to the code under test changes its cost; what changes its
/// cost is the machine — other tenants sharing the core and its caches.
/// Returns its wall µs.
[[nodiscard]] double calibration_kernel_us();

/// Nominal µs of the calibration kernel's 10th percentile: its speed on a
/// quiet machine when the benchmark was written. Calibrated timings are
/// measured timings × kCalibrationNominalUs ÷ the run's own 10th
/// percentile of the kernel (see NOTES.md).
inline constexpr double kCalibrationNominalUs = 20.0;

/// Nearest-rank percentile (q in [0, 1]) of an ascending sample; 0 for an
/// empty one.
[[nodiscard]] double sorted_percentile(const std::vector<double>& sorted,
                                       double q);
/// The same for a sample in any order.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// Deterministic per-purpose stream derived from the run seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

}  // namespace perfbench
