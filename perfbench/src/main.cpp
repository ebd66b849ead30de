// perfbench: the repository's benchmark program.
//
//   perfbench --workload <swarm-faults|mc-fig1|consensus-n10>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// A run is a fixed number of identical passes, derived from --seconds and
// the workload's nominal pass time, so the same arguments always give the
// same work. --trace 0 runs every pass untraced and reports the end-to-end
// metrics: each timing is built from the fastest time of every piece of
// work over the passes and calibrated against a fixed kernel timed between
// passes (see NOTES.md). --trace 1 alternates untraced and traced passes and reports the
// per-layer metrics from the traced ones, plus the tracing overhead. The
// last line of standard output is the result object; the lines before it
// give the machine context, the exact counts and, when traced, the
// per-layer self-time summary. Exits 3 without a result from a build that
// is not an optimized Release build, and 2 on bad arguments.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with --trace 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"op_us_p50", "us"},      {"op_us_p99", "us"},
    {"msgs_per_op", "count"}, {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, reported by every workload with --trace 1; a layer a
/// workload does not exercise reads 0 there (see NOTES.md).
constexpr MetricDef kPerLayer[] = {
    {"core.build_us", "us"},
    {"core.check_us", "us"},
    {"core.quorums", "count"},
    {"core.self_share", "ratio"},
    {"sim.sends_per_op", "count"},
    {"sim.delivers_per_op", "count"},
    {"sim.timers_per_op", "count"},
    {"sim_delta_p50", "delta"},
    {"sim_delta_p99", "delta"},
    {"storage.read_rounds_1_share", "ratio"},
    {"storage.read_rounds_2_share", "ratio"},
    {"storage.read_rounds_3_share", "ratio"},
    {"storage.write_rounds_mean", "rounds"},
    {"storage.retransmits_per_scenario", "count"},
    {"storage.failovers_per_scenario", "count"},
    {"consensus.fast_path_share", "ratio"},
    {"consensus.view_changes_per_scenario", "count"},
    {"consensus.retransmits_per_scenario", "count"},
    {"consensus.build_us", "us"},
    {"consensus.decide_us_p50", "us"},
    {"consensus.decide_us_p99", "us"},
    {"consensus.sends_per_decision.PREPARE", "count"},
    {"consensus.sends_per_decision.UPDATE1", "count"},
    {"consensus.sends_per_decision.UPDATE2", "count"},
    {"consensus.sends_per_decision.UPDATE3", "count"},
    {"consensus.sends_per_decision.DECISION", "count"},
    {"consensus.sends_per_decision.VIEW_CHANGE", "count"},
    {"consensus.learn_delays_p50", "delta"},
    {"consensus.learn_delays_p99", "delta"},
    {"consensus.view_changes_per_decision", "count"},
    {"consensus.self_share", "ratio"},
    {"scenario.generate_us", "us"},
    {"scenario.run_us_p50", "us"},
    {"scenario.run_us_p99", "us"},
    {"scenario.ops_completed_ratio", "ratio"},
    {"scenario.ops_skipped_per_scenario", "count"},
    {"scenario.liveness_checked_ratio", "ratio"},
    {"scenario.self_share", "ratio"},
    {"mc.transitions", "count"},
    {"mc.replays", "count"},
    {"mc.states_visited", "count"},
    {"mc.distinct_states", "count"},
    {"mc.sleep_pruned", "count"},
    {"mc.cache_pruned", "count"},
    {"mc.replay_ratio", "ratio"},
    {"mc.self_share", "ratio"},
    {"bench.self_share", "ratio"},
    {"obs.trace_overhead_ratio", "ratio"},
};

constexpr std::size_t kMinPasses = 3;
/// Calibration kernel runs after each untraced pass.
constexpr std::size_t kCalibrationRuns = 1000;

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Peak resident set of this process image (VmHWM). Unlike getrusage's
/// ru_maxrss it restarts at exec, so it does not include the launcher.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  int trace{-1};
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0') a.seconds = 0;
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") == 0   ? 0
                : std::strcmp(v, "1") == 0 ? 1
                                           : -1;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed &&
         a.seconds > 0 && a.seconds <= 3600 && a.trace >= 0;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "swarm-faults") return make_swarm_faults(a.seed);
  if (a.workload == "mc-fig1") return make_mc_fig1(a.seed);
  if (a.workload == "consensus-n10") return make_consensus_n10(a.seed);
  return nullptr;
}

/// Checks that a pass repeated the reference pass's exact values. `got`
/// may hold more keys (traced passes add observer counters); on every key
/// of the reference the two must agree bit for bit.
bool same_exact(const std::map<std::string, double>& ref,
                const std::map<std::string, double>& got, std::string& why) {
  for (const auto& [k, v] : ref) {
    const auto it = got.find(k);
    if (it == got.end() || std::memcmp(&it->second, &v, sizeof v) != 0) {
      why = "exact value '" + k + "' differs between passes";
      return false;
    }
  }
  return true;
}

std::string metrics_json(const MetricDef* defs, std::size_t n,
                         const std::map<std::string, double>& values) {
  std::string s = "{";
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) s += ", ";
    s += json_string(defs[i].name) + ": {\"value\": " +
         json_number(values.at(defs[i].name)) +
         ", \"unit\": " + json_string(defs[i].unit) + "}";
  }
  return s + "}";
}

int run(const Args& a) {
  const std::unique_ptr<Workload> w = make_workload(a);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const auto passes = std::max<std::size_t>(
      kMinPasses,
      static_cast<std::size_t>(std::llround(a.seconds / w->nominal_pass_s())));
  const bool traced = a.trace == 1;
  // A traced run splits the same pass budget between untraced and traced
  // passes, alternating them so drift in machine speed hits both alike.
  const std::size_t each = traced ? std::max<std::size_t>(2, (passes + 1) / 2)
                                  : passes;

  std::printf(
      "{\"context\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"passes\": %zu, \"nproc\": %ld, \"cpu_model\": %s, "
      "\"build_type\": %s, \"compiler\": %s}}\n",
      json_string(a.workload).c_str(),
      static_cast<unsigned long long>(a.seed),
      json_number(a.seconds).c_str(), a.trace, traced ? 2 * each : each,
      sysconf(_SC_NPROCESSORS_ONLN), json_string(cpu_model()).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(compiler()).c_str());
  std::fflush(stdout);

  Tracer tracer;
  std::vector<PassOutput> plain, with_trace;
  std::vector<double> plain_wall, traced_wall;
  // Fastest time of each set-up call and of each op segment over the
  // untraced passes. Segment k is the same work in every pass, so its
  // fastest time is the closest the run came to timing that work free of
  // other load on the machine, whose cache and memory contention comes and
  // goes within a pass. Perfbench holds one pass's samples and these
  // minima, so they add to peak_rss_mb the same at any --seconds.
  std::vector<double> best_setup_us, best_seg_us;
  std::uint64_t misshapen = 0;  // passes whose segments do not line up
  // The calibration kernel, timed between passes. Its 10th percentile is
  // the run's speed in its better moments, the same moments the minima
  // above come from; timings are scaled by nominal ÷ that, so a run that
  // met only a busy machine is put back on the scale of a quiet one. These
  // times add 8 KB per pass to peak_rss_mb.
  std::vector<double> calibration_us;
  auto fold_min = [&](std::vector<double>& best, std::vector<double>& got) {
    if (best.empty()) {
      best = got;
    } else if (best.size() != got.size()) {
      ++misshapen;
    } else {
      for (std::size_t k = 0; k < got.size(); ++k) {
        best[k] = std::min(best[k], got[k]);
      }
    }
    std::vector<double>().swap(got);
  };
  const double baseline_rss_mb = peak_rss_mb();
  for (std::size_t i = 0; i < each; ++i) {
    auto t0 = Clock::now();
    plain.push_back(w->pass(nullptr));
    plain_wall.push_back(seconds_since(t0));
    PassOutput& p = plain.back();
    double setup_us = 0;
    for (const double us : p.setup_us) setup_us += us;
    std::fprintf(stderr, "perfbench: pass %zu: %.6g ops/s, set-up %.6g s\n",
                 i, static_cast<double>(p.ops) / p.work_s, setup_us * 1e-6);
    fold_min(best_setup_us, p.setup_us);
    fold_min(best_seg_us, p.seg_us);
    for (std::size_t k = 0; k < kCalibrationRuns; ++k) {
      calibration_us.push_back(calibration_kernel_us());
    }
    if (traced) {
      t0 = Clock::now();
      with_trace.push_back(w->pass(&tracer));
      traced_wall.push_back(seconds_since(t0));
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  auto note = [&](const std::string& e) {
    if (errors.size() < 8) errors.push_back(e);
  };
  auto expect_same = [&](const std::map<std::string, double>& want,
                         const std::map<std::string, double>& got) {
    std::string why;
    if (!same_exact(want, got, why)) {
      ++failed;
      note(why);
    }
  };
  auto tally = [&](const std::vector<PassOutput>& ps) {
    for (const PassOutput& p : ps) {
      attempted += p.ops;
      failed += p.failed;
      for (const auto& e : p.errors) note(e);
      expect_same(ps.front().exact, p.exact);
    }
  };
  const auto& ref = plain.front().exact;
  tally(plain);
  if (traced) {
    tally(with_trace);
    expect_same(ref, with_trace.front().exact);
  }
  if (misshapen != 0) {
    failed += misshapen;
    note("set-up calls or op segments differ between passes");
  }
  const bool correct = failed == 0 && attempted > 0;

  // Exact values, for the determinism self-check: every key is a count or
  // a ratio of counts and must repeat bit for bit at a fixed seed, in the
  // untraced and the traced passes alike.
  const auto& exact = traced ? with_trace.front().exact : ref;
  std::string line = "{\"exact\": {\"failed_ratio\": " +
                     json_number(static_cast<double>(failed) /
                                 static_cast<double>(std::max<std::uint64_t>(
                                     attempted, 1)));
  for (const auto& [k, v] : exact) {
    line += ", " + json_string(k) + ": " + json_number(v);
  }
  std::printf("%s}}\n", line.c_str());
  for (const auto& e : errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }

  std::map<std::string, double> metrics;
  auto print_result = [&](const MetricDef* defs, std::size_t n) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics_json(defs, n, metrics).c_str());
  };
  if (!traced) {
    double setup_us = 0, seg_us = 0;
    for (const double us : best_setup_us) setup_us += us;
    for (const double us : best_seg_us) seg_us += us;
    const double calibration_p10_us = percentile(calibration_us, 0.10);
    const double scale = kCalibrationNominalUs / calibration_p10_us;
    const auto ops = static_cast<double>(plain.front().ops);
    // µs per op at the pace of one segment: a segment is one op on
    // swarm-faults and consensus-n10 and a fixed run of allocations on
    // mc-fig1.
    const double segs_per_op = static_cast<double>(best_seg_us.size()) / ops;
    metrics["setup_s"] = setup_us * 1e-6 * scale;
    metrics["ops_per_s"] = ops / (seg_us * 1e-6 * scale);
    metrics["op_us_p50"] =
        percentile(best_seg_us, 0.5) * segs_per_op * scale;
    metrics["op_us_p99"] =
        percentile(best_seg_us, 0.99) * segs_per_op * scale;
    metrics["msgs_per_op"] = ref.at("msgs_per_op");
    metrics["peak_rss_mb"] = peak_rss_mb();
    std::printf("{\"timing\": {\"passes\": %zu, \"segments\": %zu, "
                "\"setup_calls\": %zu, \"calibration_p10_us\": %s, "
                "\"uncalibrated_ops_per_s\": %s, \"baseline_rss_mb\": %s}}\n",
                plain.size(), best_seg_us.size(), best_setup_us.size(),
                json_number(calibration_p10_us).c_str(),
                json_number(ops / (seg_us * 1e-6)).c_str(),
                json_number(baseline_rss_mb).c_str());
    print_result(kEndToEnd, std::size(kEndToEnd));
    return 0;
  }

  std::map<std::string, std::vector<double>> samples;
  for (const PassOutput& p : with_trace) {
    for (const auto& [k, v] : p.samples) {
      auto& dst = samples[k];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }
  double traced_total = 0;
  for (const double s : traced_wall) traced_total += s;
  for (const MetricDef& d : kPerLayer) {
    const std::string name = d.name;
    const std::string stem = name.substr(0, name.size() - 4);
    double v = 0;
    if (const auto it = exact.find(name); it != exact.end()) {
      v = it->second;
    } else if (const auto s = samples.find(name); s != samples.end()) {
      v = median(s->second);
    } else if (name.ends_with("_p50") && samples.count(stem) != 0) {
      v = percentile(samples[stem], 0.5);
    } else if (name.ends_with("_p99") && samples.count(stem) != 0) {
      v = percentile(samples[stem], 0.99);
    } else if (name.ends_with(".self_share")) {
      const auto layer = name.substr(0, name.find('.'));
      const auto self = tracer.layer_self_s().find(layer);
      v = self == tracer.layer_self_s().end() ? 0
                                              : self->second / traced_total;
    }
    metrics[name] = v;
  }
  metrics["obs.trace_overhead_ratio"] =
      median(traced_wall) / median(plain_wall);

  std::string summary = "{\"layer_self_s\": {";
  bool first = true;
  for (const auto& [layer, s] : tracer.layer_self_s()) {
    summary += (first ? "" : ", ") + json_string(layer) + ": " + json_number(s);
    first = false;
  }
  summary += "}, \"spans\": " + std::to_string(tracer.span_count());
  if (!a.out_dir.empty()) {
    const std::string path = a.out_dir + "/trace-" + a.workload + "-" +
                             std::to_string(a.seed) + ".json";
    if (!tracer.write_chrome_trace(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 4;
    }
    summary += ", \"chrome_trace\": " + json_string(path);
  }
  std::printf("%s}\n", summary.c_str());
  print_result(kPerLayer, std::size(kPerLayer));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifdef NDEBUG
  constexpr bool kAssertions = false;
#else
  constexpr bool kAssertions = true;
#endif
  if (kAssertions || std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build%s; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE,
                 kAssertions ? " with assertions on" : "");
    return 3;
  }
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <swarm-faults|mc-fig1|consensus-n10> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  return perfbench::run(args);
}
