#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) {
  spans_.reserve(kMaxKeptSpans);
  stack_.reserve(16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  name_layer_.emplace_back(name.substr(0, name.find('.')));
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::begin(std::string_view name, std::uint64_t op) {
  const std::uint32_t id = intern(name);
  const std::int64_t t = now_ns();
  std::uint32_t kept = kNoParent;
  if (spans_.size() < kMaxKeptSpans) {
    kept = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(
        Span{id, stack_.empty() ? kNoParent : stack_.back().kept, op, t, t});
  }
  stack_.push_back(Open{id, kept, t, 0});
}

void Tracer::end() {
  const std::int64_t t = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - o.start_ns;
  layer_self_s_[name_layer_[o.name]] +=
      static_cast<double>(dur - o.child_ns) * 1e-9;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.kept != kNoParent) spans_[o.kept].end_ns = t;
  ++count_;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[384];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%u,\"parent\":%d,"
        "\"op\":%llu}}",
        first ? "" : ",\n", names_[s.name].c_str(),
        name_layer_[s.name].c_str(), static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3,
        static_cast<unsigned>(i),
        s.parent == kNoParent ? -1 : static_cast<int>(s.parent),
        static_cast<unsigned long long>(s.op));
    out << buf;
    first = false;
  }
  out << "],\n\"displayTimeUnit\":\"ns\",\n\"otherData\":{\"spans_recorded\":"
      << count_ << ",\"spans_kept\":" << spans_.size()
      << ",\"layer_self_s\":{";
  first = true;
  for (const auto& [layer, s] : layer_self_s_) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.9f", first ? "" : ",",
                  layer.c_str(), s);
    out << buf;
    first = false;
  }
  out << "}}}\n";
  return static_cast<bool>(out);
}

double sorted_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return sorted_percentile(v, q);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double calibration_kernel_us() {
  static volatile std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  std::unordered_map<std::uint64_t, std::vector<int>> m;
  for (std::uint32_t i = 0; i < 300; ++i) {
    m[(i * 2654435761U) % 1000U].push_back(static_cast<int>(i));
  }
  std::uint64_t s = 0;
  for (const auto& [k, v] : m) s += k + v.size();
  sink = sink + s;
  return seconds_since(t0) * 1e6;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
