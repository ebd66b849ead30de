// Perfbench's replacement of the global operator new, and AllocSegmenter,
// which uses it to stamp the clock inside a long library call (see
// harness.hpp). Allocation itself is unchanged: new and delete forward to
// malloc and free, as the standard library's own versions do. Perfbench
// is single-threaded, so the clock's state is plain globals.
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace perfbench {
namespace {

std::int64_t* g_stamps = nullptr;  // non-null while a segmenter is armed
std::size_t g_capacity = 0;
std::size_t g_used = 0;
std::uint64_t g_allocs = 0;
bool g_overflow = false;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline void tick() {
  if (g_stamps == nullptr) return;
  if (++g_allocs % AllocSegmenter::kAllocsPerSegment != 0) return;
  if (g_used == g_capacity) {
    g_overflow = true;
    return;
  }
  g_stamps[g_used++] = now_ns();
}

}  // namespace

AllocSegmenter::AllocSegmenter(std::size_t max_segments)
    : stamps_(new std::int64_t[max_segments]) {
  g_stamps = stamps_.get();
  g_capacity = max_segments;
  g_used = 0;
  g_allocs = 0;
  g_overflow = false;
  armed_ = true;
  t0_ = Clock::now();
}

AllocSegmenter::~AllocSegmenter() {
  if (armed_) g_stamps = nullptr;
}

bool AllocSegmenter::finish(std::vector<double>& seg_us) {
  const std::int64_t end = now_ns();
  g_stamps = nullptr;
  armed_ = false;
  allocs_ = g_allocs;
  seg_us.clear();
  seg_us.reserve(g_used + 1);
  std::int64_t prev = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          t0_.time_since_epoch())
                          .count();
  for (std::size_t i = 0; i < g_used; ++i) {
    seg_us.push_back(static_cast<double>(stamps_[i] - prev) * 1e-3);
    prev = stamps_[i];
  }
  seg_us.push_back(static_cast<double>(end - prev) * 1e-3);
  return !g_overflow;
}

}  // namespace perfbench

void* operator new(std::size_t n) {
  perfbench::tick();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*n*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*n*/) noexcept { std::free(p); }
