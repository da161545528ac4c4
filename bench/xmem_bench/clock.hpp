// Host wall-clock reads for xmem_bench.
//
// The simulator itself never reads a wall clock (xmem-lint's
// wallclock-ban); the benchmark has to, to measure host time. Every such
// read in the benchmark goes through this one helper, so the waivers sit
// in one place and nothing else under bench/xmem_bench/ may name a
// clock.
#pragma once

#include <chrono>
#include <cstdint>

namespace xmem::xbench {

/// Monotonic host time in nanoseconds since an arbitrary epoch.
inline std::int64_t host_now_ns() {
  using Clock = std::chrono::steady_clock;  // xmem-lint: allow(wallclock-ban)
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Elapsed host time since construction (or the last restart()).
class Stopwatch {
 public:
  Stopwatch() : start_(host_now_ns()) {}
  void restart() { start_ = host_now_ns(); }
  [[nodiscard]] std::int64_t ns() const { return host_now_ns() - start_; }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(ns()) * 1e-9;
  }

 private:
  std::int64_t start_;
};

}  // namespace xmem::xbench
