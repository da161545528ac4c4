// Small statistics helpers for xmem_bench: run-to-run summaries, a
// fixed-memory histogram for per-packet host costs, and the FNV-1a digest
// that fingerprints every simulated result.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace xmem::xbench {

/// Median, quartiles and extremes of a set of repetitions.
struct Summary {
  std::size_t n = 0;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double min = 0;
  double max = 0;
};

/// Quartiles use the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), so spreads printed here match the
/// ones a script computes from the same numbers.
inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.min = v.front();
  s.max = v.back();
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

/// Log-linear histogram of non-negative integers (nanosecond costs): exact
/// below 64, then 32 sub-buckets per power of two (~3% resolution).
/// Constant memory, so a per-packet boundary can be timed on every call.
class LogHistogram {
 public:
  void add(std::uint64_t v) {
    ++counts_[bucket(v)];
    ++count_;
    total_ += v;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(total_) /
                             static_cast<double>(count_);
  }
  /// Lower edge of the bucket holding the p-th percentile (0 if empty).
  [[nodiscard]] double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen > rank) return static_cast<double>(lower_edge(b));
    }
    return static_cast<double>(lower_edge(counts_.size() - 1));
  }

 private:
  static constexpr std::size_t kLinear = 64;
  static constexpr std::size_t kSub = 32;
  static constexpr std::size_t kBuckets = kLinear + (64 - 6) * kSub;

  static std::size_t bucket(std::uint64_t v) {
    if (v < kLinear) return static_cast<std::size_t>(v);
    const auto e = static_cast<std::size_t>(std::bit_width(v) - 1);  // >= 6
    const auto sub = static_cast<std::size_t>((v >> (e - 5)) & (kSub - 1));
    return kLinear + (e - 6) * kSub + sub;
  }
  static std::uint64_t lower_edge(std::size_t b) {
    if (b < kLinear) return b;
    const std::size_t e = (b - kLinear) / kSub + 6;
    const std::uint64_t sub = (b - kLinear) % kSub;
    return (std::uint64_t{1} << e) | (sub << (e - 5));
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t total_ = 0;
};

/// FNV-1a over a sequence of named values: the sim_digest that proves a
/// pure speed-up left every simulated number bit-identical.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) mix(static_cast<std::uint8_t>(c));
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace xmem::xbench
