// Unit tests for the stats utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "sim/units.hpp"
#include "stats/histogram.hpp"
#include "stats/rate_meter.hpp"
#include "stats/table_printer.hpp"

namespace xmem::stats {
namespace {

TEST(Histogram, BasicMoments) {
  Histogram h;
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_NEAR(h.stddev(), std::sqrt(2.0), 1e-9);
}

TEST(Histogram, MedianOddAndEven) {
  Histogram odd;
  for (const double v : {5.0, 1.0, 3.0}) odd.add(v);
  EXPECT_DOUBLE_EQ(odd.median(), 3.0);

  Histogram even;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) even.add(v);
  EXPECT_DOUBLE_EQ(even.median(), 2.5);
}

TEST(Histogram, PercentileEdges) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_NEAR(h.p99(), 99.01, 0.01);
  EXPECT_NEAR(h.percentile(50), 50.5, 1e-9);
}

TEST(Histogram, PercentileClampsOutOfDomainRanks) {
  // Regression: callers compute p from float ratios that can land an
  // epsilon outside [0, 100]; in NDEBUG builds the negative rank used to
  // cast to a huge std::size_t before any bounds check.
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.add(i);
  EXPECT_DOUBLE_EQ(h.percentile(-1e-9), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0 + 1e-9), 10.0);
}

TEST(Histogram, SingleSample) {
  Histogram h;
  h.add(42.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 42.0);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.add(1.0);
  h.clear();
  EXPECT_TRUE(h.empty());
  h.add(2.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, AddAfterPercentileQueryStaysCorrect) {
  Histogram h;
  h.add(10.0);
  EXPECT_DOUBLE_EQ(h.median(), 10.0);
  h.add(20.0);
  h.add(30.0);
  EXPECT_DOUBLE_EQ(h.median(), 20.0);  // sorted cache must invalidate
}

TEST(Histogram, MergeCombinesMomentsAndSamples) {
  Histogram a;
  for (const double v : {1.0, 2.0, 3.0}) a.add(v);
  Histogram b;
  for (const double v : {10.0, 20.0, 30.0, 40.0}) b.add(v);

  Histogram reference;
  for (const double v : {1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 40.0}) {
    reference.add(v);
  }

  a.merge(b);
  EXPECT_EQ(a.count(), 7u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 40.0);
  EXPECT_NEAR(a.mean(), reference.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), reference.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(a.median(), reference.median());
}

TEST(Histogram, MergeWithEmptyEitherSide) {
  Histogram empty;
  Histogram h;
  h.add(5.0);
  h.add(7.0);

  Histogram target;
  target.merge(h);  // empty <- non-empty copies moments
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 6.0);

  target.merge(empty);  // non-empty <- empty is a no-op
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 6.0);
}

TEST(Histogram, WelfordStableForLargeOffsets) {
  // Naive sum-of-squares cancels catastrophically here; Welford doesn't.
  Histogram h;
  for (const double v : {1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0}) {
    h.add(v);
  }
  EXPECT_NEAR(h.mean(), 1e9 + 10.0, 1e-3);
  EXPECT_NEAR(h.stddev(), std::sqrt(90.0 / 4.0), 1e-6);
}

// The histogram this one replaced: every sample kept, a sorted copy per
// query. Its sum runs in insertion order, and merge() adds the sums.
struct ReferenceHistogram {
  std::vector<double> samples;
  double sum = 0.0;

  void add(double v) {
    samples.push_back(v);
    sum += v;
  }
  void merge(const ReferenceHistogram& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    sum += other.sum;
  }
};

// Bit-equal, not near: the exports and digests print these doubles.
void expect_matches(const Histogram& h, const ReferenceHistogram& ref) {
  ASSERT_EQ(h.count(), ref.samples.size());
  std::vector<double> sorted = ref.samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(h.min(), sorted.front());
  EXPECT_EQ(h.max(), sorted.back());
  EXPECT_EQ(h.mean(), ref.sum / static_cast<double>(sorted.size()));
  for (const double p : {0.0, 0.1, 1.0, 25.0, 50.0, 75.0, 99.0, 99.9, 100.0}) {
    double expected = sorted.front();
    if (sorted.size() > 1) {
      const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
      const auto lo = static_cast<std::size_t>(rank);
      const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
      const double frac = rank - static_cast<double>(lo);
      expected = sorted[lo] + frac * (sorted[hi] - sorted[lo]);
    }
    EXPECT_EQ(h.percentile(p), expected) << "p" << p << " of " << h.count();
  }
}

using Stream = std::function<double(std::size_t)>;

// Streams whose samples are not dyadic, so the order of the sum shows.
std::vector<std::pair<const char*, Stream>> streams() {
  auto rng = std::make_shared<sim::Rng>(7);
  return {
      {"all-equal", [](std::size_t) { return 1.035; }},
      {"few-distinct",
       [rng](std::size_t) {
         return 0.7 + 0.13 * static_cast<double>(rng->uniform(9));
       }},
      {"all-distinct", [rng](std::size_t) { return rng->uniform01() * 3.3; }},
      {"ascending",
       [](std::size_t i) { return 0.1 * static_cast<double>(i / 3); }},
      {"descending",
       [](std::size_t i) { return 1e3 - 0.1 * static_cast<double>(i); }},
  };
}

TEST(Histogram, MatchesSortedVectorReferenceBitForBit) {
  constexpr std::size_t kSamples = 5000;
  for (const auto& [name, next] : streams()) {
    SCOPED_TRACE(name);
    Histogram h;
    ReferenceHistogram ref;
    std::size_t check_at = 1;
    for (std::size_t i = 0; i < kSamples; ++i) {
      const double v = next(i);
      h.add(v);
      ref.add(v);
      // Queries interleaved with adds: before, at and after folds.
      if (i + 1 == check_at || i % 97 == 0) {
        expect_matches(h, ref);
        check_at = check_at * 2 + 1;
      }
    }
    expect_matches(h, ref);
  }
}

TEST(Histogram, MatchesReferenceAfterMerge) {
  for (const auto& [name, next] : streams()) {
    SCOPED_TRACE(name);
    Histogram a;
    Histogram b;
    ReferenceHistogram ref_a;
    ReferenceHistogram ref_b;
    for (std::size_t i = 0; i < 3000; ++i) {
      const double v = next(i);
      (i % 3 == 0 ? a : b).add(v);
      (i % 3 == 0 ? ref_a : ref_b).add(v);
      if (i == 1500) expect_matches(a, ref_a);  // a has sorted in place
    }
    Histogram into_empty;
    into_empty.merge(a);
    expect_matches(into_empty, ref_a);
    a.merge(b);
    ref_a.merge(ref_b);
    expect_matches(a, ref_a);
    for (std::size_t i = 0; i < 500; ++i) {
      const double v = next(i);
      a.add(v);
      ref_a.add(v);
    }
    expect_matches(a, ref_a);
  }
}

TEST(Histogram, FootprintFollowsDistinctValues) {
  // fa_counter's sink: 2,441,406 latencies, all one value.
  Histogram same;
  for (int i = 0; i < 2'441'406; ++i) same.add(1.035);
  EXPECT_EQ(same.footprint_bytes(), 16u) << "one (value, count) run";
  EXPECT_EQ(same.p99(), 1.035);

  // All distinct: never folded, 8 B a sample as in a plain vector.
  constexpr std::size_t kDistinct = 100'000;
  Histogram distinct;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    distinct.add(static_cast<double>(i * 7919 % kDistinct));  // a permutation
  }
  EXPECT_LE(distinct.footprint_bytes(), sizeof(double) * kDistinct);
  EXPECT_EQ(distinct.median(), (kDistinct - 1) / 2.0);
}

TEST(RateMeter, AverageRate) {
  RateMeter m;
  m.start(0);
  // 1000 bytes over 1 us = 8 Gb/s.
  m.record(sim::microseconds(1), 1000);
  EXPECT_NEAR(sim::to_gbps(m.rate()), 8.0, 1e-9);
  EXPECT_EQ(m.packets(), 1);
}

TEST(RateMeter, ExplicitWindowEnd) {
  RateMeter m;
  m.start(0);
  m.record(sim::microseconds(1), 1000);
  // Over a 2 us window the average halves.
  EXPECT_NEAR(sim::to_gbps(m.rate(sim::microseconds(2))), 4.0, 1e-9);
}

TEST(RateMeter, PacketsPerSecond) {
  RateMeter m;
  m.start(0);
  for (int i = 1; i <= 10; ++i) m.record(sim::microseconds(i), 100);
  EXPECT_NEAR(m.packets_per_second(), 1e6, 1.0);
}

TEST(RateMeter, RestartResets) {
  RateMeter m;
  m.start(0);
  m.record(sim::microseconds(1), 1000);
  m.start(sim::microseconds(5));
  EXPECT_EQ(m.bytes(), 0);
  EXPECT_EQ(m.packets(), 0);
}

TEST(TablePrinter, RendersAlignedColumns) {
  TablePrinter t({"size", "value"});
  t.add_row({"64", "1.5"});
  t.add_row({"1024", "12.25"});
  const std::string out = t.render("demo");
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("size"), std::string::npos);
  EXPECT_NE(out.find("1024"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinter, RejectsArityMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TablePrinter, RejectsEmptyHeader) {
  EXPECT_THROW(TablePrinter({}), std::invalid_argument);
}

TEST(TablePrinter, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

}  // namespace
}  // namespace xmem::stats
