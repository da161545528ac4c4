// Exact-sample histogram with percentile queries.
//
// Percentiles are exact rather than bucket-approximated, which matters
// when reproducing "median latency" figures. Memory follows the distinct
// values, not the samples: fa_counter records 2.44 M latencies that all
// share one value, and lookup_zipf's 250,000 fall on 670 values. Samples
// land in a raw buffer, which is sorted in place and folded into sorted
// (value, count) runs whenever the folded form is smaller; a sample equal
// to the latest one only bumps that run's count. An all-distinct stream
// never folds and costs 8 B a sample, as a plain vector would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xmem::stats {

class Histogram {
 public:
  /// Amortized O(1) moves, plus the fold's sort: O(log n) comparisons
  /// a sample. `sample` must not be NaN.
  void add(double sample);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// The running sum of the samples in insertion order, over the count:
  /// bit-identical to summing a vector of every sample.
  [[nodiscard]] double mean() const;

  /// Population standard deviation, two-pass (subtract the mean before
  /// squaring; the naive sum-of-squares form cancels catastrophically
  /// for large-magnitude, low-variance latency samples). 0 for a single
  /// sample.
  [[nodiscard]] double stddev() const;

  /// Fold `other`'s samples into this histogram. Percentiles, min and
  /// max then equal those of one histogram fed every sample. The sums
  /// add, so merging into an empty histogram keeps the mean exact, while
  /// merging two non-empty ones may round it differently in the last bit.
  void merge(const Histogram& other);

  /// Exact percentile via linear interpolation between closest ranks.
  /// p in [0, 100]. Precondition: !empty().
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }

  void clear();

  /// Bytes the stored runs and raw samples occupy, without vector slack:
  /// 16 per folded distinct value, 8 per raw sample.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  struct Run {
    double value;
    std::uint64_t count;
  };
  static constexpr std::size_t kNoRun = SIZE_MAX;

  void fold();
  void sort_raw() const;
  /// The rank-th smallest sample, 0-based.
  [[nodiscard]] double value_at(std::size_t rank) const;

  std::vector<Run> runs_;  // ascending, one per distinct value
  // Samples not yet folded. Queries sort them in place, so no sorted
  // mirror is kept.
  mutable std::vector<double> raw_;
  mutable std::size_t sorted_prefix_ = 0;  // raw_'s sorted prefix
  std::size_t count_ = 0;
  double sum_ = 0.0;
  std::size_t latest_run_ = kNoRun;  // the latest sample's run, if folded
  std::size_t fold_at_ = 16;         // raw_ size that triggers fold()
};

}  // namespace xmem::stats
