#include "stats/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace xmem::stats {

void Histogram::add(double sample) {
  ++count_;
  sum_ += sample;
  if (raw_.size() >= fold_at_) fold();
  if (latest_run_ < runs_.size() && runs_[latest_run_].value == sample) {
    ++runs_[latest_run_].count;
    return;
  }
  raw_.push_back(sample);
  latest_run_ = kNoRun;
}

void Histogram::fold() {
  const double latest = raw_.back();
  sort_raw();
  // Runs the folded form would add: raw values that no run holds yet.
  std::size_t added = 0;
  auto run = runs_.begin();
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    if (i > 0 && raw_[i] == raw_[i - 1]) continue;
    while (run != runs_.end() && run->value < raw_[i]) ++run;
    if (run == runs_.end() || run->value != raw_[i]) ++added;
  }
  if (added * sizeof(Run) >= raw_.size() * sizeof(double)) {
    fold_at_ *= 2;  // mostly new values: the raw form stays smaller
    return;
  }
  // Merge from the back, in place: slot k never passes an unread run i.
  std::size_t i = runs_.size();
  std::size_t j = raw_.size();
  std::size_t k = i + added;
  runs_.resize(k);
  while (j > 0) {
    const double v = raw_[j - 1];
    std::uint64_t n = 0;
    for (; j > 0 && raw_[j - 1] == v; --j) ++n;
    while (i > 0 && runs_[i - 1].value > v) runs_[--k] = runs_[--i];
    if (i > 0 && runs_[i - 1].value == v) n += runs_[--i].count;
    runs_[--k] = {v, n};
  }
  raw_.clear();
  sorted_prefix_ = 0;
  latest_run_ = static_cast<std::size_t>(
      std::lower_bound(runs_.begin(), runs_.end(), latest,
                       [](const Run& r, double x) { return r.value < x; }) -
      runs_.begin());
  // Each check sorts fold_at_ samples and walks every run: keeping it at
  // least the run count keeps add() amortized.
  fold_at_ = std::max(fold_at_, runs_.size());
}

void Histogram::merge(const Histogram& other) {
  if (other.empty()) return;
  count_ += other.count_;
  sum_ += other.sum_;
  if (!other.runs_.empty()) {
    std::vector<Run> merged;
    merged.reserve(runs_.size() + other.runs_.size());
    auto a = runs_.begin();
    auto b = other.runs_.begin();
    while (a != runs_.end() || b != other.runs_.end()) {
      if (b == other.runs_.end() ||
          (a != runs_.end() && a->value < b->value)) {
        merged.push_back(*a++);
      } else if (a == runs_.end() || b->value < a->value) {
        merged.push_back(*b++);
      } else {
        merged.push_back({a->value, a->count + b->count});
        ++a;
        ++b;
      }
    }
    runs_ = std::move(merged);
  }
  raw_.insert(raw_.end(), other.raw_.begin(), other.raw_.end());
  latest_run_ = kNoRun;
}

void Histogram::sort_raw() const {
  // Only the samples added since the last sort are out of order: sort
  // those and merge them in, so each sample is sorted once.
  const auto tail =
      raw_.begin() + static_cast<std::ptrdiff_t>(sorted_prefix_);
  std::sort(tail, raw_.end());
  std::inplace_merge(raw_.begin(), tail, raw_.end());
  sorted_prefix_ = raw_.size();
}

double Histogram::value_at(std::size_t rank) const {
  sort_raw();
  // Walk the runs in order, skipping the raw samples below each one.
  auto raw = raw_.cbegin();
  std::size_t below = 0;  // samples before `raw` and the current run
  for (const Run& r : runs_) {
    const auto smaller = std::lower_bound(raw, raw_.cend(), r.value);
    const auto n = static_cast<std::size_t>(smaller - raw);
    if (rank < below + n) {
      return raw[static_cast<std::ptrdiff_t>(rank - below)];
    }
    below += n;
    raw = smaller;
    if (rank < below + r.count) return r.value;
    below += r.count;
  }
  return raw[static_cast<std::ptrdiff_t>(rank - below)];
}

double Histogram::min() const {
  assert(!empty());
  return value_at(0);
}

double Histogram::max() const {
  assert(!empty());
  return value_at(count_ - 1);
}

double Histogram::mean() const {
  assert(!empty());
  return sum_ / static_cast<double>(count_);
}

double Histogram::stddev() const {
  assert(!empty());
  if (count_ < 2) return 0.0;
  const double mu = mean();
  double m2 = 0.0;
  for (const Run& r : runs_) {
    const double d = r.value - mu;
    m2 += static_cast<double>(r.count) * d * d;
  }
  for (const double s : raw_) {
    const double d = s - mu;
    m2 += d * d;
  }
  return std::sqrt(std::max(0.0, m2 / static_cast<double>(count_)));
}

double Histogram::percentile(double p) const {
  assert(!empty());
  if (count_ == 1) return value_at(0);
  // Clamp instead of asserting the domain: callers compute p from float
  // ratios that can land epsilon outside [0, 100], and in NDEBUG builds
  // a negative rank would cast to a huge std::size_t (UB) before the
  // bounds were ever checked.
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, count_ - 1);
  const double frac = rank - static_cast<double>(lo);
  const double at_lo = value_at(lo);
  const double at_hi = hi == lo ? at_lo : value_at(hi);
  return at_lo + frac * (at_hi - at_lo);
}

void Histogram::clear() { *this = Histogram(); }

std::size_t Histogram::footprint_bytes() const {
  return runs_.size() * sizeof(Run) + raw_.size() * sizeof(double);
}

}  // namespace xmem::stats
