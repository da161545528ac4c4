// Byte/packet rate accounting over a simulated-time window.
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "sim/units.hpp"

namespace xmem::stats {

/// Counts bytes and packets between start() and the last record(); reports
/// average rates. Cheap enough to hang off every port and primitive.
class RateMeter {
 public:
  /// (Re)open the measurement window at time `now`.
  void start(sim::Time now) {
    start_ = now;
    last_ = now;
    bytes_ = 0;
    packets_ = 0;
  }

  void record(sim::Time now, std::int64_t bytes) {
    bytes_ += bytes;
    packets_ += 1;
    if (now > last_) last_ = now;
  }

  [[nodiscard]] std::int64_t bytes() const { return bytes_; }
  [[nodiscard]] std::int64_t packets() const { return packets_; }

  /// Average bits/s over [start, end]; `end` defaults to the last record.
  [[nodiscard]] sim::Bandwidth rate(sim::Time end = -1) const {
    const sim::Time e = (end >= 0) ? end : last_;
    return sim::achieved_rate(bytes_, e - start_);
  }

  [[nodiscard]] double packets_per_second(sim::Time end = -1) const {
    const sim::Time e = (end >= 0) ? end : last_;
    if (e <= start_) return 0.0;
    return static_cast<double>(packets_) /
           sim::to_seconds(e - start_);
  }

 private:
  sim::Time start_ = 0;
  sim::Time last_ = 0;
  std::int64_t bytes_ = 0;
  std::int64_t packets_ = 0;
};

}  // namespace xmem::stats
