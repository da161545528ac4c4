// Ring: the fixed-capacity, overwrite-oldest buffer behind both
// telemetry recorders (a TimeSeriesRecorder series' points and the
// FlightRecorder's event tail).
//
// Every slot is allocated up front. push() hands back the next slot to
// fill in place, so recording never allocates, and a recorder left on
// for an arbitrarily long run costs a fixed amount of memory. Once the
// ring is full each push overwrites the oldest entry and counts it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xmem::telemetry {

template <typename T>
class Ring {
 public:
  /// `capacity` must be > 0; the owning recorder validates it.
  explicit Ring(std::size_t capacity) : slots_(capacity) {}

  /// The slot for the next entry, to be written in place. When the ring
  /// is full it is the oldest entry's slot.
  T& push() {
    T& slot = slots_[head_];
    if (++head_ == slots_.size()) head_ = 0;
    if (count_ < slots_.size()) {
      ++count_;
    } else {
      ++overwritten_;
    }
    return slot;
  }

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }

  /// Retained entries, oldest first.
  [[nodiscard]] std::vector<T> ordered() const {
    std::vector<T> out;
    out.reserve(count_);
    const std::size_t start = (head_ + slots_.size() - count_) % slots_.size();
    for (std::size_t i = 0; i < count_; ++i) {
      out.push_back(slots_[(start + i) % slots_.size()]);
    }
    return out;
  }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;   ///< Next write position.
  std::size_t count_ = 0;  ///< Live entries, <= capacity.
  std::uint64_t overwritten_ = 0;
};

}  // namespace xmem::telemetry
