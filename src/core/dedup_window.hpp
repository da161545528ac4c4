// A bounded recently-seen set for response deduplication.
//
// The network may deliver the same ACK/NAK/response frame more than once
// (duplication faults, or a retransmitted request answered twice). For
// completions, removing the op from the in-flight table makes the second
// delivery a no-op — but paths that act on a response *without* an
// in-flight entry (NAK accounting, health streaks) need an explicit "have
// I seen this exact frame before?" test. DedupWindow is that test (held
// by ChannelSet, see note_nak_once()): a
// FIFO-evicted set of 64-bit identities sized like a data-plane register
// array (a few hundred entries), so it is implementable in switch SRAM.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "roce/headers.hpp"

namespace xmem::core {

class DedupWindow {
 public:
  explicit DedupWindow(std::size_t capacity = 128) : capacity_(capacity) {}

  /// True exactly once per identity within the window: the first call
  /// inserts and returns true, later calls return false until `id` is
  /// evicted by `capacity` newer identities.
  [[nodiscard]] bool first_time(std::uint64_t id) {
    if (seen_.count(id) != 0) return false;
    seen_.insert(id);
    order_.push_back(id);
    if (order_.size() > capacity_) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Combine the fields that identify one response frame into a window
  /// identity. PSN and MSN are 24-bit, so the packing is collision-free.
  static std::uint64_t key(std::size_t shard, roce::Psn psn,
                           std::uint32_t msn, std::uint8_t kind) {
    return (static_cast<std::uint64_t>(shard) << 56) |
           (static_cast<std::uint64_t>(kind) << 48) |
           (static_cast<std::uint64_t>(psn.raw()) << 24) |
           static_cast<std::uint64_t>(msn & 0xffffff);
  }

 private:
  std::size_t capacity_;
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> order_;
};

}  // namespace xmem::core
