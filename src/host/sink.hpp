// Packet sink with loss / reordering / latency accounting.
#pragma once

#include <array>
#include <cstdint>
#include <map>

#include "host/host.hpp"
#include "host/traffic_gen.hpp"
#include "stats/histogram.hpp"
#include "stats/rate_meter.hpp"
#include "telemetry/int_collector.hpp"

namespace xmem::host {

/// A set of 64-bit sequence numbers stored as bitmaps of 4,096
/// sequences, keyed by seq >> 12. Memory follows the sequences seen, not
/// their values: a corrupted probe header can carry any 64-bit sequence.
/// The last block used is cached, so in-order arrivals skip the lookup.
class SequenceSet {
 public:
  SequenceSet() = default;
  // Not copyable or movable: the cache points into blocks_.
  SequenceSet(const SequenceSet&) = delete;
  SequenceSet& operator=(const SequenceSet&) = delete;

  /// Adds `seq`; true if it was not yet in the set.
  bool insert(std::uint64_t seq);
  /// Bitmap blocks allocated so far.
  [[nodiscard]] std::size_t blocks() const { return blocks_.size(); }

 private:
  static constexpr unsigned kBlockShift = 12;
  using Block = std::array<std::uint64_t, (std::size_t{1} << kBlockShift) / 64>;

  std::map<std::uint64_t, Block> blocks_;
  std::uint64_t last_key_ = 0;
  Block* last_ = nullptr;
};

/// Install on a Host with set_app (or chain from another handler).
/// Expects ProbeHeader-carrying UDP payloads from CbrTrafficGen.
class PacketSink {
 public:
  explicit PacketSink(Host& host, bool install = true);

  /// Feed one packet (used when chaining handlers manually).
  void accept(const net::Packet& packet);

  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }
  /// Highest sequence observed + 1 (== expected count if in-order).
  [[nodiscard]] std::uint64_t max_sequence_plus_one() const {
    return max_seq_plus_one_;
  }
  /// Packets whose sequence was below an already-seen one.
  [[nodiscard]] std::uint64_t reordered() const { return reordered_; }
  /// One-way latency samples, microseconds.
  [[nodiscard]] const stats::Histogram& latency_us() const {
    return latency_us_;
  }
  [[nodiscard]] const stats::RateMeter& rate() const { return meter_; }
  [[nodiscard]] sim::Time first_arrival() const { return first_arrival_; }
  [[nodiscard]] sim::Time last_arrival() const { return last_arrival_; }

  /// Missing = sequences never seen among [0, max_seq+1).
  [[nodiscard]] std::uint64_t missing() const {
    return max_seq_plus_one_ - packets_unique_;
  }

  /// Average goodput over the receive window (frame bits).
  [[nodiscard]] sim::Bandwidth goodput() const;

  void set_on_packet(std::function<void(const net::Packet&)> fn) {
    on_packet_ = std::move(fn);
  }

  /// Feed every accepted packet's INT stack to `collector` (not owned;
  /// nullptr detaches). The sink is the natural INT path end point.
  void set_int_collector(telemetry::IntCollector* collector) {
    int_collector_ = collector;
  }

 private:
  Host* host_;
  telemetry::IntCollector* int_collector_ = nullptr;
  std::uint64_t packets_ = 0;
  std::uint64_t packets_unique_ = 0;
  std::int64_t bytes_ = 0;
  std::uint64_t max_seq_plus_one_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t expected_next_ = 0;
  SequenceSet seen_;
  stats::Histogram latency_us_;
  stats::RateMeter meter_;
  sim::Time first_arrival_ = -1;
  sim::Time last_arrival_ = 0;
  std::function<void(const net::Packet&)> on_packet_;
};

}  // namespace xmem::host
