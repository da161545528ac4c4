// Count Sketch over remote memory (§2.3 / §4): "one can easily implement
// sketching algorithms such as Count Sketch using the primitive even for
// a large number of flows".
//
// Layout: d rows of w signed 64-bit counters in one registered region.
// For each sampled packet the data plane issues d Fetch-and-Adds of ±1
// (two's-complement wrap makes subtraction free on u64 counters),
// throttled by one shared outstanding-atomics window exactly like the
// state-store primitive. An F&A unanswered past its deadline frees its
// window slot and counts as lost: the sketch is best-effort, and a lost
// ACK must not shrink the window for good. Estimation (median of signed
// row reads) and heavy-hitter extraction run on the control plane
// against the region.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/inflight.hpp"
#include "core/rdma_channel.hpp"
#include "switchsim/switch.hpp"

namespace xmem::apps {

class CountSketchApp {
 public:
  /// Rows d of the sketch; odd, so the estimate is one row's value.
  static constexpr std::size_t kRows = 3;
  /// Outstanding F&As the one window admits.
  static constexpr std::size_t kMaxOutstanding = 16;
  /// Seed of the per-row column and sign hashes.
  static constexpr std::uint64_t kSeed = 0x8f1bbcdcbfa53e0bULL;

  struct Stats {
    std::uint64_t sampled_packets = 0;
    std::uint64_t fetch_adds_sent = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t deferred_updates = 0;
    std::uint64_t lost_updates = 0;  // F&As unanswered past the deadline
  };

  /// Columns w are derived from the region: as many as kRows rows of
  /// 8 B counters fit. Throws std::invalid_argument when the region
  /// holds less than one column.
  CountSketchApp(switchsim::ProgrammableSwitch& sw,
                 control::RdmaChannelConfig channel);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t columns() const { return columns_; }
  [[nodiscard]] bool quiescent() const {
    return inflight_.size() == 0 && queue_.empty();
  }
  [[nodiscard]] const core::RdmaChannel& channel() const { return channel_; }

  /// --- Control-plane estimation over the raw region bytes -------------
  /// Point estimate of a flow key's count: median over rows of
  /// sign(key) * C[row][h_row(key)].
  [[nodiscard]] std::int64_t estimate(std::span<const std::uint8_t> region,
                                      std::uint64_t key) const;

  /// Per-row hash/sign, exposed for tests.
  [[nodiscard]] std::uint64_t column_of(std::size_t row,
                                        std::uint64_t key) const;
  [[nodiscard]] std::int64_t sign_of(std::size_t row,
                                     std::uint64_t key) const;

  /// Flow key used by the data plane (hash of the five-tuple).
  [[nodiscard]] static std::optional<std::uint64_t> flow_key(
      const net::Packet& packet);

 private:
  void on_ingress(switchsim::PipelineContext& ctx);
  void handle_response(const roce::RoceMessage& msg);
  void pump();
  void on_timeout();

  [[nodiscard]] std::uint64_t cell_va(std::size_t row,
                                      std::uint64_t column) const {
    return channel_.config().base_va + (row * columns_ + column) * 8;
  }

  core::RdmaChannel channel_;
  std::size_t columns_ = 0;

  /// The fixed deadline the state store and lookup table default to.
  static constexpr sim::Time kResponseTimeout = sim::microseconds(100);

  struct Update {
    std::uint64_t va = 0;
    std::uint64_t add = 0;  // +1 or two's-complement -1
  };
  std::deque<Update> queue_;
  core::InflightTable<Update> inflight_;  // one shard: the one channel
  Stats stats_;
};

}  // namespace xmem::apps
