// INT sink: pops per-packet hop stacks into histograms.
//
// A collector sits wherever tagged traffic terminates (a
// host::PacketSink, via its set_int_collector) and turns each packet's
// IntStack into:
//   - an aggregate and per-flow path-latency histogram (time from the
//     first hop's ingress to arrival at the collector),
//   - a TM queue-occupancy histogram in bytes (the §2.1 congestion
//     signal the benches plot over time).
// It also accounts the exact wire overhead the stacks would have cost
// (IntStack::wire_bytes summed), keeping the "INT is cheap" claim honest.
//
// The flow table is bounded: past max_flows new flows are counted in
// flow_table_overflow instead of allocating — a collector on a scan-heavy
// workload degrades to aggregate-only visibility, never to unbounded
// memory.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/int_stack.hpp"
#include "net/packet.hpp"
#include "stats/histogram.hpp"
#include "telemetry/metrics.hpp"

namespace xmem::telemetry {

class IntCollector {
 public:
  struct Config {
    /// Per-flow table capacity. 0 disables per-flow accounting entirely
    /// (aggregate histograms only), which also skips the per-packet
    /// five-tuple hash — the cheap configuration for an always-on sink.
    std::size_t max_flows = 256;
  };

  struct FlowStats {
    std::uint64_t packets = 0;
    stats::Histogram path_latency_us;
  };

  IntCollector() = default;
  explicit IntCollector(Config config) : config_(config) {}
  // Self-referential histogram pointers (and registry re-homing) make
  // copies unsound.
  IntCollector(const IntCollector&) = delete;
  IntCollector& operator=(const IntCollector&) = delete;

  /// Consume `packet`'s INT stack (no-op counter bump if untagged).
  /// `now` is the arrival time at this collector, the path end point.
  void collect(const net::Packet& packet, sim::Time now);

  [[nodiscard]] std::uint64_t tagged_packets() const {
    return tagged_packets_;
  }
  [[nodiscard]] std::uint64_t untagged_packets() const {
    return untagged_packets_;
  }
  [[nodiscard]] std::uint64_t hop_records() const { return hop_records_; }
  [[nodiscard]] std::uint64_t overflowed_stacks() const {
    return overflowed_stacks_;
  }
  [[nodiscard]] std::uint64_t flow_table_overflow() const {
    return flow_table_overflow_;
  }
  /// Total on-wire bytes the collected stacks would have occupied.
  [[nodiscard]] std::int64_t wire_bytes() const { return wire_bytes_; }

  [[nodiscard]] const stats::Histogram& path_latency_us() const {
    return *path_latency_us_;
  }
  /// TM queue occupancy in bytes across all switch hops.
  [[nodiscard]] const stats::Histogram& tm_queue_depth_bytes() const {
    return *tm_queue_depth_bytes_;
  }
  /// Keyed by flow hash; iteration order is NOT deterministic (hash
  /// map) — exports must go through sorted_flows()/flows_json().
  [[nodiscard]] const std::unordered_map<std::uint64_t, FlowStats>& flows()
      const {
    return flows_;
  }
  /// Per-flow table in ascending flow-key order: the only iteration
  /// order exports may use (the determinism contract, DESIGN.md §16).
  /// Pointers alias flows_ — valid until the next collect().
  [[nodiscard]] std::vector<std::pair<std::uint64_t, const FlowStats*>>
  sorted_flows() const;
  /// JSON export of the per-flow table in ascending flow-key order.
  /// Byte-identical across runs for identical traffic; pinned by a
  /// golden-file test.
  [[nodiscard]] std::string flows_json() const;

  /// Register counters and the flow gauge under `<prefix>/...`, and
  /// re-home the latency/occupancy distributions as registry-owned
  /// histograms (existing samples are merged in). Registry histograms
  /// expand into summary rows only at snapshot()/export time, so a
  /// TimeSeriesRecorder sampling every tick never pays a percentile
  /// sort — that cost sank an earlier gauge-based version of this API.
  void register_metrics(MetricsRegistry& registry, const std::string& prefix);

 private:
  Config config_;
  std::uint64_t tagged_packets_ = 0;
  std::uint64_t untagged_packets_ = 0;
  std::uint64_t hop_records_ = 0;
  std::uint64_t overflowed_stacks_ = 0;
  std::uint64_t flow_table_overflow_ = 0;
  std::int64_t wire_bytes_ = 0;
  // Distributions live in own_* until register_metrics() re-homes them
  // into the registry (the pointers always name the live histogram).
  stats::Histogram own_path_latency_us_;
  stats::Histogram own_tm_queue_depth_bytes_;
  stats::Histogram* path_latency_us_ = &own_path_latency_us_;
  stats::Histogram* tm_queue_depth_bytes_ = &own_tm_queue_depth_bytes_;
  std::unordered_map<std::uint64_t, FlowStats> flows_;
};

}  // namespace xmem::telemetry
