// Traffic manager: the shared packet buffer and per-port egress queues.
//
// This is where the paper's problem lives — a ToR-class shared buffer of
// ~12 MB that a 50 MB incast overruns in 0.34 ms — and where the packet
// buffer primitive hooks in, watching queue depth to decide when to
// divert packets to remote DRAM and when to pull them back.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace xmem::switchsim {

enum class QueueEvent : std::uint8_t {
  kEnqueue,
  kDequeue,
  kDrop,
};

class TrafficManager {
 public:
  struct Config {
    std::int64_t shared_buffer_bytes = 12 * 1000 * 1000;  // paper's 12 MB
    /// ECN: mark CE on enqueue when the queue exceeds this (0 disables;
    /// negative rejected at construction). One threshold serves every
    /// ECN-capable flow through the queue — DCTCP tenants and RoCEv2
    /// memory traffic alike — so a CE-marked RDMA request triggers the
    /// server RNIC's CNP path exactly when a DCTCP sender sharing the
    /// port would see marks (DCQCN's Kmin==Kmax simplification).
    std::int64_t ecn_mark_threshold_bytes = 0;
  };

  /// Called after queue state changes on a port; depth is post-event.
  using QueueWatcher =
      std::function<void(QueueEvent, int port, std::int64_t depth_bytes)>;

  /// Throws std::invalid_argument on a non-positive buffer size or a
  /// negative ECN threshold (a silent negative would disable marking
  /// while looking configured).
  TrafficManager(int port_count, Config config);

  /// Enqueue for egress on `port`; returns false (drop) when the shared
  /// buffer is exhausted.
  bool enqueue(int port, net::Packet&& packet, sim::Time now);

  /// Pop the head-of-line packet for `port` (nullopt if empty).
  std::optional<net::Packet> dequeue(int port);

  [[nodiscard]] std::int64_t depth_bytes(int port) const {
    return queues_[static_cast<std::size_t>(port)].bytes;
  }
  [[nodiscard]] std::int64_t buffer_used() const { return used_; }

  /// Observe queue transitions (the packet-buffer primitive's trigger).
  /// Multiple watchers are invoked in registration order.
  void add_watcher(QueueWatcher watcher) {
    watchers_.push_back(std::move(watcher));
  }

  struct PortStats {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t dropped = 0;
    std::int64_t dropped_bytes = 0;
    std::int64_t max_depth_bytes = 0;
  };
  [[nodiscard]] const PortStats& port_stats(int port) const {
    return stats_[static_cast<std::size_t>(port)];
  }
  [[nodiscard]] std::uint64_t total_drops() const;

  /// Register per-port PortStats counters and live queue-depth gauges as
  /// `<prefix>/port<i>/...`, plus `<prefix>/buffer_used_bytes`.
  void register_metrics(telemetry::MetricsRegistry& registry,
                        const std::string& prefix);

 private:
  struct PortQueue {
    std::deque<net::Packet> packets;
    std::int64_t bytes = 0;
  };

  void notify(QueueEvent event, int port, std::int64_t depth) {
    for (auto& w : watchers_) w(event, port, depth);
  }

  Config config_;
  std::vector<PortQueue> queues_;
  std::vector<PortStats> stats_;
  std::int64_t used_ = 0;
  std::vector<QueueWatcher> watchers_;
};

}  // namespace xmem::switchsim
