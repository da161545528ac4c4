// NPtcp-style latency measurement: serialized probes from a source to a
// sink host, one in flight at a time, reporting the one-way latency
// distribution per packet size (the methodology behind Fig. 3a).
#pragma once

#include <cstdint>
#include <functional>

#include "host/host.hpp"
#include "host/traffic_gen.hpp"
#include "stats/histogram.hpp"

namespace xmem::host {

class LatencyProbe {
 public:
  /// Idle gap between a reception and the next probe.
  static constexpr sim::Time kThinkTime = sim::microseconds(1);

  struct Config {
    net::MacAddress dst_mac;
    net::Ipv4Address dst_ip;
    std::uint16_t src_port = 7100;
    std::uint16_t dst_port = 9100;
    std::size_t frame_size = 64;
    std::uint64_t samples = 1000;
  };

  /// `source` emits probes; `sink` must be reachable through the network
  /// and will have its app handler installed by this probe.
  LatencyProbe(Host& source, Host& sink, Config config);

  void start();

  [[nodiscard]] bool finished() const { return received_ >= config_.samples; }
  [[nodiscard]] const stats::Histogram& latency_us() const {
    return latency_us_;
  }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }

  void set_on_finish(std::function<void()> fn) { on_finish_ = std::move(fn); }

 private:
  void send_probe();
  void on_arrival(const net::Packet& packet);

  Host* source_;
  Host* sink_;
  Config config_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  stats::Histogram latency_us_;
  std::function<void()> on_finish_;
};

}  // namespace xmem::host
