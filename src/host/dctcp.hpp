// DCTCP-style ECN-reactive rate control (§2.1's backstop).
//
// The paper's incast story needs an end-to-end brake for *persistent*
// overload: "Before that >10 GB remote memory is all filled, any bursty
// incast conditions should have passed, or (in the case of persistent
// congestion) end-to-end congestion control based on ECN [DCTCP] should
// have slowed traffic."
//
// This is a rate-based DCTCP abstraction: the switch marks CE above a
// queue threshold, the receiver echoes the marked fraction back once per
// window, and the sender adjusts
//     rate <- rate * (1 - alpha/2)        on congestion
//     rate <- rate + kIncrease            otherwise
// with alpha the usual EWMA of the marked fraction.
#pragma once

#include <cstdint>

#include "host/host.hpp"
#include "host/traffic_gen.hpp"
#include "sim/units.hpp"

namespace xmem::host {

/// UDP port carrying congestion-echo packets.
inline constexpr std::uint16_t kEcnEchoPort = 9977;

/// Receiver half: counts CE-marked arrivals and echoes the fraction to
/// the sender every kWindow packets. Chain it in front of a PacketSink
/// (it forwards every packet to `next`).
class EcnEchoReceiver {
 public:
  using Forward = std::function<void(const net::Packet&)>;

  /// Packets per echo.
  static constexpr std::uint64_t kWindow = 32;

  explicit EcnEchoReceiver(Host& host, Forward next = {});

  [[nodiscard]] std::uint64_t ce_marked() const { return ce_marked_; }
  [[nodiscard]] std::uint64_t echoes_sent() const { return echoes_; }

 private:
  void on_packet(net::Packet&& packet);

  Host* host_;
  Forward next_;
  std::uint64_t window_seen_ = 0;
  std::uint64_t window_marked_ = 0;
  std::uint64_t ce_marked_ = 0;
  std::uint64_t echoes_ = 0;
};

/// Sender half: a CBR source whose rate reacts to the receiver's echoes.
class DctcpSender {
 public:
  static constexpr sim::Bandwidth kMinRate = sim::mbps(100);
  static constexpr sim::Bandwidth kMaxRate = sim::gbps(40);
  /// Additive increase per congestion-free echo.
  static constexpr sim::Bandwidth kIncrease = sim::mbps(500);
  /// DCTCP's g.
  static constexpr double kAlphaGain = 1.0 / 16.0;

  struct Config {
    CbrTrafficGen::Config traffic;  // dst, frame size, start rate, limits
  };

  DctcpSender(Host& host, Config config);

  void start();
  void stop();

  [[nodiscard]] sim::Bandwidth current_rate() const { return rate_; }
  /// Lowest rate the controller reached (congestion depth indicator).
  [[nodiscard]] sim::Bandwidth min_rate_seen() const { return min_seen_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t rate_cuts() const { return rate_cuts_; }
  [[nodiscard]] bool finished() const { return finished_; }

 private:
  void send_next();
  void on_echo(double marked_fraction);

  Host* host_;
  Config config_;
  sim::Bandwidth rate_;
  sim::Bandwidth min_seen_ = 0;
  double alpha_ = 0.0;
  std::uint64_t sent_ = 0;
  std::int64_t bytes_ = 0;
  std::uint64_t rate_cuts_ = 0;
  bool running_ = false;
  bool finished_ = false;
};

}  // namespace xmem::host
