// DCQCN rate control for one RDMA channel (Zhu et al., SIGCOMM 2015).
//
// The controller is the requester-side reaction point: CNPs arriving from
// the memory server's RNIC cut the sending rate multiplicatively (scaled
// by the EWMA congestion estimate alpha), and two independent clocks — a
// periodic rate timer and a bytes-sent counter — drive the staged
// recovery back toward line rate: fast recovery (halve the distance to
// the pre-cut target), then additive increase, then hyper increase.
//
// This class is a pure state machine: it holds no simulator reference and
// schedules nothing. RdmaChannel owns one, feeds it CNPs / sent bytes /
// timer expiries, and reads rate() to pace its injection. That split
// keeps the algorithm unit-testable without a network.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"
#include "sim/units.hpp"

namespace xmem::core {

/// The one DCQCN knob benches run at two values: a11 uses the default
/// additive-increase step, xmem_bench's incast_cc 200 Mb/s. Every other
/// parameter is a DcqcnRateController constant.
struct DcqcnConfig {
  /// Additive-increase step Rai.
  sim::Bandwidth additive_increase = sim::mbps(40);
};

class DcqcnRateController {
 public:
  // Parameters of the reaction point: the paper's table scaled to the
  // simulated 40 GbE fabric.
  /// Full wire rate; the controller never paces above this, and reaching
  /// it ends recovery (timers stop until the next CNP).
  static constexpr sim::Bandwidth kLineRate = sim::gbps(40);
  /// Floor under multiplicative decrease: a channel never cuts to zero,
  /// so progress continues under sustained marking.
  static constexpr sim::Bandwidth kMinRate = sim::mbps(100);
  /// EWMA gain g: alpha <- (1-g)*alpha + g on CNP, alpha <- (1-g)*alpha
  /// per quiet alpha-timer period.
  static constexpr double kG = 1.0 / 16.0;
  /// Period of the alpha-decay timer (the paper's 55 us).
  static constexpr sim::Time kAlphaTimer = sim::microseconds(55);
  /// Period of the rate-increase timer T.
  static constexpr sim::Time kRateTimer = sim::microseconds(55);
  /// Bytes per byte-counter round B (10 MB in the paper; scaled down so
  /// the byte clock actually ticks at simulated request volumes).
  static constexpr std::uint64_t kByteRound = 1u << 20;
  /// Rounds of fast recovery F before additive increase begins.
  static constexpr std::uint32_t kFastRecoveryRounds = 5;
  /// Hyper-increase step Rhai (applied i times on the i-th successive
  /// hyper round).
  static constexpr sim::Bandwidth kHyperIncrease = sim::gbps(1);

  explicit DcqcnRateController(DcqcnConfig config)
      : additive_increase_(config.additive_increase) {}

  /// Current allowed sending rate Rc.
  [[nodiscard]] sim::Bandwidth rate() const { return current_; }
  /// Recovery target Rt (the rate at the moment of the last cut, plus
  /// any additive / hyper increase earned since).
  [[nodiscard]] sim::Bandwidth target() const { return target_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  /// True from the first CNP until Rc climbs back to line rate. The
  /// owning channel only runs timers (and paces) while this holds, so a
  /// congestion-free channel costs no events.
  [[nodiscard]] bool in_recovery() const { return in_recovery_; }

  /// A CNP arrived: multiplicative decrease scaled by alpha, remember
  /// the pre-cut rate as the recovery target, restart all rounds.
  void on_cnp() {
    target_ = current_;
    const double cut = 1.0 - alpha_ / 2.0;
    current_ = std::max(
        kMinRate,
        static_cast<sim::Bandwidth>(static_cast<double>(current_) * cut));
    alpha_ = (1.0 - kG) * alpha_ + kG;
    timer_rounds_ = 0;
    byte_rounds_ = 0;
    hyper_rounds_ = 0;
    bytes_into_round_ = 0;
    cnp_this_alpha_period_ = true;
    in_recovery_ = true;
  }

  /// Alpha-decay timer fired: a full quiet period (no CNP) decays the
  /// congestion estimate toward zero.
  void on_alpha_timer() {
    if (cnp_this_alpha_period_) {
      cnp_this_alpha_period_ = false;  // the CNP already refreshed alpha
      return;
    }
    alpha_ *= 1.0 - kG;
  }

  /// Rate-increase timer T fired.
  void on_rate_timer() {
    if (!in_recovery_) return;
    ++timer_rounds_;
    increase_step();
  }

  /// Account bytes handed to the wire; every byte_round bytes completes
  /// one byte-counter round B.
  void on_bytes_sent(std::uint64_t bytes) {
    if (!in_recovery_) return;
    bytes_into_round_ += bytes;
    while (bytes_into_round_ >= kByteRound) {
      bytes_into_round_ -= kByteRound;
      ++byte_rounds_;
      increase_step();
      if (!in_recovery_) {
        bytes_into_round_ = 0;
        return;
      }
    }
  }

 private:
  void increase_step() {
    const std::uint32_t fastest = std::max(timer_rounds_, byte_rounds_);
    const std::uint32_t slowest = std::min(timer_rounds_, byte_rounds_);
    if (fastest < kFastRecoveryRounds) {
      // Fast recovery: halve the distance to the pre-cut target without
      // raising the target itself.
    } else if (slowest > kFastRecoveryRounds) {
      // Hyper increase: both clocks agree congestion is long gone; the
      // i-th successive hyper round raises the target by i * Rhai.
      ++hyper_rounds_;
      target_ += kHyperIncrease *
                 static_cast<std::int64_t>(hyper_rounds_);
    } else {
      // Additive increase probes for headroom one Rai step at a time.
      target_ += additive_increase_;
    }
    target_ = std::min(target_, kLineRate);
    // Ceiling midpoint: a floor here would asymptote one bit below the
    // target and recovery (and its timer) would never terminate.
    current_ += (target_ - current_ + 1) / 2;
    if (current_ >= kLineRate) {
      current_ = kLineRate;
      target_ = kLineRate;
      in_recovery_ = false;
      timer_rounds_ = 0;
      byte_rounds_ = 0;
      hyper_rounds_ = 0;
      bytes_into_round_ = 0;
    }
  }

  sim::Bandwidth additive_increase_;
  sim::Bandwidth current_ = kLineRate;
  sim::Bandwidth target_ = kLineRate;
  double alpha_ = 1.0;
  std::uint32_t timer_rounds_ = 0;
  std::uint32_t byte_rounds_ = 0;
  std::uint32_t hyper_rounds_ = 0;
  std::uint64_t bytes_into_round_ = 0;
  bool cnp_this_alpha_period_ = false;
  bool in_recovery_ = false;
};

}  // namespace xmem::core
