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
#include <stdexcept>

#include "sim/time.hpp"
#include "sim/units.hpp"

namespace xmem::core {

/// Knobs of the DCQCN reaction point. Defaults follow the paper's
/// parameter table scaled to the simulated 40 GbE fabric.
struct DcqcnConfig {
  /// Full wire rate; the controller never paces above this, and reaching
  /// it ends recovery (timers stop until the next CNP).
  sim::Bandwidth line_rate = sim::gbps(40);
  /// Floor under multiplicative decrease: a channel never cuts to zero,
  /// so progress continues under sustained marking.
  sim::Bandwidth min_rate = sim::mbps(100);
  /// EWMA gain g: alpha <- (1-g)*alpha + g on CNP, alpha <- (1-g)*alpha
  /// per quiet alpha-timer period.
  double g = 1.0 / 16.0;
  /// Period of the alpha-decay timer (the paper's 55 us).
  sim::Time alpha_timer = sim::microseconds(55);
  /// Period of the rate-increase timer T.
  sim::Time rate_timer = sim::microseconds(55);
  /// Bytes per byte-counter round B (10 MB in the paper; scaled down so
  /// the byte clock actually ticks at simulated request volumes).
  std::uint64_t byte_round = 1u << 20;
  /// Rounds of fast recovery F before additive increase begins.
  std::uint32_t fast_recovery_rounds = 5;
  /// Additive-increase step Rai.
  sim::Bandwidth additive_increase = sim::mbps(40);
  /// Hyper-increase step Rhai (applied i times on the i-th successive
  /// hyper round).
  sim::Bandwidth hyper_increase = sim::gbps(1);
};

class DcqcnRateController {
 public:
  /// Throws std::invalid_argument on a config the timers or the pacer
  /// cannot run: g = 0 keeps alpha at 1 so the alpha timer re-arms
  /// forever, a non-positive timer re-arms at the same instant, and a
  /// zero rate divides by zero in sim::transmission_time.
  explicit DcqcnRateController(DcqcnConfig config)
      : config_(validated(config)),
        current_(config.line_rate),
        target_(config.line_rate) {}

  [[nodiscard]] const DcqcnConfig& config() const { return config_; }
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
        config_.min_rate,
        static_cast<sim::Bandwidth>(static_cast<double>(current_) * cut));
    alpha_ = (1.0 - config_.g) * alpha_ + config_.g;
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
    alpha_ *= 1.0 - config_.g;
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
    while (bytes_into_round_ >= config_.byte_round) {
      bytes_into_round_ -= config_.byte_round;
      ++byte_rounds_;
      increase_step();
      if (!in_recovery_) {
        bytes_into_round_ = 0;
        return;
      }
    }
  }

 private:
  static DcqcnConfig validated(const DcqcnConfig& c) {
    if (c.line_rate <= 0) {
      throw std::invalid_argument("DcqcnConfig: line_rate must be > 0");
    }
    if (c.min_rate <= 0 || c.min_rate > c.line_rate) {
      throw std::invalid_argument(
          "DcqcnConfig: need 0 < min_rate <= line_rate");
    }
    if (!(c.g > 0.0 && c.g <= 1.0)) {
      throw std::invalid_argument("DcqcnConfig: need 0 < g <= 1");
    }
    if (c.alpha_timer <= 0 || c.rate_timer <= 0) {
      throw std::invalid_argument("DcqcnConfig: timers must be > 0");
    }
    return c;
  }

  void increase_step() {
    const std::uint32_t fastest = std::max(timer_rounds_, byte_rounds_);
    const std::uint32_t slowest = std::min(timer_rounds_, byte_rounds_);
    if (fastest < config_.fast_recovery_rounds) {
      // Fast recovery: halve the distance to the pre-cut target without
      // raising the target itself.
    } else if (slowest > config_.fast_recovery_rounds) {
      // Hyper increase: both clocks agree congestion is long gone; the
      // i-th successive hyper round raises the target by i * Rhai.
      ++hyper_rounds_;
      target_ += config_.hyper_increase *
                 static_cast<std::int64_t>(hyper_rounds_);
    } else {
      // Additive increase probes for headroom one Rai step at a time.
      target_ += config_.additive_increase;
    }
    target_ = std::min(target_, config_.line_rate);
    // Ceiling midpoint: a floor here would asymptote one bit below the
    // target and recovery (and its timer) would never terminate.
    current_ += (target_ - current_ + 1) / 2;
    if (current_ >= config_.line_rate) {
      current_ = config_.line_rate;
      target_ = config_.line_rate;
      in_recovery_ = false;
      timer_rounds_ = 0;
      byte_rounds_ = 0;
      hyper_rounds_ = 0;
      bytes_into_round_ = 0;
    }
  }

  DcqcnConfig config_;
  sim::Bandwidth current_;
  sim::Bandwidth target_;
  double alpha_ = 1.0;
  std::uint32_t timer_rounds_ = 0;
  std::uint32_t byte_rounds_ = 0;
  std::uint32_t hyper_rounds_ = 0;
  std::uint64_t bytes_into_round_ = 0;
  bool cnp_this_alpha_period_ = false;
  bool in_recovery_ = false;
};

}  // namespace xmem::core
