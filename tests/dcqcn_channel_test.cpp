// Congestion control for the RDMA channel: the DCQCN rate machine in
// isolation (cut/decay/recovery-stage arithmetic), PFC pause/HoL
// accounting on ports, and the closed loop end to end — TM CE-marks
// paced RoCE requests, the server RNIC answers with CNPs, the
// switch-side channel cuts and paces, and the whole episode is
// bit-deterministic.
#include <gtest/gtest.h>

#include "control/testbed.hpp"
#include "core/dcqcn.hpp"
#include "core/primitive.hpp"
#include "core/rdma_channel.hpp"

namespace xmem::core {
namespace {

using control::Testbed;

// --- DcqcnRateController unit tests ---------------------------------------

using Dcqcn = DcqcnRateController;

TEST(DcqcnRateControllerTest, CnpCutsRateAndRemembersTarget) {
  DcqcnRateController cc({});
  EXPECT_EQ(cc.rate(), Dcqcn::kLineRate);
  EXPECT_FALSE(cc.in_recovery());

  cc.on_cnp();
  // alpha starts at 1.0, so the first cut is the full Rc/2.
  EXPECT_EQ(cc.rate(), Dcqcn::kLineRate / 2);
  EXPECT_EQ(cc.target(), Dcqcn::kLineRate);
  EXPECT_TRUE(cc.in_recovery());
}

TEST(DcqcnRateControllerTest, AlphaDecaysOverQuietPeriodsAndSoftensCuts) {
  DcqcnRateController cc({});
  cc.on_cnp();
  const double alpha_after_cnp = cc.alpha();

  // The period containing the CNP does not decay (the CNP already
  // refreshed alpha); each quiet period after it multiplies by (1-g).
  cc.on_alpha_timer();
  EXPECT_DOUBLE_EQ(cc.alpha(), alpha_after_cnp);
  cc.on_alpha_timer();
  EXPECT_DOUBLE_EQ(cc.alpha(), alpha_after_cnp * (1.0 - Dcqcn::kG));
  for (int i = 0; i < 100; ++i) cc.on_alpha_timer();
  EXPECT_LT(cc.alpha(), 0.01);

  // With alpha nearly zero, a CNP barely dents the rate.
  const sim::Bandwidth before = cc.rate();
  cc.on_cnp();
  EXPECT_GT(cc.rate(), before * 9 / 10);
}

TEST(DcqcnRateControllerTest, FastRecoveryHalvesDistanceToTarget) {
  DcqcnRateController cc({});
  cc.on_cnp();  // Rc = line/2, Rt = line

  sim::Bandwidth rate = cc.rate();
  sim::Bandwidth gap = cc.target() - rate;
  for (std::uint32_t round = 1; round < Dcqcn::kFastRecoveryRounds; ++round) {
    cc.on_rate_timer();
    EXPECT_EQ(cc.target(), Dcqcn::kLineRate) << "FR must not raise the target";
    const sim::Bandwidth new_gap = cc.target() - cc.rate();
    EXPECT_LE(new_gap, gap / 2 + 1) << "round " << round;
    EXPECT_GT(cc.rate(), rate);
    rate = cc.rate();
    gap = new_gap;
  }
}

TEST(DcqcnRateControllerTest, RecoveryEndsAtLineRateAndStopsReacting) {
  DcqcnRateController cc({});
  cc.on_cnp();
  int rounds = 0;
  while (cc.in_recovery() && rounds < 10000) {
    cc.on_rate_timer();
    ++rounds;
  }
  EXPECT_FALSE(cc.in_recovery()) << "recovery must terminate";
  EXPECT_EQ(cc.rate(), Dcqcn::kLineRate);
  EXPECT_EQ(cc.target(), Dcqcn::kLineRate);
  // Out of recovery, clocks are inert until the next CNP.
  cc.on_rate_timer();
  cc.on_bytes_sent(Dcqcn::kByteRound * 3);
  EXPECT_EQ(cc.rate(), Dcqcn::kLineRate);
}

TEST(DcqcnRateControllerTest, HyperIncreaseAcceleratesWhenBothClocksAgree) {
  DcqcnRateController cc({});
  // Two back-to-back CNPs leave plenty of headroom below line rate so
  // the hyper stage is observable before the clamp.
  cc.on_cnp();
  cc.on_cnp();  // Rc = line/4, Rt = line/2

  // Drive both clocks together past the fast-recovery threshold.
  auto both_clocks = [&] {
    cc.on_rate_timer();
    cc.on_bytes_sent(Dcqcn::kByteRound);
  };
  for (std::uint32_t i = 0; i <= Dcqcn::kFastRecoveryRounds; ++i) both_clocks();

  // Now every joint round is hyper: the target's step grows by Rhai each
  // successive round (i * Rhai on round i).
  sim::Bandwidth prev_target = cc.target();
  sim::Bandwidth prev_step = 0;
  for (int i = 0; i < 3 && cc.in_recovery(); ++i) {
    both_clocks();
    const sim::Bandwidth step = cc.target() - prev_target;
    if (cc.target() >= Dcqcn::kLineRate) break;  // clamp reached
    EXPECT_GT(step, prev_step) << "hyper step must accelerate";
    prev_step = step;
    prev_target = cc.target();
  }
}

TEST(DcqcnRateControllerTest, SustainedCnpsNeverCutBelowMinRate) {
  DcqcnRateController cc({});
  for (int i = 0; i < 200; ++i) cc.on_cnp();
  EXPECT_EQ(cc.rate(), Dcqcn::kMinRate);
  EXPECT_GT(cc.rate(), 0);
}

// --- Port PFC telemetry ----------------------------------------------------

TEST(PortPfcTelemetryTest, PauseTimeAccruesAndHolPacketsAreCounted) {
  Testbed tb;
  topo::Port& port = tb.host(0).port(0);
  auto make_frame = [&] {
    return net::Packet(std::vector<std::uint8_t>(100, 0xab));
  };

  tb.sim().schedule_at(0, [&] {
    port.send(make_frame());  // starts serializing immediately: not blocked
    port.apply_pause(tb.sim().now() + sim::microseconds(10));
  });
  tb.sim().schedule_at(sim::microseconds(2), [&] {
    EXPECT_TRUE(port.paused());
    port.send(make_frame());  // queued behind the pause
    port.send(make_frame());  // likewise
    EXPECT_EQ(port.hol_blocked_packets(), 2u);
    // A refresh frame must not recount the queued packets.
    port.apply_pause(tb.sim().now() + sim::microseconds(8));
    EXPECT_EQ(port.hol_blocked_packets(), 2u);
  });
  tb.sim().run();

  EXPECT_FALSE(port.paused());
  EXPECT_EQ(port.pause_time_total(), sim::microseconds(10));
  EXPECT_EQ(port.hol_blocked_packets(), 2u);
  EXPECT_EQ(port.tx_packets(), 3u) << "pause delays, never drops";
}

TEST(PortPfcTelemetryTest, XonTruncatesPauseAccrual) {
  Testbed tb;
  topo::Port& port = tb.host(0).port(0);
  tb.sim().schedule_at(0, [&] {
    port.apply_pause(tb.sim().now() + sim::microseconds(100));
  });
  tb.sim().schedule_at(sim::microseconds(30), [&] {
    port.apply_pause(tb.sim().now());  // XON
  });
  tb.sim().run();
  EXPECT_EQ(port.pause_time_total(), sim::microseconds(30));
}

// --- End-to-end: ECN -> CNP -> rate cut -> pacing --------------------------

/// One switch + channel + capture stage, as a plain struct so tests can
/// run two independent instances (the determinism check needs a twin).
struct DcqcnLoop {
  static Testbed::Config testbed_config() {
    Testbed::Config cfg;
    // Mark aggressively so a modest request burst trips CE, and let the
    // server RNIC answer every mark (no CNP rate limit) to make the
    // feedback loop easy to observe.
    cfg.switch_config.tm.ecn_mark_threshold_bytes = 3000;
    cfg.nic.cnp_min_interval = 0;
    return cfg;
  }

  DcqcnLoop() : tb_(testbed_config()) {
    config_ = tb_.controller().setup_channel(tb_.host(2), tb_.port_of(2),
                                             {.region_bytes = 1 << 16});
    channel_ = std::make_unique<RdmaChannel>(tb_.tor(), config_);
    tb_.tor().add_ingress_stage(
        "capture", [this](switchsim::PipelineContext& ctx) {
          if (const auto* msg = roce_view(ctx)) {
            if (channel_->owns(*msg)) {
              if (roce::is_cnp(msg->opcode())) {
                cnps_.push_back(*msg);
                channel_->on_cnp();
              } else {
                responses_.push_back(*msg);
              }
              ctx.consume();
            }
          }
        });
  }

  /// Offer `count` 1 KiB acknowledged WRITEs at ~80 Gb/s — twice the
  /// memory link's rate, so the ToR egress queue must build.
  void offer_overload(int count) {
    const std::vector<std::uint8_t> payload(1024, 0x5a);
    for (int i = 0; i < count; ++i) {
      tb_.sim().schedule_at(sim::nanoseconds(100) * i, [this, payload] {
        channel_->post_write(config_.base_va, payload, /*ack_req=*/true);
      });
    }
  }

  Testbed tb_;
  control::RdmaChannelConfig config_;
  std::unique_ptr<RdmaChannel> channel_;
  std::vector<roce::RoceMessage> responses_;
  std::vector<roce::RoceMessage> cnps_;
};

TEST(DcqcnLoopTest, CongestionProducesCnpsAndCutsRate) {
  DcqcnLoop loop;
  loop.channel_->enable_congestion_control({});
  loop.offer_overload(200);
  loop.tb_.sim().run();

  const auto& rnic_stats = loop.tb_.host(2).rnic().stats();
  EXPECT_GT(rnic_stats.ce_marked_rx, 0u) << "TM must CE-mark RoCE requests";
  EXPECT_GT(rnic_stats.cnps_sent, 0u);
  EXPECT_EQ(loop.channel_->stats().cnp_rx, rnic_stats.cnps_sent)
      << "every CNP must reach the reaction point";
  EXPECT_GT(loop.channel_->stats().paced_deferrals, 0u)
      << "the rate cut must actually defer requests";
  ASSERT_NE(loop.channel_->rate_controller(), nullptr);

  // CNPs are control traffic: PSN 0, never ECT (so they cannot be CE
  // marked and feed back on themselves).
  ASSERT_FALSE(loop.cnps_.empty());
  for (const auto& cnp : loop.cnps_) {
    EXPECT_EQ(cnp.bth.psn, roce::Psn(0));
    EXPECT_EQ(cnp.ecn, net::Ecn::kNotEct);
  }

  // Despite the episode, every WRITE completed and nothing is parked.
  EXPECT_EQ(loop.responses_.size(), 200u);
  EXPECT_EQ(loop.channel_->paced_backlog(), 0u);
  EXPECT_EQ(loop.tb_.host(2).cpu_packets(), 0u) << "CNPs are NIC-generated";
}

TEST(DcqcnLoopTest, WithoutCcCnpsAreCountedButIgnored) {
  DcqcnLoop loop;
  loop.offer_overload(100);
  loop.tb_.sim().run();
  EXPECT_GT(loop.channel_->stats().cnp_rx, 0u);
  EXPECT_EQ(loop.channel_->stats().paced_deferrals, 0u) << "no CC, no pacing";
  EXPECT_EQ(loop.channel_->rate_controller(), nullptr);
  EXPECT_EQ(loop.responses_.size(), 100u);
}

TEST(DcqcnLoopTest, CongestionEpisodeIsDeterministic) {
  DcqcnLoop loop;
  loop.channel_->enable_congestion_control({});
  loop.offer_overload(150);
  loop.tb_.sim().run();

  DcqcnLoop twin;
  twin.channel_->enable_congestion_control({});
  twin.offer_overload(150);
  twin.tb_.sim().run();

  EXPECT_EQ(twin.channel_->stats().cnp_rx, loop.channel_->stats().cnp_rx);
  EXPECT_EQ(twin.channel_->stats().paced_deferrals,
            loop.channel_->stats().paced_deferrals);
  EXPECT_EQ(twin.channel_->stats().request_bytes,
            loop.channel_->stats().request_bytes);
  EXPECT_EQ(twin.tb_.host(2).rnic().stats().ce_marked_rx,
            loop.tb_.host(2).rnic().stats().ce_marked_rx);
  EXPECT_EQ(twin.tb_.sim().now(), loop.tb_.sim().now());
}

}  // namespace
}  // namespace xmem::core
