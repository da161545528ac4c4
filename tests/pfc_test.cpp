// PFC tests: frame round trip, port pause semantics, switch XOFF/XON
// behaviour, losslessness, and the head-of-line blocking the remote
// packet buffer avoids.
#include <gtest/gtest.h>

#include <stdexcept>

#include "control/testbed.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/pause.hpp"

namespace xmem::net {
namespace {

using control::Testbed;

TEST(PfcFrame, BuildParseRoundTrip) {
  PfcFrame f;
  f.src = MacAddress::from_index(3);
  f.class_enable = 0x81;
  f.quanta[0] = 0x1234;
  f.quanta[7] = 0xffff;
  Packet p = build_pfc_frame(f);
  EXPECT_GE(p.size(), kEthernetMinFrame);
  auto parsed = parse_pfc_frame(p);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, f.src);
  EXPECT_EQ(parsed->class_enable, f.class_enable);
  EXPECT_EQ(parsed->quanta[0], 0x1234);
  EXPECT_EQ(parsed->quanta[7], 0xffff);
  EXPECT_FALSE(parsed->is_resume());
}

TEST(PfcFrame, XonIsResume) {
  EXPECT_TRUE(pfc_xon(MacAddress::from_index(1)).is_resume());
  EXPECT_FALSE(pfc_xoff(MacAddress::from_index(1)).is_resume());
}

TEST(PfcFrame, NonPauseFramesRejected) {
  Packet udp = build_udp_packet(MacAddress::from_index(1),
                                MacAddress::from_index(2),
                                Ipv4Address(1, 1, 1, 1),
                                Ipv4Address(2, 2, 2, 2), 1, 2,
                                std::vector<std::uint8_t>(30, 0));
  EXPECT_FALSE(parse_pfc_frame(udp).has_value());
  Packet garbage(std::vector<std::uint8_t>(10, 0));
  EXPECT_FALSE(parse_pfc_frame(garbage).has_value());
}

TEST(PfcPort, PauseDefersTransmission) {
  Testbed tb;
  host::PacketSink sink(tb.host(1));
  // Pause h0's transmitter before it sends.
  const sim::Time pause_until = sim::microseconds(50);
  tb.host(0).port(0).apply_pause(pause_until);
  EXPECT_TRUE(tb.host(0).port(0).paused());

  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = 100,
                                       .rate = sim::gbps(1),
                                       .packet_limit = 1});
  gen.start();
  tb.sim().run();
  ASSERT_EQ(sink.packets(), 1u);
  EXPECT_GT(sink.first_arrival(), pause_until)
      << "frame must not leave before the pause lapses";
}

TEST(PfcPort, XonResumesEarly) {
  Testbed tb;
  host::PacketSink sink(tb.host(1));
  tb.host(0).port(0).apply_pause(sim::milliseconds(10));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = 100,
                                       .rate = sim::gbps(1),
                                       .packet_limit = 1});
  gen.start();
  tb.sim().schedule_at(sim::microseconds(20), [&] {
    tb.host(0).port(0).apply_pause(0);  // XON
  });
  tb.sim().run();
  ASSERT_EQ(sink.packets(), 1u);
  EXPECT_LT(sink.first_arrival(), sim::microseconds(40));
}

TEST(PfcSwitch, IncastBecomesLossless) {
  Testbed::Config cfg;
  cfg.hosts = 4;
  cfg.switch_config.tm.shared_buffer_bytes = 60 * 1500;
  Testbed tb(cfg);
  tb.tor().enable_pfc(/*xoff=*/40 * 1500, /*xon=*/15 * 1500);

  host::PacketSink sink(tb.host(2));
  host::IncastCoordinator incast({&tb.host(0), &tb.host(1)},
                                 {.dst_mac = tb.host(2).mac(),
                                  .dst_ip = tb.host(2).ip(),
                                  .frame_size = 1500,
                                  .burst_bytes_per_sender = 1'500'000});
  incast.start(sim::microseconds(1));
  tb.sim().run();

  EXPECT_EQ(tb.tor().tm().total_drops(), 0u) << "PFC must prevent drops";
  EXPECT_EQ(sink.packets(), 2000u);
  EXPECT_GT(tb.tor().stats().pfc_xoff_sent, 0u);
  EXPECT_GT(tb.tor().stats().pfc_xon_sent, 0u);
  EXPECT_GT(tb.host(0).pfc_frames(), 0u);
  EXPECT_FALSE(tb.tor().pfc_paused()) << "resumed by the end";
}

TEST(PfcSwitch, RejectsInvertedThresholdsAndOutOfRangeClass) {
  Testbed tb;
  auto& tor = tb.tor();
  constexpr std::int64_t kXoff = 40 * 1500;
  constexpr std::int64_t kXon = 15 * 1500;
  EXPECT_THROW(tor.enable_pfc(kXon, kXoff), std::invalid_argument)
      << "xon above xoff";
  EXPECT_THROW(tor.enable_pfc(kXoff, kXoff), std::invalid_argument)
      << "xon equal to xoff";
  EXPECT_THROW(tor.enable_pfc(kXoff, -1), std::invalid_argument)
      << "negative xon";
  EXPECT_THROW(tor.enable_pfc(kXoff, kXon, 8), std::invalid_argument)
      << "class 8 would be masked to class 0";
  EXPECT_THROW(tor.enable_pfc(kXoff, kXon, -1), std::invalid_argument);
  EXPECT_NO_THROW(tor.enable_pfc(kXoff, 0, 7));
}

TEST(PfcSwitch, VictimFlowSuffersHeadOfLineBlocking) {
  // h0+h1 incast onto h2 while h3 sends a light "victim" flow to h4.
  // PFC pauses *all* ports, so the victim's latency spikes even though
  // its own path is uncongested — the §2.1 problem the remote packet
  // buffer avoids.
  struct VictimOutcome {
    std::uint64_t delivered = 0;
    double p99_us = 0;
  };
  auto run_victim = [](bool with_pfc) {
    Testbed::Config cfg;
    cfg.hosts = 5;
    cfg.switch_config.tm.shared_buffer_bytes = 60 * 1500;
    Testbed tb(cfg);
    if (with_pfc) tb.tor().enable_pfc(40 * 1500, 15 * 1500);

    host::PacketSink incast_sink(tb.host(2));
    host::PacketSink victim_sink(tb.host(4));
    host::IncastCoordinator incast({&tb.host(0), &tb.host(1)},
                                   {.dst_mac = tb.host(2).mac(),
                                    .dst_ip = tb.host(2).ip(),
                                    .frame_size = 1500,
                                    .burst_bytes_per_sender = 1'500'000});
    host::CbrTrafficGen victim(tb.host(3), {.dst_mac = tb.host(4).mac(),
                                            .dst_ip = tb.host(4).ip(),
                                            .frame_size = 200,
                                            .rate = sim::gbps(1),
                                            .packet_limit = 500});
    incast.start(sim::microseconds(1));
    victim.start();
    tb.sim().run();
    return VictimOutcome{victim_sink.packets(),
                         victim_sink.latency_us().p99()};
  };

  const VictimOutcome without = run_victim(false);
  const VictimOutcome with = run_victim(true);
  // Drop-tail collateral: the shared buffer may eat victim packets.
  EXPECT_LE(without.delivered, 500u);
  // PFC keeps the victim lossless but stalls it: pause cycles inflate its
  // tail latency by nearly an order of magnitude.
  EXPECT_EQ(with.delivered, 500u);
  EXPECT_GT(with.p99_us, 5 * without.p99_us)
      << "PFC pause must visibly stall the innocent flow";
}

}  // namespace
}  // namespace xmem::net
