// Tests for the DCTCP-style ECN backstop: ECN helpers, echo plumbing,
// rate adaptation toward the bottleneck share, and interplay with the
// shared buffer.
#include <gtest/gtest.h>

#include "control/testbed.hpp"
#include "host/dctcp.hpp"
#include "host/sink.hpp"

namespace xmem::host {
namespace {

using control::Testbed;

TEST(SetEcn, RewritesCodepointAndChecksum) {
  net::Packet p = net::build_udp_packet(
      net::MacAddress::from_index(1), net::MacAddress::from_index(2),
      net::Ipv4Address(1, 1, 1, 1), net::Ipv4Address(2, 2, 2, 2), 1, 2,
      std::vector<std::uint8_t>(20, 0));
  ASSERT_TRUE(net::set_ecn(p, net::Ecn::kEct0));
  auto parsed = net::parse_packet(p);  // validates the checksum
  EXPECT_EQ(parsed.ipv4->ecn, net::Ecn::kEct0);
  ASSERT_TRUE(net::set_ecn(p, net::Ecn::kCe));
  EXPECT_EQ(net::parse_packet(p).ipv4->ecn, net::Ecn::kCe);
}

TEST(Dctcp, NoCongestionRampsUp) {
  Testbed tb;
  EcnEchoReceiver receiver(tb.host(1));
  DctcpSender sender(tb.host(0), {.traffic = {.dst_mac = tb.host(1).mac(),
                                              .dst_ip = tb.host(1).ip(),
                                              .frame_size = 1500,
                                              .rate = sim::gbps(1),
                                              .packet_limit = 2000}});
  sender.start();
  tb.sim().run();
  EXPECT_TRUE(sender.finished());
  EXPECT_EQ(sender.rate_cuts(), 0u);
  EXPECT_GT(sender.current_rate(), sim::gbps(5)) << "additive increase";
  EXPECT_EQ(receiver.ce_marked(), 0u);
}

TEST(Dctcp, TwoSendersConvergeUnderMarking) {
  // Two DCTCP senders at 2x the bottleneck: ECN marking above the
  // threshold must force both below line rate with zero drops.
  Testbed::Config cfg;
  cfg.hosts = 4;  // h0,h1 senders; h2 receiver
  cfg.switch_config.tm.ecn_mark_threshold_bytes = 30 * 1500;
  cfg.switch_config.tm.shared_buffer_bytes = 400 * 1500;
  Testbed tb(cfg);

  PacketSink sink(tb.host(2), /*install=*/false);
  EcnEchoReceiver receiver(tb.host(2),
                           [&](const net::Packet& p) { sink.accept(p); });
  auto make_sender = [&](int host) {
    return std::make_unique<DctcpSender>(
        tb.host(host), DctcpSender::Config{
                           .traffic = {.dst_mac = tb.host(2).mac(),
                                       .dst_ip = tb.host(2).ip(),
                                       .src_port = static_cast<std::uint16_t>(
                                           7000 + host),
                                       .frame_size = 1500,
                                       .rate = sim::gbps(40),
                                       .packet_limit = 8000}});
  };
  auto s0 = make_sender(0);
  auto s1 = make_sender(1);
  s0->start();
  s1->start();
  tb.sim().run();

  EXPECT_GT(receiver.ce_marked(), 0u) << "the switch must mark CE";
  EXPECT_GT(s0->rate_cuts(), 0u);
  EXPECT_GT(s1->rate_cuts(), 0u);
  // During congestion both senders are pulled well below the 40 Gb/s
  // offered load, toward the ~20 Gb/s fair share. (End-of-run rates can
  // ramp back up once the other sender finishes, so check the minimum.)
  EXPECT_LT(s0->min_rate_seen(), sim::gbps(28));
  EXPECT_LT(s1->min_rate_seen(), sim::gbps(28));
  EXPECT_EQ(tb.tor().tm().total_drops(), 0u)
      << "ECN keeps the buffer below drop-tail";
  EXPECT_EQ(sink.packets(), 16000u);
}

TEST(Dctcp, EchoTrafficIsSparse) {
  Testbed tb;
  EcnEchoReceiver receiver(tb.host(1));
  DctcpSender sender(tb.host(0), {.traffic = {.dst_mac = tb.host(1).mac(),
                                              .dst_ip = tb.host(1).ip(),
                                              .frame_size = 1500,
                                              .rate = sim::gbps(10),
                                              .packet_limit = 640}});
  sender.start();
  tb.sim().run();
  EXPECT_EQ(receiver.echoes_sent(), 20u);  // 640 / 32
}

}  // namespace
}  // namespace xmem::host
