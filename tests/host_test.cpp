// Host-layer tests: probe headers, CBR pacing, sinks (loss, reorder,
// latency), incast coordination, latency probe, CPU accounting.
#include <gtest/gtest.h>

#include <stdexcept>

#include "control/testbed.hpp"
#include "host/netpipe.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"

namespace xmem::host {
namespace {

using control::Testbed;

TEST(ProbeHeader, RoundTrip) {
  std::vector<std::uint8_t> buf(ProbeHeader::kBytes);
  ProbeHeader h{0x0123456789abcdefULL, sim::microseconds(77)};
  h.write_to(buf);
  const ProbeHeader parsed = ProbeHeader::read_from(buf);
  EXPECT_EQ(parsed.sequence, h.sequence);
  EXPECT_EQ(parsed.sent_at, h.sent_at);
}

TEST(CbrTrafficGen, PacesAtConfiguredRate) {
  Testbed tb;
  PacketSink sink(tb.host(1));
  CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                 .dst_ip = tb.host(1).ip(),
                                 .frame_size = 1000,
                                 .rate = sim::gbps(8),
                                 .packet_limit = 1000});
  gen.start();
  tb.sim().run();
  EXPECT_EQ(gen.packets_sent(), 1000u);
  EXPECT_EQ(gen.bytes_sent(), 1000 * 1000);
  // Goodput at the sink matches the offered rate (frame bits).
  EXPECT_NEAR(sim::to_gbps(sink.goodput()), 8.0, 0.1);
}

TEST(CbrTrafficGen, ByteLimitStops) {
  Testbed tb;
  bool finished = false;
  CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                 .dst_ip = tb.host(1).ip(),
                                 .frame_size = 1500,
                                 .rate = sim::gbps(40),
                                 .byte_limit = 15000});
  gen.set_on_finish([&] { finished = true; });
  gen.start();
  tb.sim().run();
  EXPECT_EQ(gen.packets_sent(), 10u);
  EXPECT_TRUE(finished);
  EXPECT_TRUE(gen.finished());
}

TEST(CbrTrafficGen, SmallFramesCarryProbe) {
  Testbed tb;
  PacketSink sink(tb.host(1));
  CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                 .dst_ip = tb.host(1).ip(),
                                 .frame_size = 64,
                                 .rate = sim::gbps(1),
                                 .packet_limit = 10});
  gen.start();
  tb.sim().run();
  EXPECT_EQ(sink.packets(), 10u);
  EXPECT_EQ(sink.latency_us().count(), 10u);
  EXPECT_EQ(sink.max_sequence_plus_one(), 10u);
}

TEST(CbrTrafficGen, RejectsInvalidConfigsAtConstruction) {
  Testbed tb;
  EXPECT_THROW(CbrTrafficGen(tb.host(0), {.frame_size = 32}),
               std::invalid_argument);
  // A zero rate would make the inter-departure spacing infinite.
  EXPECT_THROW(CbrTrafficGen(tb.host(0), {.rate = 0}), std::invalid_argument);
}

TEST(PacketSink, DetectsLossAndPreservedOrder) {
  Testbed tb;
  // Drop every 10th frame on host 0's link.
  tb.link_of(0).set_loss_rate(0.1, 5);
  PacketSink sink(tb.host(1));
  CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                 .dst_ip = tb.host(1).ip(),
                                 .frame_size = 500,
                                 .rate = sim::gbps(10),
                                 .packet_limit = 1000});
  gen.start();
  tb.sim().run();
  EXPECT_GT(sink.missing(), 0u);
  EXPECT_EQ(sink.missing(), tb.link_of(0).dropped_frames());
  EXPECT_EQ(sink.reordered(), 0u);
}

TEST(PacketSink, SparseSequencesCountedOnceInBoundedMemory) {
  Testbed tb;
  PacketSink sink(tb.host(1), /*install=*/false);
  auto deliver = [&](std::uint64_t seq) {
    std::vector<std::uint8_t> payload(ProbeHeader::kBytes);
    ProbeHeader{seq, 0}.write_to(payload);
    sink.accept(net::build_udp_packet(tb.host(0).mac(), tb.host(1).mac(),
                                      tb.host(0).ip(), tb.host(1).ip(), 7000,
                                      9000, payload));
  };
  // 0..9 with 5 missing, 7 and 2 repeated, 3 arriving late.
  for (std::uint64_t seq : {0, 1, 2, 4, 6, 7, 7, 3, 8, 9, 2}) deliver(seq);
  EXPECT_EQ(sink.packets(), 11u);
  EXPECT_EQ(sink.max_sequence_plus_one(), 10u);
  EXPECT_EQ(sink.missing(), 1u);  // 5
  EXPECT_EQ(sink.reordered(), 3u);  // the second 7, 3 and the second 2

  // A corrupted header can carry any 64-bit sequence: counted once, at
  // the cost of one 4,096-sequence block, not a bitmap up to 2^63.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 63;
  deliver(kHuge);
  deliver(kHuge);
  EXPECT_EQ(sink.packets(), 13u);
  EXPECT_EQ(sink.max_sequence_plus_one(), kHuge + 1);
  EXPECT_EQ(sink.missing(), kHuge + 1 - 10);  // 9 low sequences + kHuge
  EXPECT_EQ(sink.reordered(), 4u);

  SequenceSet set;
  for (std::uint64_t seq : {0, 4095, 4095}) set.insert(seq);
  EXPECT_EQ(set.blocks(), 1u);
  EXPECT_TRUE(set.insert(kHuge));
  EXPECT_FALSE(set.insert(kHuge));
  EXPECT_FALSE(set.insert(4095));
  EXPECT_TRUE(set.insert(4096));
  EXPECT_EQ(set.blocks(), 3u);
}

TEST(LatencyProbe, SerializedSamples) {
  Testbed tb;
  LatencyProbe probe(tb.host(0), tb.host(1),
                     {.dst_mac = tb.host(1).mac(),
                      .dst_ip = tb.host(1).ip(),
                      .frame_size = 256,
                      .samples = 100});
  probe.start();
  tb.sim().run();
  EXPECT_TRUE(probe.finished());
  EXPECT_EQ(probe.latency_us().count(), 100u);
  // All samples identical in a quiet network.
  EXPECT_NEAR(probe.latency_us().min(), probe.latency_us().max(), 1e-9);
}

TEST(Incast, SynchronizedBurstArithmetic) {
  // The §2.1 shape: senders at line rate into one downlink overflow a
  // small shared buffer.
  Testbed::Config cfg;
  cfg.hosts = 5;
  cfg.switch_config.tm.shared_buffer_bytes = 100 * 1500;
  Testbed tb(cfg);
  PacketSink sink(tb.host(4));
  std::vector<Host*> senders;
  for (int i = 0; i < 4; ++i) senders.push_back(&tb.host(i));
  IncastCoordinator incast(senders, {.dst_mac = tb.host(4).mac(),
                                     .dst_ip = tb.host(4).ip(),
                                     .frame_size = 1500,
                                     .burst_bytes_per_sender = 1'500'000});
  incast.start(sim::microseconds(1));
  tb.sim().run();
  EXPECT_TRUE(incast.all_finished());
  EXPECT_EQ(incast.total_bytes_sent(), 4 * 1'500'000);
  EXPECT_GT(tb.tor().tm().total_drops(), 0u);
  EXPECT_EQ(sink.packets() + tb.tor().tm().total_drops(), 4000u);
}

TEST(HostCpu, RoceBypassesCpuOrdinaryTrafficDoesNot) {
  Testbed tb;
  PacketSink sink(tb.host(1));
  CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                 .dst_ip = tb.host(1).ip(),
                                 .frame_size = 100,
                                 .rate = sim::gbps(1),
                                 .packet_limit = 5});
  gen.start();
  tb.sim().run();
  // Ordinary UDP hits the software stack.
  EXPECT_EQ(tb.host(1).cpu_packets(), 5u);
  EXPECT_EQ(tb.host(1).rx_frames(), 5u);
}

}  // namespace
}  // namespace xmem::host
