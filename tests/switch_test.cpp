// Programmable-switch tests: match-action tables, traffic manager
// (shared buffer, drops, ECN, watchers), the parser's RoCEv2 check,
// pipeline stage semantics, L2 forwarding and inject.
#include <gtest/gtest.h>

#include "control/testbed.hpp"
#include "host/host.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "roce/packet.hpp"
#include "switchsim/switch.hpp"
#include "switchsim/table.hpp"

namespace xmem::switchsim {
namespace {

using control::Testbed;

// ---------------------------------------------------------------- tables
TEST(ExactMatchTable, InsertLookupEraseAndStats) {
  ExactMatchTable t(4);
  EXPECT_TRUE(t.insert({1, 2, 3}, Action{Action::Kind::kForward, 0, 7, {}, {}}));
  const Action* hit = t.lookup(std::vector<std::uint8_t>{1, 2, 3});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->port, 7);
  EXPECT_EQ(t.lookup(std::vector<std::uint8_t>{9}), nullptr);
  EXPECT_EQ(t.hits(), 1u);
  EXPECT_EQ(t.misses(), 1u);
  EXPECT_TRUE(t.erase(std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_FALSE(t.erase(std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(ExactMatchTable, CapacityModelsSram) {
  ExactMatchTable t(2);
  EXPECT_TRUE(t.insert({1}, Action{}));
  EXPECT_TRUE(t.insert({2}, Action{}));
  EXPECT_TRUE(t.full());
  EXPECT_FALSE(t.insert({3}, Action{})) << "SRAM exhausted";
  // Updating an existing key does not consume capacity.
  EXPECT_TRUE(t.insert({2}, Action{Action::Kind::kDrop, 0, 0, {}, {}}));
  EXPECT_EQ(t.size(), 2u);
}

TEST(Action, SerializeParseRoundTrip) {
  Action a;
  a.kind = Action::Kind::kRewriteDst;
  a.dscp = 12;
  a.port = 3;
  a.new_dst_mac = net::MacAddress::from_index(77);
  a.new_dst_ip = net::Ipv4Address(10, 1, 2, 3);
  std::vector<std::uint8_t> buf;
  // reserve() sidesteps a spurious GCC 12 -Wstringop-overflow on the
  // inlined push_back growth path; it changes nothing observable.
  buf.reserve(Action::kSerializedBytes);
  net::ByteWriter w(buf);
  a.serialize(w);
  ASSERT_EQ(buf.size(), Action::kSerializedBytes);
  net::ByteReader r(buf);
  EXPECT_EQ(Action::parse(r), a);
}

// --------------------------------------------------------- traffic manager
TEST(TrafficManagerTest, SharedBufferAccounting) {
  TrafficManager tm(2, {.shared_buffer_bytes = 1000});
  EXPECT_TRUE(tm.enqueue(0, net::Packet(std::vector<std::uint8_t>(600, 0)), 0));
  EXPECT_TRUE(tm.enqueue(1, net::Packet(std::vector<std::uint8_t>(400, 0)), 0));
  EXPECT_EQ(tm.buffer_used(), 1000);
  // Shared pool exhausted even though port 0's queue is "short".
  EXPECT_FALSE(tm.enqueue(0, net::Packet(std::vector<std::uint8_t>(60, 0)), 0));
  EXPECT_EQ(tm.port_stats(0).dropped, 1u);
  auto p = tm.dequeue(1);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(tm.buffer_used(), 600);
  EXPECT_FALSE(tm.dequeue(1).has_value());
}

TEST(TrafficManagerTest, FifoOrderPerPort) {
  TrafficManager tm(1, {});
  for (std::uint8_t i = 0; i < 5; ++i) {
    net::Packet p(std::vector<std::uint8_t>(64, i));
    tm.enqueue(0, std::move(p), 0);
  }
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(tm.dequeue(0)->bytes()[0], i);
  }
}

TEST(TrafficManagerTest, WatchersSeeEveryTransition) {
  TrafficManager tm(1, {.shared_buffer_bytes = 100});
  std::vector<QueueEvent> events;
  tm.add_watcher([&](QueueEvent e, int port, std::int64_t) {
    EXPECT_EQ(port, 0);
    events.push_back(e);
  });
  tm.enqueue(0, net::Packet(std::vector<std::uint8_t>(80, 0)), 0);
  tm.enqueue(0, net::Packet(std::vector<std::uint8_t>(80, 0)), 0);  // drop
  tm.dequeue(0);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], QueueEvent::kEnqueue);
  EXPECT_EQ(events[1], QueueEvent::kDrop);
  EXPECT_EQ(events[2], QueueEvent::kDequeue);
}

TEST(TrafficManagerTest, MaxDepthHighWaterMark) {
  TrafficManager tm(1, {});
  tm.enqueue(0, net::Packet(std::vector<std::uint8_t>(100, 0)), 0);
  tm.enqueue(0, net::Packet(std::vector<std::uint8_t>(100, 0)), 0);
  tm.dequeue(0);
  EXPECT_EQ(tm.port_stats(0).max_depth_bytes, 200);
  EXPECT_EQ(tm.depth_bytes(0), 100);
}

TEST(TrafficManagerTest, EcnMarksEctPacketsAboveThreshold) {
  TrafficManager tm(1, {.shared_buffer_bytes = 1 << 20,
                        .ecn_mark_threshold_bytes = 100});
  // An ECT(0) IPv4 packet below threshold: unmarked.
  auto make = [] {
    net::Packet p = net::build_udp_packet(
        net::MacAddress::from_index(1), net::MacAddress::from_index(2),
        net::Ipv4Address(1, 1, 1, 1), net::Ipv4Address(2, 2, 2, 2), 1, 2,
        std::vector<std::uint8_t>(100, 0));
    const auto b = p.mutable_bytes();
    b[15] = (b[15] & ~0x3) | 0x2;  // set ECT(0) directly
    net::rewrite_dscp(p, 0);       // refresh checksum
    return p;
  };
  tm.enqueue(0, make(), 0);  // queue empty: no mark
  tm.enqueue(0, make(), 0);  // queue at 142 bytes >= 100: mark
  auto first = tm.dequeue(0);
  auto second = tm.dequeue(0);
  EXPECT_EQ(net::parse_packet(*first).ipv4->ecn, net::Ecn::kEct0);
  EXPECT_EQ(net::parse_packet(*second).ipv4->ecn, net::Ecn::kCe);
}

// ----------------------------------------------------------- switch logic
TEST(SwitchTest, L2ForwardingEndToEnd) {
  Testbed tb;
  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0),
                          {.dst_mac = tb.host(1).mac(),
                           .dst_ip = tb.host(1).ip(),
                           .frame_size = 200,
                           .rate = sim::gbps(1),
                           .packet_limit = 50});
  gen.start();
  tb.sim().run();
  EXPECT_EQ(sink.packets(), 50u);
  EXPECT_EQ(sink.missing(), 0u);
  EXPECT_EQ(tb.tor().stats().forwarded, 50u);
}

TEST(SwitchTest, NoRouteDrops) {
  Testbed tb;
  host::CbrTrafficGen gen(tb.host(0),
                          {.dst_mac = net::MacAddress::from_index(999),
                           .dst_ip = net::Ipv4Address(9, 9, 9, 9),
                           .frame_size = 100,
                           .rate = sim::gbps(1),
                           .packet_limit = 3});
  gen.start();
  tb.sim().run();
  EXPECT_EQ(tb.tor().stats().no_route_drops, 3u);
}

// The parser checks every RoCEv2 frame's ICRC once. A frame with 0xff
// XORed into any byte past its UDP header (what a link's corrupt fault
// does) is counted in corrupt_drops and reaches no stage, except a flip
// of BTH resv8a (byte 46), which the ICRC masks; an intact frame reaches
// the stage already parsed. A flip in the IPv4 header fails its checksum:
// the frame is counted in parse_errors and reaches no stage either.
TEST(SwitchTest, ParserDropsCorruptRoceBeforeAnyStage) {
  Testbed tb;
  std::vector<std::uint32_t> seen;  // PSNs of the frames stages saw
  tb.tor().add_ingress_stage("observe", [&](PipelineContext& ctx) {
    ASSERT_TRUE(ctx.roce.has_value());
    seen.push_back(ctx.roce->bth.psn.raw());
    EXPECT_EQ(ctx.roce->opcode(), roce::Opcode::kRdmaWriteOnly);
    EXPECT_EQ(ctx.roce->payload, std::vector<std::uint8_t>(8, 0x5a));
  });
  const roce::RoceEndpoint src{tb.host(0).mac(), tb.host(0).ip(), 0xd000};
  const roce::RoceEndpoint dst{tb.host(1).mac(), tb.host(1).ip(), 0xc000};
  auto write_frame = [&](std::uint32_t psn) {
    roce::RoceMessage msg;
    msg.bth.opcode = roce::Opcode::kRdmaWriteOnly;
    msg.bth.psn = roce::Psn(psn);
    msg.reth = roce::Reth{0x1000, 0xaa, 8};
    msg.payload.assign(8, 0x5a);
    return roce::build_roce_packet(src, dst, msg);
  };
  constexpr std::uint32_t kIpv4 = net::kEthernetHeaderBytes;
  constexpr std::uint32_t kUdp = kIpv4 + net::kIpv4HeaderBytes;
  constexpr std::uint32_t kFirst = kUdp + net::kUdpHeaderBytes;
  constexpr std::uint32_t kResv8a = kFirst + 4;
  const auto frame_bytes = static_cast<std::uint32_t>(write_frame(0).size());
  tb.sim().schedule_at(0, [&] {
    // Each corrupt frame's PSN is the offset of its flipped byte: every
    // IPv4 header byte (its checksum fails), then every byte from the
    // BTH on (the ICRC fails).
    auto send_flipped = [&](std::uint32_t from, std::uint32_t to) {
      for (std::uint32_t byte = from; byte < to; ++byte) {
        net::Packet corrupt = write_frame(byte);
        corrupt.mutable_bytes()[byte] ^= 0xff;
        tb.host(0).send(std::move(corrupt));
      }
    };
    send_flipped(kIpv4, kUdp);
    send_flipped(kFirst, frame_bytes);
    tb.host(0).send(write_frame(9));
  });
  tb.sim().run();

  const std::uint64_t header_flips = net::kIpv4HeaderBytes;
  const std::uint64_t flipped = frame_bytes - kFirst;
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{kResv8a, 9}))
      << "only the intact frame and the masked flip reach the stage";
  EXPECT_EQ(tb.tor().stats().received, header_flips + flipped + 1);
  EXPECT_EQ(tb.tor().stats().parse_errors, header_flips);
  EXPECT_EQ(tb.tor().stats().corrupt_drops, flipped - 1);
  EXPECT_EQ(tb.tor().stats().stage_drops, 0u);
  EXPECT_EQ(tb.tor().stats().forwarded, 2u);
}

TEST(SwitchTest, StageCanDropAndConsume) {
  Testbed tb;
  int seen = 0;
  tb.tor().add_ingress_stage("dropper", [&](PipelineContext& ctx) {
    ++seen;
    if (ctx.packet.meta().ingress_port == tb.port_of(0) && seen % 2 == 0) {
      ctx.drop();
    }
  });
  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0),
                          {.dst_mac = tb.host(1).mac(),
                           .dst_ip = tb.host(1).ip(),
                           .frame_size = 100,
                           .rate = sim::gbps(1),
                           .packet_limit = 10});
  gen.start();
  tb.sim().run();
  EXPECT_EQ(sink.packets(), 5u);
  EXPECT_EQ(tb.tor().stats().stage_drops, 5u);
}

TEST(SwitchTest, StagesRunInOrderUntilVerdict) {
  Testbed tb;
  std::vector<int> order;
  tb.tor().add_ingress_stage("first", [&](PipelineContext& ctx) {
    order.push_back(1);
    ctx.consume();
  });
  tb.tor().add_ingress_stage("second",
                             [&](PipelineContext&) { order.push_back(2); });
  host::CbrTrafficGen gen(tb.host(0),
                          {.dst_mac = tb.host(1).mac(),
                           .dst_ip = tb.host(1).ip(),
                           .frame_size = 100,
                           .rate = sim::gbps(1),
                           .packet_limit = 1});
  gen.start();
  tb.sim().run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(tb.tor().stats().consumed, 1u);
}

TEST(SwitchTest, PipelineLatencyApplied) {
  Testbed tb;
  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0),
                          {.dst_mac = tb.host(1).mac(),
                           .dst_ip = tb.host(1).ip(),
                           .frame_size = 64,
                           .rate = sim::gbps(1),
                           .packet_limit = 1});
  gen.start();
  tb.sim().run();
  ASSERT_EQ(sink.latency_us().count(), 1u);
  // One-way latency must include the configured pipeline latency.
  const double min_us = sim::to_microseconds(
      tb.tor().config().pipeline_latency + 2 * sim::nanoseconds(150));
  EXPECT_GT(sink.latency_us().median(), min_us);
}

TEST(SwitchTest, InjectEmitsCraftedPacket) {
  Testbed tb;
  host::PacketSink sink(tb.host(2));
  net::Packet crafted = net::build_udp_packet(
      net::MacAddress::from_index(0), tb.host(2).mac(),
      net::Ipv4Address::from_index(0), tb.host(2).ip(), 1, 2,
      std::vector<std::uint8_t>(64, 0));
  tb.sim().schedule_at(sim::microseconds(1), [&] {
    tb.tor().inject(crafted.clone(), tb.port_of(2));
  });
  tb.sim().run();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(tb.tor().stats().injected, 1u);
}

TEST(SwitchTest, BufferDropsWhenSharedPoolExhausted) {
  Testbed::Config cfg;
  cfg.switch_config.tm.shared_buffer_bytes = 10 * 1500;
  Testbed tb(cfg);
  // Two senders at full rate into one receiver: the 15 kB buffer drops.
  host::PacketSink sink(tb.host(2));
  host::CbrTrafficGen g0(tb.host(0), {.dst_mac = tb.host(2).mac(),
                                      .dst_ip = tb.host(2).ip(),
                                      .frame_size = 1500,
                                      .rate = sim::gbps(40),
                                      .packet_limit = 200});
  host::CbrTrafficGen g1(tb.host(1), {.dst_mac = tb.host(2).mac(),
                                      .dst_ip = tb.host(2).ip(),
                                      .frame_size = 1500,
                                      .rate = sim::gbps(40),
                                      .packet_limit = 200});
  g0.start();
  g1.start();
  tb.sim().run();
  EXPECT_GT(tb.tor().tm().total_drops(), 0u);
  EXPECT_LT(sink.packets(), 400u);
  EXPECT_EQ(sink.packets() + tb.tor().tm().total_drops(), 400u);
}

TEST(SwitchTest, SetupRequiredBeforeUse) {
  sim::Simulator sim;
  ProgrammableSwitch sw(sim, "sw", {});
  EXPECT_FALSE(sw.ready());
  sw.setup();
  EXPECT_TRUE(sw.ready());
}

}  // namespace
}  // namespace xmem::switchsim
