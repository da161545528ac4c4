// Integration tests for the remote state-store primitive: exact
// counting, the outstanding-atomics window with local accumulation,
// update combining (§7), and loss behaviour with and without the
// reliability extension (§7).
#include <gtest/gtest.h>

#include "control/testbed.hpp"
#include "core/state_store.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"

namespace xmem::core {
namespace {

using control::ChannelController;
using control::Testbed;

class StateStoreTest : public ::testing::Test {
 protected:
  StateStoreTest() : tb_() {
    // h0 -> h1 traffic; h2 holds the remote counters.
  }

  control::RdmaChannelConfig make_channel(bool strict = false) {
    control::ChannelController::ChannelSpec spec;
    spec.region_bytes = 4096;  // 512 counters
    spec.tolerate_psn_gaps = !strict;
    return tb_.controller().setup_channel(tb_.host(2), tb_.port_of(2), spec);
  }

  /// Sampler pinning every UDP data packet to one counter index.
  static StateStorePrimitive::SampleFn fixed_index(std::uint64_t idx) {
    return [idx](const net::Packet& p) -> std::optional<std::uint64_t> {
      auto tuple = net::extract_five_tuple(p);
      if (!tuple || tuple->dst_port == net::kRoceV2Port) return std::nullopt;
      return idx;
    };
  }

  std::uint64_t counter(const control::RdmaChannelConfig& channel,
                        std::uint64_t idx) {
    auto region = ChannelController::region_bytes(tb_.host(2), channel);
    return rnic::load_le64(region.subspan(idx * 8, 8));
  }

  void send_packets(std::uint64_t count, sim::Bandwidth rate = sim::gbps(10),
                    std::uint16_t src_port = 7000) {
    host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(1).mac(),
                                          .dst_ip = tb_.host(1).ip(),
                                          .src_port = src_port,
                                          .dst_port = 9000,
                                          .frame_size = 128,
                                          .rate = rate,
                                          .packet_limit = count});
    gen.start();
    tb_.sim().run();
  }

  void settle(StateStorePrimitive& ss) {
    // Flush residual accumulators and let in-flight atomics finish.
    for (int i = 0; i < 50 && !ss.quiescent(); ++i) {
      ss.flush();
      tb_.sim().run_until(tb_.sim().now() + sim::milliseconds(1));
      tb_.sim().run();
    }
  }

  Testbed tb_;
};

TEST_F(StateStoreTest, CountsEveryPacketExactly) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.sample_fn = fixed_index(5)});
  host::PacketSink sink(tb_.host(1));
  send_packets(500);
  settle(ss);

  EXPECT_EQ(ss.stats().sampled_packets, 500u);
  EXPECT_EQ(counter(channel, 5), 500u) << "100% accurate, like the paper";
  EXPECT_TRUE(ss.quiescent());
  EXPECT_EQ(sink.packets(), 500u) << "counting must not disturb traffic";
  EXPECT_EQ(tb_.host(2).cpu_packets(), 0u);
}

TEST_F(StateStoreTest, OutstandingWindowEnforcedWithAccumulation) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.max_outstanding = 4, .sample_fn = fixed_index(0)});
  // 40 Gb/s of 128 B frames: far faster than 4-deep atomics can drain.
  send_packets(2000, sim::gbps(40));
  settle(ss);

  EXPECT_LE(ss.stats().max_outstanding_seen, 4u);
  EXPECT_GT(ss.stats().accumulated, 0u)
      << "backpressure must fold counts into the accumulator";
  EXPECT_LT(ss.stats().fetch_adds_sent, 2000u)
      << "accumulated flushes carry more than one count";
  EXPECT_EQ(counter(channel, 0), 2000u) << "still exact";
}

TEST_F(StateStoreTest, DistinctFlowsHitDistinctCounters) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel, {});  // default 5-tuple hash
  send_packets(100, sim::gbps(5), /*src_port=*/7000);
  send_packets(60, sim::gbps(5), /*src_port=*/7001);
  settle(ss);

  // Locate each flow's counter the way the data plane does.
  auto region = ChannelController::region_bytes(tb_.host(2), channel);
  std::uint64_t total = 0;
  std::uint64_t nonzero = 0;
  for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
    const std::uint64_t v = rnic::load_le64(region.subspan(i, 8));
    total += v;
    nonzero += v != 0;
  }
  EXPECT_EQ(total, 160u);
  EXPECT_EQ(nonzero, 2u) << "two flows, two counters";
}

TEST_F(StateStoreTest, CombiningWindowBatchesUpdates) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.combining_window = 10, .sample_fn = fixed_index(3)});
  send_packets(500, sim::gbps(10));
  settle(ss);

  EXPECT_EQ(counter(channel, 3), 500u);
  // 500 counts in batches of >= 10 -> at most 50 ops (plus a flush tail).
  EXPECT_LE(ss.stats().fetch_adds_sent, 51u);
  EXPECT_GT(ss.stats().accumulated, 0u);
}

TEST_F(StateStoreTest, CombiningDefaultIsPerPacket) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.sample_fn = fixed_index(3)});
  // Slow traffic: the window never fills, every packet issues one F&A.
  send_packets(50, sim::mbps(100));
  settle(ss);
  EXPECT_EQ(ss.stats().fetch_adds_sent, 50u);
  EXPECT_EQ(counter(channel, 3), 50u);
}

TEST_F(StateStoreTest, LossWithoutReliabilityUndercounts) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.sample_fn = fixed_index(7),
                          .retransmit_timeout = sim::microseconds(200)});
  tb_.link_of(2).set_loss_rate(0.05, 31);  // lossy memory link
  send_packets(1000, sim::gbps(10));
  settle(ss);

  const std::uint64_t counted = counter(channel, 7);
  EXPECT_LT(counted, 1000u) << "drops must cost accuracy (§7)";
  EXPECT_GT(counted, 800u);
  EXPECT_GT(ss.stats().counts_in_flight_lost, 0u);
}

TEST_F(StateStoreTest, ReliabilityRestoresExactnessUnderLoss) {
  auto channel = make_channel(/*strict=*/true);
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.sample_fn = fixed_index(9),
                          .reliable = true,
                          .retransmit_timeout = sim::microseconds(200)});
  tb_.link_of(2).set_loss_rate(0.05, 37);
  send_packets(1000, sim::gbps(10));
  settle(ss);

  EXPECT_EQ(counter(channel, 9), 1000u)
      << "NAK-driven go-back-N + replay cache give exactly-once counts";
  EXPECT_GT(ss.stats().retransmits, 0u);
  EXPECT_TRUE(ss.quiescent());
}

TEST_F(StateStoreTest, RoceResponsesAreNotSampled) {
  // The sampler must never see the primitive's own RDMA traffic — that
  // would be a feedback loop.
  auto channel = make_channel();
  std::uint64_t sampler_calls = 0;
  StateStorePrimitive ss(
      tb_.tor(), channel,
      {.sample_fn = [&](const net::Packet& p) -> std::optional<std::uint64_t> {
        ++sampler_calls;
        auto tuple = net::extract_five_tuple(p);
        if (!tuple || tuple->dst_port == net::kRoceV2Port) return std::nullopt;
        return 0;
      }});
  send_packets(100, sim::gbps(10));
  settle(ss);
  // One sampler call per data packet; the atomic ACKs were consumed by
  // the primitive's response demux before sampling.
  EXPECT_EQ(sampler_calls, 100u);
  EXPECT_EQ(counter(channel, 0), 100u);
}

TEST_F(StateStoreTest, FlushIsIdempotent) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel, {.sample_fn = fixed_index(1)});
  send_packets(10, sim::gbps(1));
  settle(ss);
  const std::uint64_t before = counter(channel, 1);
  ss.flush();
  tb_.sim().run();
  EXPECT_EQ(counter(channel, 1), before);
  EXPECT_EQ(before, 10u);
}

// A window that straddles the 24-bit PSN wrap is reclaimed in issue
// order. The RNIC hangs with 16 F&As in flight on PSNs 0xfffff8..7; after
// restart() + reconnect() the reclaimed counts are re-issued, and the
// re-issued F&As must target the counters in the order their originals
// were sent, not in numeric PSN order (which would put 0..7 first).
TEST_F(StateStoreTest, ReclaimAcrossPsnWrapReissuesInIssueOrder) {
  ChannelController::ChannelSpec spec;
  spec.region_bytes = 4096;
  spec.tolerate_psn_gaps = false;  // strict RC
  spec.initial_psn = roce::Psn(0xfffff8);
  auto channel =
      tb_.controller().setup_channel(tb_.host(2), tb_.port_of(2), spec);
  auto next = std::make_shared<std::uint64_t>(0);
  StateStorePrimitive ss(
      tb_.tor(), channel,
      {.max_outstanding = 16,
       .sample_fn = [next](const net::Packet& p)
           -> std::optional<std::uint64_t> {
         auto tuple = net::extract_five_tuple(p);
         if (!tuple || tuple->dst_port == net::kRoceV2Port) {
           return std::nullopt;
         }
         return (*next)++;  // one counter per packet
       },
       .reliable = true});

  std::vector<std::uint64_t> targets;  // counter index of each F&A sent
  tb_.link_of(2).set_tap([&](const net::Packet& frame, sim::Time, int) {
    const auto msg = roce::parse_roce_packet(frame);
    if (msg && msg->opcode() == roce::Opcode::kFetchAdd && msg->atomic_eth) {
      targets.push_back((msg->atomic_eth->va - channel.base_va) / 8);
    }
  });

  rnic::Rnic& nic = tb_.host(2).rnic();
  nic.set_alive(false);
  host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(1).mac(),
                                        .dst_ip = tb_.host(1).ip(),
                                        .src_port = 7000,
                                        .dst_port = 9000,
                                        .frame_size = 128,
                                        .rate = sim::gbps(10),
                                        .packet_limit = 16});
  gen.start();
  tb_.sim().run_until(sim::microseconds(20));
  ASSERT_EQ(ss.outstanding(), 16);
  ASSERT_EQ(targets.size(), 16u);

  nic.restart();
  spec.initial_psn = ss.channel().next_psn();
  targets.clear();
  channel = tb_.controller().reconnect(tb_.host(2), channel, spec);
  ss.reconnect(0, channel);
  tb_.sim().run_until(tb_.sim().now() + sim::microseconds(20));
  std::vector<std::uint64_t> expected(16);
  for (std::uint64_t i = 0; i < 16; ++i) expected[i] = i;
  EXPECT_EQ(targets, expected);
  EXPECT_EQ(ss.stats().failover_reissues, 16u);

  settle(ss);
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(counter(channel, i), 1u);
}

TEST_F(StateStoreTest, RejectsInvalidConfigsAtConstruction) {
  const auto channel = make_channel();
  EXPECT_THROW(StateStorePrimitive(tb_.tor(), channel, {.max_outstanding = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      StateStorePrimitive(tb_.tor(), channel, {.combining_window = 0}),
      std::invalid_argument);
}

}  // namespace
}  // namespace xmem::core
