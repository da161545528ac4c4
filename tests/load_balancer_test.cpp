// Tests for the SilkRoad-style L4 load balancer: data-plane CAS inserts,
// connection stickiness across pool changes, balancing, caching,
// collision safety.
#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/load_balancer.hpp"
#include "control/testbed.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"

namespace xmem::apps {
namespace {

using control::ChannelController;
using control::Testbed;

const net::Ipv4Address kVip(172, 16, 0, 100);

class LoadBalancerTest : public ::testing::Test {
 protected:
  LoadBalancerTest() : tb_(config()) {
    // h0 client; h1, h2 backends; h3 memory server.
    channel_ = tb_.controller().setup_channel(tb_.host(3), tb_.port_of(3),
                                              {.region_bytes = 64 * 1024});
    lb_ = std::make_unique<L4LoadBalancer>(
        tb_.tor(), channel_, L4LoadBalancer::Config{.vip = kVip});
    lb_->set_backends(pool({1, 2}));
    sink1_ = std::make_unique<host::PacketSink>(tb_.host(1));
    sink2_ = std::make_unique<host::PacketSink>(tb_.host(2));
  }

  static Testbed::Config config() {
    Testbed::Config cfg;
    cfg.hosts = 4;
    return cfg;
  }

  /// Backend id == host index, so ids are stable across pool changes.
  std::vector<Backend> pool(std::vector<int> hosts) {
    std::vector<Backend> backends;
    for (int h : hosts) {
      backends.push_back(Backend{static_cast<std::uint16_t>(h),
                                 tb_.host(h).mac(), tb_.host(h).ip(),
                                 static_cast<std::uint16_t>(tb_.port_of(h))});
    }
    return backends;
  }

  /// One flow = one source port; sends `count` packets to the VIP.
  void send_flow(std::uint16_t src_port, std::uint64_t count,
                 sim::Bandwidth rate = sim::mbps(200)) {
    host::CbrTrafficGen gen(tb_.host(0),
                            {.dst_mac = net::MacAddress::from_index(0),
                             .dst_ip = kVip,
                             .src_port = src_port,
                             .dst_port = 80,
                             .frame_size = 128,
                             .rate = rate,
                             .packet_limit = count});
    gen.start();
    tb_.sim().run();
  }

  Testbed tb_;
  control::RdmaChannelConfig channel_;
  std::unique_ptr<L4LoadBalancer> lb_;
  std::unique_ptr<host::PacketSink> sink1_;
  std::unique_ptr<host::PacketSink> sink2_;
};

TEST(LoadBalancerPacking, RoundTrips) {
  const std::uint64_t packed = L4LoadBalancer::pack(0xabcdef123456, 7);
  EXPECT_EQ(L4LoadBalancer::check_of(packed), 0xabcdef123456u);
  EXPECT_EQ(L4LoadBalancer::backend_of(packed), 7);
}

TEST_F(LoadBalancerTest, InvalidConfigThrows) {
  const auto tiny = tb_.controller().setup_channel(tb_.host(3), tb_.port_of(3),
                                                   {.region_bytes = 7});
  EXPECT_THROW(L4LoadBalancer(tb_.tor(), tiny, {.vip = kVip}),
               std::invalid_argument);
  std::vector<Backend> with_sentinel = pool({1});
  with_sentinel.push_back(Backend{0, tb_.host(2).mac(), tb_.host(2).ip(),
                                  static_cast<std::uint16_t>(tb_.port_of(2))});
  EXPECT_THROW(lb_->set_backends(with_sentinel), std::invalid_argument);
}

TEST_F(LoadBalancerTest, FirstPacketClaimsSlotViaCas) {
  send_flow(5000, 1);
  EXPECT_EQ(lb_->stats().new_connections, 1u);
  EXPECT_EQ(lb_->stats().resumed, 0u);
  EXPECT_EQ(sink1_->packets() + sink2_->packets(), 1u);
  // The claim is visible in remote memory.
  auto region = ChannelController::region_bytes(tb_.host(3), channel_);
  std::uint64_t nonzero = 0;
  for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
    nonzero += rnic::load_le64(region.subspan(i, 8)) != 0;
  }
  EXPECT_EQ(nonzero, 1u);
  EXPECT_EQ(tb_.host(3).cpu_packets(), 0u);
}

TEST_F(LoadBalancerTest, FlowSticksToOneBackend) {
  send_flow(5000, 50);
  EXPECT_EQ(sink1_->packets() + sink2_->packets(), 50u);
  // All 50 packets went to exactly one backend.
  EXPECT_TRUE(sink1_->packets() == 50 || sink2_->packets() == 50)
      << "sink1=" << sink1_->packets() << " sink2=" << sink2_->packets();
}

TEST_F(LoadBalancerTest, ManyFlowsSpreadAcrossBackends) {
  for (std::uint16_t port = 5000; port < 5064; ++port) {
    send_flow(port, 2, sim::gbps(1));
  }
  EXPECT_EQ(sink1_->packets() + sink2_->packets(), 128u);
  EXPECT_GT(sink1_->packets(), 20u);
  EXPECT_GT(sink2_->packets(), 20u);
  EXPECT_EQ(lb_->stats().collision_drops, 0u);
}

TEST_F(LoadBalancerTest, CacheAbsorbsSteadyState) {
  send_flow(5000, 20);
  // First packet does the CAS round trip; the rest hit the local cache.
  EXPECT_EQ(lb_->stats().new_connections, 1u);
  EXPECT_EQ(lb_->stats().cache_hits, 19u);
  EXPECT_EQ(lb_->channel().stats().atomics_sent, 1u);
}

TEST_F(LoadBalancerTest, ConnectionsSurvivePoolChange) {
  // Pin a flow, then change the pool under it. With the cache disabled
  // (to force the remote table to answer), the flow must stay on its
  // original backend.
  auto fresh_channel = tb_.controller().setup_channel(
      tb_.host(3), tb_.port_of(3), {.region_bytes = 64 * 1024});
  L4LoadBalancer lb(tb_.tor(), fresh_channel,
                    L4LoadBalancer::Config{
                        .vip = net::Ipv4Address(172, 16, 0, 101),
                        .cache_capacity = 0});
  lb.set_backends(pool({1}));  // only backend 0 = h1

  host::CbrTrafficGen first(tb_.host(0),
                            {.dst_mac = net::MacAddress::from_index(0),
                             .dst_ip = net::Ipv4Address(172, 16, 0, 101),
                             .src_port = 6000,
                             .dst_port = 80,
                             .frame_size = 128,
                             .rate = sim::mbps(200),
                             .packet_limit = 5});
  first.start();
  tb_.sim().run();
  EXPECT_EQ(sink1_->packets(), 5u);

  // New pool: h2 first, h1 still present under its stable id. The
  // established flow resolves its remote entry to id 1 -> h1 regardless
  // of pool order; only brand-new flows may pick h2.
  lb.set_backends(pool({2, 1}));
  host::CbrTrafficGen again(tb_.host(0),
                            {.dst_mac = net::MacAddress::from_index(0),
                             .dst_ip = net::Ipv4Address(172, 16, 0, 101),
                             .src_port = 6000,
                             .dst_port = 80,
                             .frame_size = 128,
                             .rate = sim::mbps(200),
                             .packet_limit = 5});
  again.start();
  tb_.sim().run();
  EXPECT_EQ(sink1_->packets(), 10u) << "established flow stuck to h1";
  EXPECT_GE(lb.stats().resumed, 5u);
}

TEST_F(LoadBalancerTest, NonVipTrafficUntouched) {
  host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(1).mac(),
                                        .dst_ip = tb_.host(1).ip(),
                                        .frame_size = 128,
                                        .rate = sim::gbps(1),
                                        .packet_limit = 5});
  gen.start();
  tb_.sim().run();
  EXPECT_EQ(sink1_->packets(), 5u);
  EXPECT_EQ(lb_->stats().new_connections, 0u);
  EXPECT_EQ(lb_->channel().stats().atomics_sent, 0u);
}

TEST_F(LoadBalancerTest, EmptyPoolDrops) {
  lb_->set_backends({});
  send_flow(5000, 3);
  EXPECT_EQ(lb_->stats().no_backend_drops, 3u);
  EXPECT_EQ(sink1_->packets() + sink2_->packets(), 0u);
}

}  // namespace
}  // namespace xmem::apps
