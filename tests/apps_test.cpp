// Application-layer tests: VIP translation (populate + slow-path
// baseline), Count Sketch over remote counters, and the KV accelerator.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "apps/count_sketch.hpp"
#include "apps/kv_cache.hpp"
#include "apps/vip_table.hpp"
#include "control/testbed.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"
#include "sim/rng.hpp"

namespace xmem::apps {
namespace {

using control::ChannelController;
using control::Testbed;

// ------------------------------------------------------------- VIP table
TEST(VipTable, KeyFnExtractsDestinationIp) {
  auto key_fn = vip_key_fn();
  net::Packet p = net::build_udp_packet(
      net::MacAddress::from_index(1), net::MacAddress::from_index(2),
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(172, 16, 5, 9), 1, 2,
      std::vector<std::uint8_t>(20, 0));
  auto key = key_fn(p);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ((*key), (std::vector<std::uint8_t>{172, 16, 5, 9}));
  net::Packet garbage(std::vector<std::uint8_t>(60, 0));
  EXPECT_FALSE(key_fn(garbage).has_value());
}

TEST(VipTable, PopulateInstallsDistinctSlots) {
  std::vector<std::uint8_t> region(64 * 2048);
  std::vector<VipMapping> mappings;
  for (int i = 0; i < 20; ++i) {
    mappings.push_back(VipMapping{
        net::Ipv4Address(172, 16, 0, static_cast<std::uint8_t>(i)),
        net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i)),
        net::MacAddress::from_index(static_cast<std::uint16_t>(i)), 1});
  }
  const std::size_t installed = populate_vip_region(region, 2048, mappings, 7);
  EXPECT_LE(installed, 20u);
  EXPECT_GT(installed, 10u) << "most mappings land without collision";
}

TEST(VipTable, SoftwareVSwitchTranslatesWithCpuCost) {
  Testbed tb;  // h0 client, h1 physical target, h2 runs the soft vswitch
  SoftwareVSwitch vs(tb.host(2));
  vs.add_mapping(VipMapping{net::Ipv4Address(172, 16, 0, 1), tb.host(1).ip(),
                            tb.host(1).mac(), 0});
  host::PacketSink sink(tb.host(1), /*install=*/true);

  // Client sends to the *virtual* IP via the vswitch's MAC.
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(2).mac(),
                                       .dst_ip = net::Ipv4Address(172, 16, 0, 1),
                                       .frame_size = 200,
                                       .rate = sim::gbps(1),
                                       .packet_limit = 20});
  gen.start();
  tb.sim().run();
  EXPECT_EQ(vs.processed(), 20u);
  EXPECT_EQ(sink.packets(), 20u);
  EXPECT_GE(tb.host(2).cpu_packets(), 20u) << "the slow path burns CPU";
}

TEST(VipTable, SoftwareVSwitchDropsOnOverload) {
  Testbed tb;
  // 3 us per packet but packets arrive every ~0.4 us: the 1,024-packet
  // queue overflows.
  SoftwareVSwitch vs(tb.host(2));
  vs.add_mapping(VipMapping{net::Ipv4Address(172, 16, 0, 1), tb.host(1).ip(),
                            tb.host(1).mac(), 0});
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(2).mac(),
                                       .dst_ip = net::Ipv4Address(172, 16, 0, 1),
                                       .frame_size = 1500,
                                       .rate = sim::gbps(30),
                                       .packet_limit = 2000});
  gen.start();
  tb.sim().run();
  EXPECT_GT(vs.dropped(), 0u);
  EXPECT_LT(vs.processed(), 2000u);
  EXPECT_EQ(vs.processed() + vs.dropped(), 2000u);
}

TEST(VipTable, UnknownVipCounted) {
  Testbed tb;
  SoftwareVSwitch vs(tb.host(2));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(2).mac(),
                                       .dst_ip = net::Ipv4Address(172, 99, 0, 1),
                                       .frame_size = 100,
                                       .rate = sim::gbps(1),
                                       .packet_limit = 4});
  gen.start();
  tb.sim().run();
  EXPECT_EQ(vs.unknown_vip(), 4u);
}

// ---------------------------------------------------------- Count Sketch
class CountSketchTest : public ::testing::Test {
 protected:
  CountSketchTest() {
    channel_ = tb_.controller().setup_channel(tb_.host(2), tb_.port_of(2),
                                              {.region_bytes = 3 * 1024 * 8});
  }

  Testbed tb_;
  control::RdmaChannelConfig channel_;
};

TEST_F(CountSketchTest, GeometryDerivedFromRegion) {
  CountSketchApp sketch(tb_.tor(), channel_);
  EXPECT_EQ(sketch.columns(), 1024u);
}

TEST_F(CountSketchTest, RegionWithoutAColumnThrows) {
  // Two 8 B counters cannot hold one column of three rows.
  const auto tiny = tb_.controller().setup_channel(
      tb_.host(2), tb_.port_of(2), {.region_bytes = 16});
  EXPECT_THROW(CountSketchApp(tb_.tor(), tiny), std::invalid_argument);
}

TEST_F(CountSketchTest, HashesAreRowIndependent) {
  CountSketchApp sketch(tb_.tor(), channel_);
  int differing = 0;
  sim::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t key = rng.next();
    if (sketch.column_of(0, key) != sketch.column_of(1, key)) ++differing;
  }
  EXPECT_GT(differing, 90);
  // Signs are roughly balanced.
  int positive = 0;
  for (int i = 0; i < 1000; ++i) {
    if (sketch.sign_of(0, rng.next()) > 0) ++positive;
  }
  EXPECT_NEAR(positive, 500, 100);
}

TEST_F(CountSketchTest, EstimatesFlowCountsFromRemoteMemory) {
  CountSketchApp sketch(tb_.tor(), channel_);
  host::PacketSink sink(tb_.host(1));
  // Two flows with very different sizes.
  host::CbrTrafficGen heavy(tb_.host(0), {.dst_mac = tb_.host(1).mac(),
                                          .dst_ip = tb_.host(1).ip(),
                                          .src_port = 7000,
                                          .frame_size = 128,
                                          .rate = sim::gbps(2),
                                          .packet_limit = 400});
  host::CbrTrafficGen light(tb_.host(0), {.dst_mac = tb_.host(1).mac(),
                                          .dst_ip = tb_.host(1).ip(),
                                          .src_port = 7001,
                                          .frame_size = 128,
                                          .rate = sim::gbps(2),
                                          .packet_limit = 40});
  heavy.start();
  light.start();
  tb_.sim().run();
  ASSERT_TRUE(sketch.quiescent());
  EXPECT_EQ(sketch.stats().sampled_packets, 440u);
  EXPECT_EQ(sketch.stats().fetch_adds_sent, 3 * 440u);

  auto region = ChannelController::region_bytes(tb_.host(2), channel_);
  net::FiveTuple heavy_t{tb_.host(0).ip(), tb_.host(1).ip(), 7000, 9000, 17};
  net::FiveTuple light_t{tb_.host(0).ip(), tb_.host(1).ip(), 7001, 9000, 17};
  const std::int64_t heavy_est =
      sketch.estimate(region, net::flow_hash(heavy_t));
  const std::int64_t light_est =
      sketch.estimate(region, net::flow_hash(light_t));
  // With only two flows in a 1024-column sketch the estimates are exact
  // with overwhelming probability.
  EXPECT_NEAR(static_cast<double>(heavy_est), 400.0, 40.0);
  EXPECT_NEAR(static_cast<double>(light_est), 40.0, 40.0);
  EXPECT_GT(heavy_est, light_est * 4);
  EXPECT_EQ(tb_.host(2).cpu_packets(), 0u);
}

TEST_F(CountSketchTest, LostAcksFreeTheirWindowSlots) {
  tb_.link_of(2).set_loss_rate(0.05, 7);  // lossy memory link
  CountSketchApp sketch(tb_.tor(), channel_);
  host::PacketSink sink(tb_.host(1));
  host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(1).mac(),
                                        .dst_ip = tb_.host(1).ip(),
                                        .frame_size = 128,
                                        .rate = sim::gbps(2),
                                        .packet_limit = 2000});
  gen.start();
  tb_.sim().run();
  // Every update went out, and each one was either acknowledged or
  // expired as lost: no lost ACK holds a window slot for good.
  EXPECT_TRUE(sketch.quiescent());
  EXPECT_EQ(sketch.stats().fetch_adds_sent, 3 * 2000u);
  EXPECT_GT(sketch.stats().lost_updates, 0u);
  EXPECT_EQ(sketch.stats().acks_received + sketch.stats().lost_updates,
            3 * 2000u);
}

// -------------------------------------------------------- KV accelerator
TEST(KvRequest, SerializeParseRoundTrip) {
  KvRequest req{KvOp::kPut, 0xdeadbeef, 0x1234};
  const auto bytes = req.serialize();
  ASSERT_EQ(bytes.size(), KvRequest::kBytes);
  auto parsed = KvRequest::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, KvOp::kPut);
  EXPECT_EQ(parsed->key, 0xdeadbeefu);
  EXPECT_EQ(parsed->value, 0x1234u);
  EXPECT_FALSE(KvRequest::parse(std::vector<std::uint8_t>(3)).has_value());
}

class KvTest : public ::testing::Test {
 protected:
  KvTest() : tb_() {
    // h0 client; h2 = storage backend + memory server.
    channel_ = tb_.controller().setup_channel(tb_.host(2), tb_.port_of(2),
                                              {.region_bytes = 1 << 16});
    accelerator_ = std::make_unique<KvAcceleratorApp>(
        tb_.tor(), channel_,
        KvAcceleratorApp::Config{.backend_port = tb_.port_of(2)});
    backend_ = std::make_unique<KvBackend>(
        tb_.host(2), ChannelController::region_bytes(tb_.host(2), channel_));
    // Client-side response capture.
    tb_.host(0).set_app([this](net::Packet&& p, int) {
      const std::size_t overhead = net::kEthernetHeaderBytes +
                                   net::kIpv4HeaderBytes +
                                   net::kUdpHeaderBytes;
      auto reply = KvRequest::parse(p.bytes().subspan(overhead));
      if (reply) replies_.push_back(*reply);
    });
  }

  void send_request(KvOp op, std::uint64_t key, std::uint64_t value = 0) {
    KvRequest req{op, key, value};
    net::Packet p = net::build_udp_packet(
        tb_.host(0).mac(), tb_.host(2).mac(), tb_.host(0).ip(),
        tb_.host(2).ip(), 5555, kKvUdpPort, req.serialize());
    tb_.host(0).send(std::move(p));
    tb_.sim().run();
  }

  Testbed tb_;
  control::RdmaChannelConfig channel_;
  std::unique_ptr<KvAcceleratorApp> accelerator_;
  std::unique_ptr<KvBackend> backend_;
  std::vector<KvRequest> replies_;
};

TEST_F(KvTest, InvalidConfigThrows) {
  EXPECT_THROW(KvAcceleratorApp(tb_.tor(), channel_, {}),
               std::invalid_argument)
      << "backend_port left unset";
  const auto tiny = tb_.controller().setup_channel(
      tb_.host(2), tb_.port_of(2), {.region_bytes = kKvEntryBytes - 1});
  EXPECT_THROW(
      KvAcceleratorApp(tb_.tor(), tiny, {.backend_port = tb_.port_of(2)}),
      std::invalid_argument);
}

TEST_F(KvTest, GetHitAnsweredBySwitchWithoutBackendCpu) {
  backend_->put(42, 4242);  // populates DRAM region locally
  const std::uint64_t backend_cpu = tb_.host(2).cpu_packets();
  send_request(KvOp::kGet, 42);
  ASSERT_EQ(replies_.size(), 1u);
  EXPECT_EQ(replies_[0].op, KvOp::kResponse);
  EXPECT_EQ(replies_[0].key, 42u);
  EXPECT_EQ(replies_[0].value, 4242u);
  EXPECT_EQ(accelerator_->stats().answered_from_remote, 1u);
  EXPECT_EQ(tb_.host(2).cpu_packets(), backend_cpu)
      << "the backend CPU never saw the GET";
  EXPECT_EQ(backend_->cpu_gets(), 0u);
}

TEST_F(KvTest, GetMissFallsBackToBackend) {
  send_request(KvOp::kGet, 777);  // never stored
  ASSERT_EQ(replies_.size(), 1u);
  EXPECT_EQ(replies_[0].op, KvOp::kMiss);
  EXPECT_EQ(accelerator_->stats().misses_to_backend, 1u);
  EXPECT_EQ(backend_->cpu_gets(), 1u);
}

TEST_F(KvTest, PutGoesToBackendThenHitsInSwitch) {
  send_request(KvOp::kPut, 9, 99);
  ASSERT_EQ(replies_.size(), 1u);
  EXPECT_EQ(replies_[0].op, KvOp::kResponse);
  EXPECT_EQ(backend_->cpu_puts(), 1u);
  EXPECT_EQ(accelerator_->stats().puts_passed, 1u);

  replies_.clear();
  send_request(KvOp::kGet, 9);
  ASSERT_EQ(replies_.size(), 1u);
  EXPECT_EQ(replies_[0].value, 99u);
  EXPECT_EQ(accelerator_->stats().answered_from_remote, 1u);
  EXPECT_EQ(backend_->cpu_gets(), 0u);
}

TEST_F(KvTest, HashCollisionFallsBackSafely) {
  // Find two keys that share a slot; store one, query the other.
  const std::uint64_t n = accelerator_->table_entries();
  const std::uint64_t key_a = 1;
  std::uint64_t key_b = 0;
  for (std::uint64_t k = 2; k < 1'000'000; ++k) {
    if (KvAcceleratorApp::index_of(k, n) ==
        KvAcceleratorApp::index_of(key_a, n)) {
      key_b = k;
      break;
    }
  }
  ASSERT_NE(key_b, 0u);
  backend_->put(key_a, 111);
  backend_->put(key_b, 222);  // overwrites the slot with B
  send_request(KvOp::kGet, key_a);  // slot now holds B: must miss to CPU
  ASSERT_EQ(replies_.size(), 1u);
  EXPECT_EQ(replies_[0].op, KvOp::kResponse);
  EXPECT_EQ(replies_[0].value, 111u) << "authoritative map still serves A";
  EXPECT_EQ(accelerator_->stats().misses_to_backend, 1u);
}

TEST(KvLoss, LostReadsFallBackToTheBackend) {
  // h2 holds the remote table behind a lossy link; the backend is h1.
  Testbed tb;
  const auto channel = tb.controller().setup_channel(
      tb.host(2), tb.port_of(2), {.region_bytes = 1 << 16});
  tb.link_of(2).set_loss_rate(0.05, 7);
  KvAcceleratorApp accel(tb.tor(), channel, {.backend_port = tb.port_of(1)});
  KvBackend backend(tb.host(1),
                    ChannelController::region_bytes(tb.host(2), channel));
  constexpr std::uint64_t kGets = 200;
  for (std::uint64_t key = 0; key < kGets; ++key) backend.put(key, key + 1000);

  std::uint64_t replies = 0;
  std::map<std::uint64_t, std::uint64_t> answers;  // key -> value
  tb.host(0).set_app([&](net::Packet&& p, int) {
    const std::size_t overhead = net::kEthernetHeaderBytes +
                                 net::kIpv4HeaderBytes + net::kUdpHeaderBytes;
    if (auto reply = KvRequest::parse(p.bytes().subspan(overhead))) {
      ++replies;
      answers[reply->key] = reply->value;
    }
  });
  for (std::uint64_t key = 0; key < kGets; ++key) {
    tb.sim().schedule_at(sim::microseconds(2 * key), [&tb, key]() {
      tb.host(0).send(net::build_udp_packet(
          tb.host(0).mac(), tb.host(1).mac(), tb.host(0).ip(), tb.host(1).ip(),
          5555, kKvUdpPort, KvRequest{KvOp::kGet, key, 0}.serialize()));
    });
  }
  tb.sim().run();

  // Every GET is answered with its value: a lost READ or READ response
  // sends the held GET to the backend instead of keeping it forever.
  const auto& st = accel.stats();
  EXPECT_GT(st.lost_reads, 0u);
  EXPECT_EQ(st.answered_from_remote + st.misses_to_backend + st.lost_reads,
            kGets);
  EXPECT_EQ(replies, kGets);
  ASSERT_EQ(answers.size(), kGets);
  for (const auto& [key, value] : answers) EXPECT_EQ(value, key + 1000);
}

}  // namespace
}  // namespace xmem::apps
