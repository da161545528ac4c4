// Tests for the remote trace recorder: record round trip, field
// fidelity, batching arithmetic, ring wrap, capture mode, the
// zero-CPU property, and construction-time config checks.
#include <gtest/gtest.h>

#include <stdexcept>

#include "control/testbed.hpp"
#include "core/trace_recorder.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"

namespace xmem::core {
namespace {

using control::ChannelController;
using control::Testbed;

TEST(TraceRecord, SerializeParseRoundTrip) {
  TraceRecord rec;
  rec.timestamp_ns = 123456789;
  rec.src_ip = net::Ipv4Address(10, 0, 0, 1);
  rec.dst_ip = net::Ipv4Address(10, 0, 0, 2);
  rec.src_port = 7000;
  rec.dst_port = 9000;
  rec.protocol = 17;
  rec.tos = 0xb8;
  rec.frame_len = 1500;
  rec.queue_depth = 424242;
  rec.sequence = 7;

  std::vector<std::uint8_t> buf;
  net::ByteWriter w(buf);
  rec.serialize(w);
  ASSERT_EQ(buf.size(), TraceRecord::kBytes);
  net::ByteReader r(buf);
  EXPECT_EQ(TraceRecord::parse(r), rec);
}

class TraceRecorderTest : public ::testing::Test {
 protected:
  TraceRecorderTest() {
    channel_ = tb_.controller().setup_channel(tb_.host(2), tb_.port_of(2),
                                              {.region_bytes = 64 * 32});
  }

  TraceRecorderPrimitive& make(TraceRecorderPrimitive::Config cfg) {
    recorder_ = std::make_unique<TraceRecorderPrimitive>(tb_.tor(), channel_, cfg);
    return *recorder_;
  }

  void send_packets(std::uint64_t count, std::uint16_t src_port = 7000) {
    host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(1).mac(),
                                          .dst_ip = tb_.host(1).ip(),
                                          .src_port = src_port,
                                          .dst_port = 9000,
                                          .frame_size = 200,
                                          .rate = sim::gbps(5),
                                          .packet_limit = count});
    gen.start();
    tb_.sim().run();
  }

  std::vector<TraceRecord> log(const TraceRecorderPrimitive& rec) {
    return TraceRecorderPrimitive::read_log(
        ChannelController::region_bytes(tb_.host(2), channel_),
        rec.stats().records_captured, rec.log_capacity());
  }

  Testbed tb_;
  control::RdmaChannelConfig channel_;
  std::unique_ptr<TraceRecorderPrimitive> recorder_;
};

TEST_F(TraceRecorderTest, RecordsLandWithCorrectFields) {
  auto& rec = make({.batch = 4});
  send_packets(12);
  rec.flush();
  tb_.sim().run();

  EXPECT_EQ(rec.stats().records_captured, 12u);
  const auto records = log(rec);
  ASSERT_EQ(records.size(), 12u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sequence, i);
    EXPECT_EQ(records[i].src_ip, tb_.host(0).ip());
    EXPECT_EQ(records[i].dst_ip, tb_.host(1).ip());
    EXPECT_EQ(records[i].src_port, 7000);
    EXPECT_EQ(records[i].frame_len, 200);
    if (i > 0) {
      EXPECT_GE(records[i].timestamp_ns, records[i - 1].timestamp_ns);
    }
  }
  EXPECT_EQ(tb_.host(2).cpu_packets(), 0u) << "capture costs zero CPU";
}

TEST_F(TraceRecorderTest, BatchingDividesWrites) {
  auto& rec = make({.batch = 8});
  send_packets(32);
  tb_.sim().run();
  EXPECT_EQ(rec.stats().writes_sent, 4u) << "32 records / batch 8";
  EXPECT_EQ(rec.unflushed(), 0u);

  // Per-packet mode for comparison.
  auto channel2 = tb_.controller().setup_channel(tb_.host(2), tb_.port_of(2),
                                                 {.region_bytes = 64 * 32});
  TraceRecorderPrimitive per_packet(tb_.tor(), channel2, {.batch = 1});
  send_packets(16, 7001);
  EXPECT_EQ(per_packet.stats().writes_sent, 16u);
}

TEST_F(TraceRecorderTest, FlushShipsPartialBatch) {
  auto& rec = make({.batch = 16});
  send_packets(5);
  EXPECT_EQ(rec.stats().writes_sent, 0u);
  EXPECT_EQ(rec.unflushed(), 5u);
  rec.flush();
  tb_.sim().run();
  EXPECT_EQ(rec.stats().writes_sent, 1u);
  EXPECT_EQ(log(rec).size(), 5u);
}

TEST_F(TraceRecorderTest, RingWrapKeepsNewestRecords) {
  // Capacity is 64 records; send 100 and expect the last 64, oldest
  // first.
  auto& rec = make({.batch = 4});
  EXPECT_EQ(rec.log_capacity(), 64u);
  send_packets(100);
  rec.flush();
  tb_.sim().run();

  const auto records = log(rec);
  ASSERT_EQ(records.size(), 64u);
  EXPECT_EQ(records.front().sequence, 36u);  // 100 - 64
  EXPECT_EQ(records.back().sequence, 99u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sequence, records[i - 1].sequence + 1);
  }
}

TEST_F(TraceRecorderTest, CaptureModeStopsWhenFull) {
  auto& rec = make({.mode = TraceRecorderPrimitive::Mode::kCapture,
                    .batch = 4});
  send_packets(100);
  tb_.sim().run();
  EXPECT_EQ(rec.stats().records_captured, 64u);
  EXPECT_EQ(rec.stats().dropped_log_full, 36u);
  const auto records = log(rec);
  ASSERT_EQ(records.size(), 64u);
  EXPECT_EQ(records.front().sequence, 0u) << "capture keeps the head";
}

TEST_F(TraceRecorderTest, QueueDepthStamped) {
  auto& rec = make({.batch = 1, .watch_queue_port = tb_.port_of(1)});
  // Two line-rate senders (h0 and the memory server doubling as a
  // sender) oversubscribe h1's port so its queue visibly builds.
  host::CbrTrafficGen g1(tb_.host(0), {.dst_mac = tb_.host(1).mac(),
                                       .dst_ip = tb_.host(1).ip(),
                                       .frame_size = 1500,
                                       .rate = sim::gbps(40),
                                       .packet_limit = 40});
  host::CbrTrafficGen g2(tb_.host(2), {.dst_mac = tb_.host(1).mac(),
                                       .dst_ip = tb_.host(1).ip(),
                                       .src_port = 7007,
                                       .frame_size = 1500,
                                       .rate = sim::gbps(40),
                                       .packet_limit = 40});
  g1.start();
  g2.start();
  tb_.sim().run();
  rec.flush();
  tb_.sim().run();
  const auto records = log(rec);
  ASSERT_FALSE(records.empty());
  std::uint32_t max_depth = 0;
  for (const auto& r : records) max_depth = std::max(max_depth, r.queue_depth);
  EXPECT_GT(max_depth, 0u) << "queue occupancy must appear in records";
}

TEST_F(TraceRecorderTest, FilterExcludesTraffic) {
  auto& rec = make({.batch = 1,
                    .filter = [](const net::Packet& p) {
                      auto t = net::extract_five_tuple(p);
                      return t && t->src_port == 7005;
                    }});
  send_packets(10, 7000);
  send_packets(4, 7005);
  EXPECT_EQ(rec.stats().records_captured, 4u);
}

TEST_F(TraceRecorderTest, RejectsInvalidConfigsAtConstruction) {
  EXPECT_THROW(TraceRecorderPrimitive(tb_.tor(), channel_, {.batch = 0}),
               std::invalid_argument);
  // One batch ships as one WRITE, so it must fit one path MTU.
  const std::size_t too_many = channel_.path_mtu / TraceRecord::kBytes + 1;
  EXPECT_THROW(TraceRecorderPrimitive(tb_.tor(), channel_, {.batch = too_many}),
               std::invalid_argument);
  // A region smaller than one record leaves no slot; ring mode would
  // divide by zero on the first packet.
  const auto tiny = tb_.controller().setup_channel(
      tb_.host(2), tb_.port_of(2), {.region_bytes = TraceRecord::kBytes - 1});
  EXPECT_THROW(TraceRecorderPrimitive(tb_.tor(), tiny, {.batch = 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace xmem::core
